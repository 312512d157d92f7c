"""Slot schedulers: FIFO, LIST, Resource-Prioritize, EPR (with optional
node selection), and ASAP.

All schedulers consume the node-blind execution estimate for their
decisions, but the emitted schedules record actual durations computed
from the links of the chosen nodes. Except for ASAP, scheduling proceeds
in synchronized stages: every job of a stage starts together and the next
stage begins once the whole stage has finished. ASAP releases nodes
asynchronously as jobs complete.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from . import execmodel
from .execmodel import ExecModelParams
from .netmodel import Network

SCHEDULER_NAMES = ("fifo", "list", "resource", "epr", "epr-ns", "asap")
ENUMERATION_CAP = 12  # resource searches subsets of at most this many queued jobs
SUBSET_CHUNK = 1 << 14  # the most (pool, subset, position) entries resource gathers at once
MAX_SELECTION_SUBSETS = 250_000  # C(20, 10) = 184 756 fits: a 15 MB array of subsets


class SchedulingError(Exception):
    """A job (None: some queued job) cannot be scheduled on the network."""

    def __init__(self, job_id, message: str):
        super().__init__(message if job_id is None else f"job {job_id}: {message}")
        self.job_id = job_id


class Cell(NamedTuple):
    """Every scheduler's output: a cell's placements as flat int64 columns,
    queue after queue, each queue's in placement order: job id, first node,
    width, start, finish and stage; each queue's placement count; and the node
    tuples, or None where job k holds the ``width[k]`` ids from ``first[k]`` on."""

    job_id: np.ndarray
    first: np.ndarray | None
    width: np.ndarray
    start_ns: np.ndarray
    finish_ns: np.ndarray
    stage_index: np.ndarray
    counts: np.ndarray
    nodes: list | None


def _check_demand(ids, need, network: Network) -> None:
    """The queue check: a SchedulingError for the first job, in the order
    given, that needs fewer than one QPU or more than the network has."""
    need = np.asarray(need, np.int64)
    if (bad := (need < 1) | (need > network.n_nodes)).any():
        k = int(bad.argmax())
        raise SchedulingError(int(ids[k]), "requires fewer than one QPU" if need[k] < 1 else
                              f"requires {need[k]} QPUs but the network has {network.n_nodes}")


class Catalog(tuple):
    """Jobs in catalog order with the tables their job tables gather from,
    built with them for one network and ``ExecModelParams``: int64 columns of
    id, demand, estimate, non-local gates and price class (a price key's
    number), and the read-only ``spans``, by (class, first node) the price on
    consecutive ids, -1 where no job of the class fits. Block a runs on node
    first + a, so one job of a class's least demand prices its row."""

    def __new__(cls, jobs, network: Network, params: ExecModelParams):
        catalog, classes, least, n = super().__new__(cls, jobs), {}, {}, network.n_nodes
        for job in catalog:  # number the price keys; keep each class's narrowest job that fits
            c = classes.setdefault(job.price_key, len(classes))
            if 1 <= job.required_qpus < least.get(c, (n + 1,))[0]:
                least[c] = job.required_qpus, job
        catalog.ids, catalog.need, catalog.est, catalog.gates = (
            np.array([getattr(job, f) for job in catalog], np.int64)
            for f in ("id", "required_qpus", "est_exec_ns", "nonlocal_gates"))
        catalog.cls = np.array([classes[job.price_key] for job in catalog], np.intp)
        rows, prices = [[-1] * n for _ in classes], network._price_tables.setdefault(params.key, {})
        for c, (d, job) in least.items():
            rows[c][:n - d + 1] = [_price(job, tuple(range(f, f + d)), prices, network, params)
                                   for f in range(n - d + 1)]
        catalog.spans = np.array(rows, np.int64).reshape(len(classes), n)
        catalog.spans.flags.writeable = False
        return catalog


class JobTable(NamedTuple):
    """A cell's jobs, read by each of its schedulers: their catalog; each
    job's catalog row, queue after queue in arrival order; each queue's count;
    the rows' columns of id, demand, estimate, gates and class; a plan memo."""

    catalog: Catalog
    rows: np.ndarray
    counts: np.ndarray
    ids: np.ndarray
    need: np.ndarray
    est: np.ndarray
    gates: np.ndarray
    cls: np.ndarray
    plans: dict


def job_table(catalog: Catalog, rows, counts, ids) -> JobTable:
    """The job table of queues of ``counts`` jobs that hold, queue after
    queue, the ``catalog``'s ``rows`` under ``ids`` (int arrays): its columns,
    gathered."""
    return JobTable(catalog, rows, counts, ids, catalog.need[rows], catalog.est[rows],
                    catalog.gates[rows], catalog.cls[rows], {})


def queue_table(queues, network: Network, exec_params: ExecModelParams) -> JobTable:
    """The job table of ``queues``, lists of jobs, whose flat list is the catalog."""
    catalog = Catalog([job for queue in queues for job in queue], network, exec_params)
    return job_table(catalog, np.arange(len(catalog)),
                     np.array([len(queue) for queue in queues], np.int64), catalog.ids)


def _checked(core):
    """``core``, a job table's scheduler, as a scheduler of checked queues."""
    @functools.wraps(core)
    def scheduler(queues, network, exec_params, *args, **kwargs) -> Cell:
        table = queue_table(queues, network, exec_params)
        _check_demand(table.ids, table.need, network)
        return core(table, network, exec_params, *args, **kwargs)
    return scheduler


def _stage_plan(table: JobTable, network: Network, strict: bool, by_epr: bool = False) -> tuple:
    """The placement order of the table's rows and the offsets in it where
    stages open, each queue taken in arrival order or ``by_epr``. Each job
    joins its queue's first stage with room for it, as first-fit bins do;
    under ``strict`` only the last stage, so a stage closes at the first job
    that does not fit. The queues step in lockstep, one numpy step a queue
    position, longest first, so the live ones are a prefix of the (queues x
    stages) room matrix. The table keeps each plan: EPR and EPR-NS share one."""
    if (plan := table.plans.get((strict, by_epr))) is not None:
        return plan
    counts, order = table.counts, np.arange(len(table.rows))
    if by_epr:  # by (non-local gates, estimate, id) within each queue
        order = np.lexsort((table.ids, table.est, table.gates,
                            np.arange(len(counts)).repeat(counts)))
    need = table.need[order]
    if (need > network.n_nodes).any():  # it would never fit a stage
        _check_demand(table.ids[order], need, network)
    position = np.arange(len(need)) - (counts.cumsum() - counts).repeat(counts)
    steps = np.lexsort((-counts.repeat(counts), position))  # then longest, then first queue
    longest = int(counts.max(initial=0))
    room = np.full((len(counts), longest), network.n_nodes)
    last, rows = np.zeros(len(counts), dtype=np.intp), np.arange(len(counts))
    stage, demand, at = np.empty_like(steps), need[steps], 0
    for k in np.bincount(position, minlength=longest).tolist():
        d = demand[at:at + k]
        if strict:
            bins = last[:k] = last[:k] + (room[rows[:k], last[:k]] < d)
        else:
            bins = (room[:k] >= d[:, None]).argmax(axis=1)
        room[rows[:k], bins] -= d
        stage[at:at + k], at = bins, at + k
    key = np.arange(len(counts)).repeat(counts) * longest
    key[steps] += stage
    placed = key.argsort(kind="stable")
    table.plans[strict, by_epr] = order[placed], np.flatnonzero(np.diff(key[placed], prepend=-1))
    return table.plans[strict, by_epr]


def _place_stages(table: JobTable, order: np.ndarray, starts: np.ndarray, counts,
                  network: Network, exec_params: ExecModelParams,
                  node_selection: bool = False) -> Cell:
    """Barrier-staged placement of the table's rows at ``order``, queues of
    ``counts`` (int64) jobs in turn, a stage opening at each offset in
    ``starts``, each queue's first job among them. A stage starts when its
    queue's previous one ends, or at 0, on every node, and lasts its longest
    job: job k takes ids D_k .. D_k + d_k - 1, D_k the demand placed before
    it in its stage, priced by (price class, D_k) in the catalog's spans;
    with ``node_selection`` a walk picks the free subset with the best links.
    D_k + d_k above the node count is a SchedulingError."""
    ids, need = table.ids[order], table.need[order]
    sizes = np.append(starts[1:], len(order)) - starts
    placed = need.cumsum() - need
    first = placed - placed[starts].repeat(sizes)
    if (over := first + need > network.n_nodes).any():
        raise SchedulingError(int(ids[over.argmax()]), "stage exceeds free nodes")
    if node_selection:  # subset prices stay a lazy per-network memo
        prices = network._price_tables.setdefault(exec_params.key, {})
        everyone, free, nodes, duration = (1 << network.n_nodes) - 1, 0, [], []
        for row, d, before in zip(table.rows[order].tolist(), need.tolist(), first.tolist()):
            job, free = table.catalog[row], free if before else everyone  # 0: a stage opens
            picked, free = network._selection_memo.get((free, d)) or _pick(
                job, free, network, True)
            nodes.append(picked)
            duration.append(_price(job, picked, prices, network, exec_params))
        first, duration = None, np.array(duration, dtype=np.int64)
    else:
        nodes, duration = None, table.catalog.spans[table.cls[order], first]
    longest = np.maximum.reduceat(duration, starts)
    # each queue's first stage, and each stage's queue's first stage
    opening = starts.searchsorted(counts.cumsum() - counts)
    base = opening.repeat(np.append(opening[1:], len(starts)) - opening)
    begin = longest.cumsum() - longest
    start = (begin - begin[base]).repeat(sizes)
    return Cell(ids, first, need, start, start + duration,
                (np.arange(len(starts)) - base).repeat(sizes), counts, nodes)


def _price(job, nodes: tuple[int, ...], prices: dict, network: Network,
           exec_params: ExecModelParams) -> int:
    """``job``'s duration on ``nodes`` from the flat price table ``prices``,
    filled by one exec-model call on a miss."""
    duration = prices.get((job.price_key, nodes))
    if duration is None:
        duration = prices[job.price_key, nodes] = execmodel.estimate_execution_time(
            job, nodes, network, exec_params)
    return duration


def _pick(job, free: int, network: Network, node_selection: bool
          ) -> tuple[tuple[int, ...], int]:
    """Fill the pick table entry for ``job``'s demand d on the free-node bit
    mask ``free`` and return it: the ascending nodes picked and the mask left
    free. With ``node_selection`` the pick is ``select_nodes``' answer, which
    it stores in ``_selection_memo``; without, the lowest d free ids, stored
    in ``_lowest_picks``. A mask of fewer than d nodes is never stored."""
    d = job.required_qpus
    if free.bit_count() < d:
        raise SchedulingError(job.id, "stage exceeds free nodes")
    if node_selection:
        select_nodes([n for n in range(network.n_nodes) if free >> n & 1], d, network)
        return network._selection_memo[free, d]
    nodes, rest = [], free
    for _ in range(d):
        low = rest & -rest
        nodes.append(low.bit_length() - 1)
        rest -= low
    hit = network._lowest_picks[free, d] = tuple(nodes), rest
    return hit


@_checked
def fifo_schedule(table: JobTable, network: Network, exec_params: ExecModelParams) -> Cell:
    """Strict arrival order; consecutive jobs share a stage while they fit.

    The stage closes at the first job that does not fit the remaining free
    nodes, and the next stage starts once every job of the current stage
    has finished.
    """
    return _place_stages(table, *_stage_plan(table, network, True), table.counts, network,
                         exec_params)


@_checked
def list_schedule(table: JobTable, network: Network, exec_params: ExecModelParams) -> Cell:
    """FIFO ordering, but any later job that fits the free nodes joins the
    stage; the stage closes when no remaining job fits."""
    return _place_stages(table, *_stage_plan(table, network, False), table.counts, network,
                         exec_params)


@_checked
def resource_prioritize_schedule(table: JobTable, network: Network,
                                 exec_params: ExecModelParams) -> Cell:
    """Each round runs the job subset with maximal total QPU demand.

    Ties are broken by smaller mean estimated time, then by the
    lexicographically smallest job-id set. Subsets are enumerated over the
    first ``ENUMERATION_CAP`` remaining jobs (arrival order), which bounds
    the exponential search.
    """
    return _place_stages(table, *_resource_plan(table, network), table.counts, network,
                         exec_params)


def _resource_plan(table: JobTable, network: Network) -> tuple:
    """The placement order of the table's rows and the offsets in it where
    stages open, every queue in lockstep, a round at a time. A queue's row of
    ``left`` holds its rows left, then ``rows`` (a job too wide to fit), then
    ``rows + 1`` (no job), which position -1 of a subset reads. A round groups
    the pools (a row's first ``cap``) by m, the most of their smallest demands
    that fit, and sums demand and estimate over each pool's subsets of at most
    m jobs in lexicographic order: where ids ascend, the first best is the
    (sorted ids, mask) least. Estimate sums are exact doubles below 2**53."""
    n, cap, rows, counts = network.n_nodes, ENUMERATION_CAP, len(table.rows), table.counts
    if (table.need > n).any():  # it would never fit a stage
        _check_demand(table.ids, table.need, network)
    if rows and (top := int(table.est.max())) * cap >= 2 ** 53:
        raise ValueError(f"job {table.ids[table.est.argmax()]}: estimate {top} ns times {cap} "
                         "reaches 2**53, where resource's mean estimates are no longer exact")
    queue, width = np.arange(len(counts)).repeat(counts), max(int(counts.max(initial=0)), cap)
    left = np.full((len(counts), width + 1), [rows] * width + [rows + 1])
    left[queue, np.arange(rows) - (counts.cumsum() - counts).repeat(counts)] = np.arange(rows)
    need, est = np.append(table.need, (n + 1, 0)), np.append(table.est, (0, 0)).astype(float)
    falls = queue[1:][(np.diff(table.ids) <= 0) & (np.diff(queue) == 0)]  # ids not ascending
    mixed, key, r = np.isin(queue, falls), queue * rows, 0  # key: queue, then stage r
    while len(left := left[left[:, 0] < rows]):
        fit = (np.sort(need[left[:, :cap]]).cumsum(axis=1) <= n).sum(axis=1)
        left, fit = left[by := fit.argsort(kind="stable")], fit[by]
        demand, cost, lo = need[left], est[left], 0
        while lo < len(left):  # a chunk of the pools of one m
            index, member, count = _subsets(m := int(fit[lo]))
            hi = min(lo + max(1, SUBSET_CHUNK // index.size), int(fit.searchsorted(m + 1)))
            total, spent = demand[lo:hi, index].sum(axis=1), cost[lo:hi, index].sum(axis=1)
            slack = np.subtract(n, total, out=total).view(np.uint64)  # too wide: above any fit
            np.copyto(spent, np.inf, where=slack != slack.min(axis=1, keepdims=True))
            best = np.divide(spent, count, out=spent) == spent.min(axis=1, keepdims=True)
            win = best.argmax(axis=1)  # the first: the least sorted ids where they ascend
            for i in np.flatnonzero(mixed[left[lo:hi, 0]]).tolist() if falls.size else ():
                ids = table.ids[left[lo + i, :cap].clip(max=rows - 1)]  # ties hold jobs only
                win[i] = min(np.flatnonzero(best[i]).tolist(), key=lambda k: (
                    sorted(ids[member[k]].tolist()), member[k, ::-1].tolist()))
            key[left[lo:hi, :cap][member[win]]] += r
            left[lo:hi, :cap][member[win]], lo = rows, hi
        left[:, :width].sort(axis=1)
        r += 1
    placed = key.argsort(kind="stable")
    return placed, np.flatnonzero(np.diff(key[placed], prepend=-1))


@functools.cache
def _subsets(m: int) -> tuple:
    """The non-empty subsets of at most ``m`` of a pool's ``ENUMERATION_CAP``
    positions in lexicographic order: their (m, K) int8 positions, padded
    with -1; their (K, cap) bool membership; and their uint8 sizes. Built
    from the bit masks, with no Python object per subset."""
    cap, bit = ENUMERATION_CAP, np.arange(ENUMERATION_CAP, dtype=np.int16)
    member = (np.arange(1, 1 << cap, dtype=np.int16)[:, None] >> bit & 1).astype(bool)
    member = member[member.sum(axis=1) <= m]
    index = np.sort(np.where(member, bit.astype(np.int8), cap), axis=1)[:, :m]
    index[index == cap] = -1  # the padding sorts first, as a prefix does
    order = np.lexsort(index.T[::-1])
    return index[order].T, member[order], member[order].sum(axis=1, dtype=np.uint8)


def check_selection_size(n_free: int, k: int) -> None:
    """Raise ValueError if picking ``k`` of ``n_free`` nodes would score more
    than ``MAX_SELECTION_SUBSETS`` subsets: node selection holds them all."""
    count = math.comb(n_free, k)
    if count > MAX_SELECTION_SUBSETS:
        raise ValueError(f"node selection of {k} of {n_free} nodes would score C({n_free}, "
                         f"{k}) = {count} subsets, above {MAX_SELECTION_SUBSETS}")


def select_nodes(free_nodes, k: int, network: Network) -> tuple[int, ...]:
    """The k free nodes whose internal links have minimum total weight.

    Weight of a pair is its state delay. Ties resolve to the
    lexicographically smallest id set; k = 1 returns the lowest free id.
    Answers are memoised on the network in ``_selection_memo``, keyed by
    (free-node bit mask, k), each with the mask of the nodes left free.
    """
    free_sorted = tuple(sorted(free_nodes))
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(free_sorted) < k:
        raise ValueError(f"need {k} free nodes, only {len(free_sorted)} available")
    mask = sum(1 << n for n in free_sorted)  # a negative id raises ValueError
    if mask.bit_count() < len(free_sorted) or mask >> network.n_nodes:
        raise ValueError(f"free nodes must be distinct ids below {network.n_nodes}, "
                         f"got {free_sorted}")
    memo = network._selection_memo
    hit = memo.get((mask, k))
    if hit is None:
        check_selection_size(len(free_sorted), k)
        nodes = _min_weight_subset(free_sorted, k, network.delay_ns)
        hit = memo[mask, k] = nodes, mask - sum(1 << n for n in nodes)
    return hit[0]


def _min_weight_subset(free_sorted, k: int, delay_ns) -> tuple[int, ...]:
    # Every k-subset at once, in lexicographic order. Pair weights are added
    # one column at a time in itertools.combinations(combo, 2) order, so each
    # total equals a left-to-right float sum over the subset's pairs; argmin
    # keeps the first, i.e. lexicographically smallest, minimum.
    n = len(delay_ns)
    combos = np.fromiter(itertools.chain.from_iterable(itertools.combinations(free_sorted, k)),
                         dtype=np.intp).reshape(-1, k)
    delay = np.array(delay_ns).ravel()
    weight = np.zeros(len(combos))
    for i, j in itertools.combinations(range(k), 2):
        weight += delay.take(combos[:, i] * n + combos[:, j])
    return tuple(combos[np.argmin(weight)].tolist())


@_checked
def epr_schedule(
    table: JobTable,
    network: Network,
    exec_params: ExecModelParams,
    node_selection: bool = False,
    strict_order: bool = True,
) -> Cell:
    """Jobs sorted ascending by entangled-pair demand, scheduled in rounds.

    Under ``strict_order`` (default) a round ends at the first job that
    does not fit the free nodes; otherwise that job is skipped and the scan
    continues. With ``node_selection`` each placed job picks the free node
    subset with the best internal links instead of the lowest ids.
    """
    return _place_stages(table, *_stage_plan(table, network, strict_order, by_epr=True),
                         table.counts, network, exec_params, node_selection)


@_checked
def asap_schedule(table: JobTable, network: Network, exec_params: ExecModelParams) -> Cell:
    """Nodes are released asynchronously; freed nodes go to the first
    pending jobs (arrival order) that fit them.

    Each round starts at the earliest release time at which some remaining
    job fits the nodes free by then: the k-th smallest release time, k
    being the smallest remaining demand; round 0 starts at 0 on every node.
    The round hands out the nodes free at that time in id order, counting
    them down as it places.
    """
    prices = network._price_tables.setdefault(exec_params.key, {})
    picks, catalog, rows = network._lowest_picks, table.catalog, table.rows.tolist()
    job_ids, need = table.ids.tolist(), table.need.tolist()
    ids, placed, starts, finishes, stages = columns = [], [], [], [], []
    add_id, add_nodes, add_start, add_finish, add_stage = (c.append for c in columns)
    ends = table.counts.cumsum().tolist()
    for lo, hi in zip([0, *ends], ends):  # every job of a queue is placed once
        avail, remaining = [0] * network.n_nodes, range(lo, hi)  # the table rows left
        stage, t, free, n_free = 0, 0, (1 << network.n_nodes) - 1, network.n_nodes
        while remaining:
            if stage:
                least = min([need[k] for k in remaining])
                if least > network.n_nodes:  # every job left is wider than the network
                    _check_demand(table.ids[remaining], table.need[remaining], network)
                t = sorted(avail)[least - 1]
                free = n_free = 0
                for n, release in enumerate(avail):
                    if release <= t:
                        free |= 1 << n
                        n_free += 1
            deferred: list = []
            for k in remaining:
                if (d := need[k]) > n_free:
                    deferred.append(k)
                    continue
                n_free -= d
                job = catalog[rows[k]]
                nodes, free = picks.get((free, d)) or _pick(job, free, network, False)
                finish = t + _price(job, nodes, prices, network, exec_params)
                add_id(job_ids[k])
                add_nodes(nodes)
                add_start(t)
                add_finish(finish)
                add_stage(stage)
                for n in nodes:
                    avail[n] = finish
            remaining = deferred
            stage += 1
    job_id, start, finish, stage = (np.array(c, dtype=np.int64)
                                    for c in (ids, starts, finishes, stages))
    return Cell(job_id, None, np.fromiter(map(len, placed), np.int64, len(placed)), start,
                finish, stage, table.counts, placed)


def get_scheduler(name: str):
    """A name's scheduler of a cell's (job table, network, params), returning
    the Cell and skipping the queue check; a job wider than the network
    is a SchedulingError."""
    table = {
        "fifo": fifo_schedule.__wrapped__,
        "list": list_schedule.__wrapped__,
        "resource": resource_prioritize_schedule.__wrapped__,
        "epr": epr_schedule.__wrapped__,
        "epr-ns": lambda t, n, p: epr_schedule.__wrapped__(t, n, p, node_selection=True),
        "asap": asap_schedule.__wrapped__,
    }
    if name not in table:
        raise ValueError(f"unknown scheduler: {name!r}")
    return table[name]
