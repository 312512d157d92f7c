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


def _validate_queue(queue, network: Network) -> None:
    for job in queue:
        if job.required_qpus < 1:
            raise SchedulingError(job.id, "requires fewer than one QPU")
        if job.required_qpus > network.n_nodes:
            raise SchedulingError(job.id, f"requires {job.required_qpus} QPUs but the "
                                  f"network has {network.n_nodes}")


class JobTable(NamedTuple):
    """A cell's jobs, read by each of its schedulers: the flat job list, queue
    after queue in arrival order; each queue's count; int64 columns of job id,
    demand and price class, numbered by ``classes``; and a memo of stage plans."""

    jobs: list
    counts: np.ndarray
    ids: np.ndarray
    need: np.ndarray
    cls: np.ndarray
    classes: dict
    plans: dict


def job_table(queues, network: Network, exec_params: ExecModelParams) -> JobTable:
    """The job table of ``queues``; a new price key is a new class, a row of -1
    (unfilled) entries in ``network``'s dense span table for ``exec_params``."""
    jobs = [job for queue in queues for job in queue]
    classes, dense = network._span_prices.get(exec_params.key) or (
        {}, np.zeros((0, network.n_nodes), dtype=np.int64))
    cls = np.array([classes.setdefault(job.price_key, len(classes)) for job in jobs], np.intp)
    if len(classes) > len(dense):
        dense = np.vstack((dense, np.full((len(classes) - len(dense), network.n_nodes), -1)))
    network._span_prices[exec_params.key] = classes, dense
    return JobTable(jobs, np.array([len(queue) for queue in queues], np.int64),
                    np.array([job.id for job in jobs], np.int64),
                    np.array([job.required_qpus for job in jobs], np.int64), cls, classes, {})


def _checked(core):
    """``core``, a job table's scheduler, as a scheduler of checked queues."""
    @functools.wraps(core)
    def scheduler(queues, network, exec_params, *args, **kwargs) -> Cell:
        for queue in queues:
            _validate_queue(queue, network)
        return core(job_table(queues, network, exec_params), network, exec_params, *args, **kwargs)
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
    counts, order = table.counts, np.arange(len(table.jobs))
    if by_epr:  # by (non-local gates, estimate, id) within each queue
        gates = np.array([job.nonlocal_gates for job in table.jobs], dtype=np.int64)
        estimate = np.array([job.est_exec_ns for job in table.jobs], dtype=np.int64)
        order = np.lexsort((table.ids, estimate, gates, np.arange(len(counts)).repeat(counts)))
    need = table.need[order]
    if (wide := need > network.n_nodes).any():  # it would never fit a stage
        _validate_queue([table.jobs[order[wide.argmax()]]], network)
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
    it in its stage, priced by (price class, D_k) in the dense span table;
    with ``node_selection`` a walk picks the free subset with the best links.
    D_k + d_k above the node count is a SchedulingError."""
    classes, dense = network._span_prices.get(exec_params.key, (None, None))
    if classes is not table.classes:
        raise ValueError("the job table's price classes are not this network's")
    ids, need = table.ids[order], table.need[order]
    sizes = np.append(starts[1:], len(order)) - starts
    placed = need.cumsum() - need
    first = placed - placed[starts].repeat(sizes)
    if (over := first + need > network.n_nodes).any():
        raise SchedulingError(int(ids[over.argmax()]), "stage exceeds free nodes")
    prices = network._price_tables.setdefault(exec_params.key, {})
    if node_selection:
        everyone, free, nodes, duration = (1 << network.n_nodes) - 1, 0, [], []
        for k, before in zip(order.tolist(), first.tolist()):  # before = 0: a stage opens
            job, free = table.jobs[k], free if before else everyone
            picked, free = network._selection_memo.get((free, job.required_qpus)) or _pick(
                job, free, network, True)
            nodes.append(picked)
            duration.append(_price(job, picked, prices, network, exec_params))
        first, duration = None, np.array(duration, dtype=np.int64)
    else:
        nodes, cls = None, table.cls[order]
        for k in np.flatnonzero(dense[cls, first] < 0).tolist():
            if dense[cls[k], f := int(first[k])] < 0:  # not filled by a job before it
                dense[cls[k], f] = _price(table.jobs[order[k]], tuple(range(f, f + int(need[k]))),
                                          prices, network, exec_params)
        duration = dense[cls, first]
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
    jobs, ids, ends = table.jobs, table.ids.tolist(), table.counts.cumsum().tolist()
    rows, starts = [], []  # the placement order, and where each stage opens in it
    for lo, hi in zip([0, *ends], ends):  # a queue's rows
        ascending = all(a < b for a, b in itertools.pairwise(ids[lo:hi]))
        remaining = list(range(lo, hi))
        while remaining:
            pool = remaining[:ENUMERATION_CAP]
            chosen = _max_demand_subset(list(map(jobs.__getitem__, pool)), network.n_nodes,
                                        ascending)
            if not chosen:  # every job of the pool is wider than the network
                _validate_queue([jobs[pool[0]]], network)
            starts.append(len(rows))
            rows += [row for k, row in enumerate(pool) if chosen >> k & 1]
            remaining = [row for k, row in enumerate(remaining) if not chosen >> k & 1]
    return _place_stages(table, np.array(rows, dtype=np.intp), np.array(starts, dtype=np.intp),
                         table.counts, network, exec_params)


def _max_demand_subset(pool, n_nodes: int, ascending: bool = False) -> int:
    """Bit mask (bit k: ``pool[k]``) of the subset with maximal demand <=
    ``n_nodes``, then minimal mean estimate, sorted ids and mask. Demands
    are at least 1, so a pool that fits whole is its own answer; any other
    is searched by ``_extend``. ``ascending``: the pool's ids strictly ascend.
    Integer estimates sum exactly in a double, so each mean is bit-exact.
    """
    n = len(pool)
    demand, est, reach, total = [0] * n, [0] * n, [0] * n, 0  # reach[k]: pool[k:]'s demand
    for k in range(n - 1, -1, -1):
        demand[k], est[k] = pool[k].required_qpus, pool[k].est_exec_ns
        total = reach[k] = total + demand[k]
    if total <= n_nodes:
        return (1 << n) - 1
    best = [0, math.inf, 0]  # demand, mean, mask
    _extend(None if ascending else [j.id for j in pool], demand, est, reach, n_nodes, best,
            0, 0, 0, 0, 0)
    return best[2]


def _extend(ids, demand, est, reach, n_nodes: int, best: list,
            start: int, used: int, total: int, count: int, mask: int) -> None:
    """Depth-first search from the subset ``mask`` (``count`` jobs, demand
    ``used``, estimate sum ``total``) over the jobs from ``start`` on, cut
    where the rest of the pool cannot reach the demand in ``best``. Subsets
    come in lexicographic order of their indices, the order of their sorted
    ids when those ascend (``ids`` None), so a tie then keeps the incumbent."""
    for k in range(start, len(demand)):
        if used + reach[k] < best[0]:
            break
        d = used + demand[k]
        if d > n_nodes:
            continue
        sub_total, sub_mask = total + est[k], mask | 1 << k
        if d >= best[0]:
            mean = sub_total / (count + 1)
            if d > best[0] or mean < best[1] or mean == best[1] and ids is not None and (
                    _tie_key(ids, sub_mask) < _tie_key(ids, best[2])):
                best[:] = d, mean, sub_mask
        if d < n_nodes:
            _extend(ids, demand, est, reach, n_nodes, best, k + 1, d, sub_total, count + 1,
                    sub_mask)


def _tie_key(ids, mask: int) -> tuple[list, int]:
    return sorted(i for k, i in enumerate(ids) if mask >> k & 1), mask


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
    picks = network._lowest_picks
    ids, placed, starts, finishes, stages = columns = [], [], [], [], []
    add_id, add_nodes, add_start, add_finish, add_stage = (c.append for c in columns)
    ends = table.counts.cumsum().tolist()
    for lo, hi in zip([0, *ends], ends):  # every job of a queue is placed once
        avail = [0] * network.n_nodes
        remaining = table.jobs[lo:hi]
        stage, t, free, n_free = 0, 0, (1 << network.n_nodes) - 1, network.n_nodes
        while remaining:
            if stage:
                need = min([job.required_qpus for job in remaining])
                if need > network.n_nodes:  # every job left is wider than the network
                    _validate_queue(remaining, network)
                t = sorted(avail)[need - 1]
                free = n_free = 0
                for n, release in enumerate(avail):
                    if release <= t:
                        free |= 1 << n
                        n_free += 1
            deferred: list = []
            for job in remaining:
                if job.required_qpus > n_free:
                    deferred.append(job)
                    continue
                n_free -= job.required_qpus
                nodes, free = picks.get((free, job.required_qpus)) or _pick(
                    job, free, network, False)
                finish = t + _price(job, nodes, prices, network, exec_params)
                add_id(job.id)
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
    the Cell and skipping ``_validate_queue``; a job wider than the network
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
