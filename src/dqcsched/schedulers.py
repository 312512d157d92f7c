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


class Schedule:
    """Scheduler output as five parallel columns, one entry per job in
    placement order: job id, node tuple, start, finish and stage."""

    __slots__ = ("job_id", "assigned_nodes", "start_ns", "finish_ns", "stage_index")

    def __init__(self):
        self.job_id, self.assigned_nodes, self.start_ns, self.finish_ns, self.stage_index = (
            [], [], [], [], [])

    def __len__(self) -> int:
        return len(self.job_id)

    def makespan_ns(self) -> int:
        return max(self.finish_ns) - min(self.start_ns) if self.job_id else 0

    def appenders(self) -> tuple:
        """The ``append`` of each column, in column order: what a scheduler
        places a job through."""
        return (self.job_id.append, self.assigned_nodes.append, self.start_ns.append,
                self.finish_ns.append, self.stage_index.append)


def _validate_queue(queue, network: Network) -> None:
    for job in queue:
        if job.required_qpus < 1:
            raise SchedulingError(job.id, "requires fewer than one QPU")
        if job.required_qpus > network.n_nodes:
            raise SchedulingError(job.id, f"requires {job.required_qpus} QPUs but the "
                                  f"network has {network.n_nodes}")


def _checked(core):
    """``core``, a scheduler of (queue, network, ...), behind the queue check;
    ``get_scheduler`` hands out the unchecked ``core``, its ``__wrapped__``."""
    @functools.wraps(core)
    def scheduler(queue, network: Network, *args, **kwargs) -> Schedule:
        _validate_queue(queue, network)
        return core(queue, network, *args, **kwargs)
    return scheduler


def _place_stages(stages, network: Network, exec_params: ExecModelParams,
                  node_selection: bool = False) -> Schedule:
    """Barrier-staged placement of ``stages``, an iterable of job lists.
    A stage's jobs start together at the previous stage's end, in order,
    each on the lowest free ids or, with ``node_selection``, on the free
    subset with the best internal links. A stage ends at its latest finish,
    kept as a running max from its start since durations are never negative.
    An empty stage, which a job wider than the network leaves, is a
    SchedulingError: the stages would never end."""
    schedule = Schedule()
    add_id, add_nodes, add_start, add_finish, add_stage = schedule.appenders()
    prices = network._price_tables.setdefault(exec_params.key, {})
    picks = network._selection_memo if node_selection else network._lowest_picks
    everyone = (1 << network.n_nodes) - 1
    barrier = 0
    for stage, jobs in enumerate(stages):
        if not jobs:
            raise SchedulingError(None, f"stage {stage} is empty: a queued job is wider "
                                  f"than the network's {network.n_nodes} nodes")
        end, free = barrier, everyone  # free: node bit mask
        for job in jobs:
            nodes, free = picks.get((free, job.required_qpus)) or _pick(
                job, free, network, node_selection)
            duration = prices.get((job.price_key, nodes))
            if duration is None:
                duration = prices[job.price_key, nodes] = execmodel.estimate_execution_time(
                    job, nodes, network, exec_params)
            finish = barrier + duration
            add_id(job.id)
            add_nodes(nodes)
            add_start(barrier)
            add_finish(finish)
            add_stage(stage)
            if finish > end:
                end = finish
        barrier = end
    return schedule


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


def _in_order_stages(queue, n_nodes: int, strict_order: bool = True):
    """Job lists, one per stage, filled from ``queue`` in order: each remaining
    job that fits the free nodes joins the stage; under ``strict_order`` the
    stage closes at the first job that does not fit."""
    remaining = list(queue)
    while remaining:
        jobs, deferred, n_free = [], [], n_nodes
        for idx, job in enumerate(remaining):
            if job.required_qpus <= n_free:
                jobs.append(job)
                n_free -= job.required_qpus
            elif strict_order:
                deferred = remaining[idx:]
                break
            else:
                deferred.append(job)
        yield jobs
        remaining = deferred


@_checked
def fifo_schedule(queue, network: Network, exec_params: ExecModelParams) -> Schedule:
    """Strict arrival order; consecutive jobs share a stage while they fit.

    The stage closes at the first job that does not fit the remaining free
    nodes, and the next stage starts once every job of the current stage
    has finished.
    """
    return _place_stages(_in_order_stages(queue, network.n_nodes), network, exec_params)


@_checked
def list_schedule(queue, network: Network, exec_params: ExecModelParams) -> Schedule:
    """FIFO ordering, but any later job that fits the free nodes joins the
    stage; the stage closes when no remaining job fits."""
    return _place_stages(_in_order_stages(queue, network.n_nodes, strict_order=False),
                         network, exec_params)


@_checked
def resource_prioritize_schedule(queue, network: Network,
                                 exec_params: ExecModelParams) -> Schedule:
    """Each round runs the job subset with maximal total QPU demand.

    Ties are broken by smaller mean estimated time, then by the
    lexicographically smallest job-id set. Subsets are enumerated over the
    first ``ENUMERATION_CAP`` remaining jobs (arrival order), which bounds
    the exponential search.
    """
    ascending = all(a.id < b.id for a, b in itertools.pairwise(queue))

    def stages(remaining):
        while remaining:
            pool = remaining[:ENUMERATION_CAP]
            chosen = _max_demand_subset(pool, network.n_nodes, ascending)
            yield [job for k, job in enumerate(pool) if chosen >> k & 1]
            remaining = [j for i, j in enumerate(remaining) if not chosen >> i & 1]

    return _place_stages(stages(list(queue)), network, exec_params)


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
    queue,
    network: Network,
    exec_params: ExecModelParams,
    node_selection: bool = False,
    strict_order: bool = True,
) -> Schedule:
    """Jobs sorted ascending by entangled-pair demand, scheduled in rounds.

    Under ``strict_order`` (default) a round ends at the first job that
    does not fit the free nodes; otherwise that job is skipped and the scan
    continues. With ``node_selection`` each placed job picks the free node
    subset with the best internal links instead of the lowest ids.
    """
    remaining = sorted(queue, key=lambda j: (j.nonlocal_gates, j.est_exec_ns, j.id))
    return _place_stages(_in_order_stages(remaining, network.n_nodes, strict_order),
                         network, exec_params, node_selection)


@_checked
def asap_schedule(queue, network: Network, exec_params: ExecModelParams) -> Schedule:
    """Nodes are released asynchronously; freed nodes go to the first
    pending jobs (arrival order) that fit them.

    Each round starts at the earliest release time at which some remaining
    job fits the nodes free by then: the k-th smallest release time, k
    being the smallest remaining demand; round 0 starts at 0 on every node.
    The round hands out the nodes free at that time in id order, counting
    them down as it places.
    """
    schedule = Schedule()
    add_id, add_nodes, add_start, add_finish, add_stage = schedule.appenders()
    prices = network._price_tables.setdefault(exec_params.key, {})
    picks = network._lowest_picks
    avail = [0] * network.n_nodes
    remaining = list(queue)
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
            duration = prices.get((job.price_key, nodes))
            if duration is None:
                duration = prices[job.price_key, nodes] = execmodel.estimate_execution_time(
                    job, nodes, network, exec_params)
            finish = t + duration
            add_id(job.id)
            add_nodes(nodes)
            add_start(t)
            add_finish(finish)
            add_stage(stage)
            for n in nodes:
                avail[n] = finish
        remaining = deferred
        stage += 1
    return schedule


def get_scheduler(name: str):
    """A name's scheduler of (queue, network, params), which skips
    ``_validate_queue``; a job wider than the network is a SchedulingError."""
    table = {
        "fifo": fifo_schedule.__wrapped__,
        "list": list_schedule.__wrapped__,
        "resource": resource_prioritize_schedule.__wrapped__,
        "epr": epr_schedule.__wrapped__,
        "epr-ns": lambda q, n, p: epr_schedule.__wrapped__(q, n, p, node_selection=True),
        "asap": asap_schedule.__wrapped__,
    }
    if name not in table:
        raise ValueError(f"unknown scheduler: {name!r}")
    return table[name]
