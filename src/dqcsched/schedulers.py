"""Slot schedulers: FIFO, LIST, Resource-Prioritize, EPR (with optional
node selection), and ASAP.

All schedulers consume the node-blind execution estimate for their
decisions, but the emitted placements record actual durations computed
from the links of the chosen nodes. Except for ASAP, scheduling proceeds
in synchronized stages: every job of a stage starts together and the next
stage begins once the whole stage has finished. ASAP releases nodes
asynchronously as jobs complete.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .execmodel import ExecModelParams, PriceClass
from .netmodel import Network

SCHEDULER_NAMES = ("fifo", "list", "resource", "epr", "epr-ns", "asap")
ENUMERATION_CAP = 12  # resource searches subsets of at most this many queued jobs


class SchedulingError(Exception):
    """A job cannot be scheduled on the given network."""

    def __init__(self, job_id, message: str):
        super().__init__(f"job {job_id}: {message}")
        self.job_id = job_id


@dataclass(frozen=True)
class Placement:
    """One job's slice of the schedule."""

    job_id: int
    assigned_nodes: tuple[int, ...]
    start_ns: int
    finish_ns: int
    stage_index: int

    @property
    def duration_ns(self) -> int:
        return self.finish_ns - self.start_ns


class Schedule:
    """Scheduler output as five parallel columns, one entry per job in
    placement order: job id, node tuple, start, finish and stage.

    ``Schedule(placements)`` builds the columns from :class:`Placement`
    objects, and :attr:`placements` is a view built on demand.
    """

    __slots__ = ("job_id", "assigned_nodes", "start_ns", "finish_ns", "stage_index")

    def __init__(self, placements=()):
        rows = [(p.job_id, p.assigned_nodes, p.start_ns, p.finish_ns, p.stage_index)
                for p in placements]
        self.job_id, self.assigned_nodes, self.start_ns, self.finish_ns, self.stage_index = (
            map(list, zip(*rows)) if rows else ([], [], [], [], []))

    @property
    def placements(self) -> list[Placement]:
        return list(map(Placement, self.job_id, self.assigned_nodes, self.start_ns,
                        self.finish_ns, self.stage_index))

    def __len__(self) -> int:
        return len(self.job_id)

    def stages(self) -> list[list[Placement]]:
        grouped: list[list[Placement]] = [[] for _ in range(max(self.stage_index, default=-1) + 1)]
        for p in self.placements:
            grouped[p.stage_index].append(p)
        return grouped

    def makespan_ns(self) -> int:
        return max(self.finish_ns) - min(self.start_ns) if self.job_id else 0

    def appenders(self) -> tuple:
        """The ``append`` of each column, in column order: what a scheduler
        places a job through, so no :class:`Placement` is built."""
        return (self.job_id.append, self.assigned_nodes.append, self.start_ns.append,
                self.finish_ns.append, self.stage_index.append)


def _validate_queue(queue, network: Network) -> None:
    for job in queue:
        if job.required_qpus < 1:
            raise SchedulingError(job.id, "requires fewer than one QPU")
        if job.required_qpus > network.n_nodes:
            raise SchedulingError(job.id, f"requires {job.required_qpus} QPUs but the "
                                  f"network has {network.n_nodes}")


def _place_stages(stages, network: Network, exec_params: ExecModelParams,
                  node_selection: bool = False) -> Schedule:
    """Barrier-staged placement of ``stages``, an iterable of job lists.
    A stage's jobs start together at the previous stage's end, in order,
    each on the lowest free ids or, with ``node_selection``, on the free
    subset with the best internal links. A stage ends at its latest finish,
    kept as a running max from its start since durations are never negative."""
    schedule = Schedule()
    add_id, add_nodes, add_start, add_finish, add_stage = schedule.appenders()
    table = network._price_tables.setdefault(exec_params.key, {})
    n_nodes = network.n_nodes
    all_nodes = list(range(n_nodes))  # never mutated: node selection rebinds ``free``
    barrier = 0
    for stage, jobs in enumerate(stages):
        used, end, free = 0, barrier, all_nodes
        for job in jobs:
            d = job.required_qpus
            if used + d > n_nodes:
                raise SchedulingError(job.id, "stage exceeds free nodes")
            key = job.price_key, d
            cls = table.get(key) or table.setdefault(key, PriceClass(job, n_nodes))
            if node_selection:
                nodes = select_nodes(free, d, network)
                free = [n for n in free if n not in nodes]
                duration = cls.price(nodes, network, exec_params)
            else:  # the free nodes are used .. n_nodes - 1
                nodes, duration = cls.row[used] or cls.span(used, network, exec_params)
            used += d
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


def fifo_schedule(queue, network: Network, exec_params: ExecModelParams) -> Schedule:
    """Strict arrival order; consecutive jobs share a stage while they fit.

    The stage closes at the first job that does not fit the remaining free
    nodes, and the next stage starts once every job of the current stage
    has finished.
    """
    _validate_queue(queue, network)
    return _place_stages(_in_order_stages(queue, network.n_nodes), network, exec_params)


def list_schedule(queue, network: Network, exec_params: ExecModelParams) -> Schedule:
    """FIFO ordering, but any later job that fits the free nodes joins the
    stage; the stage closes when no remaining job fits."""
    _validate_queue(queue, network)
    return _place_stages(_in_order_stages(queue, network.n_nodes, strict_order=False),
                         network, exec_params)


def resource_prioritize_schedule(queue, network: Network,
                                 exec_params: ExecModelParams) -> Schedule:
    """Each round runs the job subset with maximal total QPU demand.

    Ties are broken by smaller mean estimated time, then by the
    lexicographically smallest job-id set. Subsets are enumerated over the
    first ``ENUMERATION_CAP`` remaining jobs (arrival order), which bounds
    the exponential search.
    """
    _validate_queue(queue, network)

    def stages(remaining):
        while remaining:
            pool = remaining[:ENUMERATION_CAP]
            chosen = _max_demand_subset(pool, network.n_nodes)
            yield [job for k, job in enumerate(pool) if chosen >> k & 1]
            remaining = [j for i, j in enumerate(remaining) if not chosen >> i & 1]

    return _place_stages(stages(list(queue)), network, exec_params)


def _max_demand_subset(pool, n_nodes: int) -> int:
    """Bit mask (bit k: ``pool[k]``) of the subset with maximal demand <=
    ``n_nodes``, then minimal mean estimate, sorted ids and mask, found by a
    depth-first search that extends a subset only while it fits and stops a
    branch once the rest of the pool cannot lift it to the best demand.
    Integer estimates sum exactly in a double, so each mean is bit-exact.
    """
    demand = [j.required_qpus for j in pool]
    est = [j.est_exec_ns for j in pool]
    reach = list(itertools.accumulate(reversed(demand)))[::-1]
    best = [0, math.inf, 0, None]  # demand, mean, mask, tie key once needed

    def tie_key(mask):
        return sorted(j.id for k, j in enumerate(pool) if mask >> k & 1), mask

    def extend(start, used, total, count, mask):
        for k in range(start, len(pool)):
            if used + reach[k] < best[0]:
                break
            d = used + demand[k]
            if d > n_nodes:
                continue
            sub_total, sub_mask = total + est[k], mask | 1 << k
            if d >= best[0]:
                mean = sub_total / (count + 1)
                if d > best[0] or mean < best[1]:
                    best[:] = d, mean, sub_mask, None
                elif mean == best[1]:
                    best[3] = best[3] or tie_key(best[2])
                    key = tie_key(sub_mask)
                    if key < best[3]:
                        best[:] = d, mean, sub_mask, key
            if d < n_nodes:
                extend(k + 1, d, sub_total, count + 1, sub_mask)

    extend(0, 0, 0, 0, 0)
    return best[2]


def select_nodes(free_nodes, k: int, network: Network) -> tuple[int, ...]:
    """The k free nodes whose internal links have minimum total weight.

    Weight of a pair is its state delay. Ties resolve to the
    lexicographically smallest id set; k = 1 returns the lowest free id.
    Answers are memoised on the network per (free set, k).
    """
    free_sorted = tuple(sorted(free_nodes))
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(free_sorted) < k:
        raise ValueError(f"need {k} free nodes, only {len(free_sorted)} available")
    memo = network._selection_memo
    key = (free_sorted, k)
    if key not in memo:
        memo[key] = _min_weight_subset(free_sorted, k, network.delay_ns)
    return memo[key]


def _min_weight_subset(free_sorted, k: int, delay_ns) -> tuple[int, ...]:
    # Every k-subset at once, in lexicographic order. Pair weights are added
    # one column at a time in itertools.combinations(combo, 2) order, so each
    # total equals a left-to-right float sum over the subset's pairs; argmin
    # keeps the first, i.e. lexicographically smallest, minimum.
    combos = np.array(list(itertools.combinations(free_sorted, k)))
    delay = np.array(delay_ns)
    weight = np.zeros(len(combos))
    for i, j in itertools.combinations(range(k), 2):
        weight += delay[combos[:, i], combos[:, j]]
    return tuple(int(node) for node in combos[np.argmin(weight)])


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
    _validate_queue(queue, network)
    remaining = sorted(queue, key=lambda j: (j.nonlocal_gates, j.est_exec_ns, j.id))
    return _place_stages(_in_order_stages(remaining, network.n_nodes, strict_order),
                         network, exec_params, node_selection)


def asap_schedule(queue, network: Network, exec_params: ExecModelParams) -> Schedule:
    """Nodes are released asynchronously; freed nodes go to the first
    pending jobs (arrival order) that fit them.

    Each round starts at the earliest release time at which some remaining
    job fits the nodes free by then: the k-th smallest release time, k
    being the smallest remaining demand. The round hands out the nodes free
    at that time in id order.
    """
    _validate_queue(queue, network)
    schedule = Schedule()
    add_id, add_nodes, add_start, add_finish, add_stage = schedule.appenders()
    table = network._price_tables.setdefault(exec_params.key, {})
    avail = [0] * network.n_nodes
    remaining = list(queue)
    stage = 0
    while remaining:
        t = sorted(avail)[min(job.required_qpus for job in remaining) - 1]
        free = [n for n, release in enumerate(avail) if release <= t]
        deferred: list = []
        for job in remaining:
            d = job.required_qpus
            if d <= len(free):
                key = job.price_key, d
                cls = table.get(key) or table.setdefault(key, PriceClass(job, len(avail)))
                nodes, free = tuple(free[:d]), free[d:]
                finish = t + cls.price(nodes, network, exec_params)
                add_id(job.id)
                add_nodes(nodes)
                add_start(t)
                add_finish(finish)
                add_stage(stage)
                for n in nodes:
                    avail[n] = finish
            else:
                deferred.append(job)
        remaining = deferred
        stage += 1
    return schedule


def get_scheduler(name: str):
    """Resolve a scheduler name to a callable of (queue, network, params)."""
    table = {
        "fifo": fifo_schedule,
        "list": list_schedule,
        "resource": resource_prioritize_schedule,
        "epr": epr_schedule,
        "epr-ns": lambda q, n, p: epr_schedule(q, n, p, node_selection=True),
        "asap": asap_schedule,
    }
    if name not in table:
        raise ValueError(f"unknown scheduler: {name!r}")
    return table[name]
