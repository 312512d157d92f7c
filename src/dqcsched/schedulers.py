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
from dataclasses import dataclass, field

import numpy as np

from . import execmodel
from .execmodel import ExecModelParams
from .netmodel import Network

SCHEDULER_NAMES = ("fifo", "list", "resource", "epr", "epr-ns", "asap")


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


@dataclass
class Schedule:
    """Scheduler output: placements grouped into stages."""

    placements: list[Placement] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.placements)

    def stages(self) -> list[list[Placement]]:
        if not self.placements:
            return []
        n_stages = max(p.stage_index for p in self.placements) + 1
        grouped: list[list[Placement]] = [[] for _ in range(n_stages)]
        for p in self.placements:
            grouped[p.stage_index].append(p)
        return grouped

    def makespan_ns(self) -> int:
        if not self.placements:
            return 0
        return max(p.finish_ns for p in self.placements) - min(
            p.start_ns for p in self.placements
        )


def _validate_queue(queue, network: Network) -> None:
    for job in queue:
        if job.required_qpus < 1:
            raise SchedulingError(job.id, "requires fewer than one QPU")
        if job.required_qpus > network.n_nodes:
            raise SchedulingError(
                job.id,
                f"requires {job.required_qpus} QPUs but the network has "
                f"{network.n_nodes}",
            )


def _place(job, nodes, start_ns: int, stage: int, network: Network,
           params: ExecModelParams) -> Placement:
    """Price ``job`` on ``nodes``, memoised on the network by all else the
    price reads; a wrong-length node tuple always reaches the exec model."""
    nodes = tuple(sorted(nodes))
    memo = network._duration_memo
    key = (params, job.profile.local_depth, job.cross_block_pairs, nodes)
    duration = memo.get(key) if len(nodes) == job.required_qpus else None
    if duration is None:
        duration = memo[key] = execmodel.estimate_execution_time(job, nodes, network, params)
    return Placement(job.id, nodes, start_ns, start_ns + duration, stage)


def fifo_schedule(queue, network: Network, exec_params: ExecModelParams) -> Schedule:
    """Strict arrival order; consecutive jobs share a stage while they fit.

    The stage closes at the first job that does not fit the remaining free
    nodes, and the next stage starts once every job of the current stage
    has finished.
    """
    _validate_queue(queue, network)
    placements: list[Placement] = []
    barrier = 0
    stage = 0
    i = 0
    while i < len(queue):
        free = list(range(network.n_nodes))
        stage_placements: list[Placement] = []
        while i < len(queue) and queue[i].required_qpus <= len(free):
            job = queue[i]
            nodes, free = free[: job.required_qpus], free[job.required_qpus:]
            stage_placements.append(_place(job, nodes, barrier, stage, network, exec_params))
            i += 1
        placements.extend(stage_placements)
        barrier = max(p.finish_ns for p in stage_placements)
        stage += 1
    return Schedule(placements)


def list_schedule(queue, network: Network, exec_params: ExecModelParams) -> Schedule:
    """FIFO ordering, but any later job that fits the free nodes joins the
    stage; the stage closes when no remaining job fits."""
    _validate_queue(queue, network)
    placements: list[Placement] = []
    remaining = list(queue)
    barrier = 0
    stage = 0
    while remaining:
        free = list(range(network.n_nodes))
        stage_placements: list[Placement] = []
        deferred = []
        for job in remaining:
            if job.required_qpus <= len(free):
                nodes, free = free[: job.required_qpus], free[job.required_qpus:]
                stage_placements.append(
                    _place(job, nodes, barrier, stage, network, exec_params)
                )
            else:
                deferred.append(job)
        remaining = deferred
        placements.extend(stage_placements)
        barrier = max(p.finish_ns for p in stage_placements)
        stage += 1
    return Schedule(placements)


def resource_prioritize_schedule(
    queue,
    network: Network,
    exec_params: ExecModelParams,
    enumeration_cap: int = 12,
) -> Schedule:
    """Each round runs the job subset with maximal total QPU demand.

    Ties are broken by smaller mean estimated time, then by the
    lexicographically smallest job-id set. Subsets are enumerated over the
    first ``enumeration_cap`` remaining jobs (arrival order), which bounds
    the exponential search.
    """
    if enumeration_cap < 1:
        raise ValueError(f"enumeration_cap must be >= 1, got {enumeration_cap}")
    _validate_queue(queue, network)
    placements: list[Placement] = []
    remaining = list(queue)
    barrier = 0
    stage = 0
    while remaining:
        pool = remaining[: enumeration_cap]
        chosen = _max_demand_subset(pool, network.n_nodes)
        free = list(range(network.n_nodes))
        stage_placements = []
        for k, job in enumerate(pool):
            if chosen >> k & 1:
                nodes, free = free[: job.required_qpus], free[job.required_qpus:]
                stage_placements.append(_place(job, nodes, barrier, stage, network, exec_params))
        placements.extend(stage_placements)
        barrier = max(p.finish_ns for p in stage_placements)
        stage += 1
        remaining = [j for i, j in enumerate(remaining) if not chosen >> i & 1]
    return Schedule(placements)


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
    remaining = sorted(queue, key=lambda j: (j.epr_pairs, j.est_exec_ns, j.id))
    placements: list[Placement] = []
    barrier = 0
    stage = 0
    while remaining:
        free = list(range(network.n_nodes))
        stage_placements: list[Placement] = []
        deferred: list = []
        for idx, job in enumerate(remaining):
            if job.required_qpus <= len(free):
                if node_selection:
                    nodes = select_nodes(free, job.required_qpus, network)
                else:
                    nodes = tuple(free[: job.required_qpus])
                free = [n for n in free if n not in nodes]
                stage_placements.append(
                    _place(job, nodes, barrier, stage, network, exec_params)
                )
            elif strict_order:
                deferred = remaining[idx:]
                break
            else:
                deferred.append(job)
        remaining = deferred
        placements.extend(stage_placements)
        barrier = max(p.finish_ns for p in stage_placements)
        stage += 1
    return Schedule(placements)


def asap_schedule(queue, network: Network, exec_params: ExecModelParams) -> Schedule:
    """Nodes are released asynchronously; freed nodes go to the first
    pending jobs (arrival order) that fit them.

    Each round starts at the earliest time when some remaining job fits the
    nodes free at that time.
    """
    _validate_queue(queue, network)
    placements: list[Placement] = []
    avail = [0] * network.n_nodes
    remaining = list(queue)
    stage = 0
    while remaining:
        for t in sorted(set(avail)):
            candidates = [n for n in range(network.n_nodes) if avail[n] <= t]
            used: set[int] = set()
            deferred: list = []
            placed_any = False
            for job in remaining:
                free = [n for n in candidates if n not in used]
                if job.required_qpus <= len(free):
                    nodes = tuple(free[: job.required_qpus])
                    p = _place(job, nodes, t, stage, network, exec_params)
                    placements.append(p)
                    for n in nodes:
                        avail[n] = p.finish_ns
                    used.update(nodes)
                    placed_any = True
                else:
                    deferred.append(job)
            if placed_any:
                remaining = deferred
                break
        stage += 1
    return Schedule(placements)


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
