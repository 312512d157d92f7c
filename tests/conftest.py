"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest

from dqcsched import execmodel
from dqcsched.execmodel import ExecModelParams
from dqcsched.harness import SlotTable
from dqcsched.netmodel import (
    LINK_PRESETS,
    QUALITY_CLASSES,
    LinkProfile,
    Network,
    build_network,
)
from dqcsched.ppo import N_FEATURES, PpoAgent, encode_state, reward_columns
from dqcsched.schedulers import Cell, SchedulingError, get_scheduler, queue_table
from dqcsched.workload import (
    CIRCUIT_KINDS,
    QUBIT_SIZES,
    CircuitProfile,
    JobDescriptor,
    WorkloadConfig,
    build_circuit_profile,
    generate_slot_jobs,
    partition_job,
    sorted_catalog,
)

MIXES = ({"good": 1.0}, {"bad": 0.2, "medium": 0.3, "good": 0.5}, {"bad": 0.5, "good": 0.5})


def make_rng(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))


def make_job(job_id: int, q: int, t_ns: int, epr: int = 0) -> JobDescriptor:
    """Synthetic job with an exact, node-independent duration.

    The duration is realized through the local term only (depth = t_ns at
    1 ns per layer), so traces with hand-picked durations come out exact
    on any network.
    """
    profile = CircuitProfile(
        kind="GHZ", n_qubits=max(q, 2), reps=1,
        two_qubit_gates=(), local_depth=t_ns,
    )
    return JobDescriptor(
        id=job_id, required_qpus=q, nonlocal_gates=epr,
        est_exec_ns=t_ns, profile=profile, cross_block_pairs=(),
    )


def homogeneous_network(n_nodes: int, qpu_capacity: int, quality: str = "good") -> Network:
    """All-identical-links network; handy for isolating ordering effects."""
    return build_network(n_nodes, qpu_capacity, {quality: 1.0}, seed=0)


def default_catalog(
    network: Network,
    exec_params: ExecModelParams,
    qubit_sizes: tuple[int, ...] = QUBIT_SIZES,
    reps: int = 1,
) -> tuple[JobDescriptor, ...]:
    """All five families at each size, sorted ascending by non-local gates."""
    entries = [(kind, n, reps) for kind in CIRCUIT_KINDS for n in qubit_sizes]
    return sorted_catalog(entries, network, exec_params)


def reference_catalog(entries, network: Network, exec_params: ExecModelParams
                      ) -> tuple[JobDescriptor, ...]:
    """``sorted_catalog`` without its per-process skeleton: every entry's
    profile built and partitioned on ``network``, the jobs sorted by (non-local
    gates, estimate, kind, size), then copied under ids 0, 1, ..."""
    jobs = [partition_job(build_circuit_profile(kind, n, reps), network.qpu_capacity,
                          network, exec_params) for kind, n, reps in entries]
    jobs.sort(key=lambda j: (j.nonlocal_gates, j.est_exec_ns, j.profile.kind, j.profile.n_qubits))
    return tuple(catalog_copies(jobs, range(len(jobs))))


def catalog_copies(catalog, picks) -> list[JobDescriptor]:
    """Catalog entries at ``picks``, copied under ids 0, 1, ... with their price keys."""
    return [dataclasses.replace(catalog[i], id=k) for k, i in enumerate(picks)]


def slot_queue(config: WorkloadConfig, rng: np.random.Generator) -> list[JobDescriptor]:
    """One slot's queue: the catalog rows ``generate_slot_jobs`` draws, as
    catalog copies under the slot's ids 0, 1, ..."""
    return catalog_copies(config.catalog, generate_slot_jobs(config, rng).tolist())


def validate_queue(queue, network: Network) -> None:
    """The per-job queue check, kept as the oracle of the library's vector
    check: the first job that needs fewer than one QPU, or more than the
    network has, is a SchedulingError."""
    for job in queue:
        if job.required_qpus < 1:
            raise SchedulingError(job.id, "requires fewer than one QPU")
        if job.required_qpus > network.n_nodes:
            raise SchedulingError(job.id, f"requires {job.required_qpus} QPUs but the "
                                  f"network has {network.n_nodes}")


def cell_of(rows_per_queue) -> Cell:
    """The cell of one list of ``(job_id, nodes, start_ns, finish_ns, stage)``
    rows per queue, queue after queue, with its node tuples."""
    rows_per_queue = [list(rows) for rows in rows_per_queue]
    rows = [row for rows in rows_per_queue for row in rows]
    job_id, nodes, start, finish, stage = map(list, zip(*rows)) if rows else ([],) * 5
    job_id, width, start, finish, stage, counts = (np.array(c, dtype=np.int64) for c in (
        job_id, list(map(len, nodes)), start, finish, stage, list(map(len, rows_per_queue))))
    return Cell(job_id, None, width, start, finish, stage, counts, nodes)


def schedule_rows(cell: Cell) -> list[tuple]:
    """A cell's ``(job_id, nodes, start_ns, finish_ns, stage)`` rows, queue
    after queue, each queue's in placement order; the node tuples are
    ``cell.nodes`` or the ``width`` ids from ``first`` on."""
    nodes = cell.nodes if cell.nodes is not None else [
        tuple(range(f, f + w)) for f, w in zip(cell.first.tolist(), cell.width.tolist())]
    return list(zip(cell.job_id.tolist(), nodes, cell.start_ns.tolist(),
                    cell.finish_ns.tolist(), cell.stage_index.tolist()))


def queue_rows(cell: Cell) -> list[list[tuple]]:
    """Each queue's rows of a cell, cut by its ``counts``."""
    rows, ends = schedule_rows(cell), np.cumsum(cell.counts).tolist()
    return [rows[a:b] for a, b in zip([0, *ends], ends)]


def makespans(cell: Cell) -> list[int]:
    """Each queue's latest finish minus its earliest start, 0 for no jobs."""
    return [max(r[3] for r in rows) - min(r[2] for r in rows) if rows else 0
            for rows in queue_rows(cell)]


def stage_rows(cell: Cell) -> list[list[tuple]]:
    """A one-queue cell's rows grouped by stage, stage 0 first, each group in
    placement order."""
    rows = schedule_rows(cell)
    grouped: list[list[tuple]] = [[] for _ in range(max((r[4] for r in rows), default=-1) + 1)]
    for row in rows:
        grouped[row[4]].append(row)
    return grouped


def stage_ids(cell: Cell) -> list[set[int]]:
    """The job ids of each stage of a one-queue cell, stage 0 first."""
    return [{row[0] for row in stage} for stage in stage_rows(cell)]


def metric_values(table: SlotTable, setting: str, scheduler: str,
                  metric: str) -> np.ndarray:
    """Non-empty per-slot values of one cell, ordered by (seed, slot)."""
    rows = zip(table.setting, table.scheduler, table.seed, table.slot, getattr(table, metric))
    selected = sorted((row for row in rows if row[:2] == (setting, scheduler)
                       and row[4] is not None), key=lambda row: row[2:4])
    return np.array([row[4] for row in selected], dtype=float)


def bootstrap_mean_diff_ci(
    a: np.ndarray,
    b: np.ndarray,
    n_boot: int = 1000,
    seed: int = 0,
    confidence: float = 0.95,
) -> tuple[float, float]:
    """Percentile bootstrap CI of mean(a) - mean(b) over paired samples."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.size == 0:
        raise ValueError("bootstrap requires equal-length non-empty samples")
    rng = np.random.Generator(np.random.PCG64(seed))
    n = a.size
    idx = rng.integers(0, n, size=(n_boot, n))
    diffs = a[idx].mean(axis=1) - b[idx].mean(axis=1)
    lo = float(np.quantile(diffs, (1.0 - confidence) / 2.0))
    hi = float(np.quantile(diffs, 1.0 - (1.0 - confidence) / 2.0))
    return lo, hi


def reference_pricer(rows: list, network: Network, params: ExecModelParams):
    """``Schedule.pricer``, of the five-column type that ``Cell`` replaced, as
    it was before price tables replaced it, kept as the price oracle for the
    schedulers' tables. Two edits: the memo is a dict of this pricer's own,
    where it was one per network, so each reference schedule prices every
    new (params, price key, nodes) afresh; and each placement is appended to
    ``rows`` as a ``(job_id, nodes, start_ns, finish_ns, stage)`` row, where
    it went to five columns.

    The step every scheduler places through: ``place(job, nodes,
    start_ns, stage)`` prices ``job`` on ``nodes``, given in ascending id
    order, appends it and returns its finish. Prices are memoised on the
    network by (``params.key``, the job's price key, nodes); a wrong-length
    node tuple always reaches the exec model, which raises."""
    memo, params_key = {}, params.key

    def place(job, nodes, start_ns: int, stage: int) -> int:
        nodes = tuple(nodes)
        key = (params_key, job.price_key, nodes)
        duration = memo.get(key) if len(nodes) == job.required_qpus else None
        if duration is None:
            duration = memo[key] = execmodel.estimate_execution_time(
                job, nodes, network, params)
        finish = start_ns + duration
        rows.append((job.id, nodes, start_ns, finish, stage))
        return finish

    return place


def reference_stage_latencies(stage_exec):
    """One episode's latencies, their sum, the serial worst case and the
    ratio, from its stages of execution times: the per-episode loop that
    ``reward_columns`` replaced, its two ``sum`` calls written as the
    left-to-right loops they ran on Python 3.11 (from 3.12 on, ``sum`` of
    floats is compensated and rounds differently)."""
    latencies = []
    offset = 0.0
    for stage in stage_exec:
        latencies.extend(e + offset for e in stage)
        offset += max(stage)
    total = 0.0
    for latency in latencies:
        total += latency
    all_exec = sorted((e for s in stage_exec for e in s), reverse=True)
    n = len(all_exec)
    worst = 0.0
    for k, e in enumerate(all_exec):
        worst += (n - k) * e
    return latencies, total, worst, total / worst


def reference_epr_reward(stages, variant="plain"):
    """One episode's (incentive, reward), from its stages of (demand,
    execution time) pairs in pick order: the per-episode loop that
    ``reward_columns`` replaced, without its argument checks and its three
    weights, which were 1 on every path."""
    total = 0.0
    count = 0
    d_prev = 0.0
    for stage in stages:
        for order, (demand, _exec) in enumerate(stage):
            denom = demand + d_prev if variant == "plain" else demand * (order + 1) + d_prev
            if denom == 0.0:
                denom = 1.0
            total += 1.0 / denom
            count += 1
        d_prev = max(d for d, _ in stage)
    r_epr = total / count
    _, _, _, r_lat = reference_stage_latencies([[e for _, e in stage] for stage in stages])
    return r_epr, -r_lat + r_epr


def one_row(stages):
    """One episode's stages of values as a ``(1, picks)`` float row in pick
    order and one of stage-opening flags, the window of ``reward_columns``."""
    opened = np.zeros((1, sum(map(len, stages))), dtype=bool)
    opened[0, np.cumsum([0, *map(len, stages[:-1])])] = True
    return np.array([[v for stage in stages for v in stage]], dtype=float), opened


def row_latencies(stage_exec):
    """One episode's (latencies, sum, worst case, ratio), from its stages of
    execution times, by ``reward_columns``."""
    duration, opened = one_row(stage_exec)
    latencies, total, worst, _ = reward_columns(np.zeros_like(duration), duration, opened)
    return latencies[0].tolist(), total.item(), worst.item(), total.item() / worst.item()


def row_reward(stages, variant="plain"):
    """One episode's (incentive, incentive - latency ratio), from its stages
    of (demand, execution time) pairs, by ``reward_columns``."""
    row, opened = one_row(stages)
    _, total, worst, incentive = reward_columns(row[..., 0], row[..., 1], opened, variant)
    return incentive.item(), -(total.item() / worst.item()) + incentive.item()


def schedule_on(agent: PpoAgent, queue, network: Network, exec_params: ExecModelParams,
                node_selection: bool = False) -> Cell:
    """``agent.schedule`` of ``queue`` on another network: the queue check,
    the argmax rollout on the network's nodes, then the placement."""
    validate_queue(queue, network)
    stages = rollout_stages(agent._rollouts(agent_states(agent, [queue]), network.n_nodes, None),
                            [len(queue)])[0]
    return place_rows(agent, queue, stages, node_selection, network, exec_params)


def agent_states(agent: PpoAgent, queues) -> np.ndarray:
    """The stacked ``encode_state`` rows of ``queues`` for ``agent._rollouts``."""
    return np.array([encode_state(queue, agent.config.j_max, agent.time_scale)
                     for queue in queues]).reshape(len(queues), agent.config.j_max, N_FEATURES)


def rollout_stages(arrays, lengths) -> list[list[list[int]]]:
    """Each episode's stages, lists of its picks' queue rows, from the pick
    arrays of a rollout of queues of ``lengths`` (actions at 2, stage-opening
    flags at 5), one stage from each opening pick to the next."""
    picks, opens = arrays[2].tolist(), arrays[5].tolist()
    episodes, at = [], 0
    for n in lengths:
        stages: list[list[int]] = []
        for k in range(at, at + n):
            if opens[k]:
                stages.append([])
            stages[-1].append(picks[k])
        episodes.append(stages)
        at += n
    return episodes


def place_rows(agent: PpoAgent, queue, stages, node_selection: bool,
               network: Network | None = None, exec_params: ExecModelParams | None = None
               ) -> Cell:
    """``agent.build_schedule`` of one queue's ``stages``, lists of queue rows
    (on the agent's network and parameters unless given), as its cell."""
    network, exec_params = network or agent.network, exec_params or agent.exec_params
    rows = [r for picks in stages for r in picks]
    sizes = np.array([len(picks) for picks in stages], dtype=int)
    opened = np.zeros(len(rows), dtype=bool)
    opened[np.cumsum(sizes) - sizes] = True
    return agent.build_schedule(queue_table([queue], network, exec_params),
                                np.array(rows, dtype=np.intp), opened, np.array([len(rows)]),
                                node_selection, network, exec_params)


def run_unchecked(name: str, queues, network: Network, exec_params: ExecModelParams) -> Cell:
    """``get_scheduler(name)``, which skips the queue check, on the job
    table of ``queues``."""
    return get_scheduler(name)(queue_table(queues, network, exec_params), network, exec_params)


def reference_build_network(n_nodes: int, qpu_capacity: int,
                            quality_mix: dict[str, float], seed: int) -> Network:
    """``build_network`` as it was before it drew every pair's class at once,
    kept as the oracle for that draw: one ``rng.choice`` per pair, in
    ``itertools.combinations`` order. Only the valid-input path is kept."""
    classes = [c for c in QUALITY_CLASSES if c in quality_mix]
    probs = np.array([quality_mix[c] for c in classes], dtype=float)
    probs = probs / probs.sum()
    rng = np.random.Generator(np.random.PCG64(seed))
    profiles = {c: LinkProfile.from_params(LINK_PRESETS[c]) for c in classes}
    links: dict[tuple[int, int], LinkProfile] = {}
    for a, b in itertools.combinations(range(n_nodes), 2):
        cls_idx = int(rng.choice(len(classes), p=probs))
        links[(a, b)] = profiles[classes[cls_idx]]
    return Network(n_nodes=n_nodes, qpu_capacity=qpu_capacity, links=links)


def reference_select_nodes(free_nodes, k: int, network: Network) -> tuple[int, ...]:
    """``select_nodes`` as it was before its memo was keyed by a free-node bit
    mask, without the memo, kept as the node-selection oracle: every k-subset
    of the sorted free nodes in lexicographic order, pair weights added one
    column at a time in ``combinations(combo, 2)`` order, and the first
    minimum."""
    free_sorted = tuple(sorted(free_nodes))
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(free_sorted) < k:
        raise ValueError(f"need {k} free nodes, only {len(free_sorted)} available")
    combos = np.array(list(itertools.combinations(free_sorted, k)))
    delay = np.array(network.delay_ns)
    weight = np.zeros(len(combos))
    for i, j in itertools.combinations(range(k), 2):
        weight += delay[combos[:, i], combos[:, j]]
    return tuple(int(node) for node in combos[np.argmin(weight)])


def unit_exec_params() -> ExecModelParams:
    return ExecModelParams(local_gate_ns=1)


def weighted_network(n_nodes: int, weights: dict[tuple[int, int], float],
                     qpu_capacity: int = 2) -> Network:
    """Network with explicit per-pair state delays (for node-selection tests)."""
    links = {}
    for (a, b), delay in weights.items():
        params = LINK_PRESETS["good"]
        base = LinkProfile.from_params(params)
        links[(a, b)] = LinkProfile(
            params=params, success_prob=base.success_prob,
            state_delay_ns=float(delay),
        )
    return Network(n_nodes=n_nodes, qpu_capacity=qpu_capacity, links=links)


@pytest.fixture
def good_network() -> Network:
    return homogeneous_network(6, 3, "good")


@pytest.fixture
def four_node_network() -> Network:
    return homogeneous_network(4, 3, "good")


@pytest.fixture
def mixed_network() -> Network:
    return build_network(6, 3, {"bad": 0.2, "medium": 0.3, "good": 0.5}, seed=7)


@pytest.fixture
def exec_params() -> ExecModelParams:
    return ExecModelParams()
