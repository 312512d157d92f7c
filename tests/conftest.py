"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from dqcsched import execmodel
from dqcsched.execmodel import ExecModelParams
from dqcsched.netmodel import (
    LINK_PRESETS,
    QUALITY_CLASSES,
    LinkProfile,
    Network,
    build_network,
    homogeneous_network,
)
from dqcsched.workload import CircuitProfile, JobDescriptor

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


def reference_pricer(schedule, network: Network, params: ExecModelParams):
    """``Schedule.pricer`` as it was before price tables replaced it, kept as
    the price oracle for the schedulers' tables. One edit: the memo is a dict
    of this pricer's own, where it was one per network, so each reference
    schedule prices every new (params, price key, nodes) afresh.

    The step every scheduler places through: ``place(job, nodes,
    start_ns, stage)`` prices ``job`` on ``nodes``, given in ascending id
    order, appends it and returns its finish. Prices are memoised on the
    network by (``params.key``, the job's price key, nodes); a wrong-length
    node tuple always reaches the exec model, which raises."""
    memo, params_key = {}, params.key
    add_id, add_nodes, add_start, add_finish, add_stage = (
        schedule.job_id.append, schedule.assigned_nodes.append, schedule.start_ns.append,
        schedule.finish_ns.append, schedule.stage_index.append)

    def place(job, nodes, start_ns: int, stage: int) -> int:
        nodes = tuple(nodes)
        key = (params_key, job.price_key, nodes)
        duration = memo.get(key) if len(nodes) == job.required_qpus else None
        if duration is None:
            duration = memo[key] = execmodel.estimate_execution_time(
                job, nodes, network, params)
        finish = start_ns + duration
        add_id(job.id)
        add_nodes(nodes)
        add_start(start_ns)
        add_finish(finish)
        add_stage(stage)
        return finish

    return place


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
