"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from dqcsched.execmodel import ExecModelParams
from dqcsched.netmodel import (
    LINK_PRESETS,
    LinkProfile,
    Network,
    build_network,
    homogeneous_network,
)
from dqcsched.workload import CircuitProfile, JobDescriptor


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
