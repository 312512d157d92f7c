"""Analytic execution-time model."""

import dataclasses

import pytest

from conftest import make_job, weighted_network
from dqcsched.execmodel import (
    ExecModelParams,
    estimate_execution_time,
    nominal_execution_time,
)
from dqcsched.netmodel import LINK_PRESETS, LinkProfile, build_network, homogeneous_network
from dqcsched.workload import build_circuit_profile, partition_job

GOOD_DELAY = LinkProfile.from_params(LINK_PRESETS["good"]).state_delay_ns
BAD_DELAY = LinkProfile.from_params(LINK_PRESETS["bad"]).state_delay_ns


def ghz5_job(net, params):
    return partition_job(build_circuit_profile("GHZ", 5), 3, net, params)


class TestEstimateExecutionTime:
    def test_local_only_job_ignores_nodes(self):
        net = build_network(4, 3, {"bad": 0.5, "good": 0.5}, seed=1)
        params = ExecModelParams(local_gate_ns=1000)
        job = make_job(0, q=2, t_ns=10)  # depth 10 at 1000 ns per layer
        for nodes in ((0, 1), (2, 3), (1, 3)):
            assert estimate_execution_time(job, nodes, net, params) == 10_000

    def test_ghz_on_good_link(self):
        net = homogeneous_network(2, 3, "good")
        params = ExecModelParams(local_gate_ns=1000)
        job = ghz5_job(net, params)
        duration = estimate_execution_time(job, (0, 1), net, params)
        # depth layers plus two entangled pairs over the good link
        expected = job.profile.local_depth * 1000 + 2 * GOOD_DELAY
        assert abs(duration - expected) <= 1
        assert abs(duration - 1.335e7) / 1.335e7 < 0.01

    def test_bad_link_ratio(self):
        good = homogeneous_network(2, 3, "good")
        bad = homogeneous_network(2, 3, "bad")
        params = ExecModelParams(local_gate_ns=1000)
        job = ghz5_job(good, params)
        d_good = estimate_execution_time(job, (0, 1), good, params)
        d_bad = estimate_execution_time(job, (0, 1), bad, params)
        assert abs(d_bad - (job.profile.local_depth * 1000 + 2 * BAD_DELAY)) <= 1
        assert 40 < d_bad / d_good < 44

    def test_node_count_mismatch(self):
        net = homogeneous_network(4, 3, "good")
        params = ExecModelParams()
        job = ghz5_job(net, params)
        with pytest.raises(ValueError):
            estimate_execution_time(job, (0, 1, 2), net, params)

    def test_monotone_in_link_quality(self):
        # replacing the assigned link with a slower one never shortens the job
        params = ExecModelParams()
        durations = []
        for quality in ("good", "medium", "bad"):
            net = homogeneous_network(2, 3, quality)
            job = ghz5_job(net, params)
            durations.append(estimate_execution_time(job, (0, 1), net, params))
        assert durations[0] < durations[1] < durations[2]

    def test_linear_scaling_in_cross_gates_serial(self):
        net = homogeneous_network(2, 3, "good")
        params = ExecModelParams(local_gate_ns=1)
        base = ghz5_job(net, params)
        doubled = dataclasses.replace(
            base,
            cross_block_pairs=base.cross_block_pairs * 2,
            nonlocal_gates=base.nonlocal_gates * 2,
        )
        local = base.profile.local_depth
        d1 = estimate_execution_time(base, (0, 1), net, params) - local
        d2 = estimate_execution_time(doubled, (0, 1), net, params) - local
        assert abs(d2 - 2 * d1) <= 1

    def test_per_link_parallel_takes_busiest_link(self):
        net = weighted_network(3, {(0, 1): 100, (0, 2): 7, (1, 2): 1}, qpu_capacity=2)
        serial = ExecModelParams(local_gate_ns=1, epr_serialization="serial")
        parallel = ExecModelParams(local_gate_ns=1, epr_serialization="per-link-parallel")
        job = dataclasses.replace(
            make_job(0, q=3, t_ns=1, epr=3),
            cross_block_pairs=((0, 1), (0, 1), (1, 2)),
        )
        assert estimate_execution_time(job, (0, 1, 2), net, serial) == 1 + 201
        assert estimate_execution_time(job, (0, 1, 2), net, parallel) == 1 + 200


class TestNominalEstimate:
    def test_single_qpu_job_matches_actual(self):
        net = build_network(4, 8, {"bad": 0.5, "good": 0.5}, seed=5)
        params = ExecModelParams()
        job = partition_job(build_circuit_profile("GHZ", 5), 8, net, params)
        assert job.required_qpus == 1
        nominal = nominal_execution_time(job.profile.local_depth, job.cross_block_pairs,
                                         net, params)
        assert nominal == estimate_execution_time(job, (2,), net, params)

    def test_uses_mean_of_heterogeneous_links(self):
        net = weighted_network(3, {(0, 1): 10, (0, 2): 20, (1, 2): 60}, qpu_capacity=3)
        params = ExecModelParams(local_gate_ns=1)
        job = dataclasses.replace(
            make_job(0, q=2, t_ns=1, epr=2),
            cross_block_pairs=((0, 1), (0, 1)),
        )
        # mean delay = 30, two cross gates
        nominal = nominal_execution_time(job.profile.local_depth, job.cross_block_pairs,
                                         net, params)
        assert nominal == 1 + 60

    def test_assignment_independent(self):
        net = build_network(5, 3, {"bad": 0.3, "good": 0.7}, seed=11)
        params = ExecModelParams()
        job = ghz5_job(net, params)
        depth, pairs = job.profile.local_depth, job.cross_block_pairs
        assert (nominal_execution_time(depth, pairs, net, params)
                == nominal_execution_time(depth, pairs, net, params))

    def test_matches_actual_on_homogeneous_network(self):
        net = homogeneous_network(4, 3, "medium")
        params = ExecModelParams()
        job = ghz5_job(net, params)
        nominal = nominal_execution_time(job.profile.local_depth, job.cross_block_pairs,
                                         net, params)
        actual = estimate_execution_time(job, (0, 1), net, params)
        assert abs(nominal - actual) <= 1

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            ExecModelParams(local_gate_ns=0)
        with pytest.raises(ValueError):
            ExecModelParams(epr_serialization="burst")


class TestParamsKey:
    def test_key_is_every_field(self):
        params = ExecModelParams(local_gate_ns=400, epr_serialization="per-link-parallel")
        assert params.key == tuple(getattr(params, f.name)
                                   for f in dataclasses.fields(params) if f.init)
        assert "key" not in repr(params) and params == ExecModelParams(400, "per-link-parallel")

    @pytest.mark.parametrize("change", [{"local_gate_ns": 401}, {"epr_serialization": "serial"}])
    def test_replace_rederives_key(self, change):
        params = ExecModelParams(local_gate_ns=400, epr_serialization="per-link-parallel")
        changed = dataclasses.replace(params, **change)
        assert changed.key != params.key
        assert changed.key == tuple(getattr(changed, f.name)
                                    for f in dataclasses.fields(changed) if f.init)
