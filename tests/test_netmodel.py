"""Link physics and network construction."""

import dataclasses
import itertools
import math

import pytest

from conftest import MIXES, homogeneous_network, reference_build_network
from dqcsched.netmodel import (
    LINK_PRESETS,
    LinkParams,
    LinkProfile,
    build_network,
    entanglement_success_probability,
    state_delay,
)

# Published reference values for the three presets: success probability
# and state delay (ns), both expected within 1% relative error.
PRESET_EXPECTATIONS = {
    "bad": (6.37e-3, 2.83e8),
    "medium": (1.06e-2, 9.42e7),
    "good": (2.99e-2, 6.67e6),
}


def rel_err(actual, expected):
    return abs(actual - expected) / expected


class TestSuccessProbability:
    @pytest.mark.parametrize("quality", sorted(PRESET_EXPECTATIONS))
    def test_preset_values(self, quality):
        expected_ps, _ = PRESET_EXPECTATIONS[quality]
        ps = entanglement_success_probability(LINK_PRESETS[quality])
        assert rel_err(ps, expected_ps) < 0.01

    def test_maximal_case(self):
        params = LinkParams(eta_ion=1, eta_fc=1, eta_det=1, eta_penalty=1,
                            alpha_db_per_km=0.0, distance_km=0.0,
                            cycle_time_ns=1)
        assert entanglement_success_probability(params) == 0.5

    def test_range(self):
        for preset in LINK_PRESETS.values():
            ps = entanglement_success_probability(preset)
            assert 0.0 < ps <= 0.5

    def test_monotone_in_distance_and_attenuation(self):
        base = LINK_PRESETS["good"]
        prev = math.inf
        for d in (0.0, 0.5, 1.0, 5.0, 25.0):
            ps = entanglement_success_probability(
                LinkParams(**{**base.__dict__, "distance_km": d}))
            assert ps < prev
            prev = ps
        prev = math.inf
        for alpha in (0.0, 0.1, 0.2, 1.0, 3.0):
            ps = entanglement_success_probability(
                LinkParams(**{**base.__dict__, "alpha_db_per_km": alpha}))
            assert ps < prev
            prev = ps

    @pytest.mark.parametrize("field", ["eta_ion", "eta_fc", "eta_det", "eta_penalty"])
    def test_strictly_increasing_in_each_efficiency(self, field):
        base = LINK_PRESETS["bad"]
        prev = -1.0
        for value in (0.1, 0.3, 0.5, 0.8, 1.0):
            ps = entanglement_success_probability(
                LinkParams(**{**base.__dict__, field: value}))
            assert ps > prev
            prev = ps

    @pytest.mark.parametrize("field,value", [
        ("eta_ion", -0.1), ("eta_fc", 1.5), ("eta_det", 2.0),
        ("eta_penalty", -1.0), ("distance_km", -0.1),
    ])
    def test_domain_errors(self, field, value):
        with pytest.raises(ValueError):
            LinkParams(**{**LINK_PRESETS["good"].__dict__, field: value})


class TestStateDelay:
    @pytest.mark.parametrize("quality", sorted(PRESET_EXPECTATIONS))
    def test_preset_values(self, quality):
        _, expected_delay = PRESET_EXPECTATIONS[quality]
        params = LINK_PRESETS[quality]
        ps = entanglement_success_probability(params)
        assert rel_err(state_delay(params.cycle_time_ns, ps), expected_delay) < 0.01

    def test_deterministic_success_is_identity(self):
        assert state_delay(12345.0, 1.0) == 12345.0

    def test_zero_probability_rejected(self):
        with pytest.raises(ValueError):
            state_delay(1000.0, 0.0)
        with pytest.raises(ValueError):
            state_delay(1000.0, -0.5)

    def test_delay_probability_product_recovers_cycle_time(self):
        for preset in LINK_PRESETS.values():
            profile = LinkProfile.from_params(preset)
            product = profile.state_delay_ns * profile.success_prob
            assert rel_err(product, preset.cycle_time_ns) < 1e-12

    def test_delay_never_below_cycle_time(self):
        for preset in LINK_PRESETS.values():
            profile = LinkProfile.from_params(preset)
            assert profile.state_delay_ns >= preset.cycle_time_ns


class TestBuildNetwork:
    def test_two_node_good_network(self):
        net = build_network(2, 3, {"good": 1.0}, seed=0)
        assert len(net.links) == 1
        assert rel_err(net.links[(0, 1)].state_delay_ns, 6.67e6) < 0.01

    def test_fully_connected_pair_count(self):
        for n in (2, 3, 5, 8):
            net = build_network(n, 3, {"good": 1.0}, seed=n)
            assert len(net.links) == n * (n - 1) // 2

    def test_symmetry(self):
        net = build_network(5, 3, {"bad": 0.5, "good": 0.5}, seed=3)
        for a, b in itertools.combinations(range(5), 2):
            assert net.delay_ns[a][b] == net.delay_ns[b][a] > 0.0

    def test_deterministic_per_seed(self):
        mix = {"bad": 1 / 3, "medium": 1 / 3, "good": 1 / 3}
        n1 = build_network(5, 3, mix, seed=42)
        n2 = build_network(5, 3, mix, seed=42)
        assert {k: v.state_delay_ns for k, v in n1.links.items()} == \
               {k: v.state_delay_ns for k, v in n2.links.items()}

    def test_seed_changes_assignment(self):
        mix = {"bad": 1 / 3, "medium": 1 / 3, "good": 1 / 3}
        draws = {
            seed: tuple(build_network(5, 3, mix, seed=seed).links[p].state_delay_ns
                        for p in itertools.combinations(range(5), 2))
            for seed in range(10)
        }
        assert len(set(draws.values())) > 1

    def test_class_frequencies_match_mix(self):
        # Monte-Carlo: 1000 seeds x 10 pairs; each class within 5% of 1/3.
        mix = {"bad": 1 / 3, "medium": 1 / 3, "good": 1 / 3}
        counts = {"bad": 0, "medium": 0, "good": 0}
        # each class has its own state delay, so the delay names the class
        by_delay = {LinkProfile.from_params(LINK_PRESETS[c]).state_delay_ns: c for c in counts}
        assert len(by_delay) == 3
        for seed in range(1000):
            net = build_network(5, 3, mix, seed=seed)
            for profile in net.links.values():
                counts[by_delay[profile.state_delay_ns]] += 1
        total = sum(counts.values())
        assert total == 1000 * 10
        for cls in counts:
            assert rel_err(counts[cls] / total, 1 / 3) < 0.05

    def test_rejects_tiny_or_bad_inputs(self):
        with pytest.raises(ValueError):
            build_network(1, 3, {"good": 1.0}, seed=0)
        with pytest.raises(ValueError):
            build_network(4, 3, {"good": 0.7}, seed=0)
        with pytest.raises(ValueError):
            build_network(4, 3, {"excellent": 1.0}, seed=0)

    @pytest.mark.parametrize("mix", [
        {"bad": -0.5, "good": 1.5},
        {"bad": math.nan, "good": 1.0},
        {"medium": 0.5, "good": math.nan},
        {"bad": math.inf, "good": 0.5},
        {"bad": -math.inf, "good": 1.0},
    ])
    def test_rejects_negative_nan_or_infinite_proportion(self, mix):
        """What ``Generator.choice`` rejected when it drew each pair's class
        is rejected by ``build_network`` itself, naming the mix."""
        with pytest.raises(ValueError, match="quality_mix"):
            build_network(4, 3, mix, seed=0)

    def test_one_draw_matches_the_per_pair_choice_loop(self):
        """Every pair's class drawn at once gives the links and delay matrix
        of one ``rng.choice`` per pair, also for a mix with a zero share."""
        mixes = [*MIXES, {"bad": 0.4, "medium": 0.0, "good": 0.6}]
        for n, mix, seed in itertools.product(range(2, 15), mixes, range(51)):
            got = build_network(n, 3, mix, seed)
            want = reference_build_network(n, 3, mix, seed)
            assert got.links == want.links and got.delay_ns == want.delay_ns

    def test_frozen_with_delay_matrix(self):
        net = build_network(5, 3, {"bad": 0.5, "good": 0.5}, seed=3)
        for a, b in itertools.product(range(5), repeat=2):
            expected = 0.0 if a == b else net.links[(min(a, b), max(a, b))].state_delay_ns
            assert net.delay_ns[a][b] == expected
        with pytest.raises(dataclasses.FrozenInstanceError):
            net.n_nodes = 6
        assert net == build_network(5, 3, {"bad": 0.5, "good": 0.5}, seed=3)

    def test_mean_state_delay(self):
        net = homogeneous_network(4, 2, "good")
        single = LinkProfile.from_params(LINK_PRESETS["good"]).state_delay_ns
        assert rel_err(net.mean_state_delay_ns, single) < 1e-12
