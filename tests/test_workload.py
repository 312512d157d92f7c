"""Circuit profiles, partitioning, arrivals and biased selection."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from conftest import default_catalog, homogeneous_network, make_rng, unit_exec_params
from dqcsched import harness
from dqcsched.configfile import parse_config_text
from dqcsched.execmodel import (
    ExecModelParams,
    estimate_execution_time,
    nominal_execution_time,
)
from dqcsched.netmodel import build_network
from dqcsched.schedulers import asap_schedule
from dqcsched.workload import (
    CIRCUIT_KINDS,
    JobDescriptor,
    WorkloadConfig,
    build_circuit_profile,
    generate_slot_jobs,
    partition_job,
    read_catalog_file,
    required_qpus,
    selection_probabilities,
    sorted_catalog,
)


def expected_two_qubit_count(kind: str, n: int, reps: int = 1) -> int:
    """Closed forms, computed independently of the constructor."""
    if kind == "GHZ":
        return n - 1
    if kind == "GraphState":
        if n == 2:
            return 1
        return 4 if n == 5 else n
    if kind == "QAOA":
        ring = 1 if n == 2 else n
        return 2 * ring * reps
    if kind == "QFT":
        return n * (n - 1) // 2
    if kind == "VQE":
        return (n - 1) * reps
    raise AssertionError(kind)


class TestCircuitProfiles:
    def test_ghz_five(self):
        p = build_circuit_profile("GHZ", 5)
        assert len(p.two_qubit_gates) == 4
        assert all(g[0] == 0 for g in p.two_qubit_gates)

    def test_qft_five(self):
        p = build_circuit_profile("QFT", 5)
        assert len(p.two_qubit_gates) == 10
        assert set(p.two_qubit_gates) == {(i, j) for i in range(5) for j in range(i + 1, 5)}

    def test_qaoa_five_ring(self):
        p = build_circuit_profile("QAOA", 5, reps=1)
        assert len(p.two_qubit_gates) == 10

    def test_vqe_five(self):
        p = build_circuit_profile("VQE", 5, reps=1)
        assert len(p.two_qubit_gates) == 4
        assert p.two_qubit_gates == ((0, 1), (1, 2), (2, 3), (3, 4))

    def test_graph_state_five_uses_fixed_edge_set(self):
        p = build_circuit_profile("GraphState", 5)
        assert set(p.two_qubit_gates) == {(0, 1), (1, 2), (2, 3), (0, 4)}

    def test_graph_state_other_sizes_path_plus_chord(self):
        p = build_circuit_profile("GraphState", 7)
        assert set(p.two_qubit_gates) == {(i, i + 1) for i in range(6)} | {(0, 6)}

    @pytest.mark.parametrize("kind", CIRCUIT_KINDS)
    @pytest.mark.parametrize("n", range(2, 17))
    def test_closed_forms_all_sizes(self, kind, n):
        for reps in (1, 2, 3) if kind in ("QAOA", "VQE") else (1,):
            p = build_circuit_profile(kind, n, reps=reps)
            assert len(p.two_qubit_gates) == expected_two_qubit_count(kind, n, reps)
            for a, b in p.two_qubit_gates:
                assert a != b and 0 <= a < n and 0 <= b < n
            assert p.local_depth >= 1

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            build_circuit_profile("Grover", 5)
        with pytest.raises(ValueError):
            build_circuit_profile("GHZ", 1)
        with pytest.raises(ValueError):
            build_circuit_profile("GHZ", 65)
        with pytest.raises(ValueError):
            build_circuit_profile("VQE", 5, reps=0)


def brute_force_cross_count(profile, capacity: int) -> int:
    blocks = {q: q // capacity for q in range(profile.n_qubits)}
    return sum(1 for a, b in profile.two_qubit_gates if blocks[a] != blocks[b])


class TestPartitionJob:
    def setup_method(self):
        self.net = homogeneous_network(6, 3, "good")
        self.params = unit_exec_params()

    def test_ghz_five_capacity_three(self):
        job = partition_job(build_circuit_profile("GHZ", 5), 3, self.net, self.params)
        assert job.required_qpus == 2
        assert job.nonlocal_gates == 2
        assert len(job.cross_block_pairs) == 2  # one entangled pair per gate
        # gates (0,3) and (0,4) span blocks {0,1,2} and {3,4}
        assert job.cross_block_pairs == ((0, 1), (0, 1))

    def test_ghz_five_fits_one_qpu(self):
        net = homogeneous_network(6, 8, "good")
        job = partition_job(build_circuit_profile("GHZ", 5), 8, net, self.params)
        assert job.required_qpus == 1
        assert job.nonlocal_gates == 0
        assert job.cross_block_pairs == ()

    def test_qft_six_capacity_three(self):
        job = partition_job(build_circuit_profile("QFT", 6), 3, self.net, self.params)
        assert job.required_qpus == 2
        assert job.nonlocal_gates == 9

    @pytest.mark.parametrize("kind", CIRCUIT_KINDS)
    @pytest.mark.parametrize("n", range(2, 17))
    def test_cross_counts_match_brute_force(self, kind, n):
        profile = build_circuit_profile(kind, n)
        for capacity in (2, 3, 5):
            job = partition_job(profile, capacity, self.net, self.params)
            assert job.nonlocal_gates == brute_force_cross_count(profile, capacity)
            assert job.nonlocal_gates <= len(profile.two_qubit_gates)
            assert job.required_qpus == math.ceil(n / capacity)
            if job.required_qpus == 1:
                assert job.nonlocal_gates == 0
            assert len(job.cross_block_pairs) == job.nonlocal_gates
            assert job.est_exec_ns > 0

    def test_capacity_below_two_rejected(self):
        with pytest.raises(ValueError):
            partition_job(build_circuit_profile("GHZ", 5), 1, self.net, self.params)


class TestArrivals:
    """Slot batch sizes: Poisson(lam) draws through ``generate_slot_jobs``."""

    CATALOG = default_catalog(homogeneous_network(6, 3, "good"), unit_exec_params())

    def counts(self, lam, rng, slots):
        config = WorkloadConfig(catalog=self.CATALOG, lam=lam)
        return [len(generate_slot_jobs(config, rng)) for _ in range(slots)]

    def test_lambda_zero_always_empty(self):
        assert self.counts(0.0, make_rng(1), 100) == [0] * 100

    def test_moments(self):
        draws = np.array(self.counts(5.0, make_rng(123, 9), 100_000))
        assert 4.9 <= draws.mean() <= 5.1
        assert 4.8 <= draws.var() <= 5.2

    def test_deterministic_per_seed(self):
        assert self.counts(3.0, make_rng(5), 50) == self.counts(3.0, make_rng(5), 50)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError, match="lam must be >= 0"):
            WorkloadConfig(catalog=self.CATALOG, lam=-1.0)


class TestSelectionProbabilities:
    def test_uniform_at_zero_alpha(self):
        assert np.allclose(selection_probabilities(4, 0.0), [0.25] * 4)

    def test_linear_at_alpha_one(self):
        assert np.allclose(selection_probabilities(3, 1.0), [1 / 6, 2 / 6, 3 / 6])

    def test_half_alpha_two_jobs(self):
        root2 = math.sqrt(2.0)
        expected = [1 / (1 + root2), root2 / (1 + root2)]
        assert np.allclose(selection_probabilities(2, 0.5), expected)

    @pytest.mark.parametrize("n,alpha", [(1, 0.0), (5, 0.3), (40, 1.0), (7, 0.0)])
    def test_sums_to_one_and_monotone(self, n, alpha):
        p = selection_probabilities(n, alpha)
        assert abs(p.sum() - 1.0) < 1e-12
        assert all(b >= a for a, b in zip(p, p[1:]))


class TestSlotGeneration:
    def setup_method(self):
        self.net = homogeneous_network(6, 3, "good")
        self.params = unit_exec_params()
        self.catalog = default_catalog(self.net, self.params)

    def test_catalog_sorted_by_nonlocal_gates(self):
        gates = [j.nonlocal_gates for j in self.catalog]
        assert gates == sorted(gates)
        assert [j.id for j in self.catalog] == list(range(len(self.catalog)))

    def test_lambda_zero_empty_queue(self):
        cfg = WorkloadConfig(catalog=self.catalog, lam=0.0)
        assert generate_slot_jobs(cfg, make_rng(0)) == []

    def test_fixed_count_mode(self):
        cfg = WorkloadConfig(catalog=self.catalog, lam=5.0, fixed_count=5)
        rng = make_rng(4)
        for _ in range(20):
            queue = generate_slot_jobs(cfg, rng)
            assert len(queue) == 5
            assert [j.id for j in queue] == list(range(5))
            # every other field is copied from a catalog entry
            assert all(any(dataclasses.replace(j, id=c.id) == c for c in self.catalog)
                       for j in queue)

    def test_probabilities_fixed_and_read_only(self):
        cfg = WorkloadConfig(catalog=self.catalog, lam=5.0, bias_alpha=0.5)
        expected = selection_probabilities(len(self.catalog), 0.5).cumsum()
        assert np.array_equal(cfg.cumulative, expected / expected[-1])
        with pytest.raises(ValueError):
            cfg.cumulative[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.bias_alpha = 0.0

    @pytest.mark.parametrize("n", [1, 3, 15, 30])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_draws_match_generator_choice(self, n, alpha):
        net = homogeneous_network(12, 3, "good")
        catalog = default_catalog(net, self.params, qubit_sizes=(5, 10, 15, 20, 25, 30))[:n]
        index_of = {id(job.profile): job.id for job in catalog}
        for size in range(1, 40):
            cfg = WorkloadConfig(catalog=catalog, fixed_count=size, bias_alpha=alpha)
            rng, reference = make_rng(size), make_rng(size)
            drawn = np.array([index_of[id(j.profile)] for j in generate_slot_jobs(cfg, rng)])
            expected = reference.choice(n, size=size, p=selection_probabilities(n, alpha))
            assert np.array_equal(drawn, expected)
            assert rng.bit_generator.state == reference.bit_generator.state
            table = cfg.cumulative.searchsorted(make_rng(size).random(size), side="right")
            assert table.dtype == expected.dtype and np.array_equal(table, expected)

    def test_bias_increases_mean_nonlocal_gates(self):
        biased = WorkloadConfig(catalog=self.catalog, lam=5.0, bias_alpha=0.5)
        uniform = WorkloadConfig(catalog=self.catalog, lam=5.0, bias_alpha=0.0)
        totals = {}
        for name, cfg in (("biased", biased), ("uniform", uniform)):
            rng = make_rng(77)
            gates, jobs = 0, 0
            for _ in range(10_000):
                for job in generate_slot_jobs(cfg, rng):
                    gates += job.nonlocal_gates
                    jobs += 1
            totals[name] = gates / jobs
        assert totals["biased"] > totals["uniform"]

    def test_same_seed_same_stream(self):
        cfg = WorkloadConfig(catalog=self.catalog, lam=4.0, bias_alpha=0.5)
        stream1 = [tuple(j.profile.kind for j in generate_slot_jobs(cfg, make_rng(9, t)))
                   for t in range(30)]
        stream2 = [tuple(j.profile.kind for j in generate_slot_jobs(cfg, make_rng(9, t)))
                   for t in range(30)]
        assert stream1 == stream2

    def test_catalog_validation(self):
        backwards = tuple(reversed(self.catalog))
        with pytest.raises(ValueError):
            WorkloadConfig(catalog=backwards, lam=5.0)
        with pytest.raises(ValueError):
            WorkloadConfig(catalog=self.catalog, lam=-1.0)
        with pytest.raises(ValueError):
            WorkloadConfig(catalog=self.catalog, lam=1.0, bias_alpha=2.0)


class TestCatalogFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "catalog.txt"
        path.write_text(
            "# custom catalog\n"
            "GHZ 5 1\n"
            "QFT, 6, 1\n"
            "VQE 8 2\n"
        )
        net = homogeneous_network(6, 3, "good")
        entries = [line[1:] for line in read_catalog_file(str(path))]
        assert entries == [("GHZ", 5, 1), ("QFT", 6, 1), ("VQE", 8, 2)]
        catalog = sorted_catalog(entries, net, unit_exec_params())
        assert len(catalog) == 3
        kinds = {j.profile.kind for j in catalog}
        assert kinds == {"GHZ", "QFT", "VQE"}
        gates = [j.nonlocal_gates for j in catalog]
        assert gates == sorted(gates)

    def test_bad_line_reports_location(self, tmp_path):
        path = tmp_path / "catalog.txt"
        path.write_text("GHZ 5\n")
        with pytest.raises(ValueError, match="catalog.txt:1"):
            read_catalog_file(str(path))


class TestPriceKey:
    """The per-job key the price tables are keyed by stands in exactly for
    (``profile.local_depth``, ``cross_block_pairs``)."""

    @staticmethod
    def catalogs(net):
        params = unit_exec_params()
        return [default_catalog(net, params, qubit_sizes=sizes, reps=reps)
                for sizes in ((5, 10, 15), (4, 6, 8, 12)) for reps in (1, 2)]

    def test_keys_equal_exactly_when_priced_content_equal(self):
        jobs = [job for capacity in (2, 3)
                for catalog in self.catalogs(homogeneous_network(6, capacity, "good"))
                for job in catalog]
        assert len({j.price_key for j in jobs}) > 20
        for a, b in itertools.combinations(jobs, 2):
            same = (a.profile.local_depth, a.cross_block_pairs) == \
                (b.profile.local_depth, b.cross_block_pairs)
            assert (a.price_key == b.price_key) == same

    def test_replace_derives_a_fresh_key(self):
        job = default_catalog(homogeneous_network(6, 3, "good"), unit_exec_params())[-1]
        assert job.cross_block_pairs
        local = dataclasses.replace(job, cross_block_pairs=())
        assert local.price_key == repr((job.profile.local_depth, ()))
        assert dataclasses.replace(job, id=99).price_key == job.price_key

    def test_drawn_jobs_carry_their_catalog_key(self):
        catalog = self.catalogs(homogeneous_network(6, 3, "good"))[1]
        index_of = {id(job.profile): job.id for job in catalog}
        cfg = WorkloadConfig(catalog=catalog, lam=6.0, bias_alpha=0.5)
        rng = make_rng(81)
        for _ in range(200):
            for job in generate_slot_jobs(cfg, rng):
                entry = catalog[index_of[id(job.profile)]]
                assert job.price_key is entry.price_key
                assert dataclasses.replace(job, id=entry.id) == entry

    def test_catalogs_sharing_a_network_never_hit_stale(self):
        """Catalogs of two capacities and two size sets, drawn and priced on
        one network with one set of price tables, against direct exec-model calls."""
        net = build_network(6, 3, {"bad": 0.2, "medium": 0.3, "good": 0.5}, seed=4)
        params = ExecModelParams()
        catalogs = [c for capacity in (2, 3)
                    for c in self.catalogs(homogeneous_network(6, capacity, "good"))]
        rng = make_rng(82)
        for _ in range(3):
            for catalog in catalogs:
                cfg = WorkloadConfig(catalog=catalog, lam=5.0)
                queue = [j for j in generate_slot_jobs(cfg, rng) if j.required_qpus <= 6]
                schedule = asap_schedule(queue, net, params)
                by_id = {j.id: j for j in queue}
                for job_id, nodes, start, finish in zip(schedule.job_id, schedule.assigned_nodes,
                                                        schedule.start_ns, schedule.finish_ns):
                    assert finish - start == estimate_execution_time(
                        by_id[job_id], nodes, net, params)
        assert len(net._price_tables[params.key]) > 20


# -- catalogs as they were built before each entry was constructed once -------


def reference_partition_job(profile, qpu_capacity, network, exec_params):
    """``partition_job`` as it was: a draft job, its nominal estimate, then a
    ``dataclasses.replace`` that adds it."""
    required = required_qpus(profile.n_qubits, qpu_capacity)
    cross = tuple(
        (min(a // qpu_capacity, b // qpu_capacity), max(a // qpu_capacity, b // qpu_capacity))
        for a, b in profile.two_qubit_gates
        if a // qpu_capacity != b // qpu_capacity
    )
    draft = JobDescriptor(
        id=-1,
        required_qpus=required,
        nonlocal_gates=len(cross),
        est_exec_ns=0,
        profile=profile,
        cross_block_pairs=cross,
    )
    est = nominal_execution_time(profile.local_depth, cross, network, exec_params)
    return dataclasses.replace(draft, est_exec_ns=est)


def reference_sorted_catalog(entries, network, exec_params):
    """``sorted_catalog`` as it was: sort the partitioned jobs, then renumber
    each with ``dataclasses.replace``."""
    jobs = [
        reference_partition_job(build_circuit_profile(kind, n, reps), network.qpu_capacity,
                                network, exec_params)
        for kind, n, reps in entries
    ]
    jobs.sort(key=lambda j: (j.nonlocal_gates, j.est_exec_ns, j.profile.kind,
                             j.profile.n_qubits))
    return tuple(dataclasses.replace(j, id=i) for i, j in enumerate(jobs))


class TestCatalogMatchesReference:
    """Every catalog entry equals, field for field and in order, the entry
    built the old way, ``price_key`` included (``vars`` holds every field)."""

    NETWORKS = [build_network(n, capacity, {"bad": 0.2, "medium": 0.3, "good": 0.5}, seed)
                for n, capacity, seed in ((6, 3, 0), (12, 3, 5), (6, 2, 1), (8, 5, 2))]
    PARAMS = [ExecModelParams(), ExecModelParams(700, "per-link-parallel")]

    def test_default_catalog(self):
        """Every family at each size, as the default config lists them."""
        for net, params, reps in itertools.product(self.NETWORKS, self.PARAMS, (1, 2)):
            for sizes in ((5, 10, 15), (2, 3, 4, 7), tuple(range(5, 31))):
                entries = [(kind, n, reps) for kind in CIRCUIT_KINDS for n in sizes]
                got = sorted_catalog(entries, net, params)
                want = reference_sorted_catalog(entries, net, params)
                assert [vars(job) for job in got] == [vars(job) for job in want]

    def test_catalog_from_file(self, tmp_path):
        """Repeated and tied lines keep their file order among equals."""
        lines = ["VQE 8 2", "GHZ 5 1", "QFT, 6, 1", "GHZ 5 1", "QAOA 4 3", "GraphState 5 1",
                 "GHZ 2 1", "VQE 2 1", "QFT 12 1"]
        path = tmp_path / "catalog.txt"
        path.write_text("# mixed\n" + "\n".join(lines) + "\n")
        entries = [(kind, int(n), int(reps)) for kind, n, reps in
                   (line.replace(",", " ").split() for line in lines)]
        for net, params in itertools.product(self.NETWORKS, self.PARAMS):
            got = sorted_catalog([line[1:] for line in read_catalog_file(str(path))],
                                 net, params)
            want = reference_sorted_catalog(entries, net, params)
            assert [vars(job) for job in got] == [vars(job) for job in want]

    def test_config_catalog(self, tmp_path):
        """``harness.build_catalog`` builds a config's entries, from
        ``qubit_sizes`` or from a ``catalog_file`` in line order, as the
        reference does."""
        path = tmp_path / "catalog.txt"
        path.write_text("VQE 8 2\nGHZ 5 1\nQFT, 12, 1\nGHZ 5 1\n")
        sources = {
            "qubit_sizes = 2, 9\nreps = 2": [(k, n, 2) for k in CIRCUIT_KINDS for n in (2, 9)],
            f"catalog_file = {path}": [("VQE", 8, 2), ("GHZ", 5, 1), ("QFT", 12, 1), ("GHZ", 5, 1)],
        }
        for workload_keys, entries in sources.items():
            config = harness.config_from_parsed(parse_config_text(
                f"[network]\nnodes = 12\n[workload]\n{workload_keys}\n"
                "[setting a]\nlambda = 1\n[run]\nseeds = 0\n"))
            assert config.catalog_entries == tuple(entries)
            for net in self.NETWORKS:
                got = harness.build_catalog(config, net)
                want = reference_sorted_catalog(entries, net, config.exec_params())
                assert [vars(job) for job in got] == [vars(job) for job in want]

    def test_partition_job(self):
        for net, params in itertools.product(self.NETWORKS, self.PARAMS):
            for kind, n in itertools.product(CIRCUIT_KINDS, (2, 5, 9, 17)):
                profile = build_circuit_profile(kind, n, 2)
                assert vars(partition_job(profile, net.qpu_capacity, net, params)) == \
                    vars(reference_partition_job(profile, net.qpu_capacity, net, params))
