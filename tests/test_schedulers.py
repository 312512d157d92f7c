"""Scheduler hand traces and structural invariants."""

import dataclasses
import gc
import itertools
import signal
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    MIXES,
    agent_states,
    cell_of,
    default_catalog,
    homogeneous_network,
    make_job,
    make_rng,
    makespans,
    queue_rows,
    reference_pricer,
    reference_select_nodes,
    run_unchecked,
    schedule_on,
    schedule_rows,
    stage_ids,
    stage_rows,
    unit_exec_params,
    validate_queue,
    weighted_network,
)
from dqcsched import execmodel, schedulers
from dqcsched.execmodel import EPR_POLICIES, ExecModelParams, estimate_execution_time
from dqcsched.netmodel import LINK_PRESETS, LinkProfile, build_network
from dqcsched.ppo import PpoAgent, PpoConfig
from dqcsched.schedulers import (
    ENUMERATION_CAP,
    SCHEDULER_NAMES,
    SchedulingError,
    asap_schedule,
    epr_schedule,
    fifo_schedule,
    get_scheduler,
    list_schedule,
    queue_table,
    resource_prioritize_schedule,
    select_nodes,
)

PARAMS = unit_exec_params()
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def job_times(cell):
    return {job_id: (start, finish) for job_id, _, start, finish, _ in schedule_rows(cell)}


class TestFifo:
    def test_trace(self, four_node_network):
        queue = [make_job(0, 2, 10), make_job(1, 2, 20), make_job(2, 3, 5)]
        s = fifo_schedule([queue], four_node_network, PARAMS)
        assert stage_ids(s) == [{0, 1}, {2}]
        assert job_times(s) == {0: (0, 10), 1: (0, 20), 2: (20, 25)}
        assert makespans(s) == [25]

    def test_empty_queue(self, four_node_network):
        assert schedule_rows(fifo_schedule([[]], four_node_network, PARAMS)) == []

    def test_single_full_width_job(self, four_node_network):
        s = fifo_schedule([[make_job(0, 4, 7)]], four_node_network, PARAMS)
        assert job_times(s) == {0: (0, 7)}
        assert makespans(s) == [7]

    def test_oversized_job_rejected(self, four_node_network):
        with pytest.raises(SchedulingError, match="job 9"):
            fifo_schedule([[make_job(9, 5, 1)]], four_node_network, PARAMS)


class TestList:
    def test_trace(self, four_node_network):
        queue = [make_job(0, 3, 10), make_job(1, 2, 5), make_job(2, 1, 10)]
        s = list_schedule([queue], four_node_network, PARAMS)
        assert stage_ids(s) == [{0, 2}, {1}]
        assert job_times(s) == {0: (0, 10), 2: (0, 10), 1: (10, 15)}

    def test_full_width_jobs_reduce_to_fifo(self, four_node_network):
        queue = [make_job(i, 4, 5 + i) for i in range(4)]
        assert (schedule_rows(list_schedule([queue], four_node_network, PARAMS))
                == schedule_rows(fifo_schedule([queue], four_node_network, PARAMS)))


class TestResourcePrioritize:
    def test_trace(self, four_node_network):
        queue = [make_job(0, 2, 10), make_job(1, 2, 20), make_job(2, 3, 5)]
        s = resource_prioritize_schedule([queue], four_node_network, PARAMS)
        assert stage_ids(s) == [{0, 1}, {2}]

    def test_mean_time_tie_break(self, four_node_network):
        queue = [make_job(0, 2, 10), make_job(1, 2, 2), make_job(2, 2, 50)]
        s = resource_prioritize_schedule([queue], four_node_network, PARAMS)
        # all pairs reach utilization 4; {0, 1} has the smallest mean time
        assert stage_ids(s)[0] == {0, 1}

    def test_single_job(self, four_node_network):
        s = resource_prioritize_schedule([[make_job(3, 2, 9)]], four_node_network, PARAMS)
        assert stage_ids(s) == [{3}]

    def oracle_round(self, jobs, n_nodes):
        """Independent subset search: explicit exhaustive enumeration."""
        best = None
        for r in range(1, len(jobs) + 1):
            for combo in itertools.combinations(jobs, r):
                util = sum(j.required_qpus for j in combo)
                if util > n_nodes:
                    continue
                mean_t = sum(j.est_exec_ns for j in combo) / len(combo)
                ids = tuple(sorted(j.id for j in combo))
                key = (-util, mean_t, ids)
                if best is None or key < best[0]:
                    best = (key, ids)
        return set(best[1])

    def test_rounds_match_exhaustive_oracle(self, four_node_network):
        rng = make_rng(31)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            jobs = [
                make_job(i, int(rng.integers(1, 5)), int(rng.integers(1, 100)))
                for i in range(n)
            ]
            s = resource_prioritize_schedule([jobs], four_node_network, PARAMS)
            remaining = list(jobs)
            for ids in stage_ids(s):
                expected = self.oracle_round(remaining, 4)
                assert ids == expected
                remaining = [j for j in remaining if j.id not in expected]
            assert remaining == []


def reference_resource_schedule(queue, network, exec_params):
    """The subset search with per-stage tables and a bit-scanning tie-break."""
    validate_queue(queue, network)
    rows: list[tuple] = []
    place = reference_pricer(rows, network, exec_params)
    remaining = list(queue)
    barrier = 0
    stage = 0
    while remaining:
        pool = remaining[:ENUMERATION_CAP]
        m = len(pool)
        bits = (np.arange(1, 2 ** m)[:, None] >> np.arange(m)) & 1
        demand = bits @ np.array([j.required_qpus for j in pool])
        est_sum = bits @ np.array([j.est_exec_ns for j in pool], dtype=float)
        counts = bits.sum(axis=1)
        feasible = demand <= network.n_nodes
        util = np.where(feasible, demand, -1)
        best_util = util.max()
        mean_t = np.where(util == best_util, est_sum / counts, np.inf)
        best_mean = mean_t.min()
        candidates = np.nonzero(mean_t == best_mean)[0]
        best_ids = None
        best_mask = None
        for c in candidates:
            ids = tuple(sorted(pool[k].id for k in range(m) if bits[c, k]))
            if best_ids is None or ids < best_ids:
                best_ids = ids
                best_mask = c
        chosen_idx = [k for k in range(m) if bits[best_mask, k]]
        free = list(range(network.n_nodes))
        stage_start = len(rows)
        for k in chosen_idx:
            job = pool[k]
            nodes, free = free[: job.required_qpus], free[job.required_qpus:]
            place(job, nodes, barrier, stage)
        barrier = max(row[3] for row in rows[stage_start:])
        stage += 1
        chosen_set = set(chosen_idx)
        remaining = [j for i, j in enumerate(remaining) if i not in chosen_set]
    return rows


def assert_resource_matches_reference(queue, net):
    got = resource_prioritize_schedule([queue], net, PARAMS)
    want = reference_resource_schedule(queue, net, PARAMS)
    assert schedule_rows(got) == want


@pytest.mark.parametrize("n_nodes", [6, 12])
def test_resource_matches_reference_search(n_nodes):
    """Random queues of 1-20 jobs with few distinct sizes and times, so many
    subsets tie on demand and mean; shuffled ids make the id-set tie-break
    differ from arrival order. Then pools of 1-QPU jobs with tied times,
    where every subset of up to ``n_nodes`` jobs fits (the search's worst
    case), and queues of 13-20 jobs, whose pools overflow the cap of 12."""
    net = build_network(n_nodes, 3, {"bad": 0.2, "medium": 0.3, "good": 0.5}, seed=5)
    rng = make_rng(53, n_nodes)

    def random_ids(n):
        return rng.permutation(100)[:n] if rng.random() < 0.5 else np.arange(n)

    for _ in range(150):
        n = int(rng.integers(1, 21))
        ids = random_ids(n)
        sizes = rng.choice([1, 2, 3, n_nodes // 2, n_nodes], size=n)
        times = rng.choice([10, 20, 30, 45], size=n)
        queue = [make_job(int(i), int(q), int(t)) for i, q, t in zip(ids, sizes, times)]
        assert_resource_matches_reference(queue, net)
    for _ in range(8):
        n = int(rng.integers(7, 17))
        times = rng.choice([20, 30], size=n) if rng.random() < 0.5 else [20] * n
        queue = [make_job(int(i), 1, int(t)) for i, t in zip(random_ids(n), times)]
        assert_resource_matches_reference(queue, net)
    for _ in range(16):
        n = int(rng.integers(13, 21))
        sizes = rng.choice([1, 2, 3, n_nodes // 2], size=n)
        times = rng.choice([10, 20, 30, 45], size=n)
        queue = [make_job(int(i), int(q), int(t))
                 for i, q, t in zip(random_ids(n), sizes, times)]
        assert_resource_matches_reference(queue, net)


class TestDurationMemo:
    """Prices come from price tables on the network: per ``params.key``, one
    class per (price key, demand), holding a row by first node for spans and
    a dict by node tuple. Every answer must equal a direct exec-model call,
    made once per distinct (params, class, nodes)."""

    MIXED = {"bad": 0.2, "medium": 0.3, "good": 0.5}

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []
        direct = execmodel.estimate_execution_time

        def count(*args):
            calls.append(args)
            return direct(*args)

        monkeypatch.setattr(execmodel, "estimate_execution_time", count)
        return calls

    @staticmethod
    def price(job, nodes, net, params):
        """The placement loops' price step: the flat table's entry for (price
        key, nodes), filled by one exec-model call on a miss."""
        prices = net._price_tables.setdefault(params.key, {})
        key = job.price_key, tuple(nodes)
        if key not in prices:
            prices[key] = execmodel.estimate_execution_time(job, key[1], net, params)
        return prices[key]

    @staticmethod
    def n_entries(net):
        return sum(map(len, net._price_tables.values()))

    @pytest.mark.parametrize("policy", ["serial", "per-link-parallel"])
    def test_hit_equals_direct_call(self, counted, policy):
        net = build_network(6, 3, self.MIXED, seed=7)
        both = [ExecModelParams(gate, policy) for gate in (1000, 400)]
        jobs = default_catalog(net, both[0], qubit_sizes=(5, 10, 15))
        assert any(job.cross_block_pairs for job in jobs)
        placements = [(job, nodes, params) for params in both for job in jobs
                      for nodes in itertools.combinations(range(6), job.required_qpus)]
        for job, nodes, params in placements * 2:
            direct = estimate_execution_time(job, nodes, net, params)
            # block i runs on the i-th smallest node, whatever the tuple's order
            assert estimate_execution_time(job, nodes[::-1], net, params) == direct
            assert self.price(job, nodes, net, params) == direct
            first = nodes[0]
            if nodes == tuple(range(first, first + len(nodes))):  # a span
                # the lowest-ids pick once nodes 0 .. first - 1 are taken
                free = (1 << 6) - (1 << first)
                left = free - sum(1 << n for n in nodes)
                assert schedulers._pick(job, free, net, False) == (nodes, left)
        # one call per distinct (params, price key, nodes); the second pass
        # is served from the tables
        distinct = {(params.key, job.price_key, nodes) for job, nodes, params in placements}
        assert len(counted) == len(distinct) == self.n_entries(net) <= len(placements)

    def test_separate_entries_per_network_and_params(self):
        nets = [homogeneous_network(6, 3, quality) for quality in ("good", "medium")]
        all_params = [ExecModelParams(local_gate_ns=1000),
                      ExecModelParams(local_gate_ns=250, epr_serialization="per-link-parallel")]
        job = default_catalog(nets[0], all_params[0], qubit_sizes=(15,))[-1]
        nodes = tuple(range(job.required_qpus))
        prices = []
        for net in nets:
            for params in all_params:
                for schedule in (fifo_schedule([[job]], net, params),
                                 asap_schedule([[job]], net, params)):
                    prices.append(schedule.finish_ns[0] - schedule.start_ns[0])
                    assert prices[-1] == estimate_execution_time(job, nodes, net, params)
        assert len(set(prices)) == 4
        assert [len(net._price_tables) for net in nets] == [2, 2]
        # each (network, params) prices the job's spans from nodes 0 and 1 once,
        # and ASAP's lowest ids are the first of them
        assert [self.n_entries(net) for net in nets] == [4, 4]

    def test_wrong_length_rejected_on_warm_memo(self):
        """Jobs of one price key but two demands share the staged span
        table's entry of a first node: block a of either runs on node first
        + a, so their prices agree, and the class's narrowest job fills its
        row. The flat table and ASAP's pick table key each demand's own node
        tuples, so a tuple of the wrong length reaches only the exec model,
        which raises, warm table or not."""
        net = homogeneous_network(4, 3, "good")
        wide, narrow = make_job(0, 3, 10), make_job(1, 2, 10)
        assert wide.price_key == narrow.price_key
        for queue in ([wide, narrow], [narrow, wide]):
            assert queue_table([queue], net, PARAMS).catalog.spans.tolist() == [[10, 10, 10, -1]]
            schedule = fifo_schedule([queue], net, PARAMS)
            assert [row[1] for row in schedule_rows(schedule)] == [
                tuple(range(j.required_qpus)) for j in queue]
            assert (schedule.finish_ns - schedule.start_ns).tolist() == [10, 10]
        spans = {(narrow.price_key, (f, f + 1)): 10 for f in range(3)}
        assert net._price_tables[PARAMS.key] == spans
        for queue in ([wide, narrow], [narrow, wide]):
            schedule = asap_schedule([queue], net, PARAMS)
            assert schedule.nodes == [tuple(range(j.required_qpus)) for j in queue]
        assert net._price_tables[PARAMS.key] == {**spans, (wide.price_key, (0, 1, 2)): 10}
        assert all(len(nodes) == d for (_, d), (nodes, _) in net._lowest_picks.items())
        with pytest.raises(ValueError, match="requires 2 nodes, got 3"):
            estimate_execution_time(narrow, (0, 1, 2), net, PARAMS)
        with pytest.raises(ValueError, match="requires 3 nodes, got 2"):
            estimate_execution_time(wide, (0, 1), net, PARAMS)

    def test_make_job_prices_exactly(self):
        net = homogeneous_network(4, 3, "good")
        for gate, t_ns in itertools.product((7, 3), (10, 20, 10, 35)):
            job = make_job(t_ns, 2, t_ns)
            assert self.price(job, (1, 3), net, ExecModelParams(gate)) == gate * t_ns

    def test_network_with_tables_freed_without_the_cycle_collector(self):
        """The price and pick tables hold no reference back to their network,
        so dropping a priced network whose node picks are memoised frees it
        at once. A cycle would keep every network of a long run, and the jobs
        its classes hold, until a full collection."""
        net = build_network(12, 3, self.MIXED, seed=3)
        queue = list(default_catalog(net, PARAMS))[:8]
        for name in SCHEDULER_NAMES:
            run_unchecked(name, [queue], net, PARAMS)
        agent = PpoAgent(PpoConfig(j_max=8), net, PARAMS, default_catalog(net, PARAMS))
        agent.schedule(queue, node_selection=True)
        del agent
        assert self.n_entries(net) > 0
        assert len(net._selection_memo) > 1 and len(net._lowest_picks) > 1
        alive = weakref.ref(net)
        gc.disable()
        try:
            del net
            assert alive() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("policy", ["serial", "per-link-parallel"])
    def test_schedulers_share_one_call_per_class_and_nodes(self, counted, policy):
        """All six schedulers on one network: lowest-id and selected picks
        share the flat price table, which also fills each job table's span
        prices, so the exec model is called at most once per distinct (price
        key, nodes) that the placements or the span rows hold (a class's row
        priced on its narrowest job's spans), each call fills one flat entry,
        and every duration is its answer."""
        net = build_network(6, 3, self.MIXED, seed=11)
        params = ExecModelParams(epr_serialization=policy)
        catalog = default_catalog(net, params)
        rng = make_rng(71)
        placed, spanned = set(), set()
        for _ in range(40):
            queue = [dataclasses.replace(catalog[k], id=i)
                     for i, k in enumerate(rng.integers(0, len(catalog), size=8))]
            least = {}
            for job in queue:
                least[job.price_key] = min(least.get(job.price_key, 6), job.required_qpus)
            spanned |= {(key, tuple(range(f, f + d))) for key, d in least.items()
                        for f in range(6 - d + 1)}
            for name in SCHEDULER_NAMES:
                schedule = run_unchecked(name, [queue], net, params)
                for job_id, nodes, start, finish, _ in schedule_rows(schedule):
                    job = queue[job_id]
                    assert finish - start == estimate_execution_time(job, nodes, net, params)
                    placed.add((job.price_key, nodes))
        calls = {(job.price_key, tuple(nodes)) for job, nodes, *_ in counted}
        assert len(counted) == len(calls) == self.n_entries(net)
        assert spanned <= calls <= placed | spanned

    def test_fifo_and_asap_share_pick_and_price_entries(self, counted):
        """A queue that fits one stage places alike under FIFO and ASAP, and
        whichever runs second finds every price in the flat table the first
        filled: no new flat entry, no exec-model call, no node selection.
        Both fill the span rows of the queue's two classes (3 + 5 spans),
        which hold every placement. Only ASAP fills the lowest-ids pick
        table; FIFO's nodes are spans."""
        catalog = default_catalog(build_network(6, 3, self.MIXED, seed=5), PARAMS,
                                  qubit_sizes=(5, 10))
        queue = [dataclasses.replace(catalog[k], id=i) for i, k in enumerate((-1, 0))]
        assert [job.required_qpus for job in queue] == [4, 2]
        for first, second in ((fifo_schedule, asap_schedule), (asap_schedule, fifo_schedule)):
            net = build_network(6, 3, self.MIXED, seed=5)
            placed = [row[1] for row in schedule_rows(first([queue], net, PARAMS))]
            assert placed == [(0, 1, 2, 3), (4, 5)]
            prices = dict(net._price_tables[PARAMS.key])
            assert len(prices) == len(counted) == 3 + 5
            assert [row[1] for row in schedule_rows(second([queue], net, PARAMS))] == placed
            assert net._price_tables[PARAMS.key] == prices
            assert len(counted) == 3 + 5 and net._selection_memo == {}
            assert sorted(nodes for nodes, _ in net._lowest_picks.values()) == sorted(placed)
            counted.clear()

    def test_lowest_pick_oracle_on_every_mask(self):
        """Every free mask and demand of an 8-node network: the lowest-ids
        pick is the d smallest free ids with the rest left free, stored under
        (mask, d); a mask of fewer than d nodes raises and stores nothing."""
        net = homogeneous_network(8, 3, "good")
        for free, d in itertools.product(range(1 << 8), range(1, 9)):
            ids = [n for n in range(8) if free >> n & 1]
            job = make_job(7, d, 10)
            if len(ids) < d:
                with pytest.raises(SchedulingError, match="stage exceeds free nodes"):
                    schedulers._pick(job, free, net, False)
                continue
            want = tuple(ids[:d]), sum(1 << n for n in ids[d:])
            assert schedulers._pick(job, free, net, False) == want
            assert net._lowest_picks[free, d] == want
        assert len(net._lowest_picks) == sum(
            1 for free in range(1 << 8) for d in range(1, free.bit_count() + 1))
        assert net._selection_memo == {}


def first_fit_bins(queue, n_nodes):
    """First-fit bin packing in queue order: each job joins the first bin
    whose remaining nodes hold it, or opens a bin of ``n_nodes``."""
    bins, room = [], []
    for job in queue:
        k = next((k for k, left in enumerate(room) if job.required_qpus <= left), len(bins))
        if k == len(bins):
            bins.append([])
            room.append(n_nodes)
        bins[k].append(job.id)
        room[k] -= job.required_qpus
    return bins


@PROPERTY
@given(n_nodes=st.integers(2, 12), data=st.data())
def test_list_stages_are_first_fit_bins(n_nodes, data):
    """LIST's stages, each in placement order, are the first-fit bins of the
    queue: a job joins the first stage whose remaining nodes hold it."""
    demands = data.draw(st.lists(st.integers(1, n_nodes), max_size=14))
    queue = [make_job(i, d, 10 + i % 3) for i, d in enumerate(demands)]
    schedule = list_schedule([queue], homogeneous_network(n_nodes, 3), PARAMS)
    assert [[row[0] for row in stage] for stage in stage_rows(schedule)] == \
        first_fit_bins(queue, n_nodes)


@st.composite
def staged_cells(draw):
    """(network, queues of job stages): a mixed ``build_network`` of 2-12
    nodes and 1-4 queues of catalog jobs that fit it, cut into stages of at
    most the network's nodes, each job under its queue's next id."""
    n_nodes = draw(st.integers(2, 12))
    network = build_network(n_nodes, 3, draw(st.sampled_from(MIXES)),
                            seed=draw(st.integers(0, 30)))
    catalog = [job for job in default_catalog(network, PARAMS) if job.required_qpus <= n_nodes]
    queues = []
    for _ in range(draw(st.integers(1, 4))):
        picks = draw(st.lists(st.integers(0, len(catalog) - 1), max_size=10))
        stages, room = [], 0
        for i, k in enumerate(picks):
            job = dataclasses.replace(catalog[k], id=i)
            if job.required_qpus > room or draw(st.booleans()):
                stages.append([])
                room = n_nodes
            stages[-1].append(job)
            room -= job.required_qpus
        queues.append(stages)
    return network, queues


def walked_placement(queues, network, node_selection):
    """Each queue's (job id, nodes, start, finish, stage) rows as the per-job
    loop placed them: a stage picks through ``_pick`` from the full mask and
    starts at its queue's previous stage's latest finish, or at 0; every
    duration is a direct exec-model call."""
    rows = []
    for stages in queues:
        barrier = 0
        for stage, jobs in enumerate(stages):
            free, end = (1 << network.n_nodes) - 1, barrier
            for job in jobs:
                nodes, free = schedulers._pick(job, free, network, node_selection)
                finish = barrier + estimate_execution_time(job, nodes, network, PARAMS)
                rows.append((job.id, nodes, barrier, finish, stage))
                end = max(end, finish)
            barrier = end
    return rows


def place_stage_lists(queues, network, params, node_selection=False):
    """``_place_stages`` of each queue's stages, lists of jobs, over the job
    table of the queues' jobs in stage order."""
    table = queue_table([[job for stage in stages for job in stage] for stages in queues],
                        network, params)
    sizes = np.array([len(stage) for stages in queues for stage in stages], dtype=np.int64)
    return schedulers._place_stages(table, np.arange(len(table.rows)), sizes.cumsum() - sizes,
                                    table.counts, network, params, node_selection)


class TestStageEngine:
    """``_place_stages`` against the per-job walk it replaced, and its tables."""

    @PROPERTY
    @given(env=staged_cells(), node_selection=st.booleans())
    def test_span_nodes_and_barriers_equal_the_pick_walk(self, env, node_selection):
        """A whole cell in one call: job k's span D_k .. D_k + d_k - 1 is the
        lowest-ids pick from a full mask, each queue's barriers start at 0,
        and each price is a direct call, on both EPR policies in turn."""
        network, queues = env
        want = walked_placement(queues, network, node_selection)
        for policy in EPR_POLICIES:  # the second policy meets a warm selection memo
            params = dataclasses.replace(PARAMS, epr_serialization=policy)
            cell = place_stage_lists(queues, network, params, node_selection)
            assert cell.counts.tolist() == [sum(map(len, stages)) for stages in queues]
            if policy == "serial":
                assert schedule_rows(cell) == want
            else:
                assert [row[:2] + row[4:] for row in schedule_rows(cell)] == \
                    [row[:2] + row[4:] for row in want]

    @PROPERTY
    @given(env=staged_cells())
    def test_every_span_entry_equals_a_direct_call(self, env):
        """A job table's span prices, by (price class, first node), are
        read-only and built with it: each job's entry of every first node from
        which it fits is the exec model's price of the job on the span from
        that node, and the entries from which no job of its class fits are
        -1. Price keys and classes correspond one to one."""
        network, queues = env
        n = network.n_nodes
        for policy in EPR_POLICIES:
            params = dataclasses.replace(PARAMS, epr_serialization=policy)
            catalog = queue_table([[job for stages in queues for jobs in stages for job in jobs]],
                                  network, params).catalog
            classes = dict(zip([job.price_key for job in catalog], catalog.cls.tolist()))
            assert len(set(classes.values())) == len(classes) == len(catalog.spans)
            assert catalog.cls.tolist() == [classes[job.price_key] for job in catalog]
            assert catalog.spans.shape == (len(classes), n) and not catalog.spans.flags.writeable
            least = {}
            for job, c in zip(catalog, catalog.cls.tolist()):
                least[c] = min(least.get(c, n), job.required_qpus)
                for f in range(n - job.required_qpus + 1):
                    assert catalog.spans[c, f] == estimate_execution_time(
                        job, range(f, f + job.required_qpus), network, params)
            assert [(row < 0).sum() for row in catalog.spans] == [d - 1 for d in least.values()]

    @pytest.mark.parametrize("node_selection", [False, True])
    def test_overfull_stage_keeps_its_error(self, node_selection):
        net = homogeneous_network(4, 3, "good")
        jobs = [make_job(0, 1, 10), make_job(1, 4, 10), make_job(2, 3, 10)]
        with pytest.raises(SchedulingError, match="^job 2: stage exceeds free nodes$"):
            schedulers._place_stages(queue_table([jobs], net, PARAMS), np.arange(3),
                                     np.array([0, 1]), [1, 2], net, PARAMS, node_selection)
        with pytest.raises(SchedulingError, match="^job 1: stage exceeds free nodes$"):
            place_stage_lists([[jobs[:2]]], net, PARAMS, node_selection)

    @pytest.mark.parametrize("name", SCHEDULER_NAMES)
    def test_wide_job_raises_the_queue_check_error(self, name):
        """Unchecked, each scheduler rejects the first job wider than the
        network, in its processing order, with the queue check's message;
        a stage loop would never end on it."""
        net = homogeneous_network(4, 3, "good")
        queues = [[make_job(0, 1, 10)], [make_job(0, 1, 10), make_job(1, 5, 10),
                                         make_job(2, 6, 10)]]
        with pytest.raises(SchedulingError, match="^job 1: requires 5 QPUs but the network "
                                                  "has 4$"):
            run_unchecked(name, queues, net, PARAMS)

    def test_empty_cell_and_empty_queues(self):
        net = homogeneous_network(4, 3, "good")
        cell = place_stage_lists([[], [[make_job(0, 2, 10)]], []], net, PARAMS)
        assert cell.counts.tolist() == [0, 1, 0]
        assert schedule_rows(cell) == [(0, (0, 1), 0, 10, 0)]
        cell = place_stage_lists([], net, PARAMS)
        assert cell.counts.size == cell.job_id.size == cell.start_ns.size == 0


class TestEpr:
    def test_processing_order_sorted_by_epr(self, four_node_network):
        queue = [make_job(0, 1, 5, epr=5), make_job(1, 1, 5, epr=0),
                 make_job(2, 1, 5, epr=2)]
        s = epr_schedule([queue], four_node_network, PARAMS)
        assert s.job_id.tolist() == [1, 2, 0]

    def test_strict_versus_skip(self, four_node_network):
        queue = [make_job(0, 2, 10, epr=0), make_job(1, 3, 10, epr=1),
                 make_job(2, 1, 10, epr=2)]
        strict = epr_schedule([queue], four_node_network, PARAMS, strict_order=True)
        skip = epr_schedule([queue], four_node_network, PARAMS, strict_order=False)
        assert stage_ids(strict)[0] == {0}
        assert stage_ids(skip)[0] == {0, 2}

    def test_stage_zero_has_minimum_epr(self, four_node_network):
        rng = make_rng(32)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            queue = [
                make_job(i, int(rng.integers(1, 5)), int(rng.integers(1, 50)),
                         epr=int(rng.integers(0, 30)))
                for i in range(n)
            ]
            s = epr_schedule([queue], four_node_network, PARAMS, strict_order=True)
            stages = stage_ids(s)
            eprs = {j.id: j.nonlocal_gates for j in queue}
            stage0_min = min(eprs[i] for i in stages[0])
            for later in stages[1:]:
                assert all(eprs[i] >= stage0_min for i in later)

    def test_node_selection_picks_best_pair(self):
        net = weighted_network(3, {(0, 1): 1, (0, 2): 5, (1, 2): 2})
        queue = [make_job(0, 2, 10)]
        s = epr_schedule([queue], net, PARAMS, node_selection=True)
        assert [row[1] for row in schedule_rows(s)] == [(0, 1)]


class TestSelectNodes:
    def test_triangle(self):
        net = weighted_network(3, {(0, 1): 1, (0, 2): 5, (1, 2): 2})
        assert select_nodes([0, 1, 2], 2, net) == (0, 1)

    def test_k_one_returns_lowest_id(self):
        net = weighted_network(3, {(0, 1): 1, (0, 2): 5, (1, 2): 2})
        assert select_nodes([2, 0, 1], 1, net) == (0,)

    def test_good_triangle_beats_bad_links(self):
        weights = {(0, 1): 1, (0, 2): 1, (1, 2): 1,
                   (0, 3): 100, (1, 3): 100, (2, 3): 100}
        net = weighted_network(4, weights)
        assert select_nodes([0, 1, 2, 3], 3, net) == (0, 1, 2)

    def test_matches_brute_force_minimum(self):
        # Weight pools: distinct-ish integers, tie-heavy {1, 2, 3} and the
        # three preset state delays. Free sets are random subsets of up to 12
        # nodes, passed unsorted; every query is asked twice (the second time
        # reordered) so memoised answers are checked against the reference.
        rng = make_rng(33)
        presets = [LinkProfile.from_params(p).state_delay_ns
                   for p in LINK_PRESETS.values()]
        pools = (None, [1.0, 2.0, 3.0], presets)
        for trial in range(60):
            pool = pools[trial % len(pools)]
            n = int(rng.integers(3, 13))
            pairs = list(itertools.combinations(range(n), 2))
            if pool is None:
                weights = {pair: float(rng.integers(1, 1000)) for pair in pairs}
            else:
                weights = {pair: float(rng.choice(pool)) for pair in pairs}
            net = weighted_network(n, weights)

            def total(combo):
                weight = 0.0
                for pair in itertools.combinations(combo, 2):
                    weight += weights[pair]
                return weight

            queries = []
            for _ in range(5):
                free = [int(x) for x in rng.permutation(n)[: int(rng.integers(1, n + 1))]]
                queries.append((free, int(rng.integers(1, len(free) + 1))))
            for free, k in queries + [(free[::-1], k) for free, k in queries]:
                best = min(itertools.combinations(sorted(free), k),
                           key=lambda combo: (total(combo), combo))
                assert select_nodes(free, k, net) == best

    def test_insufficient_nodes(self):
        net = weighted_network(3, {(0, 1): 1, (0, 2): 1, (1, 2): 1})
        with pytest.raises(ValueError):
            select_nodes([0, 1], 3, net)

    @pytest.mark.parametrize("free", [[0, 0, 1], [0, 1, 3], [-1, 0, 1]])
    def test_repeated_or_unknown_ids_rejected(self, free):
        net = weighted_network(3, {(0, 1): 1, (0, 2): 1, (1, 2): 1})
        with pytest.raises(ValueError):
            select_nodes(free, 2, net)
        assert net._selection_memo == {}

    def test_memo_keyed_by_free_mask_holds_the_rest(self):
        """One memo entry per (free-node bit mask, k), whatever order the free
        nodes come in, holding the pick and the mask of the nodes left free."""
        net = build_network(8, 3, {"bad": 0.5, "good": 0.5}, seed=4)
        picked = select_nodes([6, 1, 3, 0], 2, net)
        assert select_nodes([0, 1, 3, 6], 2, net) == picked
        mask = 0b1001011
        assert net._selection_memo == {
            (mask, 2): (picked, mask - sum(1 << n for n in picked))}

    def test_wide_free_sets_match_the_reference(self):
        """Up to 12 nodes: each memoised answer equals the memo-free copy of
        the subset search as it was before the free-mask table."""
        rng = make_rng(35)
        for seed in range(12):
            n = int(rng.integers(9, 13))
            net = build_network(n, 3, {"bad": 0.2, "medium": 0.3, "good": 0.5}, seed)
            for _ in range(8):
                free = [int(x) for x in rng.permutation(n)[: int(rng.integers(1, n + 1))]]
                k = int(rng.integers(1, len(free) + 1))
                want = reference_select_nodes(free, k, net)
                assert select_nodes(free, k, net) == want == select_nodes(free[::-1], k, net)

    def test_size_guard_before_any_subset_is_built(self, monkeypatch):
        """A cold pick that would score more than ``MAX_SELECTION_SUBSETS``
        subsets raises, naming n, k and the count; a memoised one is served."""
        net = homogeneous_network(6, 3, "good")
        assert select_nodes(range(6), 3, net) == (0, 1, 2)
        monkeypatch.setattr(schedulers, "MAX_SELECTION_SUBSETS", 19)
        assert select_nodes(range(6), 3, net) == (0, 1, 2)
        with pytest.raises(ValueError, match=r"3 of 5 nodes would score C\(5, 3\) = 10"):
            monkeypatch.setattr(schedulers, "MAX_SELECTION_SUBSETS", 9)
            select_nodes(range(1, 6), 3, net)


class TestAsap:
    def test_trace(self, four_node_network):
        queue = [make_job(0, 2, 10), make_job(1, 2, 20), make_job(2, 2, 5)]
        s = asap_schedule([queue], four_node_network, PARAMS)
        assert job_times(s) == {0: (0, 10), 1: (0, 20), 2: (10, 15)}
        assert makespans(s) == [20]
        # contrast: the strict in-order scheduler waits for the whole stage
        fifo = fifo_schedule([queue], four_node_network, PARAMS)
        assert makespans(fifo) == [25]

    def test_full_width_jobs_serialize(self, four_node_network):
        queue = [make_job(i, 4, 10) for i in range(3)]
        s = asap_schedule([queue], four_node_network, PARAMS)
        assert job_times(s) == {0: (0, 10), 1: (10, 20), 2: (20, 30)}


def place_directly(job, nodes, start_ns, stage, network, exec_params):
    """A ``(job_id, nodes, start_ns, finish_ns, stage)`` row priced by a
    direct exec-model call, with no memo."""
    nodes = tuple(sorted(nodes))
    finish = start_ns + estimate_execution_time(job, nodes, network, exec_params)
    return job.id, nodes, start_ns, finish, stage


def reference_asap_schedule(queue, network, exec_params):
    """The release-time scan ``asap_schedule`` replaced, verbatim but for
    pricing each placement by a direct exec-model call and returning its
    ``(job_id, nodes, start_ns, finish_ns, stage)`` rows."""
    validate_queue(queue, network)
    placements = []
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
                    row = place_directly(job, nodes, t, stage, network, exec_params)
                    placements.append(row)
                    for n in nodes:
                        avail[n] = row[3]
                    used.update(nodes)
                    placed_any = True
                else:
                    deferred.append(job)
            if placed_any:
                remaining = deferred
                break
        stage += 1
    return placements


@pytest.mark.parametrize("n_nodes", [4, 6, 12])
def test_asap_matches_release_scan(n_nodes):
    """350 random queues per network size, 1 050 in all, on random mixed
    networks. Synthetic jobs take durations from three values, so finishes
    and release times tie, and sizes include jobs that need every node;
    every fifth queue holds only such jobs. Every third queue draws
    catalog jobs instead, whose prices depend on the nodes they get."""
    mix = {"bad": 0.2, "medium": 0.3, "good": 0.5}
    real = ExecModelParams()
    nets = [build_network(n_nodes, 3, mix, seed=seed) for seed in range(4)]
    catalogs = [[j for j in default_catalog(net, real) if j.required_qpus <= n_nodes]
                for net in nets]
    rng = make_rng(71, n_nodes)
    for trial in range(350):
        k = int(rng.integers(len(nets)))
        n = int(rng.integers(1, 16))
        ids = [int(i) for i in rng.permutation(100)[:n]]
        if trial % 3 == 0:
            picks = rng.integers(len(catalogs[k]), size=n)
            queue = [dataclasses.replace(catalogs[k][c], id=i) for c, i in zip(picks, ids)]
            params = real
        else:
            sizes = [n_nodes] * n if trial % 5 == 0 else \
                rng.choice([1, 2, 3, n_nodes // 2, n_nodes - 1, n_nodes], size=n)
            times = rng.choice([10, 20, 30], size=n)
            queue = [make_job(i, int(q), int(t)) for i, q, t in zip(ids, sizes, times)]
            params = PARAMS
        got = asap_schedule([queue], nets[k], params)
        assert schedule_rows(got) == reference_asap_schedule(queue, nets[k], params)


INT_COLUMNS = ("job_id", "width", "start_ns", "finish_ns", "stage_index")


def assert_columns_agree_with_rows(cell):
    """A one-queue ``cell`` against one rebuilt by ``cell_of`` from its rows,
    and against per-row width, stage and makespan rules."""
    rows = schedule_rows(cell)
    assert cell.counts.tolist() == [len(rows)]
    for name in INT_COLUMNS:
        assert getattr(cell, name).dtype == np.int64 and len(getattr(cell, name)) == len(rows)
    assert cell.width.tolist() == [len(row[1]) for row in rows]
    rebuilt = cell_of([rows])
    assert schedule_rows(rebuilt) == rows
    for name in (*INT_COLUMNS, "counts"):
        assert np.array_equal(getattr(rebuilt, name), getattr(cell, name))
    n_stages = max((row[4] for row in rows), default=-1) + 1
    stages = [[row for row in rows if row[4] == k] for k in range(n_stages)]
    assert stage_rows(cell) == stage_rows(rebuilt) == stages
    makespan = max(row[3] for row in rows) - min(row[2] for row in rows) if rows else 0
    assert makespans(cell) == makespans(rebuilt) == [makespan]


def test_columns_agree_with_rows():
    """Every scheduler and an untrained PPO agent, with and without node
    selection, on random queues of 0-8 jobs over a mixed network."""
    net = build_network(6, 3, {"bad": 0.2, "medium": 0.3, "good": 0.5}, seed=9)
    agent = PpoAgent(PpoConfig(j_max=8), net, PARAMS, default_catalog(net, PARAMS))
    runs = ALL_SCHEDULERS + [
        (f"ppo-{ns}", lambda queues, n, p, ns=ns: schedule_on(agent, queues[0], n, p, ns))
        for ns in (False, True)]
    rng = make_rng(72)
    for _ in range(60):
        queue = [make_job(i, int(rng.integers(1, 7)), int(rng.integers(1, 40)),
                          epr=int(rng.integers(0, 20)))
                 for i in range(int(rng.integers(0, 9)))]
        for _, fn in runs:
            assert_columns_agree_with_rows(fn([queue], net, PARAMS))
    assert_columns_agree_with_rows(cell_of([[]]))
    assert schedule_rows(cell_of([])) == [] and queue_rows(cell_of([])) == []


def check_invariants(queue, rows, n_nodes):
    """One queue's rows of a cell against the queue: one placement per job,
    no node busy twice at once, disjoint nodes within a stage."""
    # conservation: exactly one placement per job
    assert Counter(row[0] for row in rows) == Counter(j.id for j in queue)
    by_job = {j.id: j for j in queue}
    per_node: dict[int, list] = {}
    for job_id, nodes, start, finish, _ in rows:
        assert len(nodes) == by_job[job_id].required_qpus
        assert finish > start
        for node in nodes:
            assert 0 <= node < n_nodes
            per_node.setdefault(node, []).append((start, finish))
    # capacity: per-node busy intervals never overlap
    for intervals in per_node.values():
        intervals.sort()
        for (s1, f1), (s2, f2) in zip(intervals, intervals[1:]):
            assert f1 <= s2
    # stages: disjoint node sets within a stage
    taken: dict[int, set] = {}
    for _, nodes, _, _, stage in rows:
        assert not taken.setdefault(stage, set()) & set(nodes)
        taken[stage].update(nodes)


ALL_SCHEDULERS = [
    ("fifo", fifo_schedule),
    ("list", list_schedule),
    ("resource", resource_prioritize_schedule),
    ("epr", epr_schedule),
    ("epr-skip", lambda q, n, p: epr_schedule(q, n, p, strict_order=False)),
    ("epr-ns", lambda q, n, p: epr_schedule(q, n, p, node_selection=True)),
    ("asap", asap_schedule),
]


@pytest.mark.parametrize("name,fn", ALL_SCHEDULERS)
def test_invariants_and_determinism_random_queues(name, fn):
    """300 random queues as one cell, placed twice; each queue's rows, cut
    by the cell's counts, hold the invariants."""
    net = homogeneous_network(5, 3, "good")
    rng = make_rng(34)
    queues = []
    for _ in range(300):
        n = int(rng.integers(0, 9))
        queues.append([
            make_job(i, int(rng.integers(1, 6)), int(rng.integers(1, 200)),
                     epr=int(rng.integers(0, 20)))
            for i in range(n)
        ])
    cell = fn(queues, net, PARAMS)
    assert schedule_rows(cell) == schedule_rows(fn(queues, net, PARAMS))
    assert cell.counts.tolist() == list(map(len, queues))
    for queue, rows in zip(queues, queue_rows(cell), strict=True):
        check_invariants(queue, rows, 5)


@st.composite
def random_cells(draw):
    """(network, params, queues): a mixed ``build_network`` of 2-12 nodes and
    1-5 queues of 0-8 jobs that fit it, some of them empty. Half the cells
    hold synthetic jobs, whose durations come from four values, so stage
    ends tie; the other half catalog jobs, whose prices depend on their
    nodes."""
    n_nodes = draw(st.integers(2, 12))
    network = build_network(n_nodes, 3, draw(st.sampled_from(MIXES)),
                            seed=draw(st.integers(0, 30)))
    sizes = draw(st.lists(st.integers(0, 8), min_size=1, max_size=5))
    if draw(st.booleans()):
        catalog = [j for j in default_catalog(network, PARAMS) if j.required_qpus <= n_nodes]
        return network, [[dataclasses.replace(draw(st.sampled_from(catalog)), id=i)
                          for i in range(n)] for n in sizes]
    return network, [[make_job(i, draw(st.integers(1, n_nodes)),
                               draw(st.sampled_from((5, 10, 20, 35))), epr=draw(st.integers(0, 6)))
                      for i in range(n)] for n in sizes]


def assert_cell_is_its_queues(cell, singles, queues):
    """``cell`` equals, column by column, the concatenation of the one-queue
    cells ``singles``, node tuples compared as tuples, and counts the queues."""
    assert cell.counts.tolist() == list(map(len, queues))
    assert [single.counts.tolist() for single in singles] == [[len(q)] for q in queues]
    for name in INT_COLUMNS:
        assert np.array_equal(getattr(cell, name),
                              np.concatenate([getattr(single, name) for single in singles]))
    assert (cell.first is None) == all(single.first is None for single in singles)
    if cell.first is not None:
        assert np.array_equal(cell.first, np.concatenate([single.first for single in singles]))
    assert schedule_rows(cell) == [row for single in singles for row in schedule_rows(single)]


def cell_columns(cell):
    """A cell's int64 columns and counts as lists, its first nodes (None
    where it holds node tuples) and its rows."""
    return ([getattr(cell, name).tolist() for name in (*INT_COLUMNS, "counts")],
            None if cell.first is None else cell.first.tolist(), schedule_rows(cell))


@PROPERTY
@given(env=random_cells())
def test_cell_of_queues_is_their_one_queue_cells(env):
    """Every scheduler, EPR without strict order, and an untrained agent's
    ``build_schedule`` with and without node selection: a cell of several
    queues is the concatenation of its one-queue cells. Each checked public
    scheduler equals ``get_scheduler``'s unchecked one."""
    network, queues = env
    unchecked = {name: get_scheduler(name) for name in SCHEDULER_NAMES}
    unchecked["epr-skip"] = lambda t, n, p: epr_schedule.__wrapped__(t, n, p, strict_order=False)
    for name, checked in ALL_SCHEDULERS:
        def run(qs):
            return unchecked[name](queue_table(qs, network, PARAMS), network, PARAMS)

        cell = run(queues)
        assert_cell_is_its_queues(cell, [run([q]) for q in queues], queues)
        assert cell_columns(checked(queues, network, PARAMS)) == cell_columns(cell)
    agent = PpoAgent(PpoConfig(j_max=8), network, PARAMS, default_catalog(network, PARAMS))
    _, _, action, _, _, opened = agent._rollouts(agent_states(agent, queues), network.n_nodes,
                                                 None)
    counts = list(map(len, queues))
    ends = np.cumsum(counts).tolist()
    for node_selection in (False, True):
        def place(qs, picks, flags):
            table = queue_table(qs, network, PARAMS)
            return agent.build_schedule(table, picks, flags, table.counts, node_selection,
                                        network, PARAMS)

        cell = place(queues, np.repeat(np.array(ends) - counts, counts) + action, opened)
        singles = [place([q], action[lo:hi], opened[lo:hi])
                   for q, lo, hi in zip(queues, [0, *ends], ends)]
        assert_cell_is_its_queues(cell, singles, queues)



@pytest.mark.parametrize("name", SCHEDULER_NAMES)
def test_registry_resolves_every_name(name, good_network):
    queue = [make_job(0, 2, 10, epr=1)]
    cell = run_unchecked(name, [queue, [], queue], good_network, PARAMS)
    assert cell.counts.tolist() == [1, 0, 1] and cell.job_id.tolist() == [0, 0]


def test_unknown_scheduler_name():
    with pytest.raises(ValueError):
        get_scheduler("sjf")


@pytest.mark.parametrize("name", SCHEDULER_NAMES)
def test_unchecked_scheduler_rejects_a_job_wider_than_the_network(name):
    """``get_scheduler``'s schedulers skip the queue check, so a 5-QPU job on
    4 nodes reaches the stage loops: each raises SchedulingError instead of
    yielding empty stages forever or indexing past the nodes. A SIGALRM turns
    a hang into a failure."""
    def hung(signum, frame):
        raise TimeoutError(f"{name} did not return")

    queue = [make_job(0, 1, 10), make_job(1, 5, 10)]
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(10)
    try:
        with pytest.raises(SchedulingError, match="job 1: requires 5 QPUs|wider than"):
            run_unchecked(name, [queue], homogeneous_network(4, 3, "good"), PARAMS)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
