"""Jobs as catalog rows: the run path's job tables against tables of job lists.

``run_experiment`` draws each slot as catalog rows and gathers each
(setting, seed)'s job table from the catalog's columns and span prices,
which ``build_catalog`` builds once. The public schedulers build the same
kind of table from lists of ``JobDescriptor`` copies, whose flat list is the
catalog. These tests check that the two tables agree column by column and
price by price, that every scheduler places them alike, that a job too wide
for the network is reported as the per-queue check reported it, and that
node selection changes nothing on a network of one link quality.
"""

import dataclasses
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (agent_states, catalog_copies, default_catalog, schedule_rows, slot_queue,
                      validate_queue)
from dqcsched import harness
from dqcsched.execmodel import ExecModelParams, estimate_execution_time
from dqcsched.harness import ExperimentConfig, SettingSpec, run_experiment
from dqcsched.netmodel import QUALITY_CLASSES, build_network
from dqcsched.ppo import PpoAgent, PpoConfig
from dqcsched.schedulers import SCHEDULER_NAMES, SchedulingError, get_scheduler, queue_table
from dqcsched.workload import CIRCUIT_KINDS, WorkloadConfig

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
TABLE_COLUMNS = ("counts", "ids", "need", "est", "gates")


@st.composite
def catalog_configs(draw):
    """A config file's text and its catalog file's: a ``build_network`` of
    2-12 nodes (homogeneous in about half the draws), 1-6 catalog lines that
    fit it, 1-3 settings (``fixed_count``, ``lambda = 0`` or a small lambda,
    biased or not), 1-3 seeds and 2-6 slots."""
    n_nodes, capacity = draw(st.integers(2, 12)), draw(st.integers(2, 4))
    if draw(st.booleans()):
        mix = f"{draw(st.sampled_from(QUALITY_CLASSES))}:1.0"
    else:
        mix = draw(st.sampled_from(["bad:0.2, medium:0.3, good:0.5", "bad:0.5, good:0.5"]))
    lines = [f"{draw(st.sampled_from(CIRCUIT_KINDS))} "
             f"{draw(st.integers(2, min(20, capacity * n_nodes)))} {draw(st.integers(1, 3))}\n"
             for _ in range(draw(st.integers(1, 6)))]
    sections = []
    for k in range(draw(st.integers(1, 3))):
        arrival = draw(st.sampled_from(["fixed_count = {}", "lambda = 0", "lambda = {}"]))
        sections.append(f"[setting s{k}]\n{arrival.format(draw(st.integers(1, 6)))}\n"
                        f"bias_alpha = {draw(st.sampled_from([0, 0.5]))}\n")
    seeds = draw(st.lists(st.integers(0, 50), min_size=1, max_size=3, unique=True))
    text = (f"[network]\nnodes = {n_nodes}\nqpu_capacity = {capacity}\nquality_mix = {mix}\n"
            f"[workload]\nn_slots = {draw(st.integers(2, 6))}\ncatalog_file = {{catalog}}\n"
            + "".join(sections) + f"[run]\nseeds = {', '.join(map(str, seeds))}\n"
            "schedulers = fifo, list, resource, epr, epr-ns, asap\n")
    return text, "".join(lines)


def load(text: str, catalog: str) -> ExperimentConfig:
    with tempfile.TemporaryDirectory() as tmp:
        catalog_path, config_path = os.path.join(tmp, "catalog.txt"), os.path.join(tmp, "run.cfg")
        with open(catalog_path, "w", encoding="utf-8") as fh:
            fh.write(catalog)
        with open(config_path, "w", encoding="utf-8") as fh:
            fh.write(text.format(catalog=catalog_path))
        return harness.load_config(config_path)


def run_tables(config: ExperimentConfig) -> list:
    """Every job table ``run_experiment`` builds, in (setting, seed) order."""
    tables, gather = [], harness.job_table

    def recorded(*args):
        tables.append(gather(*args))
        return tables[-1]

    harness.job_table = recorded
    try:
        run_experiment(config)
    finally:
        harness.job_table = gather
    return tables


def assert_same_cells(a, b):
    """Two cells, column by column, node tuples expanded."""
    assert a.counts.tolist() == b.counts.tolist()
    assert [getattr(a, f).tolist() for f in ("job_id", "width", "stage_index")] == \
        [getattr(b, f).tolist() for f in ("job_id", "width", "stage_index")]
    assert schedule_rows(a) == schedule_rows(b)


@PROPERTY
@given(drawn=catalog_configs())
def test_catalog_row_tables_equal_tables_of_job_lists(drawn):
    """Each (setting, seed)'s job table of catalog rows has the columns of
    the table of its slots' queues of catalog copies, built as a public
    scheduler builds it: ids restarting at 0 per queue, demand, estimate,
    gates; two rows share a price class exactly when they share a price key,
    and every span price a row can read is a direct exec-model call. Every
    scheduler, and an untrained agent with and without node selection,
    places both tables alike."""
    config = load(*drawn)
    params = config.exec_params()
    tables = iter(run_tables(config))
    for setting in config.settings:
        for seed in config.seeds:
            net = build_network(config.n_nodes, config.qpu_capacity, config.quality_mix, seed)
            wcfg = WorkloadConfig(harness.build_catalog(config, net), setting.lam or 0.0,
                                  setting.bias_alpha, setting.fixed_count)
            rng = harness._workload_rng(seed)
            queues = [q for q in (slot_queue(wcfg, rng) for _ in range(config.n_slots)) if q]
            table, reference = next(tables), queue_table(queues, net, params)
            for name in TABLE_COLUMNS:
                assert getattr(table, name).tolist() == getattr(reference, name).tolist(), name
            jobs = [job for queue in queues for job in queue]
            assert [table.catalog[row] for row in table.rows.tolist()] == [
                dataclasses.replace(job, id=row) for job, row in zip(jobs, table.rows.tolist())]
            keys = [job.price_key for job in jobs]
            for cls in (table.cls.tolist(), reference.cls.tolist()):
                assert len(set(cls)) == len(set(keys)) == len(set(zip(cls, keys)))
            for job, c, ref in zip(jobs, table.cls.tolist(), reference.cls.tolist()):
                d = job.required_qpus
                for f in range(config.n_nodes - d + 1):
                    direct = estimate_execution_time(job, range(f, f + d), net, params)
                    assert table.catalog.spans[c, f] == reference.catalog.spans[ref, f] == direct
            for name in SCHEDULER_NAMES:
                assert_same_cells(get_scheduler(name)(table, net, params),
                                  get_scheduler(name)(reference, net, params))
            agent = PpoAgent(PpoConfig(j_max=max(map(len, queues), default=1), seed=seed), net,
                             params, wcfg.catalog)
            picks, opened = agent.table_picks(table, net.n_nodes)
            arrays = agent._rollouts(agent_states(agent, queues), net.n_nodes, None)
            counts = reference.counts
            assert picks.tolist() == ((counts.cumsum() - counts).repeat(counts)
                                      + arrays[2]).tolist()
            assert opened.tolist() == arrays[5].tolist()
            for node_selection in (False, True):
                assert_same_cells(
                    agent.build_schedule(table, picks, opened, counts, node_selection, net, params),
                    agent.build_schedule(reference, picks, opened, counts, node_selection, net,
                                         params))
    assert next(tables, None) is None


def first_wide_job_error(config: ExperimentConfig) -> str | None:
    """The message of the per-queue check of each (setting, seed)'s slots in
    turn, on catalog copies, or None when every drawn job fits."""
    for setting in config.settings:
        for seed in config.seeds:
            net = build_network(config.n_nodes, config.qpu_capacity, config.quality_mix, seed)
            wcfg = WorkloadConfig(harness.build_catalog(config, net), setting.lam or 0.0,
                                  setting.bias_alpha, setting.fixed_count)
            rng = harness._workload_rng(seed)
            for _ in range(config.n_slots):
                try:
                    validate_queue(slot_queue(wcfg, rng), net)
                except SchedulingError as exc:
                    return str(exc)
    return None


class TestWideJob:
    """A config built in code skips the config file's catalog check, so its
    catalog may hold jobs wider than the network: the run rejects the first
    one drawn, in queue order, naming its id in its queue."""

    def test_run_names_the_first_wide_job_in_queue_order(self):
        config = ExperimentConfig(n_nodes=4, settings=(SettingSpec("lam8", lam=8.0),),
                                  seeds=(0,), n_slots=2)
        with pytest.raises(SchedulingError) as caught:
            run_experiment(config)
        assert str(caught.value) == "job 5: requires 5 QPUs but the network has 4"

    @pytest.mark.parametrize("spec", [SettingSpec("sparse", lam=0.3), SettingSpec("one", lam=1.0),
                                      SettingSpec("f3", fixed_count=3, bias_alpha=0.5)])
    def test_run_error_is_the_per_queue_checks(self, spec):
        """Seeds 0-5, each run alone: the run's error is the per-queue check's
        on catalog copies, in queue order even where EPR's order differs, and
        a run that draws no wide job places every slot."""
        for seed in range(6):
            config = ExperimentConfig(n_nodes=4, settings=(spec,), seeds=(seed,), n_slots=3,
                                      schedulers=("epr", "asap"))
            want = first_wide_job_error(config)
            if want is None:
                assert len(run_experiment(config)) == 2 * 3
                continue
            with pytest.raises(SchedulingError) as caught:
                run_experiment(config)
            assert str(caught.value) == want

    def test_a_wide_entry_never_drawn_is_no_error(self):
        config = ExperimentConfig(n_nodes=4, settings=(SettingSpec("idle", lam=0.0),),
                                  seeds=(0, 1), n_slots=5)
        assert set(run_experiment(config).n_jobs) == {0}

    @pytest.mark.parametrize("seed, job", [(0, 0), (1, 4), (2, 0)])
    def test_train_names_the_first_wide_job_of_its_episode(self, seed, job):
        """Training draws a window of 5-job episodes at once; it names the
        first wide job of the first episode that holds one, by its place in
        the episode, as a check of each episode's copies did."""
        net = build_network(4, 3, {"good": 1.0}, seed=0)
        params = ExecModelParams()
        catalog = default_catalog(net, params)
        agent = PpoAgent(PpoConfig(seed=seed), net, params, catalog)
        window = -(-agent.config.update_every // 5) * 5
        picks = WorkloadConfig(catalog, fixed_count=5).cumulative.searchsorted(
            PpoAgent(PpoConfig(seed=seed), net, params, catalog).env_rng.random(window),
            side="right").tolist()
        with pytest.raises(SchedulingError) as want:
            for lo in range(0, window, 5):
                validate_queue(catalog_copies(catalog, picks[lo:lo + 5]), net)
        with pytest.raises(SchedulingError) as caught:
            agent.train(1)
        assert str(caught.value) == str(want.value) == \
            f"job {job}: requires 5 QPUs but the network has 4"


@PROPERTY
@given(quality=st.sampled_from(QUALITY_CLASSES), n_nodes=st.integers(5, 12),
       seed=st.integers(0, 30), lam=st.sampled_from([2.0, 5.0, 8.0]))
def test_node_selection_changes_nothing_on_one_link_quality(quality, n_nodes, seed, lam):
    """Every link of one quality: every node subset of a size weighs the
    same, so node selection takes the lowest free ids, which are EPR's spans.
    EPR-NS's cell is EPR's, node tuples expanded, and so is every metric."""
    config = ExperimentConfig(n_nodes=n_nodes, quality_mix={quality: 1.0},
                              settings=(SettingSpec("x", lam=lam),), schedulers=("epr", "epr-ns"),
                              seeds=(seed,), n_slots=12)
    table = run_tables(config)[0]
    net, params = build_network(n_nodes, 3, {quality: 1.0}, seed), config.exec_params()
    epr, epr_ns = (get_scheduler(name)(table, net, params) for name in ("epr", "epr-ns"))
    assert epr.nodes is None and epr_ns.first is None
    assert_same_cells(epr, epr_ns)
    slots = run_experiment(config)
    for name in harness.METRIC_FIELDS:
        column = getattr(slots, name)
        assert column[:12] == column[12:], name
