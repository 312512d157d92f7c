"""Experiment harness: config parsing, pairing, aggregation, CSV, CLI."""

import contextlib
import csv
import dataclasses
import io
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bootstrap_mean_diff_ci, default_catalog, metric_values, schedule_of
from dqcsched import cli, harness, metrics, ppo, schedulers, workload
from dqcsched.configfile import ConfigError, parse_config_text
from dqcsched.harness import (
    METRIC_FIELDS,
    ExperimentConfig,
    SettingSpec,
    SlotTable,
    cdf_export,
    default_benchmark_config,
    default_config_text,
    read_slots_csv,
    run_experiment,
    summarize,
    write_cdf_csv,
    write_slots_csv,
)
from dqcsched.execmodel import ExecModelParams
from dqcsched.netmodel import build_network
from dqcsched.schedulers import (
    MAX_SELECTION_SUBSETS,
    SchedulingError,
    check_selection_size,
)
from dqcsched.workload import sorted_catalog

TINY = ExperimentConfig(
    settings=(SettingSpec("lam3", lam=3.0),),
    seeds=(0, 1),
    n_slots=8,
)


def table_of(*rows) -> SlotTable:
    """A table from full rows in ``harness._SLOT_COLUMNS`` order."""
    return SlotTable(*zip(*rows))


class TestConfigParser:
    def test_full_roundtrip_through_default_text(self, tmp_path):
        path = tmp_path / "bench.cfg"
        path.write_text(default_config_text())
        config = harness.load_config(str(path))
        reference = default_benchmark_config()
        assert config.n_nodes == reference.n_nodes
        assert config.qpu_capacity == reference.qpu_capacity
        assert config.quality_mix == reference.quality_mix
        assert config.settings == reference.settings
        assert config.schedulers == reference.schedulers
        assert config.seeds == reference.seeds

    @pytest.mark.parametrize("text,fragment", [
        ("key = 1\n", "outside any section"),
        ("[network\nnodes = 4\n", "unterminated"),
        ("[network]\nnodes\n", "expected 'key = value'"),
        ("[network]\nnodes = 4\nnodes = 5\n", "duplicate key"),
        ("[network]\nnodes = four\n", "expects an integer"),
        ("[network]\n[network]\n", "duplicate section"),
        ("[]\n", "empty section name"),
    ])
    def test_parse_error_corpus(self, text, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parsed = parse_config_text(text, source="bad.cfg")
            parsed.section("network").get_int("nodes")

    def test_error_reports_line_number(self):
        text = "[network]\nnodes = 4\nqpu_capacity = big\n"
        with pytest.raises(ConfigError, match="bad.cfg:3"):
            parse_config_text(text, "bad.cfg").section("network").get_int("qpu_capacity")

    def test_setting_requires_exactly_one_rate(self, tmp_path):
        text = default_config_text().replace(
            "[setting lam5]\nlambda = 5\n", "[setting lam5]\n")
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match="lam5"):
            harness.load_config(str(path))

    @pytest.mark.parametrize("old,new,key,section", [
        ("[setting lam5_bias]\nlambda = 5\nbias_alpha = 0.5\n",
         "[setting lam5_bias]\nlambda = 5\nbias_alpah = 0.5\n",
         "bias_alpah", "setting lam5_bias"),
        ("qpu_capacity = 3\n", "qpu_capacity = 3\ncomm_qubits = 7\n",
         "comm_qubits", "network"),
        ("seed_count = 30\n", "seed_count = 30\nseeds = 1, 2\n", "seed_count", "run"),
    ])
    def test_unread_key_rejected_with_line(self, tmp_path, old, new, key, section):
        text = default_config_text().replace(old, new)
        line = text.splitlines().index(next(
            ln for ln in text.splitlines() if ln.startswith(key + " ="))) + 1
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match=rf"bad.cfg:{line}: key '{key}' "
                                              rf"in section \[{section}\]"):
            harness.load_config(str(path))

    @pytest.mark.parametrize("relpath", [
        "configs/benchmark.cfg", "perfbench/configs/sweep.cfg",
        "perfbench/configs/sweep-wide.cfg", "perfbench/configs/ppo-train.cfg",
    ])
    def test_shipped_configs_load(self, relpath):
        path = os.path.join(os.path.dirname(__file__), os.pardir, relpath)
        assert harness.load_config(path).settings

    def test_shipped_benchmark_config_is_the_default_text(self):
        """``configs/benchmark.cfg`` is what ``init-config`` writes, byte for byte."""
        shipped = os.path.join(os.path.dirname(__file__), "..", "configs", "benchmark.cfg")
        with open(shipped, encoding="utf-8", newline="") as fh:
            assert fh.read() == default_config_text()

    def test_quality_mix_is_read_only(self, tmp_path):
        """A loaded config, like the default one, cannot be changed through
        its ``quality_mix``, and the readers of the mix still work."""
        path = tmp_path / "bench.cfg"
        path.write_text(default_config_text())
        for config in (harness.load_config(str(path)), ExperimentConfig()):
            with pytest.raises(TypeError):
                config.quality_mix["bad"] = 0.9
            assert dict(config.quality_mix) == {"bad": 0.2, "medium": 0.3, "good": 0.5}
            network = build_network(config.n_nodes, config.qpu_capacity, config.quality_mix,
                                    seed=0)
            assert network == build_network(config.n_nodes, config.qpu_capacity,
                                            dict(config.quality_mix), seed=0)
        assert "quality_mix = bad:0.2, medium:0.3, good:0.5\n" in default_config_text()

    def test_bad_quality_mix_rejected(self, tmp_path):
        text = default_config_text().replace(
            "quality_mix = bad:0.2, medium:0.3, good:0.5",
            "quality_mix = bad:0.9, good:0.5")
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match="sum to 1"):
            harness.load_config(str(path))


class TestRunExperiment:
    def test_paired_job_streams(self):
        table = run_experiment(TINY)
        per_key = {}
        for seed, slot, n_jobs in zip(table.seed, table.slot, table.n_jobs):
            per_key.setdefault((seed, slot), []).append(n_jobs)
        for counts in per_key.values():
            assert len(set(counts)) == 1  # every scheduler saw the same queue

    def test_empty_slots_recorded_with_null_metrics(self):
        config = ExperimentConfig(
            settings=(SettingSpec("idle", lam=0.0),),
            seeds=(0,), n_slots=3, schedulers=("fifo",),
        )
        table = run_experiment(config)
        assert len(table) == 3
        assert table.n_jobs == (0, 0, 0)
        assert all(getattr(table, f) == (None,) * 3 for f in METRIC_FIELDS)

    def test_deterministic_reruns(self):
        assert run_experiment(TINY) == run_experiment(TINY)

    def test_metric_columns_are_compute_report_fields(self):
        """Each cell's metric columns, rebuilt slot by slot from the same job
        stream through ``compute_report``, compared ``repr``-exactly."""
        config = ExperimentConfig(
            settings=(SettingSpec("lam1", lam=1.0), SettingSpec("lam8", lam=8.0)),
            seeds=(0, 1), n_slots=12)
        table = run_experiment(config)
        assert None in table.makespan_ns and None not in table.makespan_ns[-12:]
        expected: dict[str, list] = {f: [] for f in METRIC_FIELDS}
        params = config.exec_params()
        for setting in config.settings:
            for seed in config.seeds:
                net = harness.build_network(config.n_nodes, config.qpu_capacity,
                                            config.quality_mix, seed=seed)
                wcfg = harness.workload.WorkloadConfig(
                    catalog=harness.build_catalog(config, net), lam=setting.lam)
                rng = harness._workload_rng(seed)
                queues = [harness.workload.generate_slot_jobs(wcfg, rng)
                          for _ in range(config.n_slots)]
                for name in config.schedulers:
                    run = harness.get_scheduler(name)
                    per_slot = [metrics.compute_report(run(q, net, params), config.n_nodes)
                                if q else None for q in queues]
                    for f in METRIC_FIELDS:
                        expected[f] += [None if r is None else getattr(r, f) for r in per_slot]
        for f in METRIC_FIELDS:
            assert repr(getattr(table, f)) == repr(tuple(expected[f]))

    def test_no_metrics_report_built(self, monkeypatch):
        def forbidden(self, *args, **kwargs):
            raise AssertionError("MetricsReport built on the run path")

        monkeypatch.setattr(metrics.MetricsReport, "__init__", forbidden)
        with pytest.raises(AssertionError, match="run path"):
            metrics.compute_report(schedule_of([(0, (0,), 0, 10, 0)]), 6)
        table = run_experiment(TINY)
        assert len(table) == len(TINY.schedulers) * 2 * 8
        assert None not in table.makespan_ns

    def test_one_record_per_cell(self):
        table = run_experiment(TINY)
        keys = set(zip(table.setting, table.scheduler, table.seed, table.slot))
        assert len(keys) == len(table)
        assert len(table) == 1 * len(TINY.schedulers) * 2 * 8

    def test_unknown_scheduler_rejected(self):
        config = ExperimentConfig(
            settings=(SettingSpec("x", lam=1.0),), schedulers=("sjf",), seeds=(0,))
        with pytest.raises(ConfigError):
            run_experiment(config)

    def test_run_uses_the_catalog_read_with_the_config(self, tmp_path):
        """A loaded config holds its ``catalog_file``'s entries as read then:
        the file rewritten, or deleted, every seed's run gives the same table."""
        catalog = tmp_path / "catalog.txt"
        catalog.write_text("GHZ 5 1\nQFT 6 1\nVQE 8 2\n")
        cfg = tmp_path / "catalog.cfg"
        cfg.write_text(f"[network]\nnodes = 6\n[workload]\nn_slots = 4\n"
                       f"catalog_file = {catalog}\n[setting lam3]\nlambda = 3\n"
                       "[run]\nschedulers = fifo, asap\nseeds = 0, 1, 2\n")
        config = harness.load_config(str(cfg))
        table = run_experiment(config)
        catalog.write_text("QFT 12 1\n")
        assert run_experiment(harness.load_config(str(cfg))) != table
        assert run_experiment(config) == table
        catalog.unlink()
        assert run_experiment(config) == table

    def test_one_queue_check_per_non_empty_queue(self, monkeypatch):
        """All eight schedulers on one run: the harness checks each non-empty
        queue once, before any scheduler sees it, and no scheduler checks it
        again."""
        config = ExperimentConfig(
            settings=(SettingSpec("f5", fixed_count=5), SettingSpec("sparse", lam=0.7)),
            schedulers=harness.KNOWN_SCHEDULERS, seeds=(0, 1), n_slots=10)
        params = config.exec_params()
        net = build_network(6, 3, config.quality_mix, seed=0)
        agent = ppo.PpoAgent(ppo.PpoConfig(), net, params, default_catalog(net, params))
        checked = []

        def counted(queue, network):
            checked.append(queue)  # kept, so no two hold one id
            original(queue, network)

        original = schedulers._validate_queue
        for module in (schedulers, harness, ppo):
            monkeypatch.setattr(module, "_validate_queue", counted)
        table = run_experiment(config, agent)
        n_queues = sum(n > 0 for n in table.n_jobs) // len(harness.KNOWN_SCHEDULERS)
        assert 20 < n_queues < 40  # every f5 slot and some sparse ones
        assert len(checked) == len(set(map(id, checked))) == n_queues

    def test_ppo_without_weights_rejected(self):
        config = ExperimentConfig(
            settings=(SettingSpec("x", fixed_count=5),),
            schedulers=("ppo",), seeds=(0,), n_slots=2)
        with pytest.raises(ConfigError, match="weights"):
            run_experiment(config)


class TestCsvRoundtrip:
    def test_slots_roundtrip_bit_stable(self, tmp_path):
        table = run_experiment(TINY)
        path1 = tmp_path / "slots.csv"
        path2 = tmp_path / "again.csv"
        write_slots_csv(table, str(path1))
        roundtripped = read_slots_csv(str(path1))
        assert roundtripped == table
        write_slots_csv(roundtripped, str(path2))
        assert path1.read_bytes() == path2.read_bytes()

    def test_columns_must_have_equal_lengths(self):
        with pytest.raises(ValueError, match="equal lengths"):
            SlotTable(setting=("s",), scheduler=("fifo", "asap"))

    def test_wrong_header_names_expected_columns(self, tmp_path):
        path = tmp_path / "slots.csv"
        path.write_text("setting,scheduler,seed,slot,n_jobs,makespan,qpu_utilization,"
                        "nonlocal_gate_density,selp,fairness\n")
        with pytest.raises(ValueError, match=r"slots.csv:1: header .* expected columns "
                                             r"setting,scheduler,seed,slot,n_jobs,"
                                             r"makespan_ns,qpu_utilization"):
            read_slots_csv(str(path))

    def test_short_row_reports_line(self, tmp_path):
        path = tmp_path / "slots.csv"
        write_slots_csv(table_of(("s", "fifo", 0, 0, 1, 7, 0.1, 0.0, 1.0, 1.0),
                                 ("s", "fifo", 0, 1, 0) + (None,) * 5), str(path))
        path.write_text(path.read_text() + "s,fifo,0,2,1,7,0.1,0.0,1.0\n")
        with pytest.raises(ValueError, match="slots.csv:4: expected 10 fields, got 9"):
            read_slots_csv(str(path))


class TestSummarize:
    def test_single_record_is_its_own_summary(self):
        rows = summarize(table_of(("s", "fifo", 0, 0, 2, 100, 0.5, 0.25, 0.8, 0.9)))
        assert rows == [("s", "fifo", 100.0, 0.5, 0.25, 0.8, 0.9)]

    def test_mean_over_known_records(self):
        row = summarize(table_of(*(
            ("s", "fifo", 0, i, 1, m, u, 0.0, 1.0, 1.0)
            for i, (m, u) in enumerate([(100, 0.2), (300, 0.6)])
        )))[0]
        assert row[:3] == ("s", "fifo", 200.0)
        assert row[3] == pytest.approx(0.4)

    def test_row_count_four_settings(self):
        config = ExperimentConfig(
            settings=(
                SettingSpec("a", lam=2.0), SettingSpec("b", lam=2.0, bias_alpha=0.5),
                SettingSpec("c", lam=4.0), SettingSpec("d", lam=4.0, bias_alpha=0.5),
            ),
            seeds=(0,), n_slots=4,
        )
        rows = summarize(run_experiment(config))
        assert len(rows) == 4 * len(config.schedulers)


class TestCdfExport:
    def test_single_value(self):
        table = table_of(("s", "fifo", 0, 0, 1, 7, 0.1, 0.0, 1.0, 1.0))
        assert cdf_export(table, "makespan_ns") == [("fifo", 7.0, 1.0)]

    def test_three_values(self):
        rows = cdf_export(table_of(*(
            ("s", "fifo", 0, i, 1, m, 0.1, 0.0, 1.0, 1.0)
            for i, m in enumerate([3, 1, 2])
        )), "makespan_ns")
        assert rows == [("fifo", 1.0, 1 / 3), ("fifo", 2.0, 2 / 3), ("fifo", 3.0, 1.0)]

    def test_nondecreasing_and_ends_at_one(self):
        table = run_experiment(TINY)
        for metric in harness.METRIC_FIELDS:
            rows = cdf_export(table, metric)
            per_sched = {}
            for name, value, prob in rows:
                per_sched.setdefault(name, []).append((value, prob))
            for series in per_sched.values():
                assert series == sorted(series)
                assert series[-1][1] == 1.0

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            cdf_export(SlotTable(), "latency")

    def test_absent_setting_rejected(self, tmp_path):
        table = table_of(("lam5", "fifo", 0, 0, 1, 7, 0.1, 0.0, 1.0, 1.0),
                         ("lam8", "fifo", 0, 0, 1, 9, 0.1, 0.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="'nosuch'.*present: lam5, lam8"):
            cdf_export(table, "makespan_ns", setting="nosuch")
        write_slots_csv(table, str(tmp_path / "slots.csv"))
        assert cli.main(["cdf", "--in", str(tmp_path), "--metric", "selp",
                         "--setting", "nosuch"]) == 1
        assert not (tmp_path / "cdf_selp.csv").exists()


class TestBootstrap:
    def test_clear_separation(self):
        rng = np.random.Generator(np.random.PCG64(1))
        a = rng.normal(0.0, 1.0, size=500)
        b = a + 2.0
        lo, hi = bootstrap_mean_diff_ci(a, b, n_boot=500, seed=2)
        assert hi < 0.0

    def test_no_separation_contains_zero(self):
        rng = np.random.Generator(np.random.PCG64(3))
        a = rng.normal(0.0, 1.0, size=500)
        b = rng.normal(0.0, 1.0, size=500)
        lo, hi = bootstrap_mean_diff_ci(a, b, n_boot=500, seed=4)
        assert lo < 0.0 < hi


class TestCli:
    @staticmethod
    def write_config_text():
        text = default_config_text()
        text = text.replace("seed_count = 30", "seed_count = 2")
        return text.replace("n_slots = 200", "n_slots = 5")

    def write_config(self, tmp_path):
        path = tmp_path / "bench.cfg"
        path.write_text(self.write_config_text())
        return str(path)

    def test_run_summarize_cdf(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = str(tmp_path / "results")
        assert cli.main(["run", "--config", cfg, "--out", out,
                         "--schedulers", "fifo,asap"]) == 0
        assert os.path.exists(os.path.join(out, "slots.csv"))
        assert os.path.exists(os.path.join(out, "summary.csv"))
        assert cli.main(["summarize", "--in", out]) == 0
        assert cli.main(["cdf", "--in", out, "--metric", "makespan_ns"]) == 0
        assert os.path.exists(os.path.join(out, "cdf_makespan_ns.csv"))

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[network]\nnodes = four\n")
        assert cli.main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2

    def test_missing_file_is_config_error(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "none.cfg"),
                         "--out", str(tmp_path)]) == 2

    def test_python_dash_m_runs_the_cli(self, tmp_path):
        """``python -m dqcsched`` prints the CLI help and exits with the
        CLI's return code (2 for a config error)."""
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))

        def run(*args):
            return subprocess.run([sys.executable, "-m", "dqcsched", *args],
                                  capture_output=True, text=True, env=env, timeout=60)

        shown = run("--help")
        assert shown.returncode == 0, shown.stderr
        assert shown.stdout.startswith("usage: dqcsched")
        missing = run("run", "--config", str(tmp_path / "none.cfg"), "--out", str(tmp_path))
        assert missing.returncode == 2 and "config error" in missing.stderr

    def test_init_config_roundtrip(self, tmp_path):
        path = str(tmp_path / "default.cfg")
        assert cli.main(["init-config", "--out", path]) == 0
        assert harness.load_config(path) == default_benchmark_config()

    def test_train_and_run_ppo(self, tmp_path):
        cfg_text = default_config_text()
        cfg_text = cfg_text.replace("seed_count = 30", "seed_count = 1")
        cfg_text = cfg_text.replace("n_slots = 200", "n_slots = 4")
        cfg_text = cfg_text.replace("updates = 200", "updates = 1")
        cfg_text += "\n[setting fixed5]\nfixed_count = 5\nbias_alpha = 0\n"
        cfg_path = tmp_path / "bench.cfg"
        cfg_path.write_text(cfg_text)
        weights = str(tmp_path / "ppo.bin")
        assert cli.main(["train-ppo", "--config", str(cfg_path),
                         "--out", weights]) == 0
        assert os.path.exists(weights)
        assert os.path.exists(weights + ".log.csv")

        only_fixed = cfg_text.replace(
            "[setting lam5]\nlambda = 5\nbias_alpha = 0\n", ""
        ).replace(
            "[setting lam5_bias]\nlambda = 5\nbias_alpha = 0.5\n", ""
        ).replace(
            "[setting lam8]\nlambda = 8\nbias_alpha = 0\n", ""
        ).replace(
            "[setting lam8_bias]\nlambda = 8\nbias_alpha = 0.5\n", ""
        )
        cfg2 = tmp_path / "fixed.cfg"
        cfg2.write_text(only_fixed)
        out = str(tmp_path / "ppo-results")
        assert cli.main(["run", "--config", str(cfg2), "--out", out,
                         "--schedulers", "ppo,ppo-ns,epr",
                         "--weights", weights]) == 0
        table = read_slots_csv(os.path.join(out, "slots.csv"))
        assert set(table.scheduler) == {"ppo", "ppo-ns", "epr"}

    @pytest.mark.parametrize("old, new", [
        ("seed_count = 2", "seeds = 0, 0"),
        ("schedulers = fifo, list, resource, epr, epr-ns, asap", "schedulers = fifo, fifo"),
        ("schedulers = fifo, list, resource, epr, epr-ns, asap", "schedulers = sjf, list"),
        ("qubit_sizes = 5, 10, 15", "qubit_sizes = 5, 5"),
        ("quality_mix = bad:0.2", "quality_mix = good:0.2"),
        ("lambda = 5", "lambda = nan"),
        ("lambda = 5", "lambda = inf"),
        ("lambda = 5", "lambda = -1"),
        ("lambda = 5", "fixed_count = 0"),
        ("lambda = 5", "fixed_count = -2"),
        ("bias_alpha = 0", "bias_alpha = 2"),
        ("j_max = 5", "j_max = 0"),
        ("variant = plain", "variant = bogus"),
        ("qpu_capacity = 3", "qpu_capacity = 1"),
        ("reps = 1", "reps = 0"),
        ("reps = 1", "reps = 65"),
        ("qubit_sizes = 5, 10, 15", "qubit_sizes = 1"),
        ("qubit_sizes = 5, 10, 15", "qubit_sizes = 99"),
        ("qubit_sizes = 5, 10, 15", "qubit_sizes = 30"),
        ("lambda = 5", "lambda = 1e300"),
        ("quality_mix = bad:0.2, medium:0.3, good:0.5",
         "quality_mix = bad:-0.5, medium:0, good:1.5"),
        ("quality_mix = bad:0.2, medium:0.3, good:0.5",
         "quality_mix = bad:nan, medium:0.5, good:0.5"),
        ("quality_mix = bad:0.2, medium:0.3, good:0.5",
         "quality_mix = bad:inf, medium:0.3, good:0.5"),
        ("nodes = 6", "nodes = 1"),
        ("nodes = 6", "nodes = 40"),
        ("seed_count = 2", "seeds = -1"),
        ("seed_count = 2", "seed_count = 0"),
        ("seed = 0", "seed = -1"),
        ("updates = 200", "updates = 0"),
        ("updates = 200", "updates = -3"),
        ("n_slots = 5", "n_slots = 0"),
        ("local_gate_ns = 1000", "local_gate_ns = 0"),
        ("epr_serialization = serial", "epr_serialization = bogus"),
        ("lambda = 5", "lambda = 1e12"),
        ("lambda = 5", f"lambda = {harness.MAX_SLOT_JOBS + 1}"),
        ("lambda = 5", "fixed_count = 1000000000000"),
        ("lambda = 5", f"fixed_count = {harness.MAX_SLOT_JOBS + 1}"),
        ("j_max = 5", "j_max = 1000000000000"),
        ("j_max = 5", f"j_max = {harness.MAX_SLOT_JOBS + 1}"),
        ("n_slots = 5", f"n_slots = {harness.MAX_N_SLOTS + 1}"),
        ("n_slots = 5", "n_slots = 100000000000"),
        ("nodes = 6", f"nodes = {harness.MAX_NODES + 1}"),
        ("nodes = 6", "nodes = 100000000000"),
    ])
    def test_bad_value_rejected_at_parse_time(self, tmp_path, capsys, old, new):
        """A repeated list item or a value no run can use is a config error:
        exit 2 naming the file and line, before any output is written."""
        text = self.write_config_text().replace(old, new, 1)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        line = next(k for k, row in enumerate(text.splitlines(), 1) if row.startswith(new))
        out = tmp_path / "out"
        command = ["train-ppo", "--config", str(cfg), "--out", str(out), "--updates", "1"] \
            if new.startswith(("j_max", "variant", "seed =", "updates")) else \
            ["run", "--config", str(cfg), "--out", str(out)]
        assert cli.main(command) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {cfg}:{line}: key '{new.split()[0]}' ")
        for numpy_message in ("lam < 0", "lam value too large", "negative dimensions",
                              "division by zero", "Probabilities", "non-negative",
                              "Unable to allocate"):
            assert numpy_message not in err
        assert not out.exists()

    @pytest.mark.parametrize("nodes", [harness.MAX_NODES + 1, 100000000000])
    def test_node_count_bounded_without_node_selection(self, tmp_path, capsys, nodes):
        """With no node-selecting scheduler the subset-count check does not
        apply, and only the nodes bound stops a network too large to build."""
        text = self.write_config_text().replace("nodes = 6", f"nodes = {nodes}", 1)
        cfg = tmp_path / "big.cfg"
        cfg.write_text(text.replace("schedulers = fifo, list, resource, epr, epr-ns, asap",
                                    "schedulers = fifo"))
        line = text.splitlines().index(f"nodes = {nodes}") + 1
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (f"config error: {cfg}:{line}: key 'nodes' must be "
                                           f"<= {harness.MAX_NODES}, got {nodes}\n")
        assert not (tmp_path / "out").exists()

    def test_catalog_file_leaves_sizes_and_reps_unchecked(self, tmp_path):
        """With a ``catalog_file`` the file sets the sizes and reps, so a
        leftover ``qubit_sizes`` or ``reps`` no run reads is not rejected."""
        catalog = tmp_path / "small.txt"
        catalog.write_text("GHZ 5 1\n")
        text = self.write_config_text().replace(
            "qubit_sizes = 5, 10, 15", f"qubit_sizes = 99, 1\ncatalog_file = {catalog}", 1)
        cfg = tmp_path / "catalog.cfg"
        cfg.write_text(text.replace("reps = 1", "reps = 0", 1))
        out = str(tmp_path / "out")
        assert cli.main(["run", "--config", str(cfg), "--out", out,
                         "--schedulers", "fifo"]) == 0
        table = read_slots_csv(os.path.join(out, "slots.csv"))
        assert set(table.scheduler) == {"fifo"}

    def test_repeated_scheduler_override_is_a_usage_error(self, tmp_path, capsys):
        """``--schedulers`` goes through the config's repeated-item rule: exit 2
        with a usage error naming the flag, before any output is written."""
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--config", self.write_config(tmp_path), "--out", str(out),
                      "--schedulers", "fifo,asap,fifo"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: dqcsched run")
        assert "error: argument --schedulers: lists 'fifo' more than once" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("run", "--seed", "-1"),
        ("run", "--seed", "x"),
        ("train-ppo", "--updates", "-3"),
        ("train-ppo", "--updates", "0"),
    ])
    def test_bad_flag_value_is_a_usage_error(self, tmp_path, capsys, command, flag, value):
        """A negative ``run --seed`` or a ``train-ppo --updates`` below 1 is
        a usage error naming the flag: exit 2 before any output is written."""
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", self.write_config(tmp_path), "--out", str(out),
                      flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: dqcsched {command}")
        low = 0 if flag == "--seed" else 1
        assert f"error: argument {flag}: expects an integer >= {low}, got '{value}'" in err
        assert not out.exists()

    def test_ppo_rejects_a_job_wider_than_the_network(self, tmp_path, capsys):
        """A 30-qubit catalog needs 10 QPUs per job on 6 nodes. ``train-ppo``
        and ``run`` with ``fifo`` or ``ppo`` reject it at parse time: exit 2,
        naming the catalog file's line, before any output is written. The
        library rejects such a job in a PPO rollout as FIFO does."""
        catalog = tmp_path / "wide.txt"
        catalog.write_text("# one job\nGHZ 30 1\n")
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("[network]\nnodes = 6\nqpu_capacity = 3\n"
                       f"[workload]\nn_slots = 2\ncatalog_file = {catalog}\n"
                       "[setting fixed5]\nfixed_count = 5\n"
                       "[run]\nschedulers = fifo\nseeds = 0\n")
        net = build_network(6, 3, {"good": 1.0}, seed=0)
        params = ExecModelParams()
        untrained = ppo.PpoAgent(ppo.PpoConfig(), net, params, default_catalog(net, params))
        weights = str(tmp_path / "ppo.bin")
        ppo.save_weights(weights, untrained)
        wide = sorted_catalog([("GHZ", 30, 1)], net, params)
        with pytest.raises(SchedulingError, match="job 0: requires 10 QPUs but the network has 6"):
            untrained.rollout(list(wide))
        message = f"{catalog}:2: a 30-qubit circuit needs 10 QPUs, but the network has 6 nodes"
        for argv in (["train-ppo", "--config", str(cfg), "--out", str(tmp_path / "w.bin")],
                     ["run", "--config", str(cfg), "--out", str(tmp_path / "fifo"),
                      "--schedulers", "fifo"],
                     ["run", "--config", str(cfg), "--out", str(tmp_path / "ppo"),
                      "--schedulers", "ppo", "--weights", weights]):
            assert cli.main(argv) == 2
            assert capsys.readouterr().err == f"config error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ppo.bin", "wide.cfg", "wide.txt"]

    @pytest.mark.parametrize("bad, fragment", [
        ("GHZ 1 1", "n_qubits must lie in [2, 64], got 1"),
        ("VQE 5 0", "reps must be >= 1, got 0"),
        ("VQE 5 65", "reps must be <= 64, got 65"),
        ("QFT 99 1", "n_qubits must lie in [2, 64], got 99"),
        ("Bogus 5 1", "unknown circuit kind: 'Bogus'"),
        ("GHZ 5", "expected 'kind n_qubits reps', got 'GHZ 5  # third line'"),
        ("GHZ five 1", "n_qubits and reps must be integers"),
    ])
    def test_catalog_file_lines_checked_at_parse_time(self, tmp_path, capsys, bad, fragment):
        """Each catalog-file line is checked like a ``qubit_sizes`` entry when
        the config is read: exit 2 naming the file's path and line."""
        catalog = tmp_path / "bad.txt"
        catalog.write_text(f"GHZ 5 1\n\n{bad}  # third line\n")
        text = self.write_config_text().replace(
            "qubit_sizes = 5, 10, 15", f"catalog_file = {catalog}", 1)
        cfg = tmp_path / "catalog.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {catalog}:3: {fragment}\n"
        assert not out.exists()

    def test_unreadable_catalog_file_names_the_key(self, tmp_path, capsys):
        text = self.write_config_text().replace(
            "qubit_sizes = 5, 10, 15", f"catalog_file = {tmp_path / 'none.txt'}", 1)
        cfg = tmp_path / "catalog.cfg"
        cfg.write_text(text)
        line = text.splitlines().index(f"catalog_file = {tmp_path / 'none.txt'}") + 1
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: {cfg}:{line}: key 'catalog_file' cannot be read: ")

    def test_run_and_train_read_the_catalog_file_once(self, tmp_path, monkeypatch):
        """A ``run`` of three seeds and a ``train-ppo`` each read the
        ``catalog_file`` once, when the config is loaded."""
        catalog = tmp_path / "catalog.txt"
        catalog.write_text("GHZ 5 1\nQFT 6 1\n")
        text = self.write_config_text().replace(
            "qubit_sizes = 5, 10, 15", f"catalog_file = {catalog}", 1)
        cfg = tmp_path / "catalog.cfg"
        cfg.write_text(text.replace("seed_count = 2", "seed_count = 3"))
        reads = []
        read = workload.read_catalog_file
        monkeypatch.setattr(workload, "read_catalog_file",
                            lambda path: reads.append(path) or read(path))
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"),
                         "--schedulers", "fifo"]) == 0
        assert reads == [str(catalog)]
        assert cli.main(["train-ppo", "--config", str(cfg), "--out", str(tmp_path / "w.bin"),
                         "--updates", "1"]) == 0
        assert reads == [str(catalog)] * 2

    @pytest.mark.parametrize("old, new", [
        ("lambda = 5\n", ""),
        ("lambda = 5\n", "lambda = 5\nfixed_count = 5\n"),
    ])
    def test_setting_rate_error_names_the_header(self, tmp_path, capsys, old, new):
        """A ``[setting ...]`` with neither or both of ``lambda`` and
        ``fixed_count`` is a config error naming its header's line."""
        text = self.write_config_text().replace("[setting lam5]\n" + old,
                                                "[setting lam5]\n" + new, 1)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        line = text.splitlines().index("[setting lam5]") + 1
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"config error: {cfg}:{line}: section [setting lam5] needs exactly one of "
            "lambda / fixed_count\n")

    def test_repeated_setting_label_names_the_second_header(self, tmp_path, capsys):
        """Two headers whose labels strip to the same text are a config error
        naming the second header's line."""
        text = self.write_config_text() + "\n[settinglam5]\nlambda = 3\n"
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        line = text.splitlines().index("[settinglam5]") + 1
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"config error: {cfg}:{line}: section [settinglam5] repeats the setting "
            "label 'lam5'\n")

    @pytest.mark.parametrize("header", ["settings", "setting", "settinglam7"])
    def test_setting_header_needs_whitespace_and_a_label(self, tmp_path, capsys, header):
        """A section whose name starts with ``setting`` but is not ``setting``,
        whitespace and a label is a config error naming its header's line: no
        setting labelled ``s``, ``setting`` or ``lam7`` is run."""
        text = self.write_config_text() + f"\n[{header}]\nlambda = 3\n"
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        line = text.splitlines().index(f"[{header}]") + 1
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: {cfg}:{line}: section [{header}] is not named "
            "[setting <label>]\n")
        assert not out.exists()
        tabbed = parse_config_text(text.replace(f"[{header}]", "[setting\tlam7]"))
        assert [s.label for s in harness.config_from_parsed(tabbed).settings][-1] == "lam7"

    def test_unknown_scheduler_override_is_a_usage_error(self, tmp_path, capsys):
        """An unknown name in ``--schedulers`` is a usage error naming the
        flag, as a repeated one is."""
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--config", self.write_config(tmp_path), "--out", str(out),
                      "--schedulers", "fifo,sjf"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: dqcsched run")
        assert "error: argument --schedulers: lists unknown scheduler 'sjf'" in err
        assert not out.exists()

    def test_node_selection_size_guard(self, tmp_path, capsys):
        """Where ``epr-ns`` or ``ppo-ns`` is requested, from the config or by
        ``--schedulers``, or node-selection training, from the config or by
        ``train-ppo --variant``, a network whose node selection would score more
        than ``MAX_SELECTION_SUBSETS`` subsets is a config error naming n, k
        and the count. Checked by arithmetic and parsing alone: no network of
        that size is built."""
        assert math.comb(20, 10) <= MAX_SELECTION_SUBSETS < math.comb(21, 10)
        check_selection_size(20, 10)
        with pytest.raises(ValueError, match=rf"10 of 21 nodes would score C\(21, 10\) = "
                                             rf"{math.comb(21, 10)} subsets"):
            check_selection_size(21, 10)
        text = self.write_config_text().replace("nodes = 6", "nodes = 40", 1)
        line = text.splitlines().index("nodes = 40") + 1
        plain = tmp_path / "plain.cfg"
        plain.write_text(text.replace(
            "schedulers = fifo, list, resource, epr, epr-ns, asap", "schedulers = fifo, asap"))
        assert harness.load_config(str(plain)).n_nodes == 40  # no node selection asked for
        for command, extra in (("run", ["--schedulers", "fifo,epr-ns"]),
                               ("run", ["--schedulers", "ppo-ns"]),
                               ("train-ppo", ["--variant", "node-selection"])):
            out = tmp_path / "out"
            assert cli.main([command, "--config", str(plain), "--out", str(out), *extra]) == 2
            assert capsys.readouterr().err == (
                f"config error: {plain}:{line}: key 'nodes' is invalid: node selection of 5 "
                f"of 40 nodes would score C(40, 5) = {math.comb(40, 5)} subsets, above "
                f"{MAX_SELECTION_SUBSETS}\n")
            assert not out.exists()
        ns_training = tmp_path / "ns.cfg"
        ns_training.write_text(plain.read_text().replace("variant = plain",
                                                         "variant = node-selection"))
        with pytest.raises(ConfigError, match="node selection of 5 of 40 nodes"):
            harness.load_config(str(ns_training))

    def test_reps_bound_is_max_reps(self, tmp_path):
        """``reps`` may reach ``workload.MAX_REPS`` (one more is a case of the
        parse-time tests above). A 20-digit value, which would stall the
        catalog build, is rejected when the config is read, naming the key's
        line or the catalog file's."""
        huge = "12345678901234567890"
        text = self.write_config_text()
        line = text.splitlines().index("reps = 1") + 1
        at_max = tmp_path / "max.cfg"
        at_max.write_text(text.replace("reps = 1", f"reps = {workload.MAX_REPS}", 1))
        assert {reps for _, _, reps in harness.load_config(str(at_max)).catalog_entries} \
            == {64}
        huge_reps = tmp_path / "huge.cfg"
        huge_reps.write_text(text.replace("reps = 1", f"reps = {huge}", 1))
        catalog = tmp_path / "catalog.txt"
        catalog.write_text(f"VQE 5 64\nQAOA 6 {huge}\n")
        from_file = tmp_path / "file.cfg"
        from_file.write_text(text.replace("qubit_sizes = 5, 10, 15",
                                          f"catalog_file = {catalog}", 1))
        for cfg, where in ((huge_reps, f"{huge_reps}:{line}: key 'reps' is invalid: "),
                           (from_file, f"{catalog}:2: ")):
            with pytest.raises(ConfigError) as err:
                harness.load_config(str(cfg))
            assert str(err.value) == f"{where}reps must be <= 64, got {huge}"

    @pytest.mark.parametrize("key, bound", [("seed_count", harness.MAX_SEED_COUNT),
                                            ("local_gate_ns", harness.MAX_LOCAL_GATE_NS)])
    def test_huge_seed_count_and_gate_time_rejected_at_parse_time(self, tmp_path, capsys,
                                                                   key, bound):
        """A 20-digit ``seed_count`` or ``local_gate_ns`` passed the parser and
        then failed in the run with a bare message from C integer conversion.
        Each now has an upper bound, checked when the config is read."""
        text = re.sub(r"seed_count = \d+", "seed_count = 1", self.write_config_text())
        old = next(row for row in text.splitlines() if row.startswith(f"{key} ="))
        for value in (12345678901234567890, bound + 1):
            cfg = tmp_path / "huge.cfg"
            cfg.write_text(text.replace(old, f"{key} = {value}", 1))
            line = text.splitlines().index(old) + 1
            out = tmp_path / "out"
            assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
            assert capsys.readouterr().err == (f"config error: {cfg}:{line}: key '{key}' "
                                               f"must be <= {bound}, got {value}\n")
            assert not out.exists()
        if key == "local_gate_ns":  # the largest gate time runs to the end
            cfg.write_text(text.replace(old, f"{key} = {bound}", 1))
            assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0

    def ppo_config(self, tmp_path, *counts):
        """The test config with its first ``len(counts)`` settings' ``lambda``
        lines replaced, in order, by ``fixed_count`` lines of ``counts``."""
        text = self.write_config_text()
        for count in counts:
            text = re.sub(r"lambda = \d+", f"fixed_count = {count}", text, count=1)
        path = tmp_path / "ppo.cfg"
        path.write_text(text)
        return path

    @pytest.mark.parametrize("argv, where", [
        (["run", "--schedulers", "fifo,ppo"], "cli"),
        (["run", "--schedulers", "ppo-ns", "--weights", "none.bin"], "cli"),
        (["run"], "file"),
        (["train-ppo", "--updates", "1"], "file"),
    ])
    def test_ppo_setting_rule_names_the_poisson_header(self, tmp_path, capsys, argv, where):
        """Where ``ppo`` or ``ppo-ns`` is scheduled, by ``--schedulers`` or by
        ``[run] schedulers``, each ``[setting ...]`` needs ``fixed_count``: the
        first one with ``lambda`` is a config error naming its header's line,
        for ``train-ppo`` too, before any weights are read or output written."""
        cfg = self.ppo_config(tmp_path, 5)
        text = cfg.read_text()
        if where == "file":
            text = text.replace("schedulers = fifo, list", "schedulers = ppo, fifo, list", 1)
            cfg.write_text(text)
        line = text.splitlines().index("[setting lam5_bias]") + 1
        out = tmp_path / "out"
        assert cli.main([argv[0], "--config", str(cfg), "--out", str(out), *argv[1:]]) == 2
        assert capsys.readouterr().err == (
            f"config error: {cfg}:{line}: section [setting lam5_bias] needs fixed_count "
            "for the ppo schedulers\n")
        assert not out.exists()

    def test_ppo_without_weights_names_the_config(self, tmp_path, capsys):
        cfg = self.ppo_config(tmp_path, 5, 5, 5, 5)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out),
                         "--schedulers", "ppo"]) == 2
        assert capsys.readouterr().err == (
            f"config error: {cfg}: ppo schedulers need a weights file "
            "(--weights or [ppo] weights_file)\n")
        assert not out.exists()

    def test_fixed_count_above_the_model_capacity(self, tmp_path, capsys):
        """A ``fixed_count`` above the loaded weights' ``j_max`` is a config
        error naming the config, the setting and the capacity; one equal to
        it or below runs."""
        net = build_network(6, 3, {"good": 1.0}, seed=0)
        params = ExecModelParams()
        weights = str(tmp_path / "ppo.bin")
        ppo.save_weights(weights, ppo.PpoAgent(ppo.PpoConfig(j_max=5), net, params,
                                               default_catalog(net, params)))
        cfg = self.ppo_config(tmp_path, 6, 3, 4, 5)
        out = tmp_path / "out"
        argv = ["run", "--config", str(cfg), "--out", str(out), "--schedulers", "ppo-ns",
                "--weights", weights]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            f"config error: {cfg}: setting 'lam5': fixed_count 6 exceeds the model's "
            "job capacity 5\n")
        assert not out.exists()
        cfg.write_text(cfg.read_text().replace("fixed_count = 6", "fixed_count = 4", 1))
        assert cli.main(argv) == 0
        assert set(read_slots_csv(str(out / "slots.csv")).n_jobs) == {3, 4, 5}

    def test_variant_is_stored_in_the_reward_variant_spelling(self):
        text = self.write_config_text()
        for listed, override in (("node-selection", None), ("node_selection", None),
                                 ("plain", "node-selection")):
            parsed = parse_config_text(text.replace("variant = plain", f"variant = {listed}"))
            assert harness.config_from_parsed(parsed, variant=override).ppo_variant \
                == "node_selection"
        assert harness.config_from_parsed(parse_config_text(text)).ppo_variant == "plain"

    def test_no_setting_section_names_the_config(self, tmp_path, capsys):
        text = self.write_config_text()
        start, end = text.index("[setting lam5]"), text.index("[run]")
        cfg = tmp_path / "bare.cfg"
        cfg.write_text(text[:start] + text[end:])
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"config error: {cfg}: at least one [setting ...] is required\n")

    def test_run_seed_replaces_the_seeds_of_a_frozen_config(self, tmp_path):
        cfg = self.write_config(tmp_path)
        config = harness.load_config(cfg)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.seeds = (1,)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out), "--schedulers", "fifo",
                         "--seed", "7"]) == 0
        assert set(read_slots_csv(str(out / "slots.csv")).seed) == {7}


# -- the row-per-slot read path, kept as a reference for the columnar one -----


@dataclass(frozen=True)
class RefSlotRecord:
    setting: str
    scheduler: str
    seed: int
    slot: int
    n_jobs: int
    makespan_ns: int | None = None
    qpu_utilization: float | None = None
    nonlocal_gate_density: float | None = None
    selp: float | None = None
    fairness: float | None = None


def ref_format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def ref_write_slots_csv(records, path):
    columns = ("setting", "scheduler", "seed", "slot", "n_jobs") + METRIC_FIELDS
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for r in records:
            writer.writerow([ref_format_cell(getattr(r, col)) for col in columns])


def ref_read_slots_csv(path):
    records = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            empty = row["makespan_ns"] == ""
            records.append(RefSlotRecord(
                setting=row["setting"],
                scheduler=row["scheduler"],
                seed=int(row["seed"]),
                slot=int(row["slot"]),
                n_jobs=int(row["n_jobs"]),
                makespan_ns=None if empty else int(row["makespan_ns"]),
                qpu_utilization=None if empty else float(row["qpu_utilization"]),
                nonlocal_gate_density=None if empty else float(row["nonlocal_gate_density"]),
                selp=None if empty else float(row["selp"]),
                fairness=None if empty else float(row["fairness"]),
            ))
    return records


def ref_summarize(records):
    order = []
    groups = {}
    for r in records:
        key = (r.setting, r.scheduler)
        if key not in groups:
            groups[key] = []
            order.append(key)
        if r.makespan_ns is not None:
            groups[key].append(r)
    return [
        (*key, *(float(np.mean([getattr(r, f) for r in groups[key]])) for f in METRIC_FIELDS))
        for key in order if groups[key]
    ]


def ref_cdf_export(records, metric, setting=None):
    order = []
    values = {}
    for r in records:
        if setting is not None and r.setting != setting:
            continue
        if getattr(r, metric) is None:
            continue
        if r.scheduler not in values:
            values[r.scheduler] = []
            order.append(r.scheduler)
        values[r.scheduler].append(float(getattr(r, metric)))
    rows = []
    for name in order:
        vals = sorted(values[name])
        n = len(vals)
        rows.extend((name, v, (k + 1) / n) for k, v in enumerate(vals))
    return rows


def ref_write_cdf_csv(rows, path):
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("scheduler", "value", "cum_prob"))
        for name, value, prob in rows:
            writer.writerow([name, ref_format_cell(float(value)), ref_format_cell(prob)])


def ref_metric_values(records, setting, scheduler, metric):
    selected = [r for r in records if r.setting == setting and r.scheduler == scheduler
                and getattr(r, metric) is not None]
    selected.sort(key=lambda r: (r.seed, r.slot))
    return np.array([getattr(r, metric) for r in selected], dtype=float)


PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
# Labels that csv.writer must quote sit next to plain ones and the empty one.
LABELS = st.sampled_from(["lam5", "lam8_bias", 'a,"b"', "x y", ""])
SCHEDULERS = st.sampled_from(["fifo", "asap", 'q"uote', "c,omma"])
VALUES = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)
SLOTS = st.lists(st.one_of(st.none(), st.tuples(
    st.integers(1, 9), st.integers(1, 2 ** 40), VALUES, VALUES, VALUES, VALUES,
)), min_size=1, max_size=6)
# (setting, scheduler, seed, all slots empty, slots); repeated (setting,
# scheduler) pairs over several seeds interleave the summary groups.
CELLS = st.lists(st.tuples(LABELS, SCHEDULERS, st.integers(0, 3), st.booleans(), SLOTS),
                 min_size=1, max_size=8)


def cell_rows(cells):
    rows = []
    for setting, scheduler, seed, idle, slots in cells:
        for k, metrics in enumerate(slots):
            if idle or metrics is None:
                rows.append((setting, scheduler, seed, k, 0) + (None,) * 5)
            else:
                rows.append((setting, scheduler, seed, k) + metrics)
    return rows


class TestColumnarMatchesRowReference:
    @PROPERTY
    @given(cells=CELLS, pick=st.integers(0, 50))
    def test_read_reduce_and_write_match(self, cells, pick):
        rows = cell_rows(cells)
        table = table_of(*rows)
        records = [RefSlotRecord(*row) for row in rows]
        setting, scheduler = rows[pick % len(rows)][:2]
        with tempfile.TemporaryDirectory() as tmp:
            new, ref = os.path.join(tmp, "new.csv"), os.path.join(tmp, "ref.csv")
            write_slots_csv(table, new)
            ref_write_slots_csv(records, ref)
            with open(new, "rb") as a, open(ref, "rb") as b:
                assert a.read() == b.read()
            assert read_slots_csv(new) == table
            assert ref_read_slots_csv(new) == records
            assert summarize(table) == ref_summarize(records)
            for metric in METRIC_FIELDS:
                for chosen in (None, setting):
                    cdf = cdf_export(table, metric, setting=chosen)
                    assert cdf == ref_cdf_export(records, metric, setting=chosen)
                write_cdf_csv(cdf, new)
                ref_write_cdf_csv(cdf, ref)
                with open(new, "rb") as a, open(ref, "rb") as b:
                    assert a.read() == b.read()
                assert np.array_equal(
                    metric_values(table, setting, scheduler, metric),
                    ref_metric_values(records, setting, scheduler, metric))


BENCHMARK_CFG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "benchmark.cfg")
# Value tokens: integers and floats of every size and sign, nan, inf, empty, words
# and lists. No '#' or newline, which would change the file's structure.
TOKENS = st.one_of(
    st.integers(-10**30, 10**30).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", "nan", "inf", "-inf", "1e300", "-1e300", "1e12", "-0", "0x10",
                     "1_000", "5.0", "good:1", "fifo, fifo", "5, 5", "plain", "node-selection"]),
    st.text(st.sampled_from("abcdefghijklmnopqrstuvwxyz0123456789-_.,: "), max_size=12),
)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fuzzed_benchmark_config_parses_or_names_its_line(data):
    """``configs/benchmark.cfg`` with one key's value replaced by a drawn
    token: ``load_config`` either returns or raises a ConfigError that opens
    with ``<path>:<line>:``, and ``run`` on a rejected config exits 2 with
    only that error on stderr. This checks parsing only: an accepted value
    is not run."""
    with open(BENCHMARK_CFG, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    at = data.draw(st.sampled_from([k for k, row in enumerate(lines) if "=" in row]))
    token = data.draw(TOKENS)
    lines[at] = f"{lines[at].partition('=')[0].strip()} = {token}"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzzed.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        try:
            harness.load_config(path)
            return
        except ConfigError as exc:
            message = str(exc)
        assert re.match(rf"{re.escape(path)}:\d+: ", message), message
        out, err = os.path.join(tmp, "out"), io.StringIO()
        with contextlib.redirect_stderr(err):
            assert cli.main(["run", "--config", path, "--out", out]) == 2
        assert err.getvalue() == f"config error: {message}\n"
        for fragment in ("numpy", "Unable to allocate", "invalid literal", "could not convert",
                         "cannot convert", "overflow", "Traceback"):
            assert fragment not in message
        assert not os.path.exists(out)
