"""Experiment harness: config parsing, pairing, aggregation, CSV, CLI."""

import os

import numpy as np
import pytest

from dqcsched import cli, harness
from dqcsched.configfile import ConfigError, parse_config_text
from dqcsched.harness import (
    ExperimentConfig,
    SettingSpec,
    SlotRecord,
    bootstrap_mean_diff_ci,
    cdf_export,
    default_benchmark_config,
    default_config_text,
    read_slots_csv,
    run_experiment,
    summarize,
    write_slots_csv,
)

TINY = ExperimentConfig(
    settings=(SettingSpec("lam3", lam=3.0),),
    seeds=(0, 1),
    n_slots=8,
)


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
        records = run_experiment(TINY)
        per_key = {}
        for r in records:
            per_key.setdefault((r.seed, r.slot), []).append(r.n_jobs)
        for counts in per_key.values():
            assert len(set(counts)) == 1  # every scheduler saw the same queue

    def test_empty_slots_recorded_with_null_metrics(self):
        config = ExperimentConfig(
            settings=(SettingSpec("idle", lam=0.0),),
            seeds=(0,), n_slots=3, schedulers=("fifo",),
        )
        records = run_experiment(config)
        assert len(records) == 3
        assert all(r.n_jobs == 0 and r.makespan_ns is None for r in records)

    def test_deterministic_reruns(self):
        assert run_experiment(TINY) == run_experiment(TINY)

    def test_one_record_per_cell(self):
        records = run_experiment(TINY)
        keys = {(r.setting, r.scheduler, r.seed, r.slot) for r in records}
        assert len(keys) == len(records)
        assert len(records) == 1 * len(TINY.schedulers) * 2 * 8

    def test_unknown_scheduler_rejected(self):
        config = ExperimentConfig(
            settings=(SettingSpec("x", lam=1.0),), schedulers=("sjf",), seeds=(0,))
        with pytest.raises(ConfigError):
            run_experiment(config)

    def test_ppo_without_weights_rejected(self):
        config = ExperimentConfig(
            settings=(SettingSpec("x", fixed_count=5),),
            schedulers=("ppo",), seeds=(0,), n_slots=2)
        with pytest.raises(ConfigError, match="weights"):
            run_experiment(config)


class TestCsvRoundtrip:
    def test_slots_roundtrip_bit_stable(self, tmp_path):
        records = run_experiment(TINY)
        path1 = tmp_path / "slots.csv"
        path2 = tmp_path / "again.csv"
        write_slots_csv(records, str(path1))
        roundtripped = read_slots_csv(str(path1))
        assert roundtripped == records
        write_slots_csv(roundtripped, str(path2))
        assert path1.read_bytes() == path2.read_bytes()


class TestSummarize:
    def test_single_record_is_its_own_summary(self):
        record = SlotRecord(setting="s", scheduler="fifo", seed=0, slot=0,
                            n_jobs=2, makespan_ns=100, qpu_utilization=0.5,
                            nonlocal_gate_density=0.25, selp=0.8, fairness=0.9)
        rows = summarize([record])
        assert len(rows) == 1
        row = rows[0]
        assert (row.makespan_ns, row.qpu_utilization, row.selp) == (100.0, 0.5, 0.8)

    def test_mean_over_known_records(self):
        recs = [
            SlotRecord("s", "fifo", 0, i, 1, makespan_ns=m, qpu_utilization=u,
                       nonlocal_gate_density=0.0, selp=1.0, fairness=1.0)
            for i, (m, u) in enumerate([(100, 0.2), (300, 0.6)])
        ]
        row = summarize(recs)[0]
        assert row.makespan_ns == 200.0
        assert row.qpu_utilization == pytest.approx(0.4)

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
        recs = [SlotRecord("s", "fifo", 0, 0, 1, makespan_ns=7,
                           qpu_utilization=0.1, nonlocal_gate_density=0.0,
                           selp=1.0, fairness=1.0)]
        assert cdf_export(recs, "makespan_ns") == [("fifo", 7.0, 1.0)]

    def test_three_values(self):
        recs = [
            SlotRecord("s", "fifo", 0, i, 1, makespan_ns=m, qpu_utilization=0.1,
                       nonlocal_gate_density=0.0, selp=1.0, fairness=1.0)
            for i, m in enumerate([3, 1, 2])
        ]
        rows = cdf_export(recs, "makespan_ns")
        assert rows == [("fifo", 1.0, 1 / 3), ("fifo", 2.0, 2 / 3), ("fifo", 3.0, 1.0)]

    def test_nondecreasing_and_ends_at_one(self):
        records = run_experiment(TINY)
        for metric in harness.METRIC_FIELDS:
            rows = cdf_export(records, metric)
            per_sched = {}
            for name, value, prob in rows:
                per_sched.setdefault(name, []).append((value, prob))
            for series in per_sched.values():
                assert series == sorted(series)
                assert series[-1][1] == 1.0

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            cdf_export([], "latency")


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
    def write_config(self, tmp_path):
        text = default_config_text()
        text = text.replace("seed_count = 30", "seed_count = 2")
        text = text.replace("n_slots = 200", "n_slots = 5")
        path = tmp_path / "bench.cfg"
        path.write_text(text)
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
        records = read_slots_csv(os.path.join(out, "slots.csv"))
        assert {r.scheduler for r in records} == {"ppo", "ppo-ns", "epr"}
