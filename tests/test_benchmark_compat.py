"""The program against the benchmark's tracer (``perfbench/tracer.py``).

A traced benchmark run reports the per-layer metrics that ``BENCHMARK.json``
names. A metric goes missing when an entry point the tracer wraps is
renamed or deleted, or when a key function reads a field the program no
longer has. A distinct-key ratio goes missing when its entry point is not
called in a pass, for example behind a cache that outlives one
``cli.main`` call. These tests run a tiny ``run``, and a tiny ``train-ppo``
followed by a ``run`` of the PPO schedulers, twice each under the tracer,
and check the training job count the benchmark derives from ``PpoConfig``.
"""

import importlib.util
import json
import pathlib
import sys

from dqcsched import cli
from dqcsched.harness import default_config_text

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def per_layer_names():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return [metric["name"] for metric in json.load(fh)["per_layer"]]


def traced_passes(commands):
    """(counts, self times) of the last of two traced passes over ``commands``,
    after checking that every command exits 0 and both passes count alike."""
    tracer_module = load_perfbench("tracer")
    passes = []
    for k in range(2):
        tracer = tracer_module.Tracer()
        tracer.install()
        try:
            codes = [cli.main(argv(k)) for argv in commands]
        finally:
            tracer.uninstall()
        assert codes == [0] * len(commands)
        passes.append((tracer.counts(), tracer.self_times()))
    assert passes[0][0] == passes[1][0]
    return passes[1]


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    text = default_config_text().replace("seed_count = 30", "seed_count = 1")
    config = tmp_path / "tiny.cfg"
    config.write_text(text.replace("n_slots = 200", "n_slots = 3"))
    counts, self_times = traced_passes(
        [lambda k: ["run", "--config", str(config), "--out", str(tmp_path / str(k))]])
    assert counts["schedulers.epr-ns.calls"] > 0 and counts["cli.main.calls"] == 1
    # the run path draws each slot through generate_slot_jobs: 4 settings x 1 seed x 3 slots
    assert counts["workload.generate_slot_jobs.calls"] == 4 * 1 * 3
    missing = [name for name in per_layer_names()
               if not name.startswith("trace.") and name not in {**counts, **self_times}]
    assert missing == []


def test_traced_ppo_train_and_run_report_every_ppo_metric(tmp_path):
    text = (ROOT / "perfbench" / "configs" / "ppo-train.cfg").read_text()
    config = tmp_path / "tiny-ppo.cfg"
    config.write_text(text.replace("seed_count = 8", "seed_count = 1")
                      .replace("n_slots = 200", "n_slots = 3"))
    counts, self_times = traced_passes([
        lambda k: ["train-ppo", "--config", str(config), "--out", str(tmp_path / f"w{k}.bin"),
                   "--updates", "1"],
        lambda k: ["run", "--config", str(config), "--out", str(tmp_path / str(k)),
                   "--schedulers", "ppo,ppo-ns", "--weights", str(tmp_path / f"w{k}.bin")],
    ])
    assert counts["ppo.train.calls"] == 1 and counts["ppo.ppo_update.calls"] == 1
    # Training places the stages of a whole window (205 episodes) in one call,
    # and rewards them in one. The run places each cell's queues from one
    # lockstep rollout in one call, not through PpoAgent.schedule: one cell
    # each of ppo and ppo-ns. Every queue holds 5 jobs, and an episode picks
    # once a step; ppo and ppo-ns place the picks of one shared rollout.
    assert counts["ppo.build_schedule.calls"] == 1 + 2 and counts["cli.main.calls"] == 2
    assert counts["ppo.episode_reward.calls"] == 1  # one reward call per window
    assert counts["ppo.select_stage.calls"] == 5 + 5
    assert counts["ppo.schedule.calls"] == counts["ppo.rollout.calls"] == 0
    missing = [name for name in per_layer_names()
               if name.startswith(("ppo.", "nn.")) and name not in {**counts, **self_times}]
    assert missing == []


def test_training_jobs_per_benchmark_unit():
    """``train-ppo`` runs ceil(1 024 / 5) = 205 episodes of 5 jobs per update,
    1 025 jobs, and a ppo-train unit trains for 4 updates."""
    units = load_perfbench("units")
    assert units.training_jobs(str(ROOT / "perfbench" / "configs" / "ppo-train.cfg")) == 4100
