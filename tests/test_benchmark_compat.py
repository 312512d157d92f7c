"""The program against the benchmark's tracer (``perfbench/tracer.py``).

A traced benchmark run reports the per-layer metrics that ``BENCHMARK.json``
names. A metric goes missing when an entry point the tracer wraps is
renamed or deleted, or when a key function reads a field the program no
longer has. A distinct-key ratio goes missing when its entry point is not
called in a pass, for example behind a cache that outlives one
``cli.main`` call. This test runs a tiny ``run`` twice under the tracer.
"""

import importlib.util
import json
import pathlib

from dqcsched import cli
from dqcsched.harness import default_config_text

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    tracer_module = load_tracer()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        per_layer = [metric["name"] for metric in json.load(fh)["per_layer"]]
    text = default_config_text().replace("seed_count = 30", "seed_count = 1")
    config = tmp_path / "tiny.cfg"
    config.write_text(text.replace("n_slots = 200", "n_slots = 3"))
    passes = []
    for k in range(2):
        tracer = tracer_module.Tracer()
        tracer.install()
        try:
            code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / str(k))])
        finally:
            tracer.uninstall()
        assert code == 0
        passes.append((tracer.counts(), tracer.self_times()))
    assert passes[0][0] == passes[1][0]
    counts, self_times = passes[1]
    assert counts["schedulers.epr-ns.calls"] > 0 and counts["cli.main.calls"] == 1
    missing = [name for name in per_layer
               if not name.startswith("trace.") and name not in {**counts, **self_times}]
    assert missing == []
