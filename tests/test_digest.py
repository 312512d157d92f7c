"""Output digests: short `dqcsched run` slices must reproduce recorded
`slots.csv` bytes. The serial benchmark slice and the wide slice were
recorded before any performance work, the per-link-parallel benchmark slice
before placement prices were memoised. A short PPO training must reproduce
its weights file, its log and the `slots.csv` of scheduling with those
weights. The read path is pinned too: the benchmark slice's `summary.csv`,
its `summarize` output and its makespan CDF, and a run whose setting label
needs CSV quoting.

A speedup that changes these digests changes behaviour. The digests depend
on the float formatting and summation of the interpreter and numpy, so the
test only runs on the versions they were recorded with.
"""

import hashlib
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from dqcsched import cli, harness

PINNED = ((3, 11), "2.4")
pytestmark = pytest.mark.skipif(
    sys.version_info[:2] != PINNED[0]
    or ".".join(np.__version__.split(".")[:2]) != PINNED[1],
    reason="slots.csv digests are pinned to Python 3.11 with numpy 2.4",
)

BENCHMARK_CFG = Path(__file__).resolve().parents[1] / "configs" / "benchmark.cfg"

WIDE_CFG = """\
[network]
nodes = 12
qpu_capacity = 3
quality_mix = bad:0.2, medium:0.3, good:0.5

[exec]
local_gate_ns = 1000
epr_serialization = serial

[workload]
n_slots = 20
qubit_sizes = 5, 10, 15, 20, 25, 30
reps = 2

[setting lam8]
lambda = 8
bias_alpha = 0

[setting lam8_bias]
lambda = 8
bias_alpha = 0.5

[run]
schedulers = fifo, list, resource, epr, epr-ns, asap
seeds = 3
"""

PPO_CFG = """\
[network]
nodes = 6
qpu_capacity = 3
quality_mix = bad:0.2, medium:0.3, good:0.5

[exec]
local_gate_ns = 1000
epr_serialization = serial

[workload]
n_slots = 20
qubit_sizes = 5, 10, 15
reps = 1

[setting fixed5]
fixed_count = 5
bias_alpha = 0

[run]
schedulers = ppo, ppo-ns
seeds = 2

[ppo]
variant = plain
j_max = 5
seed = 3
"""

QUOTED_CFG = """\
[network]
nodes = 6
qpu_capacity = 3
quality_mix = bad:0.2, medium:0.3, good:0.5

[workload]
n_slots = 20

[setting a,"b"]
lambda = 5
bias_alpha = 0.5

[setting lam8]
lambda = 8
bias_alpha = 0

[run]
schedulers = fifo, asap
seeds = 0
"""

BENCHMARK_SLICE_SHA256 = "75a102d2a3ce43cfb414aa812057ca101f0eb1d30e5715a219085bbaa6ee62fb"
PARALLEL_SLICE_SHA256 = "01c5ee576becb8f18ab7266a98f9978b66a0db39294fc25a693ce640d2ceb3bb"
WIDE_SLICE_SHA256 = "ef7b394fe98cb9bf675cca0101e094c5aecd3931ce76960934230cd2d4538cb5"
READ_PATH_SHA256 = {
    "summary": "ddd2fd3f632f4f0394b27cd346dd0f2bda883460aa0b2360c7264ca8dfd3ebc4",
    "summarize": "ddd2fd3f632f4f0394b27cd346dd0f2bda883460aa0b2360c7264ca8dfd3ebc4",
    "cdf": "ad7796c57b9851b22f8bc677d23bd56d10702dcda1754591f9cda930e13698bf",
    "cdf_lam8_bias": "79fdcd669aa1259aa16e2c5994119cb2207bc967efa95de4e7f017f4ec52fd67",
}
QUOTED_SLOTS_SHA256 = "b97ed0713e9b2881cb5495a58600534775afecd8ba3bf60603e2104e8993c3ff"
PPO_SHA256 = {
    "weights": "a6bd1ee3a63b1a9420696cdac9555fb459dce2e546f38caeef7da80bbf768af0",
    "log": "c2dbffa625905688930650cfa5316f46ab33b031f7af9130e5b667296c213398",
    "slots": "61b0db4775692f6e156ba02b89a5c9339c5e82d9a6c4e07aa2e8b8a9b61be5fe",
}


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_digest(tmp_path, config_text: str, *extra: str) -> str:
    cfg = tmp_path / "slice.cfg"
    cfg.write_text(config_text)
    out = str(tmp_path / "out")
    assert cli.main(["run", "--config", str(cfg), "--out", out, *extra]) == 0
    return file_digest(os.path.join(out, "slots.csv"))


def benchmark_slice_text() -> str:
    text = BENCHMARK_CFG.read_text().replace("n_slots = 200", "n_slots = 20")
    assert "n_slots = 20\n" in text
    return text


def test_benchmark_slice_digest(tmp_path):
    assert run_digest(tmp_path, benchmark_slice_text(), "--seed", "0") == BENCHMARK_SLICE_SHA256


def test_benchmark_slice_per_link_parallel_digest(tmp_path):
    text = benchmark_slice_text().replace(
        "epr_serialization = serial\n", "epr_serialization = per-link-parallel\n")
    assert "per-link-parallel" in text
    assert run_digest(tmp_path, text, "--seed", "0") == PARALLEL_SLICE_SHA256


def test_read_path_digests(tmp_path):
    run_digest(tmp_path, benchmark_slice_text(), "--seed", "0")
    out = str(tmp_path / "out")
    read = os.path.join(out, "summary_read.csv")
    by_setting = os.path.join(out, "cdf_lam8_bias.csv")
    assert cli.main(["summarize", "--in", out, "--out", read]) == 0
    assert cli.main(["cdf", "--in", out, "--metric", "makespan_ns"]) == 0
    assert cli.main(["cdf", "--in", out, "--metric", "makespan_ns",
                     "--setting", "lam8_bias", "--out", by_setting]) == 0
    digests = {
        "summary": file_digest(os.path.join(out, "summary.csv")),
        "summarize": file_digest(read),
        "cdf": file_digest(os.path.join(out, "cdf_makespan_ns.csv")),
        "cdf_lam8_bias": file_digest(by_setting),
    }
    assert digests == READ_PATH_SHA256


def test_quoted_label_digest_and_read_back(tmp_path):
    assert run_digest(tmp_path, QUOTED_CFG) == QUOTED_SLOTS_SHA256
    table = harness.read_slots_csv(str(tmp_path / "out" / "slots.csv"))
    assert table == harness.run_experiment(harness.load_config(str(tmp_path / "slice.cfg")))
    assert set(table.setting) == {'a,"b"', "lam8"}


def test_wide_node_selection_slice_digest(tmp_path):
    assert run_digest(tmp_path, WIDE_CFG) == WIDE_SLICE_SHA256


def test_ppo_train_and_run_digests(tmp_path):
    weights = tmp_path / "weights.bin"
    log = tmp_path / "log.csv"
    (tmp_path / "slice.cfg").write_text(PPO_CFG)
    assert cli.main(["train-ppo", "--config", str(tmp_path / "slice.cfg"),
                     "--out", str(weights), "--updates", "2", "--log", str(log)]) == 0
    digests = {
        "weights": file_digest(weights),
        "log": file_digest(log),
        "slots": run_digest(tmp_path, PPO_CFG, "--weights", str(weights)),
    }
    assert digests == PPO_SHA256
