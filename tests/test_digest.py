"""Output digests: two short `dqcsched run` slices must reproduce the
`slots.csv` bytes recorded before any performance work, and a short PPO
training must reproduce its weights file, its log and the `slots.csv` of
scheduling with those weights.

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

from dqcsched import cli

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

BENCHMARK_SLICE_SHA256 = "75a102d2a3ce43cfb414aa812057ca101f0eb1d30e5715a219085bbaa6ee62fb"
WIDE_SLICE_SHA256 = "ef7b394fe98cb9bf675cca0101e094c5aecd3931ce76960934230cd2d4538cb5"
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


def test_benchmark_slice_digest(tmp_path):
    text = BENCHMARK_CFG.read_text().replace("n_slots = 200", "n_slots = 20")
    assert "n_slots = 20\n" in text
    assert run_digest(tmp_path, text, "--seed", "0") == BENCHMARK_SLICE_SHA256


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
