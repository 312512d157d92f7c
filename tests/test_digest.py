"""Output digests: two short `dqcsched run` slices must reproduce the
`slots.csv` bytes recorded before any performance work.

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

BENCHMARK_SLICE_SHA256 = "75a102d2a3ce43cfb414aa812057ca101f0eb1d30e5715a219085bbaa6ee62fb"
WIDE_SLICE_SHA256 = "ef7b394fe98cb9bf675cca0101e094c5aecd3931ce76960934230cd2d4538cb5"


def run_digest(tmp_path, config_text: str, *extra: str) -> str:
    cfg = tmp_path / "slice.cfg"
    cfg.write_text(config_text)
    out = str(tmp_path / "out")
    assert cli.main(["run", "--config", str(cfg), "--out", out, *extra]) == 0
    with open(os.path.join(out, "slots.csv"), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_benchmark_slice_digest(tmp_path):
    text = BENCHMARK_CFG.read_text().replace("n_slots = 200", "n_slots = 20")
    assert "n_slots = 20\n" in text
    assert run_digest(tmp_path, text, "--seed", "0") == BENCHMARK_SLICE_SHA256


def test_wide_node_selection_slice_digest(tmp_path):
    assert run_digest(tmp_path, WIDE_CFG) == WIDE_SLICE_SHA256
