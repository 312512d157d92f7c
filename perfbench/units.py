"""Workload units: the CLI commands one unit runs and the digests of its outputs.

A unit is the work the benchmark times and checks as one sample:

* ``sweep`` / ``sweep-wide``: ``run --seed s`` (simulate and write
  ``slots.csv`` and ``summary.csv``), then ``summarize`` and
  ``cdf --metric makespan_ns`` over that output (the read path).
* ``ppo-train``: ``train-ppo`` for ``PPO_UPDATES`` updates with the [ppo] seed
  set to ``s``, then ``run --schedulers ppo,ppo-ns`` with the trained weights
  on seed ``s`` (the simulating commands), then ``summarize`` and ``cdf``.

Every checked output is one operation. A sweep unit has one per
(setting, scheduler, seed) cell of ``slots.csv``, plus the run's
``summary.csv``, the ``summarize`` output and the CDF table. A ppo-train unit
has one per training-log row (one per PPO update), plus the weights file and
the evaluation run's cells, summaries and CDF table. An operation fails when
its digest differs from the reference recorded in ``reference/<workload>.json``.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import shutil
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG_DIR = os.path.join(HERE, "configs")
REFERENCE_DIR = os.path.join(HERE, "reference")

WORKLOADS = ("sweep", "sweep-wide", "ppo-train")
PPO_UPDATES = 4
# The read path runs this many times per unit, so that every report sample
# reads 4 800 rows, as one sweep unit does. A read of a few hundred rows takes
# tens of milliseconds: with 2 400 rows per sample, sweep-wide's
# report_rows_per_s still spread by 10% over ten runs.
REPORT_REPEATS = {"sweep": 1, "sweep-wide": 8, "ppo-train": 12}
SLOTS_HEADER = ("setting,scheduler,seed,slot,n_jobs,makespan_ns,qpu_utilization,"
                "nonlocal_gate_density,selp,fairness")


@dataclass
class Unit:
    """One sample: the commands to time and where their outputs land."""

    workload: str
    seed: int
    config: str
    outdir: str
    sim: list[list[str]]
    report: list[list[str]]


@dataclass
class UnitOutputs:
    """Digests of a unit's outputs; ``rows`` counts every read of ``slots.csv``."""

    jobs: int = 0
    rows: int = 0
    digests: dict[str, str] = field(default_factory=dict)


def config_path(workload: str) -> str:
    return os.path.join(CONFIG_DIR, f"{workload}.cfg")


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def ppo_config_text(template: str, seed: int) -> str:
    """The ppo-train config with its [ppo] seed replaced by ``seed``."""
    line = "\nseed = 0\n"
    if template.count(line) != 1:
        raise ValueError("ppo-train config must hold exactly one 'seed = 0' line")
    return template.replace(line, f"\nseed = {seed}\n")


def make_unit(workload: str, seed: int, workdir: str) -> Unit:
    """A unit on pool seed ``seed`` whose outputs go to a fresh directory."""
    outdir = os.path.join(workdir, f"{workload}-{seed}")
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    config = config_path(workload)
    sim: list[list[str]] = []
    if workload == "ppo-train":
        with open(config, encoding="utf-8") as fh:
            text = ppo_config_text(fh.read(), seed)
        config = os.path.join(outdir, "ppo-train.cfg")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(text)
        weights = os.path.join(outdir, "weights.bin")
        sim.append(["train-ppo", "--config", config, "--out", weights,
                    "--updates", str(PPO_UPDATES),
                    "--log", os.path.join(outdir, "train.log.csv")])
        sim.append(["run", "--config", config, "--out", outdir, "--seed", str(seed),
                    "--weights", weights])
    else:
        sim.append(["run", "--config", config, "--out", outdir, "--seed", str(seed)])
    report = [
        ["summarize", "--in", outdir, "--out", os.path.join(outdir, "summary_read.csv")],
        ["cdf", "--in", outdir, "--metric", "makespan_ns"],
    ] * REPORT_REPEATS[workload]
    return Unit(workload, seed, config, outdir, sim, report)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_sha(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            return _sha(fh.read())
    except FileNotFoundError:
        return "missing"


def slot_cells(path: str) -> tuple[dict[str, str], int, int]:
    """Per-cell sha256 of ``slots.csv`` rows, plus total jobs and rows.

    A cell is a (setting, scheduler, seed); its digest covers its rows'
    exact bytes in file order.
    """
    cells: dict[str, list[str]] = {}
    jobs = rows = 0
    with open(path, encoding="utf-8", newline="") as fh:
        header = fh.readline().rstrip("\n")
        if header != SLOTS_HEADER:
            return {"header": _sha(header.encode())}, 0, 0
        for line in fh:
            fields = line.split(",", 5)
            cells.setdefault("cell:" + "/".join(fields[:3]), []).append(line)
            jobs += int(fields[4])
            rows += 1
    return {k: _sha("".join(v).encode()) for k, v in cells.items()}, jobs, rows


def collect(unit: Unit, train_jobs: int = 0) -> UnitOutputs:
    """Digest a finished unit's outputs and count its jobs and rows.

    ``train_jobs`` is the number of jobs the unit's training rollouts
    scheduled (see :func:`training_jobs`); zero for the sweeps.
    """
    out = UnitOutputs()
    slots = os.path.join(unit.outdir, "slots.csv")
    if os.path.exists(slots):
        cells, out.jobs, rows = slot_cells(slots)
        out.rows = rows * REPORT_REPEATS[unit.workload]
        out.digests.update(cells)
    out.digests["summary:run"] = _file_sha(os.path.join(unit.outdir, "summary.csv"))
    out.digests["summary:summarize"] = _file_sha(
        os.path.join(unit.outdir, "summary_read.csv"))
    out.digests["cdf"] = _file_sha(os.path.join(unit.outdir, "cdf_makespan_ns.csv"))
    if unit.workload == "ppo-train":
        out.digests["weights"] = _file_sha(os.path.join(unit.outdir, "weights.bin"))
        log = os.path.join(unit.outdir, "train.log.csv")
        if os.path.exists(log):
            with open(log, encoding="utf-8") as fh:
                for line in fh.readlines()[1:]:
                    index = line.split(",", 1)[0]
                    out.digests[f"update:{index}"] = _sha(line.encode())
    out.jobs += train_jobs
    return out


def training_jobs(config: str) -> int:
    """Jobs a unit's ``train-ppo`` schedules and prices in its rollouts.

    ``train-ppo`` runs ceil(update_every / j_max) episodes per update, each a
    fixed batch of j_max jobs.
    """
    from dqcsched import harness, ppo

    j_max = harness.load_config(config).ppo_j_max
    per_update = math.ceil(ppo.PpoConfig(j_max=j_max).update_every / j_max) * j_max
    return per_update * PPO_UPDATES


def check(digests: dict[str, str], reference: dict[str, str]) -> tuple[int, int]:
    """(attempted, failed) operations of one unit against its reference."""
    ops = set(digests) | set(reference)
    failed = sum(1 for op in ops if digests.get(op) != reference.get(op))
    return len(ops), failed


def summary_means(unit: Unit) -> list[dict[str, str]]:
    """The unit's ``summary.csv`` rows: simulated-time means per cell group."""
    path = os.path.join(unit.outdir, "summary.csv")
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))
