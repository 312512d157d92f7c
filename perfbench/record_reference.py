"""Record the output digests the benchmark checks against.

Run from the root of a checkout whose outputs are known good:

    PYTHONPATH=src python3 perfbench/record_reference.py [--workload sweep ...]

For every pool seed of each workload it runs the same unit the benchmark
runs and writes ``perfbench/reference/<workload>.json`` with the digest of
every operation, beside the Python and numpy versions the digests are
pinned to. For ``sweep`` it also runs the whole shipped config in one
``run`` and requires that file's sha256 to equal the published baseline
and its per-cell digests to equal the per-seed ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys

import numpy

import units
import worker

SWEEP_SLOTS_SHA256 = "db3161bf8a313fb61501a5d94846245caecfed25e52c0bbbd8083a7cd3c21061"


def record(workload: str, workdir: str) -> dict:
    from dqcsched import harness

    config = units.config_path(workload)
    pool = harness.load_config(config).seeds
    train_jobs = units.training_jobs(config) if workload == "ppo-train" else 0
    seeds = {}
    for seed in pool:
        unit = units.make_unit(workload, seed, workdir)
        _, _, ok = worker.run_unit(unit)
        if not ok:
            raise SystemExit(f"{workload} seed {seed}: a command failed")
        seeds[str(seed)] = units.collect(unit, train_jobs).digests
        print(f"{workload} seed {seed}: {len(seeds[str(seed)])} operations", file=sys.stderr)
    out = {"python": sys.version.split()[0], "numpy": numpy.__version__,
           "workload": workload, "seeds": seeds}
    if workload == "sweep":
        out["full_run_slots_sha256"] = check_full_sweep(config, workdir, seeds)
    return out


def check_full_sweep(config: str, workdir: str, seeds: dict) -> str:
    outdir = os.path.join(workdir, "sweep-full")
    _, ok = worker.run_commands([["run", "--config", config, "--out", outdir]])
    slots = os.path.join(outdir, "slots.csv")
    with open(slots, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    if not ok or digest != SWEEP_SLOTS_SHA256:
        raise SystemExit(f"full sweep slots.csv sha256 {digest} != {SWEEP_SLOTS_SHA256}")
    cells, _, _ = units.slot_cells(slots)
    per_seed = {k: v for d in seeds.values() for k, v in d.items() if k.startswith("cell:")}
    if cells != per_seed:
        raise SystemExit("per-seed cell digests differ from the full run's")
    return digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=units.WORKLOADS)
    args = parser.parse_args(argv)
    workdir = os.path.join(os.path.dirname(units.HERE), ".perfbench_work", "record")
    try:
        for workload in args.workload or units.WORKLOADS:
            ref = record(workload, workdir)
            with open(units.reference_path(workload), "w", encoding="utf-8") as fh:
                json.dump(ref, fh, indent=1, sort_keys=True)
                fh.write("\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
