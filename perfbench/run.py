"""dqcsched benchmark: run one workload and print its metrics as JSON.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads (configs under ``perfbench/configs``):

* ``sweep``: the shipped ``configs/benchmark.cfg``, one seed per unit.
* ``sweep-wide``: 12 nodes and catalog sizes up to 30 qubits, where node
  selection dominates.
* ``ppo-train``: ``train-ppo`` then ``run --schedulers ppo,ppo-ns`` with the
  trained weights.

The seed picks the order in which the workload's pool seeds are run. Every
dqcsched command runs in a fresh worker process (``worker.py``) through
``dqcsched.cli.main``; this parent only times set-up and collects results.

With ``--trace 0`` the metrics are host-time figures: ``sim_jobs_per_s``
(scheduled jobs per host-second of the simulating commands), ``report_rows_per_s``
(``slots.csv`` rows per host-second of ``summarize`` plus ``cdf``), ``setup_s``
(median over fresh processes of the time from launch until dqcsched is imported
and the config parsed) and ``peak_rss_mb`` (the worker's maximum RSS). Host
seconds are rescaled to reference seconds by ``hostspeed.py``. With
``--trace 1`` they are per-span counts and self times from ``tracer.py``.

The last line of standard output is the result object; the line before it is
the run manifest. The exit code is non-zero, with no result printed, when
the checkout holds no ``src/dqcsched`` or the worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import hostspeed
from units import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 4  # timed launches before the measuring worker, and again after it
DEADLINE_S = 170.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _worker(args: list[str], timeout: float) -> tuple[dict, float]:
    """Run a worker to completion; (its last-line JSON, launch monotonic time)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    launched = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1]), launched


def measure(args, workdir: str) -> tuple[dict, dict]:
    """(result object, manifest) of one benchmark run."""
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--workdir", workdir]
    setup: list[float] = []

    def sample_setup(count: int) -> None:
        for _ in range(count):
            calibration = hostspeed.calibrate()
            ready, launched = _worker(common + ["--setup-only"], deadline - time.monotonic())
            calibration = (calibration + ready["calibration_s"]) / 2
            setup.append(hostspeed.reference_seconds(ready["ready"] - launched, calibration))

    if not args.trace:
        # The first launch compiles bytecode and warms the file cache; it is
        # not a sample.
        _worker(common + ["--setup-only"], deadline - time.monotonic())
        sample_setup(SETUP_SAMPLES)
    msg, _ = _worker(common + ["--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                     deadline - time.monotonic())
    if not args.trace:
        sample_setup(SETUP_SAMPLES)
    metrics = dict(msg["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup)
        msg["manifest"]["setup_s_samples"] = setup
    metric_units = {"sim_jobs_per_s": "jobs/s", "report_rows_per_s": "rows/s",
                    "setup_s": "s", "peak_rss_mb": "MiB"}
    result = {
        "correct": msg["failed"] == 0 and msg.get("correct", True),
        "attempted": msg["attempted"],
        "failed": msg["failed"],
        "metrics": {name: {"value": value,
                           "unit": metric_units.get(name) or _trace_unit(name)}
                    for name, value in metrics.items()},
    }
    return result, msg["manifest"]


def _trace_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.startswith("trace.") or name.endswith("ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dqcsched", "__init__.py")):
        print(f"error: no dqcsched package under {SRC}", file=sys.stderr)
        return 2
    work_root = os.path.join(ROOT, ".perfbench_work")
    workdir = os.path.join(work_root, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result, manifest = measure(args, workdir)
    except (RuntimeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass
    print(json.dumps({"manifest": manifest}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
