"""Benchmark worker: one fresh process that runs a workload's units.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``. It imports dqcsched and parses the workload config (the set-up the
parent times), then calls ``dqcsched.cli.main`` for each command of each
unit, times them, checks every output against the reference and prints one
JSON object as its last line. Each unit is bracketed by host-speed
calibrations, and its times are reported in reference seconds
(``hostspeed.py``).

With ``--trace 1`` it runs the workload's canonical unit (pool seed 0)
repeatedly, alternating untraced and traced passes, and reports per-span
call counts, distinct-key ratios and median self times, plus the tracing
overhead (traced over untraced wall time).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_UNITS = 3
MIN_TRACE_PAIRS = 2


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    from dqcsched import cli, harness  # noqa: F401 - the CLI's imports are set-up

    config = harness.load_config(os.path.join(HERE, "configs", f"{args.workload}.cfg"))
    ready = time.monotonic()

    import json

    if args.setup_only:
        import hostspeed

        print(json.dumps({"ready": ready, "calibration_s": hostspeed.calibrate()}))
        return 0
    print(json.dumps((trace_run if args.trace else timed_run)(args, config)))
    return 0


# -- shared -------------------------------------------------------------------


def _context(args, config):
    import json
    import random

    import dqcsched
    import numpy
    import units

    src = os.path.join(os.path.dirname(HERE), "src")
    if os.path.commonpath([os.path.abspath(dqcsched.__file__), src]) != src:
        raise SystemExit(f"dqcsched imported from {dqcsched.__file__}, not from {src}")
    with open(units.reference_path(args.workload), encoding="utf-8") as fh:
        reference = json.load(fh)
    with open(units.config_path(args.workload), encoding="utf-8") as fh:
        config_text = fh.read()
    pool = list(config.seeds)
    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "reference_python": reference["python"],
        "reference_numpy": reference["numpy"],
        "config_text": config_text,
        "note": ("simulated_* figures are simulated time from the analytic "
                 "execution model, which is unvalidated against hardware; "
                 "no error figure is given"),
    }
    order = random.Random(args.seed).sample(pool, len(pool))
    train_jobs = units.training_jobs(units.config_path(args.workload)) \
        if args.workload == "ppo-train" else 0
    return reference["seeds"], order, train_jobs, manifest


def run_commands(commands) -> tuple[list[float], bool]:
    """Run CLI commands back to back; (host seconds of each, all exited 0)."""
    import contextlib

    from dqcsched import cli

    seconds = []
    ok = True
    with open(os.devnull, "w", encoding="utf-8") as sink:
        for argv in commands:
            with contextlib.redirect_stdout(sink):
                start = time.perf_counter()
                code = cli.main(list(argv))
                seconds.append(time.perf_counter() - start)
            ok = ok and code == 0
    return seconds, ok


def run_unit(unit):
    """(seconds of each simulating command, report seconds, all exited 0)."""
    import gc

    gc.collect()
    sim_s, sim_ok = run_commands(unit.sim)
    report_s, report_ok = run_commands(unit.report)
    return sim_s, sum(report_s), sim_ok and report_ok


# -- untraced run ---------------------------------------------------------------


def timed_run(args, config) -> dict:
    """Units until ``--seconds`` have passed; rates in reference seconds."""
    import resource
    from statistics import median

    import hostspeed
    import units

    reference, order, train_jobs, manifest = _context(args, config)
    attempted = failed = 0
    raw = {"sim_jobs_per_s": [], "report_rows_per_s": [], "train_updates_per_s": []}
    rates = {name: [] for name in raw}
    calibrations = [hostspeed.calibrate()]
    seeds_run: list[int] = []
    start = time.perf_counter()
    while len(seeds_run) < MIN_UNITS or time.perf_counter() - start < args.seconds:
        seed = order[len(seeds_run) % len(order)]
        unit = units.make_unit(args.workload, seed, args.workdir)
        sim_s, report_s, _ = run_unit(unit)
        calibrations.append(hostspeed.calibrate())
        out = units.collect(unit, train_jobs)
        a, f = units.check(out.digests, reference[str(seed)])
        attempted += a
        failed += f
        samples = {"sim_jobs_per_s": (out.jobs, sum(sim_s)),
                   "report_rows_per_s": (out.rows, report_s)}
        if train_jobs:
            samples["train_updates_per_s"] = (units.PPO_UPDATES, sim_s[0])
        calibration = (calibrations[-2] + calibrations[-1]) / 2
        for name, (work, host_s) in samples.items():
            raw[name].append(work / host_s)
            rates[name].append(work / hostspeed.reference_seconds(host_s, calibration))
        if not seeds_run:
            manifest["simulated_summary"] = {"seed": seed, "rows": units.summary_means(unit)}
        seeds_run.append(seed)
    manifest.update(unit_seeds=seeds_run, calibration_s_samples=calibrations,
                    samples={name: values for name, values in rates.items() if values},
                    raw_host_time_samples={name: values for name, values in raw.items()
                                           if values})
    if rates["train_updates_per_s"]:
        manifest["train_updates_per_s"] = median(rates["train_updates_per_s"])
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "sim_jobs_per_s": median(rates["sim_jobs_per_s"]),
            "report_rows_per_s": median(rates["report_rows_per_s"]),
            "peak_rss_mb": peak_kib / 1024.0,
        },
        "manifest": manifest,
    }


# -- traced run -------------------------------------------------------------------


def trace_run(args, config) -> dict:
    """Untraced and traced passes of the canonical unit, in alternating order."""
    from statistics import median

    import hostspeed
    import units
    from tracer import Tracer

    reference, _, train_jobs, manifest = _context(args, config)
    seed = config.seeds[0]
    tracer = Tracer()
    attempted = failed = 0
    counts = None
    counts_repeat = True
    self_times: dict[str, list[float]] = {}
    overhead: list[float] = []
    coverage: list[float] = []
    calibration = hostspeed.calibrate()
    start = time.perf_counter()
    pairs = 0
    while pairs < MIN_TRACE_PAIRS or time.perf_counter() - start < args.seconds:
        walls = {}
        for traced in ((False, True) if pairs % 2 == 0 else (True, False)):
            unit = units.make_unit(args.workload, seed, args.workdir)
            if traced:
                tracer.install()
            try:
                sim_s, report_s, _ = run_unit(unit)
            finally:
                tracer.uninstall()
            after = hostspeed.calibrate()
            pass_calibration = (calibration + after) / 2
            calibration = after
            walls[traced] = hostspeed.reference_seconds(sum(sim_s) + report_s,
                                                        pass_calibration)
            if traced:
                spans = {name: hostspeed.reference_seconds(value, pass_calibration)
                         for name, value in tracer.self_times().items()}
            a, f = units.check(units.collect(unit, train_jobs).digests, reference[str(seed)])
            attempted += a
            failed += f
        pass_counts = tracer.counts()
        if counts is None:
            counts = pass_counts
        counts_repeat = counts_repeat and pass_counts == counts
        for name, value in spans.items():
            self_times.setdefault(name, []).append(value)
        overhead.append(walls[True] / walls[False])
        coverage.append(sum(spans.values()) / walls[True])
        pairs += 1
    metrics = dict(counts)
    metrics.update({name: median(values) for name, values in self_times.items()})
    metrics["trace.overhead_ratio"] = median(overhead)
    metrics["trace.self_coverage"] = median(coverage)
    manifest.update(trace_seed=seed, trace_pairs=pairs, absent=tracer.absent,
                    counts_repeat=counts_repeat)
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": counts_repeat,
        "metrics": metrics,
        "manifest": manifest,
    }


if __name__ == "__main__":
    sys.exit(main())
