"""Evaluation metrics for completed slot schedules.

Five quantities: makespan, QPU utilization, non-local gate density
(normalized pairwise temporal overlap), per-job execution-latency
performance (ELP) with its geometric mean (SELP), and fairness
(one minus the ELP spread). They are reduced for a whole cell of slot
schedules at once; the floats equal those of reducing each slot alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schedulers import Schedule


class EmptyScheduleError(ValueError):
    """Metrics over an empty schedule are undefined."""


@dataclass(frozen=True)
class MetricsReport:
    makespan_ns: int
    qpu_utilization: float
    nonlocal_gate_density: float
    elp: tuple[float, ...]
    selp: float
    fairness: float
    t_overlap_ns: int
    t_max_ns: int


def compute_reports(schedules: list[Schedule], n_qpu: int,
                    slot_arrival_ns: int = 0) -> list[MetricsReport]:
    """All five metrics for each schedule of a cell, in input order.

    - Makespan is latest finish minus earliest start; utilization is
      sum(duration * nodes) / (makespan * n_qpu).
    - Gate density is t_overlap / t_max: the pairwise overlap time over the
      sum of pairwise duration sums (0 for a single placement). Pairwise
      overlap summed over pairs is the integral of C(c(t), 2), c(t) being
      the number of running placements, which an event sweep gives exactly
      in integers; every placement is in n - 1 pairs, so t_max is
      (n - 1) * sum(durations).
    - ELP is duration over latency, latency being finish minus the slot
      arrival instant; SELP is exp(mean(log(ELP))) and fairness is one
      minus the population standard deviation of the ELPs. Slots are
      stacked by job count, unpadded, so each row reduces in the same
      order as a one-slot array would.
    """
    if n_qpu < 1:
        raise ValueError(f"n_qpu must be >= 1, got {n_qpu}")
    if not all(map(len, schedules)):
        raise EmptyScheduleError("metrics of an empty schedule are undefined")
    if not schedules:
        return []
    start = np.array([t for s in schedules for t in s.start_ns], dtype=np.int64)
    finish = np.array([t for s in schedules for t in s.finish_ns], dtype=np.int64)
    width = np.array([len(n) for s in schedules for n in s.assigned_nodes], dtype=np.int64)
    latency = finish - slot_arrival_ns
    if (latency <= 0).any():
        bad = int(np.argmax(latency <= 0))
        job_id = [j for s in schedules for j in s.job_id][bad]
        raise ValueError(f"job {job_id} has non-positive latency {latency[bad]}")
    counts = np.array(list(map(len, schedules)))
    offsets = np.cumsum(counts) - counts
    duration = finish - start
    makespans = (np.maximum.reduceat(finish, offsets)
                 - np.minimum.reduceat(start, offsets)).tolist()
    busy = np.add.reduceat(duration * width, offsets).tolist()
    t_max = ((counts - 1) * np.add.reduceat(duration, offsets)).tolist()

    # Events sorted by (slot, time); every slot ends with c(t) back at 0,
    # so the segment between two slots carries no pairs.
    slot = np.repeat(np.arange(len(schedules)), counts)
    times = np.concatenate((start, finish))
    order = np.lexsort((times, np.concatenate((slot, slot))))
    times = times[order]
    running = np.cumsum(np.where(order < len(start), 1, -1))[:-1]
    pair_time = running * (running - 1) // 2 * (times[1:] - times[:-1])
    t_overlap = np.add.reduceat(pair_time, 2 * offsets).tolist()

    elp = duration / latency
    selp = np.empty(len(schedules))
    fairness = np.empty(len(schedules))
    for n in set(counts.tolist()):
        rows = np.flatnonzero(counts == n)
        group = elp[offsets[rows, None] + np.arange(n)]
        selp[rows] = np.exp(np.mean(np.log(group), axis=1))
        fairness[rows] = 1.0 - np.std(group, axis=1)
    elp = elp.tolist()
    return [
        MetricsReport(
            makespan_ns=m,
            qpu_utilization=b / (m * n_qpu),
            nonlocal_gate_density=(o / tm) if tm else 0.0,
            elp=tuple(elp[a:a + n]),
            selp=s,
            fairness=f,
            t_overlap_ns=o,
            t_max_ns=tm,
        )
        for m, b, o, tm, a, n, s, f in zip(
            makespans, busy, t_overlap, t_max, offsets.tolist(), counts.tolist(),
            selp.tolist(), fairness.tolist())
    ]


def compute_report(schedule: Schedule, n_qpu: int, slot_arrival_ns: int = 0) -> MetricsReport:
    """All five metrics for one schedule."""
    return compute_reports([schedule], n_qpu, slot_arrival_ns)[0]
