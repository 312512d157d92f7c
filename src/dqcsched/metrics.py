"""Evaluation metrics for completed slot schedules.

Five quantities: makespan, QPU utilization, non-local gate density
(normalized pairwise temporal overlap), per-job execution-latency
performance (ELP) with its geometric mean (SELP), and fairness
(one minus the ELP spread), reduced for a whole cell of slot schedules at
once with the floats of reducing each slot alone. Once per cell run the
integer ``reduceat`` sums and every elementwise float step of ``np.mean``
and ``np.std``, on flat arrays. Once per distinct job count, each float sum
is one ``np.add.reduce(block.reshape(rows, count), axis=1)`` over that
count's rows, made one block by a stable sort: each row's pairwise sum, as
in ``np.mean(axis=1)``. Float ``reduceat`` adds a0 + pairwise(a1...), and
padding rows to one width regroups the pairwise blocks from 8 entries up;
both round differently.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .schedulers import Cell

INT64_MAX = int(np.iinfo(np.int64).max)  # the largest event key of a cell's sort


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


def metric_columns(cell: Cell, n_qpu: int):
    """The cell's metrics as lists, one entry per queue: makespan_ns,
    qpu_utilization, nonlocal_gate_density, selp, fairness, t_overlap_ns and
    t_max_ns; then every job's ELP as one flat array in cell order.

    - Makespan is latest finish minus earliest start; utilization is
      sum(duration * nodes) / (makespan * n_qpu).
    - Gate density is t_overlap / t_max: the pairwise overlap time over the
      sum of pairwise duration sums (0 for a single placement). Pairwise
      overlap summed over pairs is the integral of C(c(t), 2), c(t) being
      the number of running placements, which an event sweep gives exactly
      in integers; every placement is in n - 1 pairs, so t_max is
      (n - 1) * sum(durations).
    - ELP is duration over latency, which is the finish, since every job of
      a slot arrives at 0; SELP is exp(mean(log(ELP))) and fairness is one
      minus the population standard deviation of the ELPs, replaying
      numpy's ``_mean`` and ``_var`` (ddof 0) step by step.
    """
    if n_qpu < 1:
        raise ValueError(f"n_qpu must be >= 1, got {n_qpu}")
    counts, start, finish = cell.counts, cell.start_ns, cell.finish_ns
    if not counts.all():
        raise EmptyScheduleError("metrics of an empty schedule are undefined")
    if not len(counts):
        return [], [], [], [], [], [], [], np.empty(0)
    total = len(start)
    if (finish <= 0).any():
        bad = int(np.argmax(finish <= 0))
        raise ValueError(f"job {cell.job_id[bad]} has non-positive latency {finish[bad]}")
    offsets = np.add.accumulate(counts) - counts
    duration = finish - start

    # Events sorted by (slot, time): one stable sort of the key slot * span
    # + (time - low), built in place, whose gaps are the time gaps. Every slot
    # ends with c(t) back at 0, so the gap between two slots carries no pairs.
    times = np.concatenate((start, finish))
    low = int(times.min())
    span = int(times.max()) - low + 1
    if len(counts) * span - 1 > INT64_MAX:
        raise ValueError(f"the cell's event keys reach {len(counts) * span - 1}, "
                         f"above the int64 bound {INT64_MAX}")
    times.reshape(2, total)[:] += np.arange(len(counts), dtype=np.int64).repeat(counts) * span - low
    order = times.argsort(kind="stable")
    times = np.diff(times[order])  # the gap before each event after the first
    running = np.add.accumulate(np.where(order < total, 1, -1), out=order)[:-1]
    t_overlap = np.add.reduceat(running * (running - 1) // 2 * times, 2 * offsets).tolist()
    del times, order, running  # freed before the per-queue lists and the ELPs
    makespans = (np.maximum.reduceat(finish, offsets)
                 - np.minimum.reduceat(start, offsets)).tolist()
    busy = np.add.reduceat(duration * cell.width, offsets).tolist()
    t_max = ((counts - 1) * np.add.reduceat(duration, offsets)).tolist()

    elp = duration / finish
    rows = counts.argsort(kind="stable")  # each count's rows become one block
    n = counts[rows]
    x = elp[(offsets[rows] - (np.add.accumulate(n) - n)).repeat(n) + np.arange(total)]
    blocks = [(k, r) for k, r in enumerate(np.bincount(counts).tolist()) if r]
    edges = list(accumulate((k * r for k, r in blocks), initial=0))

    def row_sums(values):
        return np.concatenate([np.add.reduce(values[a:b].reshape(r, k), axis=1)
                               for (k, r), a, b in zip(blocks, edges, edges[1:])])

    selp, fairness = np.empty(len(n)), np.empty(len(n))
    selp[rows] = np.exp(row_sums(np.log(x)) / n)
    x -= (row_sums(x) / n).repeat(n)
    x *= x
    fairness[rows] = 1.0 - np.sqrt(row_sums(x) / n)
    utilization = [b / (m * n_qpu) for b, m in zip(busy, makespans)]
    density = [(o / tm) if tm else 0.0 for o, tm in zip(t_overlap, t_max)]
    return (makespans, utilization, density, selp.tolist(), fairness.tolist(),
            t_overlap, t_max, elp)


def compute_report(cell: Cell, n_qpu: int) -> MetricsReport:
    """All five metrics for a cell of one queue."""
    if len(cell.counts) != 1:
        raise ValueError(f"compute_report takes a cell of one queue, got {len(cell.counts)}")
    (m,), (u,), (d,), (s,), (f,), (o,), (tm,), elp = metric_columns(cell, n_qpu)
    return MetricsReport(m, u, d, tuple(elp.tolist()), s, f, o, tm)
