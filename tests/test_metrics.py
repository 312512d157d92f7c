"""Metric worked examples, bounds, and oracles for the cell reduction.

The oracles are the per-slot forms the batched reduction must reproduce
float for float: the O(n^2) pairwise overlap loop, a sweep-line overlap,
and one numpy log/mean/exp/std call chain per slot for SELP and fairness.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (homogeneous_network, make_job, make_rng, schedule_of, schedule_rows,
                      unit_exec_params)
from dqcsched.metrics import EmptyScheduleError, compute_report, metric_columns
from dqcsched.schedulers import Schedule, fifo_schedule


def report(entries, n_qpu=4):
    return compute_report(schedule_of(entries), n_qpu)


def overlap_terms(schedule):
    """Pairwise overlap time and its ceiling (sum of pairwise duration sums)."""
    spans = list(zip(schedule.start_ns, schedule.finish_ns))
    t_overlap = 0
    t_max = 0
    for i in range(len(spans)):
        for j in range(i + 1, len(spans)):
            (s1, f1), (s2, f2) = spans[i], spans[j]
            t_overlap += max(0, min(f1, f2) - max(s1, s2))
            t_max += (f1 - s1) + (f2 - s2)
    return t_overlap, t_max


def oracle_report(schedule, n_qpu, slot_arrival_ns=0):
    """The per-slot reduction, field for field in MetricsReport order."""
    rows = schedule_rows(schedule)
    makespan = max(f for _, _, _, f, _ in rows) - min(s for _, _, s, _, _ in rows)
    busy = sum((f - s) * len(nodes) for _, nodes, s, f, _ in rows)
    t_overlap, t_max = overlap_terms(schedule)
    elp = [(f - s) / (f - slot_arrival_ns) for _, _, s, f, _ in rows]
    arr = np.asarray(elp)
    selp = float(np.exp(np.mean(np.log(arr))))
    fairness = 1.0 - float(np.std(arr))
    return (makespan, busy / (makespan * n_qpu), (t_overlap / t_max) if t_max else 0.0,
            tuple(elp), selp, fairness, t_overlap, t_max)


def oracle_columns(cell, n_qpu):
    """The per-slot oracle of each schedule in ``metric_columns``' layout:
    seven lists of one entry per schedule, then every job's ELP in order."""
    rows = [oracle_report(schedule, n_qpu) for schedule in cell]
    m, u, d, elp, s, f, o, tm = (list(col) for col in zip(*rows)) if rows else ([],) * 8
    return m, u, d, s, f, o, tm, [e for slot in elp for e in slot]


def assert_columns_match_oracle(cell, n_qpu):
    *columns, elp = metric_columns(cell, n_qpu)
    *expected, expected_elp = oracle_columns(cell, n_qpu)
    assert repr(columns) == repr(expected)
    assert repr(elp.tolist()) == repr(expected_elp)
    return columns


def as_fields(rep):
    return (rep.makespan_ns, rep.qpu_utilization, rep.nonlocal_gate_density, rep.elp,
            rep.selp, rep.fairness, rep.t_overlap_ns, rep.t_max_ns)


class TestMakespan:
    def test_single_job(self):
        assert report([(0, (0, 1), 0, 10, 0)]).makespan_ns == 10

    def test_two_disjoint_jobs(self):
        assert report([(0, (0,), 0, 10, 0), (1, (0,), 20, 25, 1)]).makespan_ns == 25

    def test_translation_invariance(self):
        delta = 1_000_000
        base = [(0, (0,), 0, 10, 0), (1, (1,), 5, 30, 0)]
        shifted = [(i, n, s + delta, f + delta, st) for i, n, s, f, st in base]
        assert report(base).makespan_ns == report(shifted).makespan_ns

    def test_empty_schedule_is_error(self):
        with pytest.raises(EmptyScheduleError):
            compute_report(Schedule(), 4)


class TestQpuUtilization:
    def test_single_job(self):
        assert report([(0, (0, 1), 0, 10, 0)]).qpu_utilization == 0.5

    def test_saturated(self):
        assert report([(0, (0, 1), 0, 10, 0), (1, (2, 3), 0, 10, 0)]).qpu_utilization == 1.0

    def test_serializing_halves_utilization(self):
        parallel = report([(0, (0, 1), 0, 10, 0), (1, (2, 3), 0, 10, 0)])
        serial = report([(0, (0, 1), 0, 10, 0), (1, (2, 3), 10, 20, 1)])
        assert serial.qpu_utilization == parallel.qpu_utilization / 2


class TestNonlocalGateDensity:
    def test_two_identical_concurrent_jobs(self):
        rep = report([(0, (0,), 0, 10, 0), (1, (1,), 0, 10, 0)])
        assert rep.nonlocal_gate_density == 0.5
        assert (rep.t_overlap_ns, rep.t_max_ns) == (10, 20)

    def test_disjoint_in_time(self):
        assert report([(0, (0,), 0, 10, 0), (1, (0,), 10, 20, 1)]).nonlocal_gate_density == 0.0

    def test_single_job_defined_as_zero(self):
        assert report([(0, (0, 1), 0, 10, 0)]).nonlocal_gate_density == 0.0


def sweep_line_overlap(intervals):
    """Concurrent-pair time integrated over segments between breakpoints."""
    points = sorted({t for s, f in intervals for t in (s, f)})
    total = 0
    for t1, t2 in zip(points, points[1:]):
        k = sum(1 for s, f in intervals if s <= t1 and f >= t2)
        total += k * (k - 1) // 2 * (t2 - t1)
    return total


class TestOverlapOracle:
    def test_pairwise_formula_matches_sweep_line(self):
        rng = make_rng(41)
        for _ in range(500):
            k = int(rng.integers(1, 7))
            entries = []
            intervals = []
            for i in range(k):
                start = int(rng.integers(0, 500))
                dur = int(rng.integers(1, 300))
                entries.append((i, (i,), start, start + dur, 0))
                intervals.append((start, start + dur))
            schedule = schedule_of(entries)
            rep = compute_report(schedule, 4)
            assert rep.t_overlap_ns == sweep_line_overlap(intervals)
            assert (rep.t_overlap_ns, rep.t_max_ns) == overlap_terms(schedule)


class TestElpSelpFairness:
    def test_all_jobs_start_at_arrival(self):
        rep = report([(0, (0,), 0, 10, 0), (1, (1,), 0, 25, 0)])
        assert rep.elp == (1.0, 1.0)
        assert rep.selp == 1.0
        assert rep.fairness == 1.0

    def test_two_serialized_jobs(self):
        rep = report([(0, (0,), 0, 10, 0), (1, (0,), 10, 20, 1)])
        assert rep.elp == (1.0, 0.5)
        assert abs(rep.selp - math.sqrt(0.5)) < 1e-12
        assert abs(rep.fairness - 0.75) < 1e-12

    def test_label_permutation_invariance(self):
        entries = [(0, (0,), 0, 7, 0), (1, (1,), 0, 20, 0), (2, (0,), 20, 31, 1)]
        rep1 = report(entries)
        rep2 = report(list(reversed(entries)))
        assert rep1.selp == rep2.selp
        assert rep1.fairness == rep2.fairness

    def test_selp_is_exp_mean_log(self):
        rng = make_rng(42)
        for _ in range(200):
            k = int(rng.integers(1, 8))
            entries = []
            for i in range(k):
                start = int(rng.integers(0, 100))
                dur = int(rng.integers(1, 100))
                entries.append((i, (i,), start, start + dur, 0))
            rep = report(entries)
            elp, selp, fairness = rep.elp, rep.selp, rep.fairness
            product_form = float(np.prod(elp)) ** (1.0 / len(elp))
            assert abs(selp - product_form) < 1e-12
            assert selp <= np.mean(elp) + 1e-12  # geometric <= arithmetic
            assert selp <= max(elp) + 1e-12
            assert fairness <= 1.0
            if len(set(elp)) == 1:
                assert abs(fairness - 1.0) < 1e-12
            else:
                assert fairness < 1.0


class TestBoundsOnSchedulerOutput:
    def test_metrics_bounded_on_random_valid_schedules(self):
        net = homogeneous_network(5, 3, "good")
        params = unit_exec_params()
        rng = make_rng(43)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            queue = [
                make_job(i, int(rng.integers(1, 6)), int(rng.integers(1, 100)))
                for i in range(n)
            ]
            report = compute_report(fifo_schedule(queue, net, params), 5)
            assert 0.0 <= report.qpu_utilization <= 1.0
            assert 0.0 <= report.nonlocal_gate_density <= 1.0
            assert all(0.0 < e <= 1.0 for e in report.elp)
            assert 0.0 < report.selp <= 1.0
            assert report.fairness <= 1.0


# -- the cell reduction against the per-slot oracle ----------------------------

DURATIONS = st.integers(1, 10**9)


@st.composite
def slot_schedules(draw, n_jobs=st.integers(1, 20)):
    """A staged (barrier) schedule or an ASAP-like one with free overlaps."""
    n = draw(n_jobs)
    widths = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    if draw(st.booleans()):
        placements, barrier, stage = [], 0, 0
        while len(placements) < n:
            size = draw(st.integers(1, n - len(placements)))
            durations = draw(st.lists(DURATIONS, min_size=size, max_size=size))
            for d in durations:
                i = len(placements)
                placements.append((i, tuple(range(widths[i])), barrier, barrier + d, stage))
            barrier += max(durations)
            stage += 1
    else:
        starts = draw(st.lists(st.integers(0, 10**9), min_size=n, max_size=n))
        durations = draw(st.lists(DURATIONS, min_size=n, max_size=n))
        placements = [(i, tuple(range(w)), s, s + d, 0)
                      for i, (w, s, d) in enumerate(zip(widths, starts, durations))]
    order = draw(st.permutations(range(n)))
    return schedule_of([placements[k] for k in order])


CELLS = st.lists(slot_schedules(), min_size=1, max_size=12)
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def wide_cells(draw):
    """Up to 60 schedules whose job counts come from a pool of at most five,
    so counts repeat, with up to 40 jobs per slot, so rows cross numpy's
    pairwise-sum thresholds at 8, 16 and 32 entries. The counts of the
    schedules, their starts, durations and widths come from a drawn seed,
    which keeps a 2 400-job cell within hypothesis's draw budget."""
    pool = draw(st.lists(st.integers(1, 40), min_size=1, max_size=5))
    size = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cell = []
    for n in rng.choice(pool, size).tolist():
        starts = rng.integers(0, 10**9, n, endpoint=True).tolist()
        durations = rng.integers(1, 10**9, n, endpoint=True).tolist()
        widths = rng.integers(1, 7, n).tolist()
        cell.append(schedule_of([(i, tuple(range(w)), s, s + d, 0) for i, (s, d, w)
                                  in enumerate(zip(starts, durations, widths))]))
    return cell


def uniform_cell(counts):
    """One schedule per count, job i of each running [0, 1 + 7 * i)."""
    return [schedule_of([(i, (0,), 0, 1 + 7 * i, 0) for i in range(n)]) for n in counts]


class TestCellReduction:
    @PROPERTY
    @given(cell=CELLS, n_qpu=st.integers(6, 12))
    @example(cell=[schedule_of([(0, (0,), 0, 10, 0)]),
                   schedule_of([(0, (0,), 0, 10, 0), (1, (1,), 0, 10, 0)]),
                   schedule_of([(0, (0, 1), 3, 9, 0)])], n_qpu=6)
    def test_matches_per_slot_oracle_repr_exactly(self, cell, n_qpu):
        columns = assert_columns_match_oracle(cell, n_qpu)
        assert all(len(col) == len(cell) for col in columns)
        for schedule, density in zip(cell, columns[2]):
            rep = compute_report(schedule, n_qpu)
            assert repr(as_fields(rep)) == repr(oracle_report(schedule, n_qpu))
            if len(schedule) == 1:
                assert density == rep.nonlocal_gate_density == 0.0

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(cell=wide_cells(), n_qpu=st.integers(6, 12))
    @example(cell=uniform_cell([40, 7, 8, 40, 9, 16, 17, 8, 33, 32, 31, 7, 1, 40]), n_qpu=6)
    def test_wide_cells_match_per_slot_oracle_repr_exactly(self, cell, n_qpu):
        assert_columns_match_oracle(cell, n_qpu)

    @PROPERTY
    @given(cell=CELLS, at=st.integers(0, 12))
    def test_non_positive_latency_raises(self, cell, at):
        bad = schedule_of([(7, (0,), 0, 0, 0)])
        with pytest.raises(ValueError, match="job 7 has non-positive latency 0"):
            metric_columns(cell[:at] + [bad] + cell[at:], 6)

    @PROPERTY
    @given(cell=CELLS, at=st.integers(0, 12))
    def test_empty_schedule_in_cell_raises(self, cell, at):
        with pytest.raises(EmptyScheduleError):
            metric_columns(cell[:at] + [Schedule()] + cell[at:], 6)

    def test_empty_cell_has_no_reports(self):
        assert metric_columns([], 6)[:7] == ([],) * 7
        assert metric_columns([], 6)[7].size == 0

    def test_n_qpu_must_be_positive(self):
        with pytest.raises(ValueError, match="n_qpu"):
            compute_report(schedule_of([(0, (0,), 0, 10, 0)]), 0)
