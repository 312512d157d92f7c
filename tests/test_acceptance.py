"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. Criteria 4 and 5b are known-red: the per-instance dominance of
criterion 4 and the utilization ordering of criterion 5b do not hold in
this execution model (see README, "Install and test"); their tests state
the criteria faithfully and fail honestly.
"""

import time
from collections import Counter

import numpy as np
import pytest

from conftest import (bootstrap_mean_diff_ci, cell_of, default_catalog, homogeneous_network,
                      make_job, make_rng, makespans, metric_values, queue_rows, row_latencies,
                      row_reward, schedule_rows, stage_ids, unit_exec_params)
from dqcsched import harness
from dqcsched.execmodel import ExecModelParams
from dqcsched.metrics import compute_report
from dqcsched.netmodel import (
    LINK_PRESETS,
    build_network,
    entanglement_success_probability,
    state_delay,
)
from dqcsched.nn import Mlp, masked_softmax
from dqcsched.ppo import (
    PpoAgent,
    PpoConfig,
    policy_loss_parts,
    value_loss_parts,
)
from dqcsched.schedulers import (
    asap_schedule,
    epr_schedule,
    fifo_schedule,
    list_schedule,
    resource_prioritize_schedule,
    select_nodes,
)
from dqcsched.workload import WorkloadConfig, generate_slot_jobs

UNIT = unit_exec_params()


def report(criterion: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}: {detail}")
    return ok


# -- criterion 1: link physics --------------------------------------------


def test_criterion_1_link_physics():
    t0 = time.monotonic()
    expectations = {
        "bad": (6.37e-3, 2.83e8),
        "medium": (1.06e-2, 9.42e7),
        "good": (2.99e-2, 6.67e6),
    }
    worst = 0.0
    for quality, (exp_ps, exp_delay) in expectations.items():
        params = LINK_PRESETS[quality]
        ps = entanglement_success_probability(params)
        delay = state_delay(params.cycle_time_ns, ps)
        worst = max(worst, abs(ps - exp_ps) / exp_ps,
                    abs(delay - exp_delay) / exp_delay)
    elapsed = time.monotonic() - t0
    ok = worst < 0.01 and elapsed < 1.0
    assert report("criterion 1 (link physics)", ok,
                  f"worst relative error {worst:.2e}, {elapsed * 1e3:.1f} ms")


# -- criterion 2: metric oracles --------------------------------------------


def sweep_line_overlap(intervals):
    points = sorted({t for s, f in intervals for t in (s, f)})
    total = 0
    for t1, t2 in zip(points, points[1:]):
        k = sum(1 for s, f in intervals if s <= t1 and f >= t2)
        total += k * (k - 1) // 2 * (t2 - t1)
    return total


def test_criterion_2_metric_oracles():
    t0 = time.monotonic()
    rng = make_rng(201)
    net = homogeneous_network(6, 3, "good")
    cases = 0
    ok = True
    while cases < 10_000:
        k = int(rng.integers(1, 7))
        entries = []
        intervals = []
        for i in range(k):
            start = int(rng.integers(0, 1000))
            dur = int(rng.integers(1, 500))
            entries.append((i, (i % 6,), start, start + dur, 0))
            intervals.append((start, start + dur))
        t_overlap = compute_report(cell_of([entries]), 6).t_overlap_ns
        ok &= t_overlap == sweep_line_overlap(intervals)

        queue = [make_job(i, int(rng.integers(1, 7)), int(rng.integers(1, 100)))
                 for i in range(k)]
        rep = compute_report(fifo_schedule([queue], net, UNIT), 6)
        ok &= 0.0 <= rep.qpu_utilization <= 1.0
        ok &= 0.0 <= rep.nonlocal_gate_density <= 1.0
        product = float(np.prod(rep.elp)) ** (1.0 / len(rep.elp))
        ok &= abs(rep.selp - product) < 1e-12
        if len(set(rep.elp)) == 1:
            ok &= abs(rep.fairness - 1.0) < 1e-12
        else:
            ok &= rep.fairness < 1.0
        cases += 1
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 10.0
    assert report("criterion 2 (metric oracles)", ok,
                  f"{cases} cases in {elapsed:.1f} s")


# -- criterion 3: scheduler traces and invariants ---------------------------


def _trace_fixtures_hold() -> bool:
    net4 = homogeneous_network(4, 3, "good")
    ok = True
    q = [make_job(0, 2, 10), make_job(1, 2, 20), make_job(2, 3, 5)]
    s = fifo_schedule([q], net4, UNIT)
    ok &= {j: (st, f) for j, _, st, f, _ in schedule_rows(s)} == \
        {0: (0, 10), 1: (0, 20), 2: (20, 25)}
    ok &= makespans(s) == [25]

    q = [make_job(0, 3, 10), make_job(1, 2, 5), make_job(2, 1, 10)]
    s = list_schedule([q], net4, UNIT)
    ok &= stage_ids(s) == [{0, 2}, {1}]

    q = [make_job(0, 2, 10), make_job(1, 2, 20), make_job(2, 3, 5)]
    s = resource_prioritize_schedule([q], net4, UNIT)
    ok &= stage_ids(s) == [{0, 1}, {2}]

    q = [make_job(0, 2, 10, epr=0), make_job(1, 3, 10, epr=1),
         make_job(2, 1, 10, epr=2)]
    strict = epr_schedule([q], net4, UNIT, strict_order=True)
    skip = epr_schedule([q], net4, UNIT, strict_order=False)
    ok &= stage_ids(strict)[0] == {0}
    ok &= stage_ids(skip)[0] == {0, 2}

    q = [make_job(0, 2, 10), make_job(1, 2, 20), make_job(2, 2, 5)]
    s = asap_schedule([q], net4, UNIT)
    ok &= {j: (st, f) for j, _, st, f, _ in schedule_rows(s)} == \
        {0: (0, 10), 1: (0, 20), 2: (10, 15)}

    from conftest import weighted_network
    tri = weighted_network(3, {(0, 1): 1, (0, 2): 5, (1, 2): 2})
    ok &= select_nodes([0, 1, 2], 2, tri) == (0, 1)
    return ok


def _invariants_hold(queue, rows, n_nodes) -> bool:
    if Counter(row[0] for row in rows) != \
            Counter(j.id for j in queue):
        return False
    by_job = {j.id: j for j in queue}
    per_node = {}
    for job_id, nodes, start, finish, _ in rows:
        if len(nodes) != by_job[job_id].required_qpus:
            return False
        for node in nodes:
            if not 0 <= node < n_nodes:
                return False
            per_node.setdefault(node, []).append((start, finish))
    for intervals in per_node.values():
        intervals.sort()
        for (s1, f1), (s2, f2) in zip(intervals, intervals[1:]):
            if f1 > s2:
                return False
    return True


def test_criterion_3_scheduler_fixtures_and_invariants():
    t0 = time.monotonic()
    ok = _trace_fixtures_hold()
    net = homogeneous_network(5, 3, "good")
    schedulers = [
        fifo_schedule,
        list_schedule,
        resource_prioritize_schedule,
        epr_schedule,
        lambda q, n, p: epr_schedule(q, n, p, strict_order=False),
        lambda q, n, p: epr_schedule(q, n, p, node_selection=True),
        asap_schedule,
    ]
    rng = make_rng(301)
    queues = []
    for _ in range(10_000):
        n = int(rng.integers(0, 8))
        queues.append([
            make_job(i, int(rng.integers(1, 6)), int(rng.integers(1, 200)),
                     epr=int(rng.integers(0, 25)))
            for i in range(n)
        ])
    for fn in schedulers:  # each scheduler places every queue as one cell, twice
        cell = fn(queues, net, UNIT)
        ok &= schedule_rows(cell) == schedule_rows(fn(queues, net, UNIT))
        ok &= cell.counts.tolist() == list(map(len, queues))
        ok &= all(_invariants_hold(queue, rows, 5)
                  for queue, rows in zip(queues, queue_rows(cell), strict=True))
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    assert report("criterion 3 (scheduler fixtures and invariants)", ok,
                  f"7 schedulers x 10^4 queues in {elapsed:.1f} s")


# -- criterion 4: per-instance dominance ------------------------------------


def _dominance_corpus():
    net = homogeneous_network(6, 3, "good")
    catalog = default_catalog(net, UNIT)
    queues = []
    for seed in range(1000):
        rng = make_rng(seed, 2)
        cfg = WorkloadConfig(catalog=catalog, lam=5.0)
        queue = generate_slot_jobs(cfg, rng)
        if queue:
            queues.append(queue)
    return net, queues


def test_criterion_4_list_dominance():
    t0 = time.monotonic()
    net, queues = _dominance_corpus()
    violations = sum(
        1 for a, b in zip(makespans(list_schedule(queues, net, UNIT)),
                          makespans(fifo_schedule(queues, net, UNIT)))
        if a > b
    )
    elapsed = time.monotonic() - t0
    ok = violations == 0 and elapsed < 60.0
    assert report("criterion 4 (LIST <= FIFO on every instance)", ok,
                  f"{violations}/{len(queues)} violations in {elapsed:.1f} s")


def test_criterion_4_asap_dominance():
    t0 = time.monotonic()
    net, queues = _dominance_corpus()
    violations = sum(
        1 for a, b in zip(makespans(asap_schedule(queues, net, UNIT)),
                          makespans(fifo_schedule(queues, net, UNIT)))
        if a > b
    )
    elapsed = time.monotonic() - t0
    ok = violations == 0 and elapsed < 60.0
    assert report("criterion 4 (ASAP <= FIFO on every instance)", ok,
                  f"{violations}/{len(queues)} violations in {elapsed:.1f} s")


# -- criterion 5: qualitative ordering reproduction --------------------------


@pytest.fixture(scope="module")
def benchmark_records():
    t0 = time.monotonic()
    records = harness.run_experiment(harness.default_benchmark_config())
    elapsed = time.monotonic() - t0
    print(f"[info] criterion 5 benchmark: {len(records)} records "
          f"in {elapsed:.1f} s (budget 600 s)")
    assert elapsed < 600.0
    return records


SETTINGS = ("lam5", "lam5_bias", "lam8", "lam8_bias")
CLASSICAL = ("fifo", "list", "resource", "epr", "epr-ns", "asap")


def paired(records, setting, metric, sched_a, sched_b):
    a = metric_values(records, setting, sched_a, metric)
    b = metric_values(records, setting, sched_b, metric)
    assert a.shape == b.shape
    return a, b


def test_criterion_5a_epr_ns_lowest_makespan(benchmark_records):
    ok = True
    details = []
    for setting in SETTINGS:
        for other in CLASSICAL:
            if other == "epr-ns":
                continue
            a, b = paired(benchmark_records, setting, "makespan_ns", "epr-ns", other)
            lo, hi = bootstrap_mean_diff_ci(a, b, seed=50)
            if hi >= 0.0:
                ok = False
                details.append(f"{setting}: not below {other}")
    assert report("criterion 5a (epr-ns lowest makespan, all settings)", ok,
                  "; ".join(details) or "95% CIs all below zero")


def test_criterion_5b_resource_highest_utilization(benchmark_records):
    ok = True
    details = []
    for setting in ("lam8", "lam8_bias"):
        for other in CLASSICAL:
            if other == "resource":
                continue
            a, b = paired(benchmark_records, setting, "qpu_utilization",
                          "resource", other)
            lo, hi = bootstrap_mean_diff_ci(a, b, seed=51)
            if lo <= 0.0:
                ok = False
                details.append(f"{setting}: not above {other} (CI [{lo:.4f}, {hi:.4f}])")
    assert report("criterion 5b (resource highest utilization at lam=8)", ok,
                  "; ".join(details) or "95% CIs all above zero")


def test_criterion_5c_epr_highest_selp_and_fairness(benchmark_records):
    ok = True
    details = []
    for metric in ("selp", "fairness"):
        for setting in SETTINGS:
            for other in CLASSICAL:
                if other == "epr":
                    continue
                a, b = paired(benchmark_records, setting, metric, "epr", other)
                lo, hi = bootstrap_mean_diff_ci(a, b, seed=52)
                if lo <= 0.0:
                    ok = False
                    details.append(f"{metric}/{setting}: not above {other}")
    assert report("criterion 5c (epr highest selp and fairness)", ok,
                  "; ".join(details) or "95% CIs all above zero")


def test_criterion_5d_asap_below_fifo(benchmark_records):
    ok = True
    details = []
    for setting in SETTINGS:
        a, b = paired(benchmark_records, setting, "makespan_ns", "asap", "fifo")
        lo, hi = bootstrap_mean_diff_ci(a, b, seed=53)
        if hi >= 0.0:
            ok = False
            details.append(f"{setting}: CI [{lo:.3e}, {hi:.3e}]")
    assert report("criterion 5d (asap mean makespan below fifo)", ok,
                  "; ".join(details) or "95% CIs all below zero")


# -- criterion 6: RL machinery -----------------------------------------------


def test_criterion_6_rl_machinery():
    t0 = time.monotonic()
    ok = True

    # masked softmax normalization over random masks
    rng = make_rng(601)
    for _ in range(500):
        logits = rng.normal(size=8)
        mask = rng.random(8) < 0.5
        if not mask.any():
            mask[int(rng.integers(0, 8))] = True
        probs = masked_softmax(logits, mask)
        ok &= abs(probs.sum() - 1.0) < 1e-12 and (probs[~mask] == 0.0).all()

    # every emitted stage respects the node budget
    net = homogeneous_network(6, 3, "good")
    agent = PpoAgent(PpoConfig(seed=6), net, UNIT, default_catalog(net, UNIT))
    for trial in range(100):
        jobs = [make_job(i, int(rng.integers(1, 6)), int(rng.integers(1, 50)),
                         epr=int(rng.integers(0, 10))) for i in range(5)]
        stages, _ = agent.rollout(jobs, sample=bool(trial % 2))
        for picks in stages:
            ok &= sum(jobs[i].required_qpus for i in picks) <= 6
        ok &= sorted(i for s in stages for i in s) == list(range(5))

    # gradient agreement on a toy two-job state
    grad_rng = make_rng(602)
    policy = Mlp([8, 6, 5, 2], grad_rng)
    value = Mlp([8, 6, 5, 1], grad_rng)
    obs = grad_rng.normal(size=(3, 8))
    masks = np.array([[True, True], [True, False], [True, True]])
    actions = np.array([1, 0, 0])
    logits, cache = policy.forward(obs)
    probs = np.stack([masked_softmax(l, m) for l, m in zip(logits, masks)])
    logp_old = np.log(probs[np.arange(3), actions]) + \
        grad_rng.uniform(-0.05, 0.05, size=3)
    adv = grad_rng.normal(size=3)
    rets = grad_rng.normal(size=3)

    def fd(loss_fn, netw, h=1e-6):
        flat = netw.flat.copy()
        grad = np.zeros_like(flat)
        for i in range(flat.size):
            for sign in (1.0, -1.0):
                netw.flat[i] = flat[i] + sign * h
                grad[i] += sign * loss_fn()
            netw.flat[i] = flat[i]
        return grad / (2 * h)

    def backward(netw, cache, grad_out):
        """The flat gradient ``netw.backward`` writes into ``netw.grads``."""
        netw.backward(cache, grad_out)
        return np.concatenate([g.ravel() for g in netw.grads])

    def rel(a, b):
        return np.abs(a - b).max() / max(np.abs(a).max(), np.abs(b).max(), 1e-12)

    loss_pi, d_pi, entropy, d_ent = policy_loss_parts(
        logits, masks, actions, logp_old, adv, 0.2)
    analytic_pi = backward(policy, cache, d_pi)
    analytic_h = backward(policy, cache, d_ent)
    numeric_pi = fd(lambda: policy_loss_parts(
        policy.forward(obs)[0], masks, actions, logp_old, adv, 0.2)[0], policy)
    numeric_h = fd(lambda: policy_loss_parts(
        policy.forward(obs)[0], masks, actions, logp_old, adv, 0.2)[2], policy)
    ok &= rel(analytic_pi, numeric_pi) < 1e-4
    ok &= rel(analytic_h, numeric_h) < 1e-4

    values, cache_v = value.forward(obs)
    _, d_v = value_loss_parts(values[:, 0], rets)
    analytic_v = backward(value, cache_v, d_v[:, None])
    numeric_v = fd(lambda: value_loss_parts(
        value.forward(obs)[0][:, 0], rets)[0], value)
    ok &= rel(analytic_v, numeric_v) < 1e-4

    # latency ratio bounds and the serial-descending saturation
    for _ in range(200):
        n = int(rng.integers(1, 8))
        execs = [float(rng.integers(1, 50)) for _ in range(n)]
        stages = []
        i = 0
        while i < n:
            w = int(rng.integers(1, n - i + 1))
            stages.append(execs[i: i + w])
            i += w
        ratio = row_latencies(stages)[3]
        ok &= 0.0 < ratio <= 1.0 + 1e-12
    serial = [[e] for e in sorted((5.0, 3.0, 2.0, 9.0), reverse=True)]
    ok &= abs(row_latencies(serial)[3] - 1.0) < 1e-12

    # the three worked reward values, exact to 1e-12
    r1, rw1 = row_reward([[(1.0, 5.0)]])
    r2, _ = row_reward([[(1.0, 1.0)], [(1.0, 1.0)]])
    r3, _ = row_reward([[(2.0, 1.0), (2.0, 1.0)]], variant="node_selection")
    ok &= abs(r1 - 1.0) < 1e-12 and abs(rw1 - 0.0) < 1e-12
    ok &= abs(r2 - 0.75) < 1e-12
    ok &= abs(r3 - 0.375) < 1e-12

    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30.0
    assert report("criterion 6 (RL machinery)", ok, f"{elapsed:.1f} s")


# -- criterion 7: training sanity --------------------------------------------


def test_criterion_7_training_sanity():
    t0 = time.monotonic()
    net = build_network(6, 3, {"bad": 0.2, "medium": 0.3, "good": 0.5}, seed=0)
    params = ExecModelParams()
    catalog = default_catalog(net, params)
    config = PpoConfig(seed=11, reward_variant="node_selection")
    agent = PpoAgent(config, net, params, catalog)
    log = agent.train(200)
    first10 = float(np.mean([e.mean_reward for e in log[:10]]))
    last10 = float(np.mean([e.mean_reward for e in log[-10:]]))
    improved = last10 > first10

    untrained = PpoAgent(config, net, params, catalog)
    wcfg = WorkloadConfig(catalog=catalog, lam=5.0, fixed_count=5)
    eval_rng = make_rng(99)
    trained_ms, untrained_ms = [], []
    for _ in range(100):
        queue = generate_slot_jobs(wcfg, eval_rng)
        trained_ms += makespans(agent.schedule(queue))
        untrained_ms += makespans(untrained.schedule(queue))
    mean_trained = float(np.mean(trained_ms))
    mean_untrained = float(np.mean(untrained_ms))
    not_worse = mean_trained <= mean_untrained

    elapsed = time.monotonic() - t0
    ok = improved and not_worse and len(log) == 200 and elapsed < 900.0
    assert report(
        "criterion 7 (training sanity)", ok,
        f"{len(log)} updates, reward {first10:.4f} -> {last10:.4f}, "
        f"makespan {mean_trained:.4e} vs untrained {mean_untrained:.4e}, "
        f"{elapsed:.0f} s",
    )
