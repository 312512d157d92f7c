"""Differential oracles for the barrier-stage loop ``_place_stages``, for
ASAP's loop and for the price tables they place through.

The references are the stage loops that ``_place_stages`` replaced, copied
verbatim: ``_place_stage`` with ``_in_order_stages`` (FIFO, LIST, EPR and
EPR-NS), the ``resource`` round loop, and ``PpoAgent.build_schedule``; and
ASAP's loop as it was before price tables. All of them price through
``reference_pricer`` (``conftest.py``), a copy of ``Schedule.pricer`` that
appends ``(job_id, nodes, start_ns, finish_ns, stage)`` rows, where they
called that method, and return those rows. Three other edits: the stage loop picks nodes
through ``reference_select_nodes`` (``conftest.py``), a memo-free copy of
``select_nodes`` from before its free-mask table, so a wrong table entry
cannot reach both sides; EPR's sort key read ``epr_pairs``, a field that
always equalled ``nonlocal_gates``; and the ``resource`` loop took its cap
as an argument that no run set, where it now reads ``ENUMERATION_CAP``.
The ``resource`` loop searches through ``reference_max_demand_subset``, a
verbatim copy of ``_max_demand_subset`` from before the search took its
state as arguments, so the loop oracle does not check the search against
itself; the lockstep ``resource`` planner that replaced both is compared
with the loop queue by queue, and its first stage with the search on
single pools. Every test compares the rows of the library's cell with the
reference's, or both errors word for word, on hypothesis-drawn queues and
networks; the library places a one-queue cell, and ``build_schedule`` a
queue's stages of rows through ``place_rows`` (``conftest.py``).

PPO training has its own oracle: ``reference_train``, the sequential
episode loop that lockstep rollouts replaced, with the ``rollout``,
``select_stage``, ``encode`` and ``sample_index`` it called, copied
verbatim as functions of the agent, and the update it called before the
update moved onto one flat parameter vector: ``ppo_update`` with the
``Transition`` records, ``compute_gae``, ``Adam`` (two optimizers, one per
net) and ``Mlp.forward``/``backward`` it ran on, also verbatim. Edits:
``reference_encode`` returns the node counts and scaled rows of
``encode_state``'s matrix, and ``reference_rollout`` marks the padding rows
itself, since ``encode_state`` returns neither; ``reference_train`` takes a
number of updates and runs ceil(update_every / j_max) episodes for each, as
the library's ``train`` does, places each episode's stages of queue rows
through ``place_rows`` (``conftest.py``), ``build_schedule`` on the
agent's network and parameters, where it called ``build_schedule`` with
them, and rewards each episode by
``reference_epr_reward`` (``conftest.py``) on its demands and placed
durations in pick order, where it called ``episode_reward`` on one episode,
which that method no longer takes; the copied functions call one another where
they called the library's names, and the rollout's forwards
(``Mlp.__call__``, then the same arithmetic as ``forward``) go through
``reference_forward``; the agent keeps its two reference optimizers in
``reference_opts``, built on first use over its nets' parameter arrays.
"""
import bisect
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    MIXES,
    default_catalog,
    make_job,
    place_rows,
    schedule_rows,
    reference_epr_reward,
    reference_pricer,
    reference_select_nodes,
    run_unchecked,
    slot_queue,
    unit_exec_params,
    validate_queue,
)
from dqcsched.execmodel import EPR_POLICIES, ExecModelParams
from dqcsched.netmodel import Network, build_network
from dqcsched import workload
from dqcsched.ppo import (
    _PROB_SUM_TOL,
    DISCOUNT,
    GAE_LAMBDA,
    REWARD_VARIANTS,
    CLIP_EPS,
    ENTROPY_COEF,
    VALUE_COEF,
    PpoAgent,
    PpoConfig,
    TrainLogEntry,
    encode_state,
    policy_loss_parts,
    value_loss_parts,
)
from dqcsched.schedulers import (
    SCHEDULER_NAMES,
    SchedulingError,
    _resource_plan,
    ENUMERATION_CAP,
    epr_schedule,
    get_scheduler,
    queue_table,
    resource_prioritize_schedule,
)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


# -- references: the stage loops as they were before ``_place_stages`` --------


def reference_place_stage(place, jobs, network: Network, barrier: int, stage: int,
                          node_selection: bool = False) -> int:
    """Start ``jobs`` together at ``barrier``, in order, each on the lowest
    free ids or, with ``node_selection``, on the free subset with the best
    internal links. Returns the stage's end: the running max of its
    finishes from ``barrier``, which is its latest finish since durations
    are never negative."""
    free = list(range(network.n_nodes))
    end = barrier
    for job in jobs:
        if job.required_qpus > len(free):
            raise SchedulingError(job.id, "stage exceeds free nodes")
        if node_selection:
            nodes = reference_select_nodes(free, job.required_qpus, network)
            free = [n for n in free if n not in nodes]
        else:
            nodes, free = free[: job.required_qpus], free[job.required_qpus:]
        end = max(end, place(job, nodes, barrier, stage))
    return end


def reference_in_order_stages(queue, network: Network, exec_params: ExecModelParams,
                              node_selection: bool = False,
                              strict_order: bool = True) -> list[tuple]:
    """Stages filled from ``queue`` in order: each remaining job that fits
    the free nodes joins the stage; under ``strict_order`` the stage closes
    at the first job that does not fit."""
    rows: list[tuple] = []
    place = reference_pricer(rows, network, exec_params)
    remaining = list(queue)
    barrier = stage = 0
    while remaining:
        jobs, deferred, n_free = [], [], network.n_nodes
        for idx, job in enumerate(remaining):
            if job.required_qpus <= n_free:
                jobs.append(job)
                n_free -= job.required_qpus
            elif strict_order:
                deferred = remaining[idx:]
                break
            else:
                deferred.append(job)
        barrier = reference_place_stage(place, jobs, network, barrier, stage, node_selection)
        remaining = deferred
        stage += 1
    return rows


def reference_max_demand_subset(pool, n_nodes: int) -> int:
    """Bit mask (bit k: ``pool[k]``) of the subset with maximal demand <=
    ``n_nodes``, then minimal mean estimate, sorted ids and mask, found by a
    depth-first search that extends a subset only while it fits and stops a
    branch once the rest of the pool cannot lift it to the best demand.
    Integer estimates sum exactly in a double, so each mean is bit-exact.
    """
    demand = [j.required_qpus for j in pool]
    est = [j.est_exec_ns for j in pool]
    reach = list(itertools.accumulate(reversed(demand)))[::-1]
    best = [0, math.inf, 0, None]  # demand, mean, mask, tie key once needed

    def tie_key(mask):
        return sorted(j.id for k, j in enumerate(pool) if mask >> k & 1), mask

    def extend(start, used, total, count, mask):
        for k in range(start, len(pool)):
            if used + reach[k] < best[0]:
                break
            d = used + demand[k]
            if d > n_nodes:
                continue
            sub_total, sub_mask = total + est[k], mask | 1 << k
            if d >= best[0]:
                mean = sub_total / (count + 1)
                if d > best[0] or mean < best[1]:
                    best[:] = d, mean, sub_mask, None
                elif mean == best[1]:
                    best[3] = best[3] or tie_key(best[2])
                    key = tie_key(sub_mask)
                    if key < best[3]:
                        best[:] = d, mean, sub_mask, key
            if d < n_nodes:
                extend(k + 1, d, sub_total, count + 1, sub_mask)

    extend(0, 0, 0, 0, 0)
    return best[2]


def reference_resource_schedule(queue, network: Network,
                                exec_params: ExecModelParams) -> list[tuple]:
    validate_queue(queue, network)
    rows: list[tuple] = []
    place = reference_pricer(rows, network, exec_params)
    remaining = list(queue)
    barrier = stage = 0
    while remaining:
        pool = remaining[:ENUMERATION_CAP]
        chosen = reference_max_demand_subset(pool, network.n_nodes)
        jobs = [job for k, job in enumerate(pool) if chosen >> k & 1]
        barrier = reference_place_stage(place, jobs, network, barrier, stage)
        stage += 1
        remaining = [j for i, j in enumerate(remaining) if not chosen >> i & 1]
    return rows


def reference_fifo_schedule(queue, network, exec_params) -> list[tuple]:
    validate_queue(queue, network)
    return reference_in_order_stages(queue, network, exec_params)


def reference_list_schedule(queue, network, exec_params) -> list[tuple]:
    validate_queue(queue, network)
    return reference_in_order_stages(queue, network, exec_params, strict_order=False)


def reference_epr_schedule(queue, network, exec_params, node_selection=False,
                           strict_order=True) -> list[tuple]:
    validate_queue(queue, network)
    remaining = sorted(queue, key=lambda j: (j.nonlocal_gates, j.est_exec_ns, j.id))
    return reference_in_order_stages(remaining, network, exec_params, node_selection,
                                     strict_order)


def reference_build_schedule(self, queue, stages: list[list[int]],
                             node_selection: bool,
                             network: Network | None = None,
                             exec_params: ExecModelParams | None = None) -> list[tuple]:
    """Barrier-synchronized placement of the rolled-out stages."""
    network = network if network is not None else self.network
    exec_params = exec_params if exec_params is not None else self.exec_params
    rows: list[tuple] = []
    place = reference_pricer(rows, network, exec_params)
    barrier = 0
    for stage_idx, picks in enumerate(stages):
        barrier = reference_place_stage(place, [queue[row] for row in picks], network,
                                        barrier, stage_idx, node_selection)
    return rows


def reference_asap_schedule(queue, network: Network, exec_params: ExecModelParams) -> list[tuple]:
    validate_queue(queue, network)
    rows: list[tuple] = []
    place = reference_pricer(rows, network, exec_params)
    avail = [0] * network.n_nodes
    remaining = list(queue)
    stage = 0
    while remaining:
        t = sorted(avail)[min(job.required_qpus for job in remaining) - 1]
        free = [n for n, release in enumerate(avail) if release <= t]
        deferred: list = []
        for job in remaining:
            if job.required_qpus <= len(free):
                nodes, free = free[: job.required_qpus], free[job.required_qpus:]
                finish = place(job, nodes, t, stage)
                for n in nodes:
                    avail[n] = finish
            else:
                deferred.append(job)
        remaining = deferred
        stage += 1
    return rows


REFERENCES = {
    "fifo": reference_fifo_schedule,
    "list": reference_list_schedule,
    "resource": reference_resource_schedule,
    "epr": reference_epr_schedule,
    "epr-ns": lambda q, n, p: reference_epr_schedule(q, n, p, node_selection=True),
    "asap": reference_asap_schedule,
}



# -- references: PPO training as it was before lockstep rollouts -------------


@dataclasses.dataclass
class Transition:
    """One greedy pick and everything the update step needs about it."""

    obs: np.ndarray
    mask: np.ndarray
    action: int
    logp: float
    value: float
    reward: float = 0.0
    advantage: float = 0.0
    ret: float = 0.0


def reference_forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Returns (output, cache of per-layer activations) for a batch."""
    activations = [np.atleast_2d(np.asarray(x, dtype=float))]
    for w, b in zip(self.weights[:-1], self.biases[:-1]):
        activations.append(np.tanh(activations[-1] @ w + b))
    out = activations[-1] @ self.weights[-1] + self.biases[-1]
    activations.append(out)
    return out, activations


def reference_backward(self, activations: list[np.ndarray], grad_out: np.ndarray
                       ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Gradients of a scalar loss wrt all parameters, given dL/d(output).

    ``activations`` is the cache from :meth:`forward`; returns one
    (dW, db) pair per layer, first layer first.
    """
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(self.weights)
    delta = np.atleast_2d(grad_out)
    for i in range(len(self.weights) - 1, -1, -1):
        h_in = activations[i]
        grads[i] = (h_in.T @ delta, delta.sum(axis=0))
        if i > 0:
            # tanh'(z) expressed through the cached activation value
            delta = (delta @ self.weights[i].T) * (1.0 - activations[i] ** 2)
    return grads


class ReferenceAdam:
    """Adaptive-moment gradient descent; moments are flat over all parameters.
    The moment decay rates and ``EPS`` are the defaults of Kingma & Ba (2015)."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: list[np.ndarray], lr: float = 3e-4):
        self.params = params
        self.lr = lr
        self._bounds = np.cumsum([0] + [p.size for p in params]).tolist()
        self.m = np.zeros(self._bounds[-1])
        self.v = np.zeros(self._bounds[-1])
        self.t = 0

    def step(self, grads: list[np.ndarray]) -> None:
        self.t += 1
        b1t = 1.0 - self.BETA1 ** self.t
        b2t = 1.0 - self.BETA2 ** self.t
        g = np.concatenate([grad.ravel() for grad in grads])
        self.m = self.BETA1 * self.m + (1.0 - self.BETA1) * g
        self.v = self.BETA2 * self.v + (1.0 - self.BETA2) * g * g
        update = self.lr * (self.m / b1t) / (np.sqrt(self.v / b2t) + self.EPS)
        for p, lo, hi in zip(self.params, self._bounds, self._bounds[1:]):
            p -= update[lo:hi].reshape(p.shape)


def reference_compute_gae(transitions: list[Transition], discount: float, lam: float) -> None:
    """Fill advantages and returns over one episode, in place."""
    next_value = 0.0
    adv = 0.0
    for tr in reversed(transitions):
        delta = tr.reward + discount * next_value - tr.value
        adv = delta + discount * lam * adv
        tr.advantage = adv
        tr.ret = adv + tr.value
        next_value = tr.value


def reference_ppo_update(
    buffer: list[Transition],
    policy,
    value_net,
    config: PpoConfig,
    policy_opt: ReferenceAdam,
    value_opt: ReferenceAdam,
    rng: np.random.Generator,
) -> list[tuple[float, float, float]]:
    """Minibatch gradient steps on the combined loss; clears the buffer.

    Returns the per-epoch means of (policy loss, value loss, entropy).
    """
    if not buffer:
        raise ValueError("ppo_update requires a non-empty buffer")

    obs = np.stack([tr.obs for tr in buffer])
    masks = np.stack([tr.mask for tr in buffer])
    actions = np.array([tr.action for tr in buffer])
    logp_old = np.array([tr.logp for tr in buffer])
    adv = np.array([tr.advantage for tr in buffer])
    rets = np.array([tr.ret for tr in buffer])
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)

    n = len(buffer)
    epoch_stats: list[tuple[float, float, float]] = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        stats = []
        for lo in range(0, n, config.minibatch):
            mb = order[lo: lo + config.minibatch]
            logits, cache_p = reference_forward(policy, obs[mb])
            loss_pi, d_pi, entropy, d_ent = policy_loss_parts(
                logits, masks[mb], actions[mb], logp_old[mb], adv[mb], CLIP_EPS
            )
            dlogits = d_pi - ENTROPY_COEF * d_ent
            grads_p = reference_backward(policy, cache_p, dlogits)
            policy_opt.step([g for pair in grads_p for g in pair])

            values, cache_v = reference_forward(value_net, obs[mb])
            loss_v, d_v = value_loss_parts(values[:, 0], rets[mb])
            grads_v = reference_backward(value_net, cache_v, (VALUE_COEF * d_v)[:, None])
            value_opt.step([g for pair in grads_v for g in pair])
            stats.append((loss_pi, loss_v, entropy))
        arr = np.array(stats)
        epoch_stats.append(tuple(arr.mean(axis=0)))
    buffer.clear()
    return epoch_stats


def reference_sample_index(probs, rng: np.random.Generator) -> int:
    """``rng.choice(len(probs), p=probs)`` for a list or an array, by numpy's
    own algorithm (``cumsum`` over its last entry, then ``searchsorted``)."""
    values = probs.tolist() if isinstance(probs, np.ndarray) else list(probs)
    cdf = list(itertools.accumulate(values))
    # The check sums in numpy's order, which is left to right below 8 entries.
    total = cdf[-1] if 0 < len(cdf) < 8 else np.add.reduce(values)
    if not abs(total - 1.0) <= _PROB_SUM_TOL or min(values) < 0.0:
        raise ValueError(f"not a probability vector: {values}")
    return bisect.bisect_right([c / cdf[-1] for c in cdf], rng.random())


def reference_encode(self, queue) -> tuple[list[int], np.ndarray]:
    matrix = encode_state(queue, self.config.j_max, self.time_scale)
    return matrix[:, 0].astype(int).tolist(), matrix / self.feature_scales


def reference_select_stage(
    self,
    node_counts: list[int],
    scaled: np.ndarray,
    padding: np.ndarray,
    selected: np.ndarray,
    n_max: int,
    sample: bool = False,
) -> tuple[list[int], list[Transition]]:
    n_vals = node_counts
    obs = np.where(selected[:, None], 0.0, scaled)  # a picked row is zeroed
    flat = obs.reshape(1, -1)  # the policy's 1 × n input row, a view of obs
    rows = [r for r, taken in enumerate((padding | selected).tolist()) if not taken]
    picks: list[int] = []
    transitions: list[Transition] = []
    cap = n_max
    while feasible := [r for r in rows if n_vals[r] <= cap]:
        x = flat.copy() if sample else flat
        logits = reference_forward(self.policy, x)[0][0].tolist()
        top = max(logits[r] for r in feasible)
        shifted = [-math.inf] * len(logits)
        for r in feasible:
            shifted[r] = logits[r] - top
        exp = np.exp(shifted)
        total = float(exp.sum())
        probs = [e / total for e in exp.tolist()]
        if sample:
            action = reference_sample_index(probs, self.action_rng)
            mask = np.zeros(len(probs), dtype=bool)
            mask[feasible] = True
            transitions.append(Transition(
                obs=x[0], mask=mask, action=action, logp=float(np.log(probs[action])),
                value=float(reference_forward(self.value_net, x)[0][0, 0])))
        else:
            action = max(feasible, key=probs.__getitem__)  # first max, as np.argmax
        picks.append(action)
        rows.remove(action)
        selected[action] = True
        obs[action] = 0.0
        cap -= n_vals[action]
    return picks, transitions


def reference_rollout(self, queue, sample: bool = False, network: Network | None = None
                      ) -> tuple[list[list[int]], list[Transition]]:
    network = network if network is not None else self.network
    validate_queue(queue, network)
    n_max = network.n_nodes
    node_counts, scaled = reference_encode(self, queue)
    padding = np.arange(self.config.j_max) >= len(queue)
    selected = padding.copy()
    stages: list[list[int]] = []
    transitions: list[Transition] = []
    while not all(selected.tolist()):
        picks, trs = reference_select_stage(self, node_counts, scaled, padding, selected, n_max,
                                            sample=sample)
        stages.append(picks)
        transitions.extend(trs)
    return stages, transitions


def reference_train(self, updates: int, bias_alpha: float = 0.0) -> list[TrainLogEntry]:
    cfg = self.config
    episodes = updates * math.ceil(cfg.update_every / cfg.j_max)
    node_selection = cfg.reward_variant == "node_selection"
    wcfg = workload.WorkloadConfig(
        catalog=self.catalog,
        bias_alpha=bias_alpha,
        fixed_count=cfg.j_max,
    )
    buffer: list[Transition] = []
    window_rewards: list[float] = []
    log: list[TrainLogEntry] = []
    for _ in range(episodes):
        queue = slot_queue(wcfg, self.env_rng)
        stages, transitions = reference_rollout(self, queue, sample=True)
        cell = place_rows(self, queue, stages, node_selection)
        durations = iter(np.subtract(cell.finish_ns, cell.start_ns, dtype=float).tolist())
        _, reward = reference_epr_reward([[(float(queue[r].nonlocal_gates), next(durations))
                                           for r in picks] for picks in stages],
                                         cfg.reward_variant)
        for tr in transitions:
            tr.reward = reward
        reference_compute_gae(transitions, DISCOUNT, GAE_LAMBDA)
        buffer.extend(transitions)
        window_rewards.append(reward)
        if len(buffer) >= cfg.update_every:
            policy_opt, value_opt = self.__dict__.setdefault("reference_opts", (
                ReferenceAdam(self.policy.parameters()),
                ReferenceAdam(self.value_net.parameters())))
            stats = reference_ppo_update(
                buffer, self.policy, self.value_net, cfg,
                policy_opt, value_opt, self.update_rng,
            )
            mean_stats = np.array(stats).mean(axis=0)
            log.append(TrainLogEntry(
                update_index=len(log),
                mean_reward=float(np.mean(window_rewards)),
                policy_loss=float(mean_stats[0]),
                value_loss=float(mean_stats[1]),
                entropy=float(mean_stats[2]),
            ))
            window_rewards = []
    return log


# -- comparison ---------------------------------------------------------------


def run_checked(name, queue, network, params):
    """``name``'s schedule as the run path makes it: the queue check, then the
    unchecked scheduler that ``get_scheduler`` returns, on a cell of that
    one queue."""
    validate_queue(queue, network)
    return run_unchecked(name, [queue], network, params)


def outcome(run):
    """The rows of a placement, a cell or a reference's rows, or the
    scheduling error's message."""
    try:
        placed = run()
    except SchedulingError as exc:
        return "error", str(exc)
    return "ok", placed if isinstance(placed, list) else schedule_rows(placed)


@st.composite
def environments(draw, max_jobs=12):
    """(network, exec params, queue): a ``build_network`` of 2-12 nodes, so
    node selection meets wide free sets, and a
    queue of up to ``max_jobs`` jobs under distinct ids not in arrival
    order. Half the queues are synthetic jobs whose durations come from four
    values, so stage ends tie; the other half are catalog jobs, whose prices
    depend on the nodes they get. One synthetic queue in ten may hold a job
    wider than the network."""
    n_nodes = draw(st.integers(2, 12))
    network = build_network(n_nodes, 3, draw(st.sampled_from(MIXES)),
                            seed=draw(st.integers(0, 30)))
    n_jobs = draw(st.integers(0, max_jobs))
    ids = draw(st.lists(st.integers(0, 99), min_size=n_jobs, max_size=n_jobs, unique=True))
    if draw(st.booleans()):
        params = ExecModelParams(epr_serialization=draw(
            st.sampled_from(("serial", "per-link-parallel"))))
        catalog = [j for j in default_catalog(network, params) if j.required_qpus <= n_nodes]
        picks = draw(st.lists(st.sampled_from(catalog), min_size=n_jobs, max_size=n_jobs))
        queue = [dataclasses.replace(job, id=i) for job, i in zip(picks, ids)]
        return network, params, queue
    widest = n_nodes + 1 if draw(st.integers(0, 9)) == 0 else n_nodes
    queue = [make_job(i, draw(st.integers(1, widest)), draw(st.sampled_from((5, 10, 20, 35))),
                      epr=draw(st.integers(0, 6)))
             for i in ids]
    return network, unit_exec_params(), queue


@st.composite
def pools(draw):
    """(pool, n_nodes): 1-12 jobs for 1-12 nodes, whose demands come from at
    most three values and estimates from at most three, so that many subsets
    tie on demand and mean. The ids ascend, are shuffled, or are drawn from
    0-3, so that they repeat."""
    n_nodes, size = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    demands = draw(st.lists(st.integers(1, n_nodes), min_size=1, max_size=3))
    times = draw(st.lists(st.integers(1, 40), min_size=1, max_size=3))
    order = draw(st.sampled_from(("ascending", "shuffled", "repeated")))
    if order == "repeated":
        ids = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    else:
        ids = draw(st.lists(st.integers(0, 99), min_size=size, max_size=size, unique=True))
        ids = sorted(ids) if order == "ascending" else ids
    return [make_job(i, draw(st.sampled_from(demands)), draw(st.sampled_from(times)))
            for i in ids], n_nodes


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(args=pools())
def test_max_demand_subset_matches_reference_search(args):
    """The resource planner's first stage on a one-queue table of the pool
    is the search's subset, whether the ids ascend, are shuffled or repeat,
    and so is its first stage on the pool's copy under ascending ids."""
    pool, n_nodes = args
    network = build_network(n_nodes, 3, MIXES[0], seed=0) if n_nodes > 1 else Network(1, 3, {})

    def first_stage(queue):
        order, starts = _resource_plan(queue_table([queue], network, unit_exec_params()), network)
        return sum(1 << k for k in order[:np.append(starts, len(order))[1]].tolist())

    assert first_stage(pool) == reference_max_demand_subset(pool, n_nodes)
    ascending = [dataclasses.replace(job, id=k) for k, job in enumerate(pool)]
    assert first_stage(ascending) == reference_max_demand_subset(ascending, n_nodes)


@pytest.mark.parametrize("name", sorted(REFERENCES))
@PROPERTY
@given(env=environments())
def test_staged_schedulers_match_reference_loops(name, env):
    network, params, queue = env
    got = outcome(lambda: run_checked(name, queue, network, params))
    assert got == outcome(lambda: REFERENCES[name](queue, network, params))


@PROPERTY
@given(env=environments(max_jobs=20), node_selection=st.booleans())
def test_resource_cap_and_epr_skip_match_reference_loops(env, node_selection):
    """Queues of up to 20 jobs, so ``resource`` pools overflow the cap of 12."""
    network, params, queue = env
    assert outcome(lambda: resource_prioritize_schedule([queue], network, params)) == \
        outcome(lambda: reference_resource_schedule(queue, network, params))
    assert outcome(lambda: epr_schedule([queue], network, params, node_selection, False)) == \
        outcome(lambda: reference_epr_schedule(queue, network, params, node_selection, False))


@st.composite
def planner_cells(draw):
    """(network, exec params, queues): a ``build_network`` of 2-12 nodes and
    0-6 queues of 0-14 catalog jobs that fit it, empty queues among them,
    each queue's ids distinct and not in arrival order, so EPR's id
    tie-break decides between copies of one catalog entry."""
    n_nodes = draw(st.integers(2, 12))
    network = build_network(n_nodes, 3, draw(st.sampled_from(MIXES)),
                            seed=draw(st.integers(0, 30)))
    params = ExecModelParams(epr_serialization=draw(st.sampled_from(EPR_POLICIES)))
    catalog = [j for j in default_catalog(network, params) if j.required_qpus <= n_nodes]
    queues = []
    for _ in range(draw(st.integers(0, 6))):
        n_jobs = draw(st.integers(0, 14))
        ids = draw(st.lists(st.integers(0, 99), min_size=n_jobs, max_size=n_jobs, unique=True))
        picks = draw(st.lists(st.sampled_from(catalog), min_size=n_jobs, max_size=n_jobs))
        queues.append([dataclasses.replace(job, id=i) for job, i in zip(picks, ids)])
    return network, params, queues


PLANNED = ("fifo", "list", "epr", "epr-ns", "epr-skip")


@PROPERTY
@given(env=planner_cells(), order=st.permutations(PLANNED))
def test_lockstep_stage_plans_match_reference_in_order_stages(env, order):
    """FIFO, LIST, EPR, EPR-NS and EPR without strict order plan every queue
    of a cell at once, in lockstep, from one shared job table, in a drawn
    order, so a scheduler may meet a plan that another one left in the
    table's memo. Each cell is the queues' ``reference_in_order_stages`` rows
    in turn."""
    network, params, queues = env
    library = {name: get_scheduler(name) for name in PLANNED if name != "epr-skip"}
    library["epr-skip"] = lambda t, n, p: epr_schedule.__wrapped__(t, n, p, strict_order=False)
    references = {**REFERENCES, "epr-skip": lambda q, n, p: reference_epr_schedule(
        q, n, p, strict_order=False)}
    table = queue_table(queues, network, params)
    for name in order:
        cell = library[name](table, network, params)
        assert cell.counts.tolist() == list(map(len, queues))
        assert schedule_rows(cell) == [row for queue in queues
                                       for row in references[name](queue, network, params)]


def unit_queue(ids, n_twos: int = 1) -> list:
    """Demand-1 jobs under ``ids``, the first ``n_twos`` of demand 2, with
    two estimates, so that many subsets tie on demand and mean."""
    return [make_job(i, 1 + (k < n_twos), (5, 10)[i % 2]) for k, i in enumerate(ids)]


@st.composite
def resource_cells(draw):
    """``planner_cells`` and, in about half the cells, a queue of 11-14
    synthetic jobs of demand 1 or 2 under ids in any order: on 12 nodes its
    pools leave up to 11 of the cap's 12 jobs that fit together, the largest
    subset tables. In one cell in four, a job one node wider than the network
    stands somewhere in one of the queues."""
    network, params, queues = draw(planner_cells())
    if draw(st.booleans()):
        ids = draw(st.permutations(range(100, 100 + draw(st.integers(11, 14)))))
        queues.insert(draw(st.integers(0, len(queues))), [
            make_job(i, draw(st.sampled_from((1, 1, 1, 2))), draw(st.sampled_from((5, 10))))
            for i in ids])
    if queues and draw(st.integers(0, 3)) == 0:
        queue = queues[draw(st.integers(0, len(queues) - 1))]
        queue.insert(draw(st.integers(0, len(queue))), make_job(999, network.n_nodes + 1, 5))
    return network, params, queues


WIDE = build_network(12, 3, MIXES[1], seed=3)


@PROPERTY
@given(env=resource_cells())
@example(env=(WIDE, unit_exec_params(), [unit_queue(range(14)[::k % 2 * 2 - 1])
                                         for k in range(20)]))
@example(env=(WIDE, unit_exec_params(), [unit_queue(range(13), n_twos=0),
                                         unit_queue(range(30, 17, -1), n_twos=2)]))
def test_lockstep_resource_plan_matches_reference_per_queue(env):
    """``resource`` plans every queue of a cell at once: each queue's rows
    are its ``reference_resource_schedule`` rows, or both sides name the
    same job wider than the network. The examples are 12-node cells of
    demand-1 queues: twenty whose pools fit 11 of their 12 jobs, so a round
    scores 4 094 subsets a queue in more than one chunk, their ids
    descending in every other queue; and one whose pool
    fits whole beside one whose pools fit 10 or 12."""
    network, params, queues = env
    want = outcome(lambda: [row for queue in queues
                            for row in reference_resource_schedule(queue, network, params)])
    assert outcome(lambda: run_unchecked("resource", queues, network, params)) == want
    assert outcome(lambda: resource_prioritize_schedule(queues, network, params)) == want


def test_resource_plan_rejects_estimates_whose_sums_leave_exact_doubles():
    """The planner's means are exact while an estimate times the cap is below
    2**53: at the largest such estimate it still matches the reference,
    whose sums are Python integers, and one more raises naming the job."""
    network, params = WIDE, unit_exec_params()
    top = (2 ** 53 - 1) // ENUMERATION_CAP
    queue = [dataclasses.replace(job, est_exec_ns=top - job.est_exec_ns % 2)
             for job in unit_queue([4, 2, 7, 1, 9, 3, 8, 5, 6, 0, 11, 10, 12], n_twos=3)]
    assert schedule_rows(run_unchecked("resource", [queue], network, params)) == \
        reference_resource_schedule(queue, network, params)
    queue[5] = dataclasses.replace(queue[5], est_exec_ns=top + 1)
    with pytest.raises(ValueError, match=f"job 3: estimate {top + 1} ns"):
        run_unchecked("resource", [[], queue], network, params)


@PROPERTY
@given(env=environments(), data=st.data(), node_selection=st.booleans())
def test_ppo_build_schedule_matches_reference_loop(env, data, node_selection):
    """Random stage partitions of the queue's rows, in a random order. Cuts
    fall anywhere, so some stages ask for more nodes than the network has,
    and both sides must then raise the same error."""
    network, params, queue = env
    rows = data.draw(st.permutations(range(len(queue))))
    cuts = sorted(data.draw(st.sets(st.integers(1, len(rows) - 1)))) if len(rows) > 1 else []
    stages = [list(rows[a:b]) for a, b in zip([0, *cuts], [*cuts, len(rows)]) if a < b]
    agent = PpoAgent(PpoConfig(j_max=12), network, params, default_catalog(network, params))
    got = outcome(lambda: place_rows(agent, queue, stages, node_selection, network, params))
    assert got == outcome(lambda: reference_build_schedule(
        agent, queue, stages, node_selection))
    other = build_network(network.n_nodes, 3, MIXES[1], seed=99)
    assert outcome(lambda: place_rows(agent, queue, stages, node_selection, other, params)) \
        == outcome(lambda: reference_build_schedule(agent, queue, stages, node_selection,
                                                    other, params))


@PROPERTY
@given(env=environments())
def test_every_scheduler_prices_as_the_reference_on_shared_tables(env):
    """All six schedulers and an untrained agent's ``build_schedule`` on its
    own rollout, with and without node selection, one after another on one
    network under both EPR policies. Each run meets price tables that the
    runs before it filled, so a price served from the wrong row, class or
    params would differ from the reference pricer's."""
    network, params, queue = env
    for policy in EPR_POLICIES:
        params = dataclasses.replace(params, epr_serialization=policy)
        for name in SCHEDULER_NAMES:
            assert outcome(lambda: run_checked(name, queue, network, params)) == \
                outcome(lambda: REFERENCES[name](queue, network, params))
        agent = PpoAgent(PpoConfig(j_max=12), network, params, default_catalog(network, params))
        if any(job.required_qpus > network.n_nodes for job in queue):
            continue  # the rollout rejects the queue, as every scheduler did above
        stages, _ = agent.rollout(queue)
        for node_selection in (False, True):
            assert outcome(lambda: place_rows(
                agent, queue, stages, node_selection, network, params)) == \
                outcome(lambda: reference_build_schedule(agent, queue, stages, node_selection))


def training_agents(j_max, variant="plain", catalog_edit=None):
    """Two equal agents on one network. ``update_every`` = 7 j_max + 3 is not
    a multiple of ``j_max`` above j_max 1, so a window's last episode
    overfills the buffer there."""
    network = build_network(6, 3, MIXES[1], seed=j_max)
    params = unit_exec_params()
    catalog = default_catalog(network, params)
    if catalog_edit:
        catalog = catalog_edit(catalog)
    config = PpoConfig(j_max=j_max, minibatch=8, update_every=7 * j_max + 3, epochs=2,
                       reward_variant=variant, seed=j_max)
    return [PpoAgent(config, network, params, catalog) for _ in range(2)]


@pytest.mark.parametrize("variant", REWARD_VARIANTS)
@pytest.mark.parametrize("j_max", [1, 2, 5, 8])
def test_lockstep_training_matches_the_sequential_loop(j_max, variant):
    """Three updates: the logs, both nets and all three generators agree."""
    ours, theirs = training_agents(j_max, variant)
    log = ours.train(3, bias_alpha=0.5)
    assert len(log) == 3
    assert repr(log) == repr(reference_train(theirs, 3, bias_alpha=0.5))
    for a, b in ((ours.policy, theirs.policy), (ours.value_net, theirs.value_net)):
        assert np.array_equal(a.flat, b.flat)
    for rng in ("action_rng", "env_rng", "update_rng"):
        assert getattr(ours, rng).bit_generator.state == \
            getattr(theirs, rng).bit_generator.state
    assert ours.train(0) == reference_train(theirs, 0) == []


def test_lockstep_training_rejects_the_first_bad_queue_as_the_sequential_loop():
    """A 7-QPU catalog entry on 6 nodes: both loops name the same job of the
    same episode."""
    def widen(catalog):
        return (*catalog[:3], dataclasses.replace(catalog[3], required_qpus=7), *catalog[4:])

    errors = []
    for train, agent in zip((PpoAgent.train, reference_train), training_agents(5, "plain", widen)):
        with pytest.raises(SchedulingError, match="requires 7 QPUs") as exc:
            train(agent, 200)
        errors.append(str(exc.value))
    assert errors[0] == errors[1]
