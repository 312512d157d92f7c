"""Reinforcement-learning scheduler trained with proximal policy optimization.

The policy sees a fixed-size matrix of job features (required QPUs,
entangled-pair demand, non-local gate count, normalized time estimate) and
builds each stage by repeatedly sampling/arg-maxing a masked softmax over
the jobs that still fit the remaining node budget. Episodes are rewarded
with a normalized latency penalty plus an incentive for running low-EPR
jobs early; training uses the clipped surrogate objective with value and
entropy terms on a from-scratch network (:mod:`dqcsched.nn`).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import workload
from .execmodel import ExecModelParams
from .netmodel import Network
from .nn import Adam, Mlp, bind, masked_softmax
from .schedulers import Cell, JobTable, _check_demand, _place_stages, queue_table

REWARD_VARIANTS = ("plain", "node_selection")
_PROB_SUM_TOL = math.sqrt(np.finfo(float).eps)  # Generator.choice's tolerance
N_FEATURES = 4  # the columns encode_state writes
# The standard PPO settings (Schulman et al., 2017), fixed for every run.
CLIP_EPS = 0.2
VALUE_COEF = 0.5
ENTROPY_COEF = 0.01
GAE_LAMBDA = 0.95
DISCOUNT = 0.99


@dataclass
class PpoConfig:
    """Hyperparameters of the RL scheduler that a run or a test sets.

    ``update_every`` counts the picks between gradient updates.
    """

    j_max: int = 5
    minibatch: int = 64
    update_every: int = 1024
    epochs: int = 4
    reward_variant: str = "plain"
    hidden: tuple[int, ...] = (64, 64)
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("j_max", "minibatch", "update_every", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if min(self.hidden, default=1) < 1:
            raise ValueError(f"hidden sizes must be at least 1, got {self.hidden}")
        if self.minibatch > self.update_every:
            raise ValueError("minibatch must not exceed update_every")
        if self.reward_variant not in REWARD_VARIANTS:
            raise ValueError(f"unknown reward variant: {self.reward_variant!r}")


def encode_state(queue, j_max: int, time_scale: float) -> np.ndarray:
    """Queue to (j_max, N_FEATURES) rows [n_j, g_j, g_j, t_hat / time_scale], zero-padded."""
    if len(queue) > j_max:
        raise ValueError(f"queue of {len(queue)} jobs exceeds j_max={j_max}")
    if time_scale <= 0:
        raise ValueError(f"time_scale must be > 0, got {time_scale}")
    return np.array([(job.required_qpus, job.nonlocal_gates, job.nonlocal_gates,
                      job.est_exec_ns / time_scale) for job in queue]
                    + [(0.0,) * N_FEATURES] * (j_max - len(queue)), dtype=float)


def reward_columns(demand: np.ndarray, duration: np.ndarray, opened: np.ndarray,
                   variant: str = "plain") -> tuple[np.ndarray, ...]:
    """Each episode's reward terms from ``(episodes, picks)`` float arrays of
    entangled-pair demand d_i, execution time e_i and stage-opening flags, in
    pick order; the column loops add left to right, as one episode's loop did.
    A job's latency is e_i plus the sum of all preceding stage maxima (the
    ``cumulative`` mode); the worst case is the serial descending ordering. A
    job's incentive term is 1/(d_i + D_prev), D_prev the previous stage's
    maximum demand, or in the node-selection variant 1/(d_i * (o_i + 1) +
    D_prev), o_i the intra-stage order; a zero denominator is floored at 1.
    Returns the latencies, their sums, the worst cases and the incentives,
    each an episode's mean term."""
    if variant not in REWARD_VARIANTS:
        raise ValueError(f"unknown reward variant: {variant!r}")
    if (demand < 0).any():
        raise ValueError(f"negative EPR demand {demand[demand < 0][0]}")
    latencies, n = np.empty_like(duration), duration.shape[1]
    offset = stage_end = d_prev = d_max = order = total = terms = worst = np.zeros(len(duration))
    for t in range(n):  # each step rebinds its names, so the shared zeros stay zero
        new, e, d = opened[:, t], duration[:, t], demand[:, t]
        offset = np.where(new, offset + stage_end, offset)
        stage_end = np.where(new, e, np.maximum(stage_end, e))
        total = total + np.add(e, offset, out=latencies[:, t])
        d_prev = np.where(new, d_max, d_prev)
        d_max = np.where(new, d, np.maximum(d_max, d))
        order = np.where(new, 1.0, order + 1.0)  # o_i + 1
        denom = (d if variant == "plain" else d * order) + d_prev
        terms = terms + 1.0 / np.where(denom == 0.0, 1.0, denom)
    for k, e in enumerate(np.sort(duration, axis=1)[:, ::-1].T):
        worst = worst + (n - k) * e
    return latencies, total, worst, terms / n


def sample_index(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``rng.choice(n, p=row)`` for each row of an ``(L, n)`` stack, given the
    ``(L,)`` uniforms ``u`` it draws, by numpy's own algorithm: the sum checked
    with ``np.add.reduce``, ``cumsum`` over its last entry, then ``searchsorted``."""
    rows = np.asarray(probs, dtype=float)
    if not (abs(np.add.reduce(rows, axis=1) - 1.0) <= _PROB_SUM_TOL).all() or (rows < 0).any():
        raise ValueError(f"not a probability vector: {rows.tolist()}")
    cdf = np.cumsum(rows, axis=1)  # left to right, as itertools.accumulate
    return (cdf / cdf[:, -1:] <= u[:, None]).sum(axis=1)  # bisect_right


def policy_loss_parts(
    logits: np.ndarray,
    masks: np.ndarray,
    actions: np.ndarray,
    logp_old: np.ndarray,
    advantages: np.ndarray,
    clip_eps: float,
) -> tuple[float, np.ndarray, float, np.ndarray]:
    """Clipped-surrogate loss, mean entropy, and their logit gradients.

    Returns (policy_loss, d loss/d logits, entropy, d entropy/d logits)
    for one batch; gradients already include the 1/batch averaging.
    """
    n = logits.shape[0]
    probs = masked_softmax(logits, masks)
    onehot = actions[:, None] == np.arange(probs.shape[1])
    ratio = np.exp(np.log(probs[onehot]) - logp_old)  # a row's one True, in row order
    unclipped = ratio * advantages
    clipped = np.minimum(np.maximum(ratio, 1.0 - clip_eps), 1.0 + clip_eps) * advantages
    loss_pi = float(-np.add.reduce(np.minimum(unclipped, clipped)) / n)  # minus the mean

    active = unclipped <= clipped  # min() takes the unclipped branch
    dlogits_pi = onehot - probs
    dlogits_pi *= (np.where(active, -advantages * ratio, 0.0) / n)[:, None]

    safe_log = np.log(np.where(probs > 0.0, probs, 1.0))  # log(1) is +0.0
    ent_rows = -np.add.reduce(probs * safe_log, axis=1)
    entropy = float(np.add.reduce(ent_rows) / n)
    dlogits_ent = probs * (safe_log + ent_rows[:, None])  # +0.0 where masked: p = 0
    np.divide(dlogits_ent, -n, out=dlogits_ent, where=masks)  # the rest stays +0.0
    return loss_pi, dlogits_pi, entropy, dlogits_ent


def value_loss_parts(values: np.ndarray, returns: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error between value predictions and returns, plus grad."""
    err = values - returns
    return float(np.add.reduce(np.square(err)) / len(err)), 2.0 * err / len(err)


def compute_gae(rewards: np.ndarray, values: np.ndarray, discount: float, lam: float
                ) -> tuple[np.ndarray, np.ndarray]:
    """Advantages and returns of equal-length episodes, given their values as
    an ``(episodes, steps)`` array and the reward each episode gives every
    step: one step back per column, with a per-transition loop's elementwise
    ops."""
    advantages = np.empty_like(values)
    next_value = adv = 0.0
    for t in range(values.shape[1] - 1, -1, -1):
        delta = rewards + discount * next_value - values[:, t]
        adv = advantages[:, t] = delta + discount * lam * adv
        next_value = values[:, t]
    return advantages, advantages + values


def ppo_update(
    batch: tuple[np.ndarray, ...],
    policy: Mlp,
    value_net: Mlp,
    config: PpoConfig,
    optimizer: Adam,
    rng: np.random.Generator,
) -> list[tuple[float, float, float]]:
    """Minibatch gradient steps on the combined loss over ``batch``, a
    window's (inputs, masks, actions, log-probabilities, advantages, returns),
    one row per pick. ``optimizer`` steps both nets' flat vector once per
    minibatch, after both backward passes, as the nets share no parameter.
    Returns the per-epoch means of (policy loss, value loss, entropy)."""
    obs, masks, actions, logp_old, adv, rets = batch
    n = len(obs)
    if not n:
        raise ValueError("ppo_update requires a non-empty batch")
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    epoch_stats: list[tuple[float, float, float]] = []
    for _ in range(config.epochs):
        order = rng.permutation(n)  # each epoch's arrays gathered once, then sliced
        e_obs, e_masks, e_actions, e_logp, e_adv, e_rets = (
            a[order] for a in (obs, masks, actions, logp_old, adv, rets))
        stats = []
        for lo in range(0, n, config.minibatch):
            mb = slice(lo, lo + config.minibatch)
            logits, cache_p = policy.forward(e_obs[mb])
            loss_pi, d_pi, entropy, d_ent = policy_loss_parts(
                logits, e_masks[mb], e_actions[mb], e_logp[mb], e_adv[mb], CLIP_EPS
            )
            policy.backward(cache_p, d_pi - ENTROPY_COEF * d_ent)
            values, cache_v = value_net.forward(e_obs[mb])
            loss_v, d_v = value_loss_parts(values[:, 0], e_rets[mb])
            value_net.backward(cache_v, (VALUE_COEF * d_v)[:, None])
            optimizer.step()
            stats.append((loss_pi, loss_v, entropy))
        epoch_stats.append(tuple(np.array(stats).mean(axis=0)))
    return epoch_stats


@dataclass
class TrainLogEntry:
    update_index: int
    mean_reward: float
    policy_loss: float
    value_loss: float
    entropy: float


class PpoAgent:
    """Policy + value networks with the scheduling rollout around them."""

    def __init__(
        self,
        config: PpoConfig,
        network: Network,
        exec_params: ExecModelParams,
        catalog: tuple,
        feature_scales: np.ndarray | None = None,
        time_scale: float | None = None,
    ):
        self.config = config
        self.network = network
        self.exec_params = exec_params
        self.catalog = catalog
        rows = encode_state(catalog, len(catalog), 1.0)  # demand, gates, gates, estimate
        self.time_scale = float(rows[:, 3].max()) if time_scale is None else time_scale
        self.feature_scales = (np.append(np.maximum(rows[:, :3].max(axis=0), 1.0), 1.0)
                               if feature_scales is None else feature_scales)

        ss = np.random.SeedSequence(config.seed)
        init_ss, act_ss, env_ss, upd_ss = ss.spawn(4)
        init_rng = np.random.Generator(np.random.PCG64(init_ss))
        self.action_rng = np.random.Generator(np.random.PCG64(act_ss))
        self.env_rng = np.random.Generator(np.random.PCG64(env_ss))
        self.update_rng = np.random.Generator(np.random.PCG64(upd_ss))

        in_dim = config.j_max * N_FEATURES
        self.policy = Mlp([in_dim, *config.hidden, config.j_max], init_rng)
        self.value_net = Mlp([in_dim, *config.hidden, 1], init_rng)
        self.optimizer = Adam(*bind([self.policy, self.value_net]))

    # -- action ------------------------------------------------------------

    def select_stage(self, scaled: np.ndarray, need: np.ndarray, cap: np.ndarray,
                     n_max: int, u: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
        """One pick of each of L live episodes, given their ``scaled`` job rows
        ``(L, j_max, N_FEATURES)``, each job's node count ``need`` ``(L, j_max)``
        (``inf`` once picked, and for padding) and the nodes left in each open
        stage, ``cap`` ``(L,)`` (0 before the first), both updated in place.

        An episode picks from the masked softmax over its jobs that fit
        ``cap``, or over all of them in a new stage of ``n_max`` nodes: the
        first most likely job, or one drawn with its uniform in ``u``. The
        policy runs once over the ``(L, 1, n)`` stack of inputs, each row its
        own single-row gemv in numpy's matmul, so a stack picks as its
        episodes would one at a time. Returns the picks, which episodes opened
        a stage, and the inputs, masks, log-probabilities and values (0 for
        argmax picks, which no update reads)."""
        alive = need < math.inf
        x = np.where(alive[..., None], scaled, 0.0).reshape(len(need), 1, -1)
        feasible = need <= cap[:, None]
        opened = ~feasible.any(axis=1)
        cap[opened] = n_max
        feasible[opened] = alive[opened]
        probs = masked_softmax(self.policy(x)[:, 0], feasible)
        action = probs.argmax(axis=1) if u is None else sample_index(probs, u)
        rows = np.arange(len(need))
        cap -= need[rows, action]
        need[rows, action] = math.inf
        values = np.zeros(len(need)) if u is None else self.value_net(x)[:, 0, 0]
        return action, opened, x[:, 0], feasible, np.log(probs[rows, action]), values

    def _rollouts(self, states: np.ndarray, n_max: int, draws: np.ndarray | None
                  ) -> tuple[np.ndarray, ...]:
        """The pick arrays (inputs, masks, actions, log-probabilities, values
        and stage-opening flags) of checked queues, given as their stacked
        ``encode_state`` rows (a job's demand, its first entry, is at least 1;
        padding is 0), their episodes stepped in lockstep; ``draws`` holds the
        action uniforms of a sampled rollout in episode-then-pick order, as
        one-episode loops would draw them. Episodes step longest first, so the
        live ones are a prefix of the stack, and each picks once a step: its
        pick t goes to entry t after its first of the pick arrays, which are
        thus in ``draws`` order. Each stage starts at a pick that opened one."""
        j_max, lengths = self.config.j_max, (states[..., 0] > 0).sum(axis=1)
        firsts = np.cumsum(lengths) - lengths  # each episode's first pick in draws order
        by_length = np.argsort(-lengths, kind="stable")
        raw = states[by_length]  # padding rows are 0: no job, so no node count to fit
        scaled, need = raw / self.feature_scales, np.where(raw[..., 0] > 0, raw[..., 0], math.inf)
        cap = np.zeros(len(states))
        n_picks = int(lengths.sum())  # one array entry a pick, in draws order
        action, opened = np.zeros(n_picks, dtype=int), np.zeros(n_picks, dtype=bool)
        obs, masks = np.zeros((n_picks, j_max * N_FEATURES)), np.zeros((n_picks, j_max), dtype=bool)
        logp, values = np.zeros(n_picks), np.zeros(n_picks)
        for t in range(lengths.max(initial=0)):
            k = np.count_nonzero(lengths > t)  # the live episodes: the longest k
            at = firsts[by_length[:k]] + t
            u = None if draws is None else draws[at]
            action[at], opened[at], obs[at], masks[at], logp[at], values[at] = \
                self.select_stage(scaled[:k], need[:k], cap[:k], n_max, u)
        return obs, masks, action, logp, values, opened

    def rollout(self, queue, sample: bool = False
                ) -> tuple[list[list[int]], tuple[np.ndarray, ...]]:
        """Pick indices per stage and the pick arrays an update reads for one
        queue; a job that does not fit the agent's network is a
        SchedulingError."""
        _check_demand([j.id for j in queue], [j.required_qpus for j in queue], self.network)
        draws = self.action_rng.random(len(queue)) if sample else None
        arrays = self._rollouts(encode_state(queue, self.config.j_max, self.time_scale)[None],
                                self.network.n_nodes, draws)
        picks, bounds = arrays[2].tolist(), np.flatnonzero(arrays[5]).tolist() + [len(queue)]
        return [picks[a:b] for a, b in zip(bounds, bounds[1:])], arrays[:5]

    # -- schedule construction -------------------------------------------

    def table_picks(self, table: JobTable, n_max: int) -> tuple[np.ndarray, np.ndarray]:
        """The argmax rollout of a job ``table``'s checked queues on ``n_max``
        nodes: the picked table rows in pick order, and the stage-opening flags.
        The ``encode_state`` rows are gathered from the catalog's, and a zero row."""
        j_max, counts, catalog = self.config.j_max, table.counts, table.catalog
        if (longest := int(counts.max(initial=0))) > j_max:
            raise ValueError(f"queue of {longest} jobs exceeds j_max={j_max}")
        states = encode_state(catalog, len(catalog) + 1, self.time_scale)  # last: zeros
        firsts = (counts.cumsum() - counts).repeat(counts)
        padded = np.full((len(counts), j_max), len(catalog))
        padded[np.arange(len(counts)).repeat(counts), np.arange(len(firsts)) - firsts] = table.rows
        _, _, action, _, _, opened = self._rollouts(states[padded], n_max, None)
        return firsts + action, opened

    def build_schedule(self, table: JobTable, picks, opened, counts, node_selection: bool,
                       network: Network, exec_params: ExecModelParams) -> Cell:
        """Barrier-synchronized placement of a rollout's picked rows of the
        job ``table``, in pick order and ``counts`` (int64) to an episode, a
        stage opening at each pick that ``opened`` flags."""
        return _place_stages(table, picks, np.flatnonzero(opened), counts, network,
                             exec_params, node_selection)

    def schedule(self, queue, node_selection: bool | None = None) -> Cell:
        """Deterministic (argmax) scheduling of one queue, as its cell."""
        if node_selection is None:
            node_selection = self.config.reward_variant == "node_selection"
        table = queue_table([queue], self.network, self.exec_params)
        _check_demand(table.ids, table.need, self.network)
        return self.build_schedule(table, *self.table_picks(table, self.network.n_nodes),
                                   table.counts, node_selection, self.network, self.exec_params)

    def episode_reward(self, demand: np.ndarray, duration: np.ndarray,
                       opened: np.ndarray) -> np.ndarray:
        """The ``(episodes,)`` rewards of a window's ``(episodes, j_max)``
        demand, execution time and stage-opening arrays, in pick order: the
        incentive minus the latency ratio, of one :func:`reward_columns` call."""
        _, total, worst, incentive = reward_columns(demand, duration, opened,
                                                    self.config.reward_variant)
        return -(total / worst) + incentive

    # -- training ----------------------------------------------------------

    def train(self, updates: int, bias_alpha: float = 0.0) -> list[TrainLogEntry]:
        """``updates`` gradient updates, each on a window of fixed-size slots:
        the fewest whole episodes that hold ``update_every`` picks.

        The episodes of a window roll out in lockstep, their queues and action
        uniforms drawn first, in episode order: one draw of the window's
        catalog picks, whose rows are gathered from the catalog's, and one of
        its action uniforms. One placement and one reward call cover the
        window; every pick of an episode receives the episode reward, and
        advantages come from generalized advantage estimation over the window.
        """
        cfg = self.config
        node_selection = cfg.reward_variant == "node_selection"
        wcfg = workload.WorkloadConfig(self.catalog, bias_alpha=bias_alpha, fixed_count=cfg.j_max)
        n_picks = -(-cfg.update_every // cfg.j_max) * cfg.j_max  # one pick per job
        rows = encode_state(self.catalog, len(self.catalog), self.time_scale)  # a row a job
        firsts = np.arange(n_picks) // cfg.j_max * cfg.j_max  # each pick's episode's first
        catalog = queue_table([self.catalog], self.network, self.exec_params)
        log: list[TrainLogEntry] = []
        for index in range(updates):
            picks = wcfg.cumulative.searchsorted(self.env_rng.random(n_picks), side="right")
            _check_demand(np.arange(n_picks) - firsts, catalog.need[picks], self.network)
            draws = self.action_rng.random(n_picks)
            obs, masks, action, logp, values, opened = self._rollouts(
                rows[picks].reshape(-1, cfg.j_max, N_FEATURES), self.network.n_nodes, draws)
            chosen = picks[firsts + action]  # each pick's catalog entry, in pick order
            placed = self.build_schedule(catalog, chosen, opened,
                                         np.full(n_picks // cfg.j_max, cfg.j_max), node_selection,
                                         self.network, self.exec_params)
            duration = np.subtract(placed.finish_ns, placed.start_ns, dtype=float)
            rewards = self.episode_reward(*(a.reshape(-1, cfg.j_max) for a in (
                rows[chosen, 1], duration, opened)))  # column 1: nonlocal_gates
            adv, rets = compute_gae(rewards, values.reshape(-1, cfg.j_max), DISCOUNT, GAE_LAMBDA)
            stats = ppo_update((obs, masks, action, logp, adv.ravel(), rets.ravel()),
                               self.policy, self.value_net, cfg, self.optimizer, self.update_rng)
            log.append(TrainLogEntry(index, float(np.mean(rewards)),
                                     *np.array(stats).mean(axis=0).tolist()))
        return log


# -- weight file format ----------------------------------------------------
#
# Flat binary, little endian:
#   magic   4 bytes  b"DQSW"
#   version uint32   (currently 1)
#   n_arr   uint32   number of arrays
#   table   per array: ndim uint32, then ndim uint32 dims
#   data    per array: row-major float64 values
#
# Array order: meta vector [j_max, n_features, variant_id, latency code 0,
# time_scale, hidden sizes...], feature scales, then policy weight/bias
# pairs, then value weight/bias pairs.

_MAGIC = b"DQSW"
_VERSION = 1


def save_weights(path: str, agent: PpoAgent) -> None:
    cfg = agent.config
    meta = np.array([
        cfg.j_max,
        N_FEATURES,
        REWARD_VARIANTS.index(cfg.reward_variant),
        0,  # the latency code: 0 is cumulative, the one mode episode_reward has
        agent.time_scale,
        *cfg.hidden,
    ], dtype=float)
    arrays = [meta, agent.feature_scales]
    arrays.extend(agent.policy.parameters())
    arrays.extend(agent.value_net.parameters())
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(arrays)))
        for arr in arrays:
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_weights(path: str) -> tuple[dict, list[np.ndarray]]:
    """Read a weight file; returns (metadata dict, weight arrays).

    The file must hold exactly the arrays and bytes its header declares,
    with the shapes the metadata implies; anything else is a ValueError
    naming the path.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != _MAGIC:
        raise ValueError(f"{path}: not a scheduler weight file")
    try:
        version, n_arr = struct.unpack_from("<II", data, 4)
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported weight file version {version}")
        pos = 12
        shapes = []
        for _ in range(n_arr):
            (ndim,) = struct.unpack_from("<I", data, pos)
            shapes.append(struct.unpack_from(f"<{ndim}I", data, pos + 4))
            pos += 4 + 4 * ndim
    except struct.error:
        raise ValueError(f"{path}: truncated weight file header") from None
    counts = [math.prod(shape) for shape in shapes]
    if len(data) != pos + 8 * sum(counts):
        raise ValueError(f"{path}: header declares {pos + 8 * sum(counts)} bytes, "
                         f"file has {len(data)}")
    arrays = []
    for k, (shape, count) in enumerate(zip(shapes, counts)):
        arrays.append(np.frombuffer(data, "<f8", count, pos).reshape(shape).copy())
        pos += 8 * count
        if not np.isfinite(arrays[-1]).all():
            raise ValueError(f"{path}: array {k} holds a NaN or infinite value")
    if not arrays or arrays[0].ndim != 1 or len(arrays[0]) < 5:
        raise ValueError(f"{path}: missing metadata vector")
    meta_vec = arrays[0]
    try:
        meta = {
            "j_max": int(meta_vec[0]),
            "n_features": int(meta_vec[1]),
            "reward_variant": REWARD_VARIANTS[int(meta_vec[2])],
            "time_scale": float(meta_vec[4]),
            "hidden": tuple(int(h) for h in meta_vec[5:]),
        }
        # Every entry must be the exact code save_weights writes: no
        # fractions, no negative (wrapping) variant index, latency code 0,
        # no j_max or hidden size below 1.
        valid = np.array_equal(meta_vec, [
            meta["j_max"], meta["n_features"],
            REWARD_VARIANTS.index(meta["reward_variant"]), 0,
            meta["time_scale"], *meta["hidden"],
        ]) and meta["n_features"] == N_FEATURES and min(meta["j_max"], *meta["hidden"]) >= 1
    except (IndexError, ValueError, OverflowError):
        valid = False
    if not valid:
        raise ValueError(f"{path}: bad metadata {meta_vec.tolist()}")
    expected = [meta_vec.shape, (meta["n_features"],)]
    for n_out in (meta["j_max"], 1):
        sizes = [meta["j_max"] * meta["n_features"], *meta["hidden"], n_out]
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            expected += [(fan_in, fan_out), (fan_out,)]
    if len(arrays) != len(expected):
        raise ValueError(f"{path}: expected {len(expected)} arrays, found {len(arrays)}")
    for k, (arr, shape) in enumerate(zip(arrays, expected)):
        if arr.shape != shape:
            raise ValueError(f"{path}: array {k} has shape {arr.shape}, expected {shape}")
    if meta["time_scale"] <= 0 or (arrays[1] <= 0).any():
        raise ValueError(f"{path}: time_scale {meta['time_scale']} and feature scales "
                         f"{arrays[1].tolist()} must be > 0")
    return meta, arrays[1:]


def load_agent(
    path: str,
    network: Network,
    exec_params: ExecModelParams,
    catalog: tuple,
) -> PpoAgent:
    """Rebuild an agent for inference from a weight file."""
    meta, arrays = load_weights(path)
    config = PpoConfig(
        j_max=meta["j_max"],
        reward_variant=meta["reward_variant"],
        hidden=meta["hidden"],
    )
    agent = PpoAgent(
        config, network, exec_params, catalog,
        feature_scales=arrays[0], time_scale=meta["time_scale"],
    )
    agent.optimizer.flat[...] = np.concatenate([a.ravel() for a in arrays[1:]])
    return agent
