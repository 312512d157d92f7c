"""RL scheduler: encoding, rewards, losses, gradients, rollout, persistence."""

import dataclasses
import itertools
import math
import re
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (default_catalog, homogeneous_network, make_job, make_rng,
                      reference_epr_reward, reference_stage_latencies, row_latencies, row_reward,
                      schedule_on, schedule_rows, stage_ids, stage_rows, unit_exec_params)
from dqcsched.nn import Adam, Mlp, bind, masked_softmax
from dqcsched.ppo import (
    DISCOUNT,
    GAE_LAMBDA,
    REWARD_VARIANTS,
    PpoAgent,
    PpoConfig,
    compute_gae,
    encode_state,
    load_agent,
    load_weights,
    policy_loss_parts,
    ppo_update,
    reward_columns,
    sample_index,
    save_weights,
    value_loss_parts,
)
from dqcsched.schedulers import SchedulingError, epr_schedule, fifo_schedule
from dqcsched.workload import build_circuit_profile, partition_job

PARAMS = unit_exec_params()


# -- references: the per-row / per-array code the faster paths replaced ------


@dataclasses.dataclass
class Transition:
    """The per-pick record that rollouts built before their arrays went to
    the update as they are."""

    obs: np.ndarray
    mask: np.ndarray
    action: int
    logp: float
    value: float
    reward: float = 0.0
    advantage: float = 0.0
    ret: float = 0.0


def reference_compute_gae(transitions, discount, lam):
    """The per-transition loop over one episode that ``compute_gae`` replaced."""
    next_value = 0.0
    adv = 0.0
    for tr in reversed(transitions):
        delta = tr.reward + discount * next_value - tr.value
        adv = delta + discount * lam * adv
        tr.advantage = adv
        tr.ret = adv + tr.value
        next_value = tr.value


def reference_masked_softmax(logits, mask):
    logits = np.asarray(logits, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("masked_softmax needs at least one selectable entry")
    shifted = np.where(mask, logits, -np.inf)
    shifted = shifted - shifted[mask].max()
    exp = np.where(mask, np.exp(shifted), 0.0)
    return exp / exp.sum()


def reference_sample_index(probs, rng):
    if (probs < 0.0).any() or not abs(probs.sum() - 1.0) <= math.sqrt(np.finfo(float).eps):
        raise ValueError(f"not a probability vector: {probs.tolist()}")
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def reference_select_stage(agent, matrix, padding, selected, n_max, sample=False):
    n_vals = matrix[:, 0].astype(int)
    scaled = matrix / agent.feature_scales
    picks = []
    transitions = []
    cap = n_max
    while True:
        mask = ~padding & ~selected & (n_vals <= cap)
        if not mask.any():
            break
        obs = np.where(selected[:, None], 0.0, scaled).ravel()
        probs = masked_softmax(agent.policy(obs)[0], mask)
        if sample:
            action = reference_sample_index(probs, agent.action_rng)
            transitions.append(Transition(
                obs=obs, mask=mask, action=action, logp=float(np.log(probs[action])),
                value=float(agent.value_net(obs)[0, 0])))
        else:
            action = int(np.argmax(probs))
        picks.append(action)
        selected[action] = True
        cap -= n_vals[action]
    return picks, transitions


def reference_forward(net, x):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    activations = [x]
    h = x
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = h @ w + b
        h = z if i == last else np.tanh(z)
        activations.append(h)
    return h, activations


class ReferenceAdam:
    def __init__(self, params, lr=3e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads):
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m[...] = self.beta1 * m + (1.0 - self.beta1) * g
            v[...] = self.beta2 * v + (1.0 - self.beta2) * g * g
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)


def small_agent(j_max=5, seed=0, **cfg_kwargs):
    net = homogeneous_network(6, 3, "good")
    catalog = default_catalog(net, PARAMS)
    config = PpoConfig(j_max=j_max, seed=seed, **cfg_kwargs)
    return PpoAgent(config, net, PARAMS, catalog)


class TestEncodeState:
    def test_empty_queue_all_padding(self):
        matrix = encode_state([], 5, time_scale=100.0)
        assert matrix.shape == (5, 4)
        assert not matrix.any()

    def test_identical_jobs_identical_rows(self):
        jobs = [make_job(i, 2, 50, epr=3) for i in range(5)]
        matrix = encode_state(jobs, 5, time_scale=100.0)
        assert matrix[0].any()
        assert all((matrix[i] == matrix[0]).all() for i in range(5))

    def test_ghz_row_features(self):
        net = homogeneous_network(6, 3, "good")
        job = partition_job(build_circuit_profile("GHZ", 5), 3, net, PARAMS)
        scale = float(job.est_exec_ns * 4)
        matrix = encode_state([job], 5, time_scale=scale)
        row = matrix[0]
        assert row[0] == 2 and row[1] == 2 and row[2] == 2
        assert abs(row[3] - 0.25) < 1e-12
        assert matrix.shape == (5, 4) and not matrix[1:].any()

    def test_overflow_rejected(self):
        jobs = [make_job(i, 1, 10) for i in range(6)]
        with pytest.raises(ValueError):
            encode_state(jobs, 5, time_scale=10.0)


class TestMaskedSoftmax:
    def test_uniform_over_two_identical(self):
        probs = masked_softmax(np.array([0.3, 0.3, 9.0]),
                               np.array([True, True, False]))
        assert np.allclose(probs[:2], [0.5, 0.5])
        assert probs[2] == 0.0

    def test_sums_to_one_over_selectable(self):
        rng = make_rng(51)
        for _ in range(100):
            logits = rng.normal(size=6)
            mask = rng.random(6) < 0.6
            if not mask.any():
                mask[0] = True
            probs = masked_softmax(logits, mask)
            assert abs(probs.sum() - 1.0) < 1e-12
            assert (probs[~mask] == 0.0).all()

    def test_batch_is_bit_identical_to_rows(self):
        rng = make_rng(56)
        for scale in (0.01, 0.1, 1.0, 3.0, 10.0, 30.0):
            for n, k in ((1, 5), (64, 5), (37, 8), (16, 20), (3, 130)):
                logits = rng.normal(size=(n, k)) * scale
                masks = rng.random((n, k)) < 0.5
                masks[: n // 2] = False  # half the rows: one selectable entry
                masks[np.arange(n), rng.integers(0, k, size=n)] = True
                expected = np.stack([reference_masked_softmax(l, m)
                                     for l, m in zip(logits, masks)])
                assert np.array_equal(masked_softmax(logits, masks), expected)
                assert np.array_equal(masked_softmax(logits[0], masks[0]), expected[0])

    def test_fully_masked_row_rejected(self):
        masks = np.ones((4, 5), dtype=bool)
        masks[2] = False
        with pytest.raises(ValueError, match="selectable"):
            masked_softmax(np.zeros((4, 5)), masks)
        with pytest.raises(ValueError, match="selectable"):
            masked_softmax(np.zeros(5), masks[2])


class TestLockstepNumerics:
    """Canaries for what lockstep rollouts rest on: a new numpy or BLAS that
    breaks one of these properties fails here by name, before any digest."""

    @pytest.mark.parametrize("batch", [1, 2, 205, 256])
    def test_stacked_rows_forward_like_single_rows(self, batch):
        rng = make_rng(66, batch)
        agent = small_agent()
        for net in (agent.policy, agent.value_net):
            for b in net.biases:
                b[...] = rng.normal(size=b.shape)
        x = rng.random((batch, 1, 20)) * rng.choice([0.1, 1.0, 50.0], size=(batch, 1, 1))
        x.reshape(batch, 5, 4)[rng.random((batch, 5)) < 0.4] = 0.0  # picked or padded jobs
        for net in (agent.policy, agent.value_net):
            stacked = net(x)
            assert stacked.shape == (batch, 1, net.weights[-1].shape[1])
            mismatched = [i for i in range(batch) if not np.array_equal(stacked[i], net(x[i]))]
            assert mismatched == [], "a (B, 1, n) @ (n, h) product no longer rounds " \
                "like B single-row products"

    @pytest.mark.parametrize("width", range(1, 10))
    def test_row_exp_and_sum_like_one_row(self, width):
        rng = make_rng(67, width)
        # shifted logits: each row's top entry 0, infeasible entries -inf
        rows = -np.abs(rng.normal(size=(300, width))) * rng.choice([0.1, 1.0, 30.0], (300, 1))
        rows[rng.random((300, width)) < 0.3] = -math.inf
        rows[np.arange(300), rng.integers(0, width, 300)] = 0.0
        exp = np.exp(rows.tolist())
        totals = exp.sum(axis=1)
        for row, e, total in zip(rows, exp, totals):
            one = np.exp(row.tolist())
            assert np.array_equal(one, e), "np.exp over rows no longer matches one row"
            assert one.sum() == total, "a row sum no longer adds in a lone row's order"

    @pytest.mark.parametrize("width", range(1, 10))
    def test_row_cumsum_like_accumulate(self, width):
        rng = make_rng(69, width)
        probs = rng.random((300, width)) * rng.choice([1e-3, 1.0, 1e3], (300, 1))
        probs[rng.random((300, width)) < 0.3] = 0.0
        for row, cdf in zip(probs, np.cumsum(probs, axis=1)):
            assert cdf.tolist() == list(itertools.accumulate(row.tolist())), \
                "a row of np.cumsum no longer adds left to right"

    def test_log_of_gathered_probabilities_like_each_float(self):
        rng = make_rng(70)
        logits = rng.normal(size=(500, 9)) * rng.choice([0.1, 1.0, 30.0, 700.0], (500, 1))
        probs = masked_softmax(logits, np.ones((500, 9), dtype=bool))
        action = [rng.choice(np.flatnonzero(row > 0.0)) for row in probs]  # tiny ones too
        gathered = probs[np.arange(500), action]
        assert np.log(gathered).tolist() == [float(np.log(p)) for p in gathered.tolist()], \
            "np.log over a gathered array no longer matches np.log of each float"

    @pytest.mark.parametrize("width", range(1, 10))
    def test_masked_softmax_stack_like_hand_built_pick(self, width):
        """``masked_softmax`` on an ``(L, n)`` stack against the pick it replaced:
        Python ``-inf`` lists, one ``np.exp``, one ``np.add.reduce`` row sum and
        Python division."""
        rng = make_rng(71, width)
        logits = rng.normal(size=(400, width)) * rng.choice([0.1, 1.0, 30.0, 800.0], (400, 1))
        mask = rng.random((400, width)) < 0.6
        mask[np.arange(400), rng.integers(0, width, 400)] = True
        shifted = []
        for row, keep in zip(logits.tolist(), mask.tolist()):
            top = max(x for x, k in zip(row, keep) if k)
            shifted.append([x - top if k else -math.inf for x, k in zip(row, keep)])
        exp = np.exp(shifted)
        totals = np.add.reduce(exp, axis=1).tolist()
        want = [[e / total for e in row] for row, total in zip(exp.tolist(), totals)]
        assert masked_softmax(logits, mask).tolist() == want, \
            "masked_softmax on a stack no longer rounds like the hand-built pick"

    @staticmethod
    def minibatch_rows(seed, n=300, width=5):
        """Logits with masked entries and, shifted by their feasible maximum,
        ``-inf`` ones; their probabilities, with masked zeros and, at the
        largest scales, feasible ones that underflow to 0; one action a row,
        of a positive probability, as a sampled pick's."""
        rng = make_rng(72, seed)
        logits = rng.normal(size=(n, width)) * rng.choice([0.1, 1.0, 30.0, 800.0], (n, 1))
        masks = rng.random((n, width)) < 0.6
        masks[np.arange(n), rng.integers(0, width, n)] = True
        shifted = np.where(masks, logits, -math.inf)
        shifted -= shifted.max(axis=1, keepdims=True)
        probs = masked_softmax(logits, masks)
        actions = np.array([rng.choice(np.flatnonzero(p > 0.0)) for p in probs])
        return rng, shifted, masks, probs, actions

    @staticmethod
    def same_bits(a, b):
        """Equal arrays down to the sign of every zero."""
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("width", [1, 5, 9])
    def test_exp_of_minus_inf_is_plus_zero(self, width):
        """``masked_softmax`` takes no second ``np.where`` for masked entries."""
        _, shifted, masks, _, _ = self.minibatch_rows(width, width=width)
        assert self.same_bits(np.exp(shifted), np.where(masks, np.exp(shifted), 0.0)), \
            "np.exp(-inf) is no longer +0.0"

    @pytest.mark.parametrize("width", [1, 5, 9])
    def test_log_of_one_is_plus_zero(self, width):
        """The entropy's safe log takes no outer ``np.where``."""
        _, _, _, probs, _ = self.minibatch_rows(width, width=width)
        inner = np.log(np.where(probs > 0.0, probs, 1.0))
        assert self.same_bits(inner, np.where(probs > 0.0, inner, 0.0)), \
            "np.log(1.0) is no longer +0.0"

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 64, 65, 1025])
    def test_add_reduce_over_n_like_mean(self, n):
        """Each mean of the losses is ``np.add.reduce(x) / n``, and the value
        loss squares with ``np.square``."""
        rng = make_rng(73, n)
        x = rng.normal(size=n) * rng.choice([1e-3, 1.0, 1e6], n)
        assert self.same_bits(np.add.reduce(x) / n, x.mean()), \
            "np.add.reduce(x) / n no longer rounds like x.mean()"
        assert self.same_bits(np.square(x), x ** 2), "np.square no longer rounds like x ** 2"

    def test_boolean_onehot_gathers_and_subtracts_like_a_float_one(self):
        """``policy_loss_parts`` gathers the taken probabilities through a
        boolean one-hot and subtracts the probabilities from it."""
        _, _, _, probs, actions = self.minibatch_rows(1)
        onehot = actions[:, None] == np.arange(probs.shape[1])
        floats = np.zeros_like(probs)
        floats[np.arange(len(probs)), actions] = 1.0
        assert self.same_bits(probs[onehot], probs[np.arange(len(probs)), actions])
        assert self.same_bits(onehot - probs, floats - probs), \
            "a boolean one-hot no longer subtracts like a float one"

    def test_minimum_of_maximum_like_clip(self):
        """The ratio is clipped with ``np.minimum(np.maximum(...))``."""
        rng, _, _, probs, actions = self.minibatch_rows(2)
        ratio = np.exp(np.log(probs[np.arange(len(probs)), actions])
                       - np.log(rng.random(len(probs))))
        assert self.same_bits(np.minimum(np.maximum(ratio, 0.8), 1.2), np.clip(ratio, 0.8, 1.2))

    def test_divide_where_masked_like_negate_divide_and_zero(self):
        """The entropy's logit gradient divides by ``-n`` only where the mask
        holds, keeping the +0.0 that masked entries compute, as negating,
        dividing by n and zeroing masked entries did."""
        _, _, masks, probs, _ = self.minibatch_rows(3)
        n = len(probs)
        safe_log = np.log(np.where(probs > 0.0, probs, 1.0))
        ent_rows = -np.add.reduce(probs * safe_log, axis=1)
        want = -(probs * (safe_log + ent_rows[:, None])) / n
        want[~masks] = 0.0
        got = probs * (safe_log + ent_rows[:, None])
        np.divide(got, -n, out=got, where=masks)
        assert self.same_bits(got, want)

    def test_one_minus_square_in_place_like_fresh(self):
        """``Mlp.backward`` computes tanh's slope ``1 - a²`` into the square."""
        _, shifted, _, _, _ = self.minibatch_rows(4)
        a = np.tanh(np.where(np.isinf(shifted), -0.0, shifted))
        slope = np.square(a)
        assert self.same_bits(np.subtract(1.0, slope, out=slope), 1.0 - a ** 2)

    def test_generator_random_k_like_k_calls(self):
        batch, single = make_rng(68), make_rng(68)
        for k in (0, 1, 5, 1025, 4100):
            assert batch.random(k).tolist() == [single.random() for _ in range(k)], \
                "Generator.random(k) no longer draws what k random() calls draw"
            assert batch.bit_generator.state == single.bit_generator.state


class TestBitExactRewrites:
    def test_call_equals_forward_output(self):
        rng = make_rng(57)
        for sizes in ([20, 64, 64, 5], [20, 64, 64, 1], [3, 2]):
            net = Mlp(sizes, rng)
            for b in net.biases:
                b[...] = rng.normal(size=b.shape)
            for x in (rng.normal(size=sizes[0]), rng.normal(size=(1, sizes[0])),
                      rng.normal(size=(9, sizes[0]))):
                out, cache = net.forward(x)
                ref_out, ref_cache = reference_forward(net, x)
                assert np.array_equal(net(x), out)
                assert np.array_equal(out, ref_out)
                assert all(np.array_equal(a, b) for a, b in zip(cache, ref_cache))
                assert len(cache) == len(ref_cache)

    def test_single_rows_as_given_or_normalised_agree(self):
        """A float64 ``1 × n`` row and its 1-D, list, float32-exact and
        Fortran-ordered forms all give the reference forward's bits."""
        rng = make_rng(59)
        net = Mlp([20, 64, 64, 5], rng)
        row = rng.normal(size=(1, 20)).astype(np.float32).astype(float)
        want = reference_forward(net, row)[0]
        for x in (row, row[0], row[0].tolist(), row.tolist(), row.astype(np.float32),
                  np.asfortranarray(row)):
            assert np.array_equal(net(x), want)

    def test_flat_adam_equals_per_array_adam(self):
        """Two nets on one flat vector, stepped together in place, against a
        per-array Adam for each net: parameters and moments bit for bit."""
        rng = make_rng(58)
        nets = [Mlp([20, 64, 64, 5], rng), Mlp([20, 64, 64, 1], rng)]
        theirs = [[p.copy() for p in net.parameters()] for net in nets]
        opt = Adam(*bind(nets), lr=1e-2)
        refs = [ReferenceAdam(params, lr=1e-2) for params in theirs]
        for _ in range(8):
            for net, ref in zip(nets, refs):
                grads = [rng.normal(size=g.shape) * rng.choice([1e-6, 1.0, 1e3])
                         for g in net.grads]
                for view, g in zip(net.grads, grads):
                    view[...] = g
                ref.step(grads)
            opt.step()
            for net, params in zip(nets, theirs):
                assert all(np.array_equal(a, b) for a, b in zip(net.parameters(), params))
        for moment in ("m", "v"):
            want = np.concatenate([a.ravel() for ref in refs for a in getattr(ref, moment)])
            assert np.array_equal(getattr(opt, moment), want)
        assert np.shares_memory(opt.flat, nets[1].weights[0])

    @pytest.mark.parametrize("rows", [1, 2, 64, 65])
    def test_gradients_into_views_like_fresh_arrays(self, rows):
        """``matmul`` and ``add.reduce`` writing into views of one flat
        gradient vector, at offsets that are not 16-byte aligned, round as
        they do into fresh arrays."""
        rng = make_rng(71, rows)
        grad = np.zeros(1 + 64 * 5 + 5 + 20 * 64 + 64)
        w_out, b_out = grad[1:321].reshape(64, 5), grad[321:326]
        w_in, b_in = grad[326:1606].reshape(20, 64), grad[1606:]
        for _ in range(50):
            h, delta = np.tanh(rng.normal(size=(rows, 64))), rng.normal(size=(rows, 5))
            x, delta_in = rng.random((rows, 20)), rng.normal(size=(rows, 64)) / rows
            np.matmul(h.T, delta, out=w_out)
            np.add.reduce(delta, axis=0, out=b_out)
            np.matmul(x.T, delta_in, out=w_in)
            np.add.reduce(delta_in, axis=0, out=b_in)
            assert np.array_equal(w_out, h.T @ delta) and np.array_equal(b_out, delta.sum(axis=0))
            assert np.array_equal(w_in, x.T @ delta_in) and np.array_equal(
                b_in, delta_in.sum(axis=0))

    @pytest.mark.parametrize("j_max", [1, 2, 5, 8])
    def test_gae_by_columns_like_per_transition_loop(self, j_max):
        rng = make_rng(72, j_max)
        for _ in range(30):
            episodes = int(rng.integers(1, 210))
            values = rng.normal(size=(episodes, j_max)) * rng.choice([0.01, 1.0, 30.0])
            rewards = rng.normal(size=episodes) * rng.choice([0.1, 1.0, 5.0])
            adv, rets = compute_gae(rewards, values, DISCOUNT, GAE_LAMBDA)
            for e in range(episodes):
                trs = [Transition(None, None, 0, 0.0, v, reward=float(rewards[e]))
                       for v in values[e].tolist()]
                reference_compute_gae(trs, DISCOUNT, GAE_LAMBDA)
                assert adv[e].tolist() == [tr.advantage for tr in trs]
                assert rets[e].tolist() == [tr.ret for tr in trs]

    def test_sample_index_draws_like_generator_choice(self):
        rng = make_rng(59)
        ours, theirs = make_rng(60), make_rng(60)
        for _ in range(20_000):
            k = int(rng.integers(1, 9))
            mask = rng.random(k) < 0.6
            mask[int(rng.integers(0, k))] = True
            probs = masked_softmax(rng.normal(size=k) * rng.choice([0.1, 1.0, 10.0]), mask)
            assert sample_index(probs[None], ours.random(1)).tolist() == [theirs.choice(k, p=probs)]
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_sample_index_stack_draws_like_generator_choice(self):
        """Each row of an ``(L, n)`` stack, with its own uniform, picks what
        ``Generator.choice`` picks for that row alone."""
        rng = make_rng(73)
        for width in range(1, 10):
            ours, theirs = make_rng(74, width), make_rng(74, width)
            mask = rng.random((500, width)) < 0.6
            mask[np.arange(500), rng.integers(0, width, 500)] = True
            probs = masked_softmax(rng.normal(size=(500, width)) * rng.choice(
                [0.1, 1.0, 30.0], (500, 1)), mask)
            picks = sample_index(probs, ours.random(500))
            assert picks.tolist() == [theirs.choice(width, p=row) for row in probs]
            assert ours.bit_generator.state == theirs.bit_generator.state

    def test_sample_index_at_the_ends_of_the_uniform_range(self):
        def pick(mask, u):  # the draw of a (1, n) stack of uniform probabilities
            return sample_index(masked_softmax(np.zeros((1, len(mask))), [mask]),
                                np.array([u])).tolist()

        low, high = 0.0, np.nextafter(1.0, 0.0)
        # a leading masked entry is never drawn, not even by u = 0
        assert pick([False, True], low) == [1]
        # ten 0.1 entries sum to the largest double below 1; the top draw
        # still lands on the last entry, and never past a masked tail
        assert pick([True] * 10, high) == [9]
        assert pick([True] * 3 + [False], high) == [2]

    def test_sample_index_takes_lists_and_arrays(self):
        rng = make_rng(62)
        from_list, from_array, theirs = make_rng(63), make_rng(63), make_rng(63)
        for _ in range(5_000):
            k = int(rng.integers(1, 12))
            mask = rng.random(k) < 0.6
            mask[int(rng.integers(0, k))] = True
            probs = masked_softmax(rng.normal(size=k) * rng.choice([0.1, 1.0, 10.0]), mask)
            expected = [theirs.choice(k, p=probs)]
            assert sample_index([probs.tolist()], from_list.random(1)).tolist() == expected
            assert sample_index(probs[None], from_array.random(1)).tolist() == expected
        assert from_list.bit_generator.state == theirs.bit_generator.state
        assert from_array.bit_generator.state == theirs.bit_generator.state
        for probs in ([], [0.5, 0.6], [1.2, -0.2], [0.5, math.nan], [math.nan, 0.5],
                      [0.1] * 8 + [0.25], [0.2] * 8 + [-0.6]):
            with pytest.raises(ValueError, match="probability"):
                sample_index([probs], rng.random(1))

    def test_numpy_sums_left_to_right_below_eight_entries(self):
        # sample_index's check sums in numpy's order and the pick loop keeps
        # numpy's normalising sum: the order changes at 8 entries
        rng = make_rng(65)
        mismatches = [0] * 10
        for n in range(1, 10):
            for _ in range(2_000):
                v = rng.random(n) * rng.choice([1e-3, 1.0, 1e3])
                mismatches[n] += v.sum() != list(itertools.accumulate(v.tolist()))[-1]
        assert mismatches[1:8] == [0] * 7
        assert mismatches[8] > 0 and mismatches[9] > 0

    def test_sample_index_rejects_non_distributions(self):
        rng = make_rng(61)
        for probs in ([0.5, 0.6], [1.2, -0.2], [0.5, np.nan], [0.25, 0.25]):
            with pytest.raises(ValueError, match="probability"):
                sample_index(np.array([probs]), rng.random(1))


class TestSelectStage:
    def test_resource_budget_one_per_stage(self):
        agent = small_agent(j_max=2)
        jobs = [make_job(0, 3, 10), make_job(1, 3, 10)]
        placed = schedule_on(agent, jobs, homogeneous_network(4, 3, "good"), PARAMS)
        assert sorted(map(sorted, stage_ids(placed))) == [[0], [1]]

    def test_feasibility_and_no_duplicates(self):
        agent = small_agent()
        rng = make_rng(52)
        for trial in range(50):
            jobs = [make_job(i, int(rng.integers(1, 6)), int(rng.integers(1, 50)))
                    for i in range(5)]
            sample = bool(trial % 2)
            stages, (obs, masks, actions, logp, _) = agent.rollout(jobs, sample=sample)
            seen = []
            for picks in stages:
                assert sum(jobs[i].required_qpus for i in picks) <= 6
                seen.extend(picks)
            assert sorted(seen) == list(range(5))
            # one array row per pick, in pick order
            assert actions.tolist() == seen
            for x, mask, action, lp in zip(obs, masks, actions, logp):
                assert mask[action]
                assert abs(np.exp(lp) - masked_softmax(
                    agent.policy(x)[0], mask)[action]) < 1e-12

    def test_padding_never_selected(self):
        agent = small_agent()
        jobs = [make_job(0, 2, 10), make_job(1, 2, 10)]
        stages, _ = agent.rollout(jobs)
        assert sorted(i for picks in stages for i in picks) == [0, 1]


class TestSelectStageMatchesReference:
    """The lockstep pick loop against one numpy loop per queue, the loop it
    replaced two rewrites ago.

    Each case steps a batch of queues of mixed lengths, so episodes finish
    at different steps and the stacked forwards shrink as they do. With 8 or
    more entries numpy's sum no longer adds left to right, so the j_max 8
    and 9 cases catch a Python-order normalising sum, and they run the
    probability check on numpy's pairwise ``np.add.reduce``.
    """

    @staticmethod
    def reference_rollout(agent, jobs, n_max, sample):
        matrix = encode_state(jobs, agent.config.j_max, agent.time_scale)
        padding = np.arange(agent.config.j_max) >= len(jobs)
        selected = padding.copy()
        stages, transitions = [], []
        while not selected.all():
            picks, trs = reference_select_stage(agent, matrix, padding, selected, n_max, sample)
            stages.append(picks)
            transitions.extend(trs)
        return stages, transitions

    @pytest.mark.parametrize("j_max", [1, 2, 5, 8, 9])
    def test_picks_transitions_and_rng_match(self, j_max):
        rng = make_rng(64, j_max)
        agent = small_agent(j_max=j_max)
        n_nodes = agent.network.n_nodes
        last_weight = agent.policy.weights[-1].copy()
        for case in range(420):
            for b in agent.policy.biases + agent.value_net.biases:
                b[...] = rng.normal(size=b.shape) * rng.choice([0.1, 1.0, 5.0])
            # every fifth case: logits equal to a bias with repeated values, so
            # argmax ties must go to the first index
            tied = case % 5 == 4
            agent.policy.weights[-1][...] = 0.0 if tied else last_weight
            if tied:
                agent.policy.biases[-1][...] = rng.integers(1, 3, size=j_max) * 0.5
            n_max = int(rng.integers(1, n_nodes))
            # every third case: one queue of each length 0..j_max, shuffled, so
            # each step drops an episode and the longest-first order permutes them
            lengths = rng.permutation(j_max + 1).tolist() if case % 3 == 2 else [
                int(rng.integers(0 if k else 1, j_max + 1)) for k in range(int(rng.integers(1, 5)))]
            queues = [[make_job(i, int(rng.integers(1, n_max + 1)), int(rng.integers(1, 90)),
                                epr=int(rng.integers(0, 12)))
                       for i in range(n)] for n in lengths]
            sample = bool(case % 2)
            start = agent.action_rng.bit_generator.state
            draws = agent.action_rng.random(sum(map(len, queues))) if sample else None
            ours, arrays = agent._rollouts(queues, n_max, draws)
            after = agent.action_rng.bit_generator.state
            agent.action_rng.bit_generator.state = start
            theirs = [self.reference_rollout(agent, jobs, n_max, sample) for jobs in queues]
            assert agent.action_rng.bit_generator.state == after
            assert ours == [stages for stages, _ in theirs]
            theirs_trs = [tr for _, trs in theirs for tr in trs]
            assert all(len(a) == sum(map(len, queues)) for a in arrays)
            assert len(theirs_trs) == (len(arrays[0]) if sample else 0)
            # the pick arrays, row by row, hold the sampled rollout's transitions
            for got, f in zip(arrays, ("obs", "mask", "action", "logp", "value")):
                if sample:
                    want = np.array([getattr(tr, f) for tr in theirs_trs])
                    assert got.dtype == want.dtype and np.array_equal(got, want), f


class TestStageLatencies:
    """One episode's latency terms, by ``reward_columns`` on a one-row window."""

    def test_one_stage_two_unit_jobs(self):
        lats, total, worst, ratio = row_latencies([[1.0, 1.0]])
        assert lats == [1.0, 1.0]
        assert total == 2.0
        assert worst == 3.0
        assert abs(ratio - 2.0 / 3.0) < 1e-12

    def test_serial_descending_saturates(self):
        execs = [9.0, 7.0, 4.0, 1.0]
        _, total, worst, ratio = row_latencies([[e] for e in execs])
        assert abs(ratio - 1.0) < 1e-12
        assert total == worst

    def test_single_job_is_one(self):
        _, total, worst, ratio = row_latencies([[5.0]])
        assert (total, worst, ratio) == (5.0, 5.0, 1.0)

    def test_parallelizing_equal_jobs_reduces_ratio(self):
        serial = row_latencies([[4.0], [4.0]])[3]
        parallel = row_latencies([[4.0, 4.0]])[3]
        assert parallel < serial

    def test_ratio_in_unit_interval_random_partitions(self):
        rng = make_rng(53)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            execs = [float(rng.integers(1, 100)) for _ in range(n)]
            stages = []
            i = 0
            while i < n:
                width = int(rng.integers(1, n - i + 1))
                stages.append(execs[i: i + width])
                i += width
            ratio = row_latencies(stages)[3]
            assert 0.0 < ratio <= 1.0 + 1e-12

    def test_offset_is_the_sum_of_preceding_stage_maxima(self):
        assert row_latencies([[4.0], [2.0, 3.0], [1.0]])[0] == [4.0, 6.0, 7.0, 8.0]


class TestEprReward:
    """One episode's incentive and reward, by ``reward_columns`` on a
    one-row window."""

    def test_single_job(self):
        r_epr, reward = row_reward([[(1.0, 5.0)]])
        assert abs(r_epr - 1.0) < 1e-12
        assert abs(reward - 0.0) < 1e-12  # latency ratio is 1 for one job

    def test_two_stages_with_pressure(self):
        r_epr, _ = row_reward([[(1.0, 1.0)], [(1.0, 1.0)]])
        assert abs(r_epr - 0.75) < 1e-12

    def test_node_selection_variant_positional(self):
        r_epr, _ = row_reward([[(2.0, 1.0), (2.0, 1.0)]], variant="node_selection")
        assert abs(r_epr - 0.375) < 1e-12

    def test_zero_denominator_floored(self):
        r_epr, _ = row_reward([[(0.0, 1.0)]])
        assert abs(r_epr - 1.0) < 1e-12

    def test_low_epr_first_never_worse(self):
        # Positive demands only: the d = 0 floor can invert the ordering.
        rng = make_rng(54)
        for _ in range(100):
            d_low = float(rng.integers(1, 5))
            d_high = float(d_low + rng.integers(1, 20))
            e = float(rng.integers(1, 10))
            low_first, _ = row_reward([[(d_low, e)], [(d_high, e)]])
            high_first, _ = row_reward([[(d_high, e)], [(d_low, e)]])
            assert low_first >= high_first - 1e-12

    def test_epr_order_beats_reversed_order(self):
        # schedule mimicking ascending-EPR stages vs its reversal
        jobs = [(1.0, 2.0), (3.0, 4.0), (8.0, 9.0), (20.0, 21.0)]
        ascending = [[jobs[0], jobs[1]], [jobs[2], jobs[3]]]
        descending = [[jobs[3], jobs[2]], [jobs[1], jobs[0]]]
        _, r_asc = row_reward(ascending)
        _, r_desc = row_reward(descending)
        assert r_asc >= r_desc


@st.composite
def reward_windows(draw):
    """(variant, demand, duration, opened): a window of 1-8 episodes of 1-9
    picks. Pick 0 of an episode always opens a stage, later picks at random.
    Demands come from few values, 0 among them, so stage maxima tie and
    denominators hit the floor; durations are integers up to 10^12, from few
    small values or spread wide, at least one of them positive an episode."""
    episodes, picks = draw(st.integers(1, 8)), draw(st.integers(1, 9))
    demands = draw(st.sampled_from([(0, 1, 2), (0, 3, 40), (0,), (5, 17, 60, 230)]))
    times = st.one_of(st.integers(0, 4), st.integers(0, 10**12))
    demand = [draw(st.lists(st.sampled_from(demands), min_size=picks, max_size=picks))
              for _ in range(episodes)]
    duration = [draw(st.lists(times, min_size=picks, max_size=picks).filter(any))
                for _ in range(episodes)]
    opened = [[True] + draw(st.lists(st.booleans(), min_size=picks - 1, max_size=picks - 1))
              for _ in range(episodes)]
    return (draw(st.sampled_from(REWARD_VARIANTS)), np.array(demand, dtype=float),
            np.array(duration, dtype=float), np.array(opened))


class TestRewardKernel:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(window=reward_windows())
    def test_kernel_matches_per_episode_loops(self, window):
        """``reward_columns`` and ``PpoAgent.episode_reward`` on a window give
        each episode's latencies, sums, worst case, incentive and reward as
        the per-episode loops do, compared by ``==``."""
        variant, demand, duration, opened = window
        episodes, picks = demand.shape
        latencies, total, worst, incentive = reward_columns(demand, duration, opened, variant)
        owner = SimpleNamespace(config=PpoConfig(j_max=picks, reward_variant=variant))
        rewards = PpoAgent.episode_reward(owner, demand, duration, opened)
        assert rewards.shape == (episodes,)
        for k in range(episodes):
            cuts = np.flatnonzero(opened[k]).tolist() + [picks]
            pairs = [list(zip(demand[k, a:b].tolist(), duration[k, a:b].tolist()))
                     for a, b in zip(cuts, cuts[1:])]
            want = reference_stage_latencies([[e for _, e in stage] for stage in pairs])
            assert (latencies[k].tolist(), total[k], worst[k]) == want[:3]
            r_epr, reward = reference_epr_reward(pairs, variant)
            assert incentive[k] == r_epr
            assert rewards[k] == reward

    def test_negative_demand_and_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="negative EPR demand -1.0"):
            reward_columns(np.array([[1.0, -1.0]]), np.ones((1, 2)), np.array([[True, False]]))
        with pytest.raises(ValueError, match="unknown reward variant: 'bogus'"):
            reward_columns(np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 1), bool), "bogus")


class TestLossParts:
    def test_zero_advantage_zero_policy_loss(self):
        logits = np.array([[0.2, -0.1, 0.4]])
        masks = np.array([[True, True, True]])
        loss, d_pi, _, _ = policy_loss_parts(
            logits, masks, np.array([1]), np.array([-1.0]), np.array([0.0]), 0.2)
        assert loss == 0.0
        assert not d_pi.any()

    def test_clip_worked_example(self):
        # ratio 2.0 against clip 1.2 with unit advantage: objective 1.2
        logits = np.array([[0.0, 0.0]])
        masks = np.array([[True, True]])
        logp_new = math.log(0.5)
        logp_old = logp_new - math.log(2.0)
        loss, _, _, _ = policy_loss_parts(
            logits, masks, np.array([0]), np.array([logp_old]),
            np.array([1.0]), 0.2)
        assert abs(loss - (-1.2)) < 1e-12

    def test_perfect_value_fit(self):
        loss, grad = value_loss_parts(np.array([1.0, -2.0]), np.array([1.0, -2.0]))
        assert loss == 0.0
        assert not grad.any()


def finite_difference(loss_fn, net, h=1e-6):
    """Central differences of ``loss_fn`` in each entry of ``net.flat``."""
    flat = net.flat.copy()
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        for sign in (1.0, -1.0):
            net.flat[i] = flat[i] + sign * h
            grad[i] += sign * loss_fn()
        net.flat[i] = flat[i]
    return grad / (2.0 * h)


def flatten_grads(net):
    """The gradients the last ``net.backward`` wrote, in ``net.flat``'s order."""
    return np.concatenate([g.ravel() for g in net.grads])


class TestGradientChecks:
    def setup_method(self):
        rng = make_rng(55)
        self.policy = Mlp([8, 6, 5, 2], rng)
        self.value = Mlp([8, 6, 5, 1], rng)
        n = 4
        self.obs = rng.normal(size=(n, 8))
        self.masks = np.ones((n, 2), dtype=bool)
        self.masks[0, 1] = False
        self.actions = np.array([0, 1, 0, 1])
        logits, _ = self.policy.forward(self.obs)
        probs = np.stack([masked_softmax(l, m) for l, m in zip(logits, self.masks)])
        # stay near ratio 1 so the clipped objective is smooth
        self.logp_old = np.log(probs[np.arange(n), self.actions]) + \
            rng.uniform(-0.05, 0.05, size=n)
        self.adv = rng.normal(size=n)
        self.rets = rng.normal(size=n)

    def rel_diff(self, a, b):
        scale = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
        return np.abs(a - b).max() / scale

    def test_policy_loss_gradient(self):
        def loss():
            logits, _ = self.policy.forward(self.obs)
            return policy_loss_parts(logits, self.masks, self.actions,
                                     self.logp_old, self.adv, 0.2)[0]

        logits, cache = self.policy.forward(self.obs)
        _, d_pi, _, _ = policy_loss_parts(logits, self.masks, self.actions,
                                          self.logp_old, self.adv, 0.2)
        self.policy.backward(cache, d_pi)
        analytic = flatten_grads(self.policy)
        numeric = finite_difference(loss, self.policy)
        assert self.rel_diff(analytic, numeric) < 1e-4

    def test_entropy_gradient(self):
        def entropy():
            logits, _ = self.policy.forward(self.obs)
            return policy_loss_parts(logits, self.masks, self.actions,
                                     self.logp_old, self.adv, 0.2)[2]

        logits, cache = self.policy.forward(self.obs)
        _, _, _, d_ent = policy_loss_parts(logits, self.masks, self.actions,
                                           self.logp_old, self.adv, 0.2)
        self.policy.backward(cache, d_ent)
        analytic = flatten_grads(self.policy)
        numeric = finite_difference(entropy, self.policy)
        assert self.rel_diff(analytic, numeric) < 1e-4

    def test_value_loss_gradient(self):
        def loss():
            values, _ = self.value.forward(self.obs)
            return value_loss_parts(values[:, 0], self.rets)[0]

        values, cache = self.value.forward(self.obs)
        _, d_v = value_loss_parts(values[:, 0], self.rets)
        self.value.backward(cache, d_v[:, None])
        analytic = flatten_grads(self.value)
        numeric = finite_difference(loss, self.value)
        assert self.rel_diff(analytic, numeric) < 1e-4


class TestGae:
    def test_two_step_hand_computation(self):
        (adv,), (ret,) = compute_gae(np.array([2.0]), np.array([[1.0, 0.5]]),
                                     discount=0.9, lam=0.8)
        delta1 = 2.0 + 0.9 * 0.0 - 0.5
        assert abs(adv[1] - delta1) < 1e-12
        delta0 = 2.0 + 0.9 * 0.5 - 1.0
        assert abs(adv[0] - (delta0 + 0.9 * 0.8 * delta1)) < 1e-12
        assert abs(ret[0] - (adv[0] + 1.0)) < 1e-12


class TestPpoSchedule:
    def test_untrained_schedule_is_valid(self):
        agent = small_agent()
        jobs = [make_job(i, q, 10 * (i + 1), epr=i)
                for i, q in enumerate((2, 3, 1, 5, 2))]
        schedule = agent.schedule(jobs, node_selection=False)
        assert sorted(schedule.job_id) == list(range(5))
        for stage in stage_rows(schedule):
            used = set()
            for _, nodes, *_ in stage:
                assert not used & set(nodes)
                used.update(nodes)

    def test_deterministic_inference(self):
        agent = small_agent(seed=4)
        jobs = [make_job(i, 2, 10 + i, epr=i) for i in range(5)]
        s1 = agent.schedule(jobs, node_selection=False)
        s2 = agent.schedule(jobs, node_selection=False)
        assert schedule_rows(s1) == schedule_rows(s2)

    def test_epr_biased_policy_mimics_epr_scheduler(self):
        agent = small_agent()

        class EprBias:
            def __call__(self, obs):  # a stack of 1 × 20 rows
                return -100.0 * obs.reshape(-1, 1, 5, 4)[..., 1]

        agent.policy = EprBias()
        net = agent.network
        jobs = [make_job(0, 2, 10, epr=7), make_job(1, 3, 10, epr=1),
                make_job(2, 2, 10, epr=4), make_job(3, 2, 10, epr=12),
                make_job(4, 1, 10, epr=2)]
        stages, _ = agent.rollout(jobs)
        ppo_sets = [{jobs[i].id for i in picks} for picks in stages]
        reference = epr_schedule(jobs, net, PARAMS, strict_order=False)
        ref_sets = stage_ids(reference)
        assert ppo_sets == ref_sets

    def test_empty_queue(self):
        agent = small_agent()
        assert schedule_rows(agent.schedule([], node_selection=False)) == []

    @pytest.mark.parametrize("node_selection", [False, True])
    def test_overfull_stage_rejected(self, node_selection):
        agent = small_agent()
        jobs = [make_job(0, 4, 10), make_job(1, 3, 10)]
        with pytest.raises(SchedulingError, match="job 1: stage exceeds free nodes"):
            agent.build_schedule(jobs, [[0, 1]], node_selection, agent.network, PARAMS)

    def test_job_wider_than_network_rejected_not_dropped(self):
        """The rollout rejects a job no stage can hold with FIFO's error,
        for scheduling on the agent's network or another one, and in
        training, instead of returning the other jobs' stages."""
        agent = small_agent()
        jobs = [make_job(0, 1, 10), make_job(1, 10, 10), make_job(2, 1, 10)]
        message = "job 1: requires 10 QPUs but the network has 6"
        with pytest.raises(SchedulingError, match=message):
            fifo_schedule(jobs, agent.network, PARAMS)
        for sample in (False, True):
            with pytest.raises(SchedulingError, match=message):
                agent.rollout(jobs, sample=sample)
        with pytest.raises(SchedulingError, match=message):
            agent.schedule(jobs)
        four = homogeneous_network(4, 3, "good")
        with pytest.raises(SchedulingError, match="job 3: requires 5 QPUs but the network has 4"):
            schedule_on(agent, [make_job(3, 5, 10)], four, PARAMS)
        wide = dataclasses.replace(agent.catalog[-1], required_qpus=7)
        agent.catalog = (*agent.catalog[:-1], wide)
        with pytest.raises(SchedulingError, match="requires 7 QPUs but the network has 6"):
            agent.train(1, bias_alpha=1.0)


class TestTraining:
    def test_zero_episodes_leaves_policy_unchanged(self):
        agent = small_agent(seed=9)
        before = agent.policy.flat.copy()
        log = agent.train(0)
        assert log == []
        assert (agent.policy.flat == before).all()

    def test_buffer_flush_and_update_stats(self):
        agent = small_agent(seed=10, update_every=64, minibatch=16, epochs=2)
        log = agent.train(2)
        assert [e.update_index for e in log] == [0, 1]
        assert all(np.isfinite((e.policy_loss, e.value_loss, e.entropy)).all()
                   for e in log)

    def test_training_is_seed_deterministic(self):
        log1 = small_agent(seed=12, update_every=64).train(2)
        log2 = small_agent(seed=12, update_every=64).train(2)
        assert [(e.mean_reward, e.policy_loss) for e in log1] == \
               [(e.mean_reward, e.policy_loss) for e in log2]

    def test_update_requires_buffer(self):
        agent = small_agent()
        empty = (np.zeros((0, 20)), np.zeros((0, 5), dtype=bool), np.zeros(0, dtype=int),
                 np.zeros(0), np.zeros(0), np.zeros(0))
        with pytest.raises(ValueError, match="non-empty"):
            ppo_update(empty, agent.policy, agent.value_net, agent.config,
                       agent.optimizer, agent.update_rng)

    @pytest.mark.parametrize("field", ["j_max", "minibatch", "update_every", "epochs"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_sizes_below_one_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be at least 1, got {value}$"):
            PpoConfig(**{field: value})

    @pytest.mark.parametrize("hidden", [(0,), (-1,), (64, 0)])
    def test_hidden_sizes_below_one_rejected_at_construction(self, hidden):
        """A zero-width layer only warned of a division by zero, and a
        negative one failed inside numpy."""
        with pytest.raises(ValueError, match=rf"^hidden sizes must be at least 1, got "
                                             rf"{re.escape(str(hidden))}$"):
            PpoConfig(hidden=hidden)


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        agent = small_agent(seed=13)
        agent.train(1)
        path = str(tmp_path / "weights.bin")
        save_weights(path, agent)
        loaded = load_agent(path, agent.network, PARAMS, agent.catalog)
        assert (loaded.policy.flat == agent.policy.flat).all()
        assert (loaded.value_net.flat == agent.value_net.flat).all()
        jobs = [make_job(i, 2, 10 + 3 * i, epr=i) for i in range(5)]
        assert schedule_rows(loaded.schedule(jobs)) == schedule_rows(agent.schedule(jobs))
        meta, _ = load_weights(path)  # the latency code is checked, not returned
        assert set(meta) == {"j_max", "n_features", "reward_variant", "time_scale", "hidden"}

    @staticmethod
    def saved_bytes(tmp_path):
        agent = small_agent(seed=13)
        path = tmp_path / "weights.bin"
        save_weights(str(path), agent)
        return agent, path.read_bytes()

    def assert_rejected(self, path, data, agent, fragment):
        path.write_bytes(data)
        with pytest.raises(ValueError, match=fragment) as err:
            load_agent(str(path), agent.network, PARAMS, agent.catalog)
        assert str(path) in str(err.value)

    def test_truncated_file_rejected(self, tmp_path):
        agent, data = self.saved_bytes(tmp_path)
        bad = tmp_path / "short.bin"
        self.assert_rejected(bad, data[:-8], agent, "declares")
        self.assert_rejected(bad, data[:20], agent, "truncated")

    def test_trailing_bytes_rejected(self, tmp_path):
        agent, data = self.saved_bytes(tmp_path)
        self.assert_rejected(tmp_path / "long.bin", data + b"\x00" * 8, agent, "declares")

    def test_missing_array_or_wrong_shape_rejected(self, tmp_path):
        # The last array is the value head's bias, shape (1,): one 8-byte
        # table entry and one float64. The table lists the 1-D metadata and
        # feature-scale vectors, then every network parameter.
        agent, data = self.saved_bytes(tmp_path)
        params = agent.policy.parameters() + agent.value_net.parameters()
        table_end = 12 + sum(4 + 4 * ndim for ndim in [1, 1] + [a.ndim for a in params])
        n_arr = struct.unpack_from("<I", data, 8)[0]
        short = (data[:8] + struct.pack("<I", n_arr - 1) + data[12:table_end - 8]
                 + data[table_end:-8])
        self.assert_rejected(tmp_path / "missing.bin", short, agent, "arrays")
        # Metadata claiming j_max = 4 implies a 16-row first policy layer.
        j_max_4 = data[:table_end] + struct.pack("<d", 4.0) + data[table_end + 8:]
        self.assert_rejected(tmp_path / "shape.bin", j_max_4, agent, r"array 2 has shape")
        # A variant index of -1 would otherwise wrap to the last variant.
        variant = data[:table_end + 16] + struct.pack("<d", -1.0) + data[table_end + 24:]
        self.assert_rejected(tmp_path / "variant.bin", variant, agent, "bad metadata")

    def test_n_features_other_than_four_rejected(self, tmp_path):
        # The metadata vector opens the data: [j_max, n_features, ...].
        agent, data = self.saved_bytes(tmp_path)
        table_end = len(data) - 8 * sum(
            a.size for a in [np.zeros(7), agent.feature_scales]
            + agent.policy.parameters() + agent.value_net.parameters())
        assert struct.unpack_from("<2d", data, table_end) == (5.0, 4.0)
        five = data[:table_end + 8] + struct.pack("<d", 5.0) + data[table_end + 16:]
        self.assert_rejected(tmp_path / "features.bin", five, agent, "bad metadata")

    def test_hidden_size_below_one_rejected(self, tmp_path):
        """A file whose metadata and arrays agree on a zero-width hidden
        layer, as one saved from ``PpoConfig(hidden=(0,))`` was, is bad
        metadata: there is no such network."""
        agent, _ = self.saved_bytes(tmp_path)
        meta = np.array([5, 4, 0, 0, agent.time_scale, 0], dtype=float)
        arrays = [meta, agent.feature_scales]
        for n_out in (5, 1):
            arrays += [np.zeros((20, 0)), np.zeros(0), np.zeros((0, n_out)), np.zeros(n_out)]
        data = b"DQSW" + struct.pack("<II", 1, len(arrays))
        data += b"".join(struct.pack(f"<{a.ndim + 1}I", a.ndim, *a.shape) for a in arrays)
        data += b"".join(a.astype("<f8").tobytes() for a in arrays)
        self.assert_rejected(tmp_path / "hidden.bin", data, agent, r"bad metadata")

    def test_latency_code_other_than_cumulative_rejected(self, tmp_path):
        # [j_max, n_features, variant, latency, ...]: save_weights writes
        # latency code 0, ``cumulative``, the only mode; code 1 is not a mode.
        agent, data = self.saved_bytes(tmp_path)
        table_end = len(data) - 8 * sum(
            a.size for a in [np.zeros(7), agent.feature_scales]
            + agent.policy.parameters() + agent.value_net.parameters())
        assert struct.unpack_from("<d", data, table_end + 24) == (0.0,)
        latency = data[:table_end + 24] + struct.pack("<d", 1.0) + data[table_end + 32:]
        self.assert_rejected(tmp_path / "latency.bin", latency, agent, "bad metadata")

    def test_non_finite_weights_rejected(self, tmp_path):
        agent, data = self.saved_bytes(tmp_path)
        n_arr = struct.unpack_from("<I", data, 8)[0]
        # 7 metadata entries (5 fixed + two hidden sizes) and 4 feature
        # scales precede the first policy weight, array 2.
        first_weight = len(data) - 8 * sum(
            a.size for a in agent.policy.parameters() + agent.value_net.parameters())
        for value in (math.nan, math.inf, -math.inf):
            patched = (data[:first_weight] + struct.pack("<d", value)
                       + data[first_weight + 8:])
            self.assert_rejected(tmp_path / "nan.bin", patched, agent, "array 2 holds")
            last = data[:-8] + struct.pack("<d", value)
            self.assert_rejected(tmp_path / "inf.bin", last, agent, f"array {n_arr - 1} holds")

    @pytest.mark.parametrize("value", [0.0, -1.0])
    @pytest.mark.parametrize("entry", range(4))
    def test_non_positive_feature_scale_rejected(self, tmp_path, entry, value):
        """A zero scale once failed mid-run as an overfull stage, and a
        negative one ran; save_weights never writes either."""
        agent, data = self.saved_bytes(tmp_path)
        at = len(data) - 8 * sum(a.size for a in [agent.feature_scales]
                                 + agent.policy.parameters() + agent.value_net.parameters())
        assert struct.unpack_from("<4d", data, at) == tuple(agent.feature_scales)
        patched = data[:at + 8 * entry] + struct.pack("<d", value) + data[at + 8 * entry + 8:]
        self.assert_rejected(tmp_path / "scales.bin", patched, agent, "must be > 0")

    @pytest.mark.parametrize("value", [0.0, -5.0])
    def test_non_positive_time_scale_rejected(self, tmp_path, value):
        """[j_max, n_features, variant, latency, time_scale, ...]: a time
        scale of 0 or below once failed only at rollout, without the path."""
        agent, data = self.saved_bytes(tmp_path)
        table_end = len(data) - 8 * sum(
            a.size for a in [np.zeros(7), agent.feature_scales]
            + agent.policy.parameters() + agent.value_net.parameters())
        assert struct.unpack_from("<d", data, table_end + 32) == (agent.time_scale,)
        patched = data[:table_end + 32] + struct.pack("<d", value) + data[table_end + 40:]
        self.assert_rejected(tmp_path / "time.bin", patched, agent, "time_scale .* must be > 0")

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError):
            load_agent(str(path), homogeneous_network(6, 3), PARAMS,
                       default_catalog(homogeneous_network(6, 3), PARAMS))
