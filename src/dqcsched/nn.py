"""Minimal fully connected network with hand-written reverse-mode gradients.

Only the operations the RL scheduler needs are implemented: affine layers
with tanh hidden activations, a masked softmax, and an Adam optimizer.
Everything is float64 numpy, so analytic gradients can be checked against
central finite differences.
"""

from __future__ import annotations

import numpy as np


class Mlp:
    """Feed-forward net: affine layers, tanh on hidden layers, linear output.
    Its weights and biases are views of its slice ``flat`` of a flat parameter
    vector (see :func:`bind`), and ``grads`` the same views of a gradient one."""

    def __init__(self, layer_sizes: list[int], rng: np.random.Generator):
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.weights, self.biases = [], []
        for i, (fan_in, fan_out) in enumerate(zip(layer_sizes, layer_sizes[1:])):
            w = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out))
            # near-uniform initial outputs
            self.weights.append(w * 0.01 if i == len(layer_sizes) - 2 else w)
            self.biases.append(np.zeros(fan_out))
        bind([self])

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Returns (output, cache of per-layer activations) for a batch."""
        activations = [np.atleast_2d(np.asarray(x, dtype=float))]
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = activations[-1] @ w
            h += b
            activations.append(np.tanh(h, out=h))
        out = activations[-1] @ self.weights[-1]
        out += self.biases[-1]
        activations.append(out)
        return out, activations

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """The output of :meth:`forward`, for a batch or a stack of rows."""
        return self.forward(x)[0]

    def backward(self, activations: list[np.ndarray], grad_out: np.ndarray) -> None:
        """Gradients of a scalar loss wrt all parameters, given the batch's
        dL/d(output) rows and the cache from :meth:`forward`, written into ``grads``."""
        delta = grad_out
        for i in range(len(self.weights) - 1, -1, -1):
            np.matmul(activations[i].T, delta, out=self.grads[2 * i])
            np.add.reduce(delta, axis=0, out=self.grads[2 * i + 1])
            if i > 0:  # tanh'(z) = 1 - a², in place on a square of the cached a
                slope = np.square(activations[i])
                delta = (delta @ self.weights[i].T) * np.subtract(1.0, slope, out=slope)

    def parameters(self) -> list[np.ndarray]:
        return [p for pair in zip(self.weights, self.biases) for p in pair]


def bind(nets: list[Mlp]) -> tuple[np.ndarray, np.ndarray]:
    """A flat vector of the parameters of ``nets`` in order and a zeroed flat
    gradient vector; each net's parameters and ``grads`` become views of them."""
    params = [p for net in nets for p in net.parameters()]
    bounds = np.cumsum([0] + [p.size for p in params]).tolist()
    flat = np.concatenate([p.ravel() for p in params])
    grad = np.zeros_like(flat)
    views, grads = ([vec[lo:hi].reshape(p.shape) for lo, hi, p in zip(bounds, bounds[1:], params)]
                    for vec in (flat, grad))
    at = 0
    for net in nets:
        k = 2 * len(net.weights)
        net.flat = flat[bounds[at]:bounds[at + k]]
        net.weights, net.biases = views[at:at + k:2], views[at + 1:at + k:2]
        net.grads, at = grads[at:at + k], at + k
    return flat, grad


class Adam:
    """Adaptive-moment gradient descent on a flat parameter vector, in place:
    each step reads the flat gradient vector of the same layout. The moment
    decay rates and ``EPS`` are the defaults of Kingma & Ba (2015)."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, flat: np.ndarray, grad: np.ndarray, lr: float = 3e-4):
        self.flat, self.grad, self.lr = flat, grad, lr
        self.m, self.v = np.zeros_like(flat), np.zeros_like(flat)
        self._scratch = np.empty_like(flat), np.empty_like(flat)
        self.t = 0

    def step(self) -> None:
        """``m = BETA1*m + (1-BETA1)*g``, ``v = BETA2*v + ((1-BETA2)*g)*g`` and
        ``flat -= (lr*(m/b1t)) / (sqrt(v/b2t) + EPS)``, rounded alike, in place."""
        self.t += 1
        b1t = 1.0 - self.BETA1 ** self.t
        b2t = 1.0 - self.BETA2 ** self.t
        g, m, v, (update, denom) = self.grad, self.m, self.v, self._scratch
        m *= self.BETA1
        m += np.multiply(g, 1.0 - self.BETA1, out=update)
        v *= self.BETA2
        np.multiply(g, 1.0 - self.BETA2, out=update)
        v += np.multiply(update, g, out=update)
        np.sqrt(np.divide(v, b2t, out=denom), out=denom)
        denom += self.EPS
        np.divide(m, b1t, out=update)
        update *= self.lr
        self.flat -= np.divide(update, denom, out=update)


def masked_softmax(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax over the last axis where ``mask`` is True; zeros elsewhere.

    A batch of rows gives the same bits as one call per row.
    """
    logits = np.asarray(logits, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if not mask.any(axis=-1).all():
        raise ValueError("masked_softmax needs at least one selectable entry")
    exp = np.where(mask, logits, -np.inf)
    exp = np.exp(exp - exp.max(axis=-1, keepdims=True))  # exp(-inf) is +0.0: masked out
    return exp / exp.sum(axis=-1, keepdims=True)

