"""Minimal fully connected network with hand-written reverse-mode gradients.

Only the operations the RL scheduler needs are implemented: affine layers
with tanh hidden activations, a masked softmax, and an Adam optimizer.
Everything is float64 numpy, so analytic gradients can be checked against
central finite differences.
"""

from __future__ import annotations

import numpy as np


class Mlp:
    """Feed-forward net: affine layers, tanh on hidden layers, linear output."""

    def __init__(self, layer_sizes: list[int], rng: np.random.Generator):
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for i, (fan_in, fan_out) in enumerate(zip(layer_sizes, layer_sizes[1:])):
            scale = 1.0 / np.sqrt(fan_in)
            w = rng.normal(0.0, scale, size=(fan_in, fan_out))
            if i == len(layer_sizes) - 2:
                w = w * 0.01  # near-uniform initial outputs
            self.weights.append(w)
            self.biases.append(np.zeros(fan_out))

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Returns (output, cache of per-layer activations) for a batch."""
        activations = [np.atleast_2d(np.asarray(x, dtype=float))]
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            activations.append(np.tanh(activations[-1] @ w + b))
        out = activations[-1] @ self.weights[-1] + self.biases[-1]
        activations.append(out)
        return out, activations

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Output of :meth:`forward` without the activation cache. A float64
        batch or stack of ``1 × n`` rows is used as given, as normalising would."""
        if not (type(x) is np.ndarray and x.ndim > 1 and x.dtype == np.float64):
            x = np.atleast_2d(np.asarray(x, dtype=float))
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            x = np.tanh(x @ w + b)
        return x @ self.weights[-1] + self.biases[-1]

    def backward(self, activations: list[np.ndarray], grad_out: np.ndarray
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

    def parameters(self) -> list[np.ndarray]:
        return [p for pair in zip(self.weights, self.biases) for p in pair]

    def flat_parameters(self) -> np.ndarray:
        return np.concatenate([p.ravel() for p in self.parameters()])

    def set_flat_parameters(self, flat: np.ndarray) -> None:
        offset = 0
        for p in self.parameters():
            p[...] = flat[offset: offset + p.size].reshape(p.shape)
            offset += p.size
        if offset != flat.size:
            raise ValueError("flat parameter vector has wrong length")


class Adam:
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


def masked_softmax(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax over the last axis where ``mask`` is True; zeros elsewhere.

    A batch of rows gives the same bits as one call per row.
    """
    logits = np.asarray(logits, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if not mask.any(axis=-1).all():
        raise ValueError("masked_softmax needs at least one selectable entry")
    shifted = np.where(mask, logits, -np.inf)
    shifted = shifted - shifted.max(axis=-1, keepdims=True)
    exp = np.where(mask, np.exp(shifted), 0.0)
    return exp / exp.sum(axis=-1, keepdims=True)

