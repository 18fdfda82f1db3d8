"""Regularized MSE objective and its per-block and full gradients.

Objective: f(w) = (1/P) sum_p ||yhat_p - y_p||^2 + rho * ||w||^2.

A minibatch component is not a second formula: f_B is this objective over the
rows of B, with the config `cfg.component(|B|)`, which keeps the 1/P factor
and scales rho to its |B|/P share,

    f_B(w) = (1/P) sum_{p in B} ||yhat_p - y_p||^2 + (|B| rho / P) * ||w||^2,

so that the components of any partition sum exactly to f. Values and
gradients read a forward cache over the rows of Y that is current for the
weights; only `objective_value` and `mse_value` run their own forward pass.
"""

import math
from dataclasses import dataclass

import numpy as np

from .network import (ForwardCache, NetworkWeights, StaleCacheError,
                      _sigmoid_slope, forward)


@dataclass(frozen=True)
class ObjectiveConfig:
    rho: float
    sample_count: int

    def __post_init__(self):
        if not (math.isfinite(self.rho) and self.rho >= 0):
            raise ValueError(f"rho must be finite and nonnegative, got {self.rho!r}")
        if self.sample_count < 1:
            raise ValueError("sample_count must be positive")

    def component(self, rows: int) -> "ObjectiveConfig":
        """The config of f_B for a minibatch of `rows` samples, rho scaled to
        |B| rho / P. A minibatch of every row is component(P), not self:
        P * rho / P can differ from rho in the last bit."""
        if rows < 1:
            raise ValueError("a minibatch needs at least one row")
        return ObjectiveConfig(rows * self.rho / self.sample_count,
                               self.sample_count)


def default_rho(num_variables: int) -> float:
    """Benchmark default regularization weight, 1e-3 / n."""
    return 1e-3 / num_variables


def weights_squared_norm(weights: NetworkWeights) -> float:
    return sum(float(np.dot(b.ravel(), b.ravel()))
               for b in (weights.block(l) for l in range(1, weights.num_layers + 1)))


def _squared_error(outputs, Y) -> float:
    resid = outputs - Y
    return float(np.dot(resid.ravel(), resid.ravel()))


def _loss(outputs, Y, cfg: ObjectiveConfig, sq_norm: float) -> float:
    """The one loss: (1/P) sum ||yhat - y||^2 over the rows of `outputs`, plus
    rho * ||w||^2, where sq_norm = ||w||^2."""
    return _squared_error(outputs, Y) / cfg.sample_count + cfg.rho * sq_norm


def _block_grad(z_prev, delta, W, cfg: ObjectiveConfig) -> np.ndarray:
    """The one block-gradient product: d/dW of `_loss`, from the input z_prev
    of the block and the delta at its output."""
    return (2.0 / cfg.sample_count) * (z_prev.T @ delta) + 2.0 * cfg.rho * W


def _check_current(weights: NetworkWeights, cache: ForwardCache):
    if cache.versions != weights.versions():
        raise StaleCacheError("cache does not match current weights")


def objective_value(weights: NetworkWeights, X, Y, cfg: ObjectiveConfig):
    """Returns (regularized objective, unregularized mean squared error),
    the terms of `_loss` with the residual squared once."""
    outputs, _ = forward(weights, X)
    mse = _squared_error(outputs, Y) / cfg.sample_count
    return mse + cfg.rho * weights_squared_norm(weights), mse


def mse_value(weights: NetworkWeights, X, Y) -> float:
    """Unregularized MSE, used as the test-error metric."""
    outputs, _ = forward(weights, X)
    return _squared_error(outputs, Y) / X.shape[0]


def cached_value(weights: NetworkWeights, cache: ForwardCache, Y,
                 cfg: ObjectiveConfig) -> float:
    """The objective, from a cache over the rows of Y that is current for
    the weights."""
    _check_current(weights, cache)
    return _loss(cache.outputs, Y, cfg, weights_squared_norm(weights))


def backprop_deltas(weights: NetworkWeights, cache: ForwardCache, Y, down_to: int,
                    consume=None):
    """Propagate the error backward from the output layer down to `down_to`
    and return the delta at `down_to`.

    Deltas are formed for l = L down to down_to only; layers below down_to
    are never touched, which is what makes per-block gradients cheaper than
    the full gradient. Reads the cached outputs z[down_to..L] only: the
    sigmoid's derivative is taken from z, so the pre-activations are not
    needed. Each delta_l is written into cache.deltas[l] and the derivative
    g'(z_l) into cache.slopes[l], which is delta_{l+1}'s buffer when layer
    l+1 is hidden and as wide: delta_{l+1} holds only until delta_l's matmul
    has read it, and the returned delta until the next pass on the cache,
    forward or backward. `consume(l, delta_l)`, when given, is called as soon
    as delta_l exists, which is where a full sweep forms each block gradient.
    """
    L = weights.num_layers
    for l in range(L, down_to - 1, -1):
        if l == L:  # linear output layer: g'(a_L) = 1
            delta = np.subtract(cache.z[L], Y, out=cache.deltas[L])
        else:
            delta = np.matmul(delta, weights.block(l + 1).T, out=cache.deltas[l])
            delta *= _sigmoid_slope(cache.z[l], out=cache.slopes[l])
        if consume is not None:
            consume(l, delta)
    return delta


def block_gradient(weights: NetworkWeights, Y, cfg: ObjectiveConfig, l: int,
                   cache: ForwardCache) -> np.ndarray:
    """Gradient of the objective w.r.t. weight block l only.

    The cache must be current for the weights; deltas are computed from the
    output layer down to l and no further.
    """
    _check_current(weights, cache)
    delta = backprop_deltas(weights, cache, Y, l)
    return _block_grad(cache.z[l - 1], delta, weights.block(l), cfg)


def full_gradient(weights: NetworkWeights, Y, cfg: ObjectiveConfig,
                  cache: ForwardCache):
    """Per-block gradients of the objective, as a list indexed l-1, from one
    backward sweep over a cache that is current for the weights; each block
    gradient is formed as its delta appears."""
    _check_current(weights, cache)
    grads = [None] * weights.num_layers

    def consume(l, delta):
        grads[l - 1] = _block_grad(cache.z[l - 1], delta, weights.block(l), cfg)
    backprop_deltas(weights, cache, Y, 1, consume)
    return grads


def gradient_norm(grads) -> float:
    return math.sqrt(sum(float(np.dot(g.ravel(), g.ravel())) for g in grads))
