"""Regularized MSE objective, full and per-block gradients, minibatch components.

Objective: f(w) = (1/P) sum_p ||yhat_p - y_p||^2 + rho * ||w||^2.

The minibatch component for an index set B carries the 1/P factor inside its
loss sum plus its share of the regularizer,

    f_B(w) = (1/P) sum_{p in B} ||yhat_p - y_p||^2 + |B| * (rho/P) * ||w||^2,

so that the components of any partition sum exactly to f.
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


def default_rho(num_variables: int) -> float:
    """Benchmark default regularization weight, 1e-3 / n."""
    return 1e-3 / num_variables


def weights_squared_norm(weights: NetworkWeights) -> float:
    return sum(float(np.dot(b.ravel(), b.ravel()))
               for b in (weights.block(l) for l in range(1, weights.num_layers + 1)))


def _squared_error(outputs, Y) -> float:
    resid = outputs - Y
    return float(np.dot(resid.ravel(), resid.ravel()))


def _share(cfg: ObjectiveConfig, rows: int) -> float:
    """Regularizer coefficient of the component over `rows` samples, |B| rho / P.
    The full objective uses rho itself, also when a minibatch holds every row."""
    if rows < 1:
        raise ValueError("a minibatch needs at least one row")
    return rows * cfg.rho / cfg.sample_count


def _loss(outputs, Y, cfg: ObjectiveConfig, sq_norm: float, reg: float) -> float:
    """The one loss: (1/P) sum ||yhat - y||^2 over the rows of `outputs`, plus
    reg * ||w||^2. reg = rho gives f, reg = |B| rho / P gives f_B."""
    return _squared_error(outputs, Y) / cfg.sample_count + reg * sq_norm


def _block_grad(z_prev, delta, W, cfg: ObjectiveConfig, reg: float) -> np.ndarray:
    """The one block-gradient product: d/dW of `_loss` with the same `reg`,
    from the input z_prev of the block and the delta at its output."""
    return (2.0 / cfg.sample_count) * (z_prev.T @ delta) + 2.0 * reg * W


def objective_value(weights: NetworkWeights, X, Y, cfg: ObjectiveConfig):
    """Returns (regularized objective, unregularized mean squared error)."""
    outputs, _ = forward(weights, X)
    return (_loss(outputs, Y, cfg, weights_squared_norm(weights), cfg.rho),
            _squared_error(outputs, Y) / cfg.sample_count)


def mse_value(weights: NetworkWeights, X, Y) -> float:
    """Unregularized MSE, used as the test-error metric."""
    outputs, _ = forward(weights, X)
    return _squared_error(outputs, Y) / X.shape[0]


def backprop_deltas(weights: NetworkWeights, cache: ForwardCache, Y, down_to: int,
                    consume=None):
    """Propagate the error backward from the output layer down to `down_to`
    and return the delta at `down_to`.

    Deltas are formed for l = L down to down_to only; layers below down_to
    are never touched, which is what makes per-block gradients cheaper than
    the full gradient. Reads the cached outputs z[down_to..L] only: the
    sigmoid's derivative is taken from z, so the pre-activations are not
    needed. Each delta is written into cache.deltas[l] (the derivative passes
    through cache.scratch), whose buffers alternate by layer parity: delta_l
    holds only until the sweep writes the layer two below it, and the
    returned delta until the next backprop on the cache. `consume(l,
    delta_l)`, when given, is called as soon as delta_l exists, which is
    where a full sweep forms each block gradient.
    """
    L = weights.num_layers
    for l in range(L, down_to - 1, -1):
        if l == L:  # linear output layer: g'(a_L) = 1
            delta = np.subtract(cache.z[L], Y, out=cache.deltas[L])
        else:
            delta = np.matmul(delta, weights.block(l + 1).T, out=cache.deltas[l])
            delta *= _sigmoid_slope(cache.z[l], out=cache.scratch[l])
        if consume is not None:
            consume(l, delta)
    return delta


def _one_block(weights, cache, Y, cfg, l, reg):
    delta = backprop_deltas(weights, cache, Y, l)
    return _block_grad(cache.z[l - 1], delta, weights.block(l), cfg, reg)


def _all_blocks(weights, cache, Y, cfg, reg):
    grads = [None] * weights.num_layers

    def consume(l, delta):
        grads[l - 1] = _block_grad(cache.z[l - 1], delta, weights.block(l),
                                   cfg, reg)
    backprop_deltas(weights, cache, Y, 1, consume)
    return grads


def block_gradient(weights: NetworkWeights, Y, cfg: ObjectiveConfig, l: int,
                   cache: ForwardCache) -> np.ndarray:
    """Gradient of the objective w.r.t. weight block l only.

    The cache must be current for the weights; deltas are computed from the
    output layer down to l and no further.
    """
    if cache.versions != weights.versions():
        raise StaleCacheError("cache does not match current weights")
    return _one_block(weights, cache, Y, cfg, l, cfg.rho)


def full_gradient(weights: NetworkWeights, X, Y, cfg: ObjectiveConfig):
    """Per-block gradients of the objective, as a list indexed l-1."""
    _, cache = forward(weights, X)
    return _all_blocks(weights, cache, Y, cfg, cfg.rho)


def value_and_gradient(weights: NetworkWeights, X, Y, cfg: ObjectiveConfig,
                       cache: ForwardCache = None):
    """(objective, per-block gradients as in `full_gradient`) from one
    forward pass. A cache for the rows of X, when given, is reused in place
    (see `forward`)."""
    _, cache = forward(weights, X, cache)
    return (_loss(cache.outputs, Y, cfg, weights_squared_norm(weights), cfg.rho),
            _all_blocks(weights, cache, Y, cfg, cfg.rho))


def gradient_norm(grads) -> float:
    return math.sqrt(sum(float(np.dot(g.ravel(), g.ravel())) for g in grads))


def minibatch_value(weights: NetworkWeights, cache: ForwardCache, Yb,
                    cfg: ObjectiveConfig) -> float:
    """Component objective f_B evaluated from a cache over the minibatch rows."""
    return _loss(cache.outputs, Yb, cfg, weights_squared_norm(weights),
                 _share(cfg, Yb.shape[0]))


def minibatch_block_gradient(weights: NetworkWeights, cache: ForwardCache, Yb,
                             cfg: ObjectiveConfig, l: int) -> np.ndarray:
    """Gradient of f_B w.r.t. block l, from a cache over the minibatch rows."""
    return _one_block(weights, cache, Yb, cfg, l, _share(cfg, Yb.shape[0]))


def minibatch_all_gradients(weights: NetworkWeights, cache: ForwardCache, Yb,
                            cfg: ObjectiveConfig):
    """All block gradients of f_B from one backward sweep (used by the IG baseline)."""
    return _all_blocks(weights, cache, Yb, cfg, _share(cfg, Yb.shape[0]))
