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
import numbers
from dataclasses import dataclass

import numpy as np

from .linalg import _is_a
from .network import (ForwardCache, NetworkWeights, StaleCacheError,
                      _backpropagate, _check_int, forward)


@dataclass(frozen=True)
class ObjectiveConfig:
    rho: float
    sample_count: int

    def __post_init__(self):
        if not (_is_a(self.rho, numbers.Real) and math.isfinite(self.rho)
                and self.rho >= 0):
            raise ValueError(f"rho must be a finite number >= 0, got {self.rho!r}")
        if not (_is_a(self.sample_count, numbers.Integral)
                and self.sample_count >= 1):
            raise ValueError(f"sample_count must be an integer >= 1, got "
                             f"{self.sample_count!r}")

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
    return sum(float(np.dot(b.ravel(), b.ravel())) for b in weights.blocks)


def _squared_error(outputs, Y) -> float:
    resid = outputs - Y
    return float(np.dot(resid.ravel(), resid.ravel()))


def _loss(outputs, Y, cfg: ObjectiveConfig, sq_norm: float) -> float:
    """The one loss: (1/P) sum ||yhat - y||^2 over the rows of `outputs`, plus
    rho * ||w||^2, where sq_norm = ||w||^2."""
    return _squared_error(outputs, Y) / cfg.sample_count + cfg.rho * sq_norm


def _finish(g, W, cfg: ObjectiveConfig) -> np.ndarray:
    """Turn g, block W's product z_prev' delta from `backprop_deltas`, into
    the block's gradient of `_loss` in place: (2/P) g + 2 rho W."""
    g *= 2.0 / cfg.sample_count
    g += 2.0 * cfg.rho * W
    return g


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
                    products=None):
    """Propagate the error backward from the output layer down to `down_to`
    and return the delta at `down_to`.

    Deltas are formed for l = L down to down_to only; layers below down_to
    are never touched, which is what makes per-block gradients cheaper than
    the full gradient. Reads the cached outputs z[down_to..L] only: the
    sigmoid's derivative is taken from z, so the pre-activations are not
    needed. Each delta_l is written into cache.deltas[l] and g'(z_l) into
    cache.slopes[l] or the cache's scratch, so the returned delta holds
    only until the next pass on the cache (see `ForwardCache`).

    `products`, when given, maps blocks l in down_to..L to arrays of block
    l's shape, and the sweep writes z_{l-1}' delta_l into each: the data
    term of block l's gradient, before its 2/P. Where block l > down_to is
    in `cache.split`, the helper thread writes it while this one takes the
    step to delta_{l-1} (see `network._backpropagate`).
    """
    L = weights.num_layers
    _check_int(down_to, "down_to", 1, L)
    for l in products or ():
        _check_int(l, "products block", down_to, L)
    delta = np.subtract(cache.z[L], Y, out=cache.deltas[L])
    return _backpropagate(weights, delta, down_to, cache, products or {})


def block_gradient(weights: NetworkWeights, Y, cfg: ObjectiveConfig, l: int,
                   cache: ForwardCache) -> np.ndarray:
    """Gradient of the objective w.r.t. weight block l only.

    The cache must be current for the weights; deltas are computed from the
    output layer down to l and no further.
    """
    _check_current(weights, cache)
    g = np.empty(weights.arch.block_shape(l))
    backprop_deltas(weights, cache, Y, l, {l: g})
    return _finish(g, weights.block(l), cfg)


def _gradient_into(weights: NetworkWeights, Y, cfg: ObjectiveConfig,
                   cache: ForwardCache, grads) -> list:
    """The objective's gradient blocks, as a list indexed l-1, written into
    grads[l] for l in 1..L by one backward sweep over a cache that is
    current for the weights."""
    _check_current(weights, cache)
    backprop_deltas(weights, cache, Y, 1, grads)
    return [_finish(g, W, cfg) for g, W in zip(grads.values(), weights.blocks)]


def full_gradient(weights: NetworkWeights, Y, cfg: ObjectiveConfig,
                  cache: ForwardCache):
    """Per-block gradients of the objective, as a list indexed l-1, each in
    an array allocated here."""
    return _gradient_into(weights, Y, cfg, cache, {
        l: np.empty(shape) for l, shape in enumerate(weights.arch.block_shapes,
                                                     start=1)})


def flat_gradient(weights: NetworkWeights, Y, cfg: ObjectiveConfig,
                  cache: ForwardCache) -> np.ndarray:
    """`full_gradient`'s blocks, bit for bit, written into their views of one
    vector in `NetworkWeights.flatten`'s order."""
    flat = np.empty(weights.arch.num_variables)
    _gradient_into(weights, Y, cfg, cache,
                   dict(enumerate(weights.arch.unflatten(flat), start=1)))
    return flat


def gradient_norm(grads) -> float:
    return math.sqrt(sum(float(np.dot(g.ravel(), g.ravel())) for g in grads))
