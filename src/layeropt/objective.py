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
                      _alongside, _in_halves, _sigmoid_slope, forward)


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


def _block_grad(z_prev, delta, cfg: ObjectiveConfig, out=None) -> np.ndarray:
    """The data term of the one block gradient, d/dW of `_loss` less its
    rho * ||w||^2: (2/P) z_prev' delta, from the input z_prev of the block
    and the delta at its output, in a new array or written into `out`.
    With `out` it allocates no array, and the helper thread may run it."""
    g = np.matmul(z_prev.T, delta, out=out)
    g *= 2.0 / cfg.sample_count
    return g


def _add_decay(g, W, cfg: ObjectiveConfig) -> np.ndarray:
    """Complete `_block_grad`'s term g of block W in place with the
    regularizer's 2 rho W."""
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
    forward or backward.

    `consume(l, delta_l)`, when given, is called for l = L down to down_to,
    in that order, each before delta_l's buffer is next written; a full
    sweep forms each block gradient there. Where block l+1 is in
    `cache.split`, consume(l+1, delta_{l+1}) runs on the helper thread while
    this one forms delta_{l+1} W_{l+1}' into deltas[l]. So `consume` must
    only read its delta, write arrays of its own and call only numpy and
    private functions (see `network._alongside`).
    """
    L = weights.num_layers
    delta = np.subtract(cache.z[L], Y, out=cache.deltas[L])
    for l in range(L - 1, down_to - 1, -1):
        W = weights.block(l + 1)
        if l + 1 in cache.split:
            delta = _step_in_halves(delta, W, cache, l, consume)
            continue
        if consume is not None:
            consume(l + 1, delta)
        delta = np.matmul(delta, W.T, out=cache.deltas[l])
        delta *= _sigmoid_slope(cache.z[l], out=cache.slopes[l])
    if consume is not None:
        consume(down_to, delta)
    return delta


def _step_in_halves(delta, W, cache: ForwardCache, l: int, consume):
    """backprop_deltas' hidden step l with the helper thread. Without
    `consume` it runs by row halves. With it, the helper runs
    consume(l + 1, delta) while this thread forms delta W' whole; the slope
    and multiply then run by halves. slopes[l] may be the buffer of `delta`:
    each half overwrites only its own rows of it, and only after every read
    of them, as the serial step does with all rows."""
    out, z, slope = cache.deltas[l], cache.z[l], cache.slopes[l]
    if consume is not None:
        _alongside(lambda: consume(l + 1, delta),
                   lambda: np.matmul(delta, W.T, out=out))

    def half(lo, hi):
        d = out[lo:hi] if consume is not None \
            else np.matmul(delta[lo:hi], W.T, out=out[lo:hi])
        d *= _sigmoid_slope(z[lo:hi], out=slope[lo:hi])
    _in_halves(len(out), half)
    return out


def block_gradient(weights: NetworkWeights, Y, cfg: ObjectiveConfig, l: int,
                   cache: ForwardCache) -> np.ndarray:
    """Gradient of the objective w.r.t. weight block l only.

    The cache must be current for the weights; deltas are computed from the
    output layer down to l and no further.
    """
    _check_current(weights, cache)
    delta = backprop_deltas(weights, cache, Y, l)
    return _add_decay(_block_grad(cache.z[l - 1], delta, cfg),
                      weights.block(l), cfg)


def full_gradient(weights: NetworkWeights, Y, cfg: ObjectiveConfig,
                  cache: ForwardCache):
    """Per-block gradients of the objective, as a list indexed l-1, from one
    backward sweep over a cache that is current for the weights. Each block's
    data term is formed as its delta is consumed; a block that splits gets
    an array allocated here, as its term is formed on the helper thread. The
    regularizer's terms are added after the sweep, one block at a time."""
    _check_current(weights, cache)
    L = weights.num_layers
    grads = [np.empty(weights.arch.block_shape(l)) if l in cache.split
             else None for l in range(1, L + 1)]

    def consume(l, delta):
        grads[l - 1] = _block_grad(cache.z[l - 1], delta, cfg, grads[l - 1])
    backprop_deltas(weights, cache, Y, 1, consume)
    return [_add_decay(g, weights.block(l), cfg)
            for l, g in enumerate(grads, start=1)]


def gradient_norm(grads) -> float:
    return math.sqrt(sum(float(np.dot(g.ravel(), g.ravel())) for g in grads))
