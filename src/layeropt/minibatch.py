"""Minibatch drivers: partitioning, batch selection rules, the incremental
gradient baseline, and the layer-wise incremental gradient method.

The layer-wise method visits every minibatch once per epoch and, for each
minibatch, updates the weight blocks sequentially in backward order with a
clamped normalized gradient step; the stepsize follows the diminishing rule
alpha <- alpha * (1 - eps * alpha) once per minibatch visit. The baseline
performs a single simultaneous update of all blocks per minibatch with the
same stepsize schedule and normalization.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .batch import OptimizerRun, StoppingCriteria
from .linalg import SeededRng, frobenius_norm
from .network import NetworkWeights, forward, forward_partial
from .objective import (ObjectiveConfig, gradient_norm,
                        minibatch_all_gradients, minibatch_block_gradient,
                        value_and_gradient)


@dataclass(frozen=True)
class Partition:
    """Disjoint, exhaustive, nonempty index sets covering {0..P-1}."""

    batches: tuple  # tuple of intp index arrays

    def __post_init__(self):
        if not self.batches or any(len(b) == 0 for b in self.batches):
            raise ValueError("every batch must be nonempty")

    @property
    def num_batches(self) -> int:
        return len(self.batches)

    @property
    def sample_count(self) -> int:
        return sum(len(b) for b in self.batches)


def make_partition(P: int, batch_size: int, seed: int = 0,
                   shuffle: bool = False) -> Partition:
    """Cut {0..P-1} (optionally seeded-shuffled) into contiguous chunks of
    `batch_size`; the last chunk holds the remainder."""
    if not 1 <= batch_size <= P:
        raise ValueError(f"batch_size {batch_size} outside 1..{P}")
    idx = np.arange(P, dtype=np.intp)
    if shuffle:
        idx = idx[SeededRng(seed).permutation(P)]
    batches = tuple(idx[i:i + batch_size] for i in range(0, P, batch_size))
    return Partition(batches)


class MinibatchSelectionRule:
    """Order in which minibatches are visited each epoch."""

    INCREMENTAL = "incremental"          # fixed order, unchanged across epochs
    STOCHASTIC = "stochastic"            # independent draws with replacement
    RANDOM_WITHOUT_REPLACEMENT = "random_without_replacement"

    def __init__(self, kind: str, seed: int = 0):
        if kind not in (self.INCREMENTAL, self.STOCHASTIC,
                        self.RANDOM_WITHOUT_REPLACEMENT):
            raise ValueError(f"unknown minibatch rule {kind!r}")
        self.kind = kind
        self.seed = seed

    def epoch_order(self, H: int, epoch: int):
        if self.kind == self.INCREMENTAL:
            return list(range(H))
        rng = SeededRng(self.seed).child(epoch)
        if self.kind == self.RANDOM_WITHOUT_REPLACEMENT:
            return [int(i) for i in rng.permutation(H)]
        return [rng.integers(0, H) for _ in range(H)]


@dataclass(frozen=True)
class BlingParams:
    alpha0: float = 0.5
    eps_dim: float = 5e-3        # diminishing-stepsize coefficient
    clamp_lo: float = 1e-3       # lower bound on the normalization divisor
    clamp_hi: float = 1e6        # upper bound on the normalization divisor

    @staticmethod
    def default_alpha0(num_layers: int) -> float:
        """Grid-searched initial stepsize for the layer-wise method, 0.5/max{1, L-2}."""
        return 0.5 / max(1, num_layers - 2)


def stepsize_update(alpha: float, eps_dim: float) -> float:
    """Diminishing rule alpha * (1 - eps * alpha); strictly decreasing for
    alpha in (0, 1/eps)."""
    return alpha * (1.0 - eps_dim * alpha)


def clamped_scale(direction_norm: float, clamp_lo: float, clamp_hi: float) -> float:
    """Normalization divisor: the direction norm clamped to [clamp_lo, clamp_hi],
    so steps neither explode on vanishing gradients nor vanish on huge ones."""
    return max(clamp_lo, min(clamp_hi, direction_norm))


def _bling_step(weights, cache, Yb, cfg, params, alpha):
    """One clamped normalized step per block, output-to-input, each block's
    gradient taken after the blocks above it have moved. Returns False, and
    moves no further block, at the first gradient norm that is not finite."""
    for l in range(weights.num_layers, 0, -1):
        d = minibatch_block_gradient(weights, cache, Yb, cfg, l)
        norm = frobenius_norm(d)
        if not math.isfinite(norm):
            return False
        div = clamped_scale(norm, params.clamp_lo, params.clamp_hi)
        weights.set_block(l, weights.block(l) - (alpha / div) * d)
        forward_partial(weights, cache, l)
    return True


def _ig_step(weights, cache, Yb, cfg, params, alpha):
    """One simultaneous step of every block, clamped on the full direction.
    Returns False, moving nothing, when the direction's norm is not finite."""
    grads = minibatch_all_gradients(weights, cache, Yb, cfg)
    norm = gradient_norm(grads)
    if not math.isfinite(norm):
        return False
    div = clamped_scale(norm, params.clamp_lo, params.clamp_hi)
    for l, d in enumerate(grads, start=1):
        weights.set_block(l, weights.block(l) - (alpha / div) * d)
    return True


def _run_epochs(algorithm, step, weights0, X, Y, cfg, partition, rule, params,
                stop, seed):
    """The epoch loop both minibatch methods share: visit the minibatches in
    the rule's order, take `step` on each from a fresh forward pass, then
    shrink the stepsize. Each step moves every block once, or reports a
    non-finite gradient norm, which stops the run. The final objective
    and gradient norm come from one forward pass over all rows."""
    weights = weights0.copy()
    start = time.monotonic()
    deadline = None if stop.time_limit_seconds is None \
        else start + stop.time_limit_seconds
    alpha = params.alpha0
    k = 0
    reason = None
    epoch = 0

    while reason is None:
        if stop.max_epochs is not None and epoch >= stop.max_epochs:
            reason = "max_epochs"
            break
        for h in rule.epoch_order(partition.num_batches, epoch):
            batch = partition.batches[h]
            Xb, Yb = X[batch], Y[batch]
            _, cache = forward(weights, Xb)
            if not step(weights, cache, Yb, cfg, params, alpha):
                reason = "non_finite"
                break
            alpha = stepsize_update(alpha, params.eps_dim)
            k += 1
            if deadline is not None and time.monotonic() > deadline:
                reason = "time_limit"
                break
        epoch += 1

    f, grads = value_and_gradient(weights, X, Y, cfg)
    gnorm = gradient_norm(grads)
    return OptimizerRun(algorithm=algorithm, seed=seed, final_weights=weights,
                        trajectory=[f], final_objective=f, final_grad_norm=gnorm,
                        elapsed_seconds=time.monotonic() - start,
                        layer_update_counts=[k] * weights.num_layers,
                        stop_reason=reason,
                        inner_iterations=k)


def bling_run(weights0: NetworkWeights, X, Y, cfg: ObjectiveConfig,
              partition: Partition, rule: MinibatchSelectionRule,
              params: BlingParams, stop: StoppingCriteria,
              seed: int = 0) -> OptimizerRun:
    """Layer-wise incremental gradient: per minibatch, one clamped normalized
    gradient step per block in backward order, reusing the forward cache
    across block updates within the minibatch."""
    return _run_epochs("BLInG", _bling_step, weights0, X, Y, cfg, partition,
                       rule, params, stop, seed)


def ig_run(weights0: NetworkWeights, X, Y, cfg: ObjectiveConfig,
           partition: Partition, rule: MinibatchSelectionRule,
           params: BlingParams, stop: StoppingCriteria,
           seed: int = 0) -> OptimizerRun:
    """Non-decomposed baseline: one simultaneous update of every block per
    minibatch, the clamp applied to the norm of the full direction."""
    return _run_epochs("IG", _ig_step, weights0, X, Y, cfg, partition, rule,
                       params, stop, seed)
