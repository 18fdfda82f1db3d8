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
from dataclasses import dataclass

import numpy as np

from .batch import OptimizerRun, RunLedger, StoppingCriteria
from .linalg import SeededRng, _check_int, _check_real, frobenius_norm
from .network import ForwardCache, NetworkWeights, forward, forward_partial
from .objective import (ObjectiveConfig, block_gradient, cached_value,
                        full_gradient, gradient_norm)


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


def make_partition(P: int, batch_size: int, seed: int = 0,
                   shuffle: bool = False) -> Partition:
    """Cut {0..P-1} (optionally seeded-shuffled) into contiguous chunks of
    `batch_size`; the last chunk holds the remainder."""
    _check_int(P, "P", 1, math.inf)
    _check_int(batch_size, "batch_size", 1, P)
    idx = np.arange(P, dtype=np.intp)
    if shuffle:
        idx = idx[SeededRng(seed).permutation(P)]
    batches = tuple(idx[i:i + batch_size] for i in range(0, P, batch_size))
    return Partition(batches)


class MinibatchSelectionRule:
    """The order minibatches are visited in: incremental, 0..H-1 every epoch."""

    INCREMENTAL = "incremental"

    def __init__(self, kind: str):
        if kind != self.INCREMENTAL:
            raise ValueError(f"unknown minibatch rule {kind!r}")

    def epoch_order(self, H: int):
        return list(range(H))


EPS_DIM = 5e-3     # diminishing-stepsize coefficient
CLAMP_LO = 1e-3    # lower bound on the normalization divisor
CLAMP_HI = 1e6     # upper bound on the normalization divisor


@dataclass(frozen=True)
class BlingParams:
    alpha0: float = 0.5

    def __post_init__(self):
        # from 1/EPS_DIM up, `stepsize_update` goes to zero or below
        _check_real(self.alpha0, "alpha0", 0.0,
                    1.0 / EPS_DIM if EPS_DIM else math.inf)

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


def _bling_step(weights, cache, Yb, cfg_b, alpha):
    """One clamped normalized step per block of f_B, output-to-input, each
    block's gradient taken after the blocks above it have moved. Returns
    False, and moves no further block, at the first non-finite norm."""
    for l in range(weights.num_layers, 0, -1):
        d = block_gradient(weights, Yb, cfg_b, l, cache)
        norm = frobenius_norm(d)
        if not math.isfinite(norm):
            return False
        div = clamped_scale(norm, CLAMP_LO, CLAMP_HI)
        weights.set_block(l, weights.block(l) - (alpha / div) * d)
        forward_partial(weights, cache, l)
    return True


def _ig_step(weights, cache, Yb, cfg_b, alpha):
    """One simultaneous step of every block of f_B, clamped on the full
    direction. Returns False, moving nothing, when its norm is not finite."""
    grads = full_gradient(weights, Yb, cfg_b, cache)
    norm = gradient_norm(grads)
    if not math.isfinite(norm):
        return False
    div = clamped_scale(norm, CLAMP_LO, CLAMP_HI)
    for l, d in enumerate(grads, start=1):
        weights.set_block(l, weights.block(l) - (alpha / div) * d)
    return True


def _run_epochs(algorithm, step, weights0, X, Y, cfg, partition, rule, params,
                stop, seed):
    """The epoch loop both minibatch methods share: visit the minibatches in
    the rule's order, take `step` on each from a fresh forward pass, then
    shrink the stepsize. Each step moves every block once, or reports a
    non-finite gradient norm, which stops the run. Each minibatch's rows and
    config `cfg.component(|B|)` are formed once per run, and its forward
    passes write into the run's one cache for its size, so a run holds no
    array of all P rows. The final f and its gradient are summed over the
    components in partition order, which can differ from one pass over all
    rows by rounding."""
    RunLedger.check_ends(algorithm, stop)
    weights = weights0.copy()
    ledger = RunLedger(stop)
    gathered = [(X[batch], Y[batch], cfg.component(len(batch)))
                for batch in partition.batches]
    caches = {n: ForwardCache.for_rows(weights.arch, n)
              for n in {len(batch) for batch in partition.batches}}
    alpha = params.alpha0
    k = epoch = 0

    while not ledger.capped("max_epochs", epoch):
        for h in rule.epoch_order(partition.num_batches):
            Xb, Yb, cfg_b = gathered[h]
            _, cache = forward(weights, Xb, caches[Xb.shape[0]])
            if not step(weights, cache, Yb, cfg_b, alpha):
                ledger.halt("non_finite")
                break
            alpha = stepsize_update(alpha, EPS_DIM)
            k += 1
            if ledger.timed_out():
                break
        epoch += 1

    f = 0.0
    grads = [np.zeros_like(weights.block(l))
             for l in range(1, weights.num_layers + 1)]
    for Xb, Yb, cfg_b in gathered:
        _, cache = forward(weights, Xb, caches[Xb.shape[0]])
        f += cached_value(weights, cache, Yb, cfg_b)
        for total, g in zip(grads, full_gradient(weights, Yb, cfg_b, cache)):
            total += g
    return ledger.record(algorithm=algorithm, seed=seed, final_weights=weights,
                         trajectory=[f], final_objective=f, inner_iterations=k,
                         final_grad_norm=gradient_norm(grads),
                         layer_update_counts=[k] * weights.num_layers)


# `rule` has one order; bench/workloads.py still passes it.
def bling_run(weights0: NetworkWeights, X, Y, cfg: ObjectiveConfig,
              partition: Partition, rule: MinibatchSelectionRule,
              params: BlingParams, stop: StoppingCriteria,
              seed: int = 0) -> OptimizerRun:
    """Layer-wise incremental gradient: per minibatch, one clamped normalized
    gradient step per block in backward order, reusing the forward cache
    across block updates within the minibatch."""
    return _run_epochs("BLInG", _bling_step, weights0, X, Y, cfg, partition,
                       rule, params, stop, seed)


# `rule` has one order; bench/workloads.py still passes it.
def ig_run(weights0: NetworkWeights, X, Y, cfg: ObjectiveConfig,
           partition: Partition, rule: MinibatchSelectionRule,
           params: BlingParams, stop: StoppingCriteria,
           seed: int = 0) -> OptimizerRun:
    """Non-decomposed baseline: one simultaneous update of every block per
    minibatch, the clamp applied to the norm of the full direction."""
    return _run_epochs("IG", _ig_step, weights0, X, Y, cfg, partition, rule,
                       params, stop, seed)
