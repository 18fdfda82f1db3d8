"""Batch layer-block descent drivers.

Each outer cycle visits every weight block once (forward, backward, or
seeded-random order). A visited block is updated by an inner L-BFGS solve on
that block alone, accepted only if the trial point is (1) no worse than the
point reached by an Armijo step along the block steepest-descent direction and
(2) achieves sufficient decrease measured by the quadratic forcing term
sigma0 * ||displacement||^2; otherwise the Armijo point itself is committed.
The inner gradient tolerance tightens by a fixed factor after every cycle.

A full-variable L-BFGS driver with the same stopping criteria serves as the
non-decomposed baseline.
"""

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import SeededRng, frobenius_norm
# `sigmoid` is not called here; bench/tests/test_bench.py looks it up as
# `batch.sigmoid`.
from .network import (ForwardCache, NetworkWeights, _propagate, forward,
                      forward_partial, sigmoid)  # noqa: F401
from .objective import (ObjectiveConfig, _all_blocks, _block_grad, _loss,
                        backprop_deltas, block_gradient, gradient_norm,
                        weights_squared_norm)
from .solvers import (ArmijoParams, LbfgsParams, LinesearchError,
                      armijo_linesearch, lbfgs_minimize, lbfgs_minimize_block)


class BlockSelectionRule:
    """Cyclic block orderings: forward (1..L), backward (L..1), or a fresh
    seeded permutation per cycle."""

    FORWARD = "forward"
    BACKWARD = "backward"
    RANDOM = "random"

    def __init__(self, kind: str, seed: int = 0):
        if kind not in (self.FORWARD, self.BACKWARD, self.RANDOM):
            raise ValueError(f"unknown selection rule {kind!r}")
        self.kind = kind
        self.seed = seed

    def cycle(self, num_layers: int, cycle_index: int):
        """Block visit order for one cycle; every block appears exactly once."""
        if self.kind == self.FORWARD:
            return list(range(1, num_layers + 1))
        if self.kind == self.BACKWARD:
            return list(range(num_layers, 0, -1))
        rng = SeededRng(self.seed).child(cycle_index)
        return [int(i) + 1 for i in rng.permutation(num_layers)]


@dataclass(frozen=True)
class AcceptanceParams:
    armijo: ArmijoParams = field(default_factory=ArmijoParams)
    sigma0: float = None  # forcing coefficient; defaults to gamma/a

    def __post_init__(self):
        if self.sigma0 is None:
            object.__setattr__(self, "sigma0", self.armijo.gamma / self.armijo.a)
        if self.sigma0 > self.armijo.gamma / self.armijo.a + 1e-15:
            raise ValueError("sigma0 must not exceed gamma/a, or the Armijo "
                             "fallback point could fail the decrease condition")


def accept_trial(f_current: float, f_trial: float, f_armijo_point: float,
                 displacement_norm: float, params: AcceptanceParams) -> bool:
    """True iff the trial passes both acceptance conditions: no worse than the
    Armijo steepest-descent point, and decrease >= sigma0 * displacement^2."""
    cond1 = f_trial <= f_armijo_point
    cond2 = f_trial - f_current <= -params.sigma0 * displacement_norm ** 2
    return cond1 and cond2


@dataclass(frozen=True)
class StoppingCriteria:
    grad_norm_tol: float = 1e-3
    f_tol: float = 1e-4
    time_limit_seconds: float = 150.0
    check_cadence: int = 30
    # Hardware-neutral caps used instead of wall clock in deterministic runs.
    max_cycles: int = None
    max_epochs: int = None
    max_inner_iters: int = None


@dataclass
class OptimizerRun:
    """One seeded optimization trajectory and its summary statistics."""

    algorithm: str
    seed: int
    final_weights: NetworkWeights
    trajectory: list
    final_objective: float
    final_grad_norm: float
    elapsed_seconds: float
    layer_update_counts: list
    stop_reason: str
    inner_iterations: int = 0


def _block_eval(weights, cache, trial, Y, cfg, l, base_sq):
    """Closures on block l alone, the other blocks frozen: (value, evaluate,
    start, commit). value(Wl) is f with block l set to Wl, propagated from
    the cached prefix into the `trial` cache, a `cache.sibling()`, never into
    `cache`. evaluate(Wl) follows `lbfgs_minimize`'s trial contract. start is
    (f, block gradient) at the current block, from `cache` with the closures'
    own formulas, so that it equals evaluate's pair there bit for bit.
    commit(Wl) sets block l to Wl and brings `cache` up to date: when Wl is,
    bit for bit, the block the latest trial propagated, `cache` takes over
    the trial cache's outputs of layers >= l by swapping buffers; any other
    block is propagated."""
    z_prev = cache.z[l - 1]
    w_l = weights.block(l)
    old_sq = float(np.dot(w_l.ravel(), w_l.ravel()))
    last = []  # a copy of the block the latest trial propagated

    def sq_norm(Wl):
        return base_sq - old_sq + float(np.dot(Wl.ravel(), Wl.ravel()))

    def value(Wl):
        outputs = _propagate(weights, z_prev, l, trial, override=Wl)
        last[:] = [Wl.copy()]
        return _loss(outputs, Y, cfg, sq_norm(Wl), cfg.rho)

    def evaluate(Wl):
        def grad():
            delta = backprop_deltas(weights, trial, Y, l)[l]
            return _block_grad(z_prev, delta, Wl, cfg, cfg.rho)
        return value(Wl), grad

    def commit(Wl):
        weights.set_block(l, Wl)
        # bytes, not ==: -0.0 == 0.0 and NaN != NaN
        if last and last[0].tobytes() == weights.block(l).tobytes():
            cache.z[l:], trial.z[l:] = trial.z[l:], cache.z[l:]
            cache.versions = weights.versions()
            last.clear()
        else:
            forward_partial(weights, cache, l)

    start = (_loss(cache.outputs, Y, cfg, sq_norm(w_l), cfg.rho),
             block_gradient(weights, Y, cfg, l, cache))
    return value, evaluate, start, commit


def b2ld_run(weights0: NetworkWeights, X, Y, cfg: ObjectiveConfig,
             rule: BlockSelectionRule, acceptance: AcceptanceParams,
             lbfgs: LbfgsParams, stop: StoppingCriteria,
             seed: int = 0) -> OptimizerRun:
    """Cyclic block-layer descent with inner L-BFGS solves of increasing accuracy."""
    weights = weights0.copy()
    L = weights.num_layers
    start = time.monotonic()
    deadline = None if stop.time_limit_seconds is None \
        else start + stop.time_limit_seconds

    _, cache = forward(weights, X)
    trial_cache = cache.sibling()
    f_cur = _loss(cache.outputs, Y, cfg, weights_squared_norm(weights), cfg.rho)
    traj = [f_cur]
    counts = [0] * L
    last_rel_dec = [math.inf] * L
    eps = lbfgs.grad_tol
    inner_total = 0
    reason = None
    cycle = 0

    while reason is None:
        gnorm = gradient_norm(_all_blocks(weights, cache, Y, cfg, cfg.rho))
        if not (math.isfinite(f_cur) and math.isfinite(gnorm)):
            reason = "non_finite"
            break
        if gnorm <= stop.grad_norm_tol:
            reason = "grad_norm"
            break
        if stop.max_cycles is not None and cycle >= stop.max_cycles:
            reason = "max_cycles"
            break
        if deadline is not None and time.monotonic() > deadline:
            reason = "time_limit"
            break

        any_update = False
        for l in rule.cycle(L, cycle):
            value, evaluate, (f_l, g_l), commit = _block_eval(
                weights, cache, trial_cache, Y, cfg, l,
                weights_squared_norm(weights))
            bnorm = frobenius_norm(g_l)
            if not math.isfinite(bnorm):
                reason = "non_finite"
                break
            # Skip blocks whose gradient or last relative decrease is already
            # below tolerance; skipped blocks still advance the cycle but are
            # not counted as updates.
            if bnorm <= stop.grad_norm_tol or last_rel_dec[l - 1] <= stop.f_tol:
                continue
            w_l = weights.block(l)

            # Armijo reference point along the block steepest-descent direction.
            slope = -bnorm * bnorm
            trial = []  # (w_l - a*g_l, f) of the latest trial

            def phi(a):
                w_a = w_l - a * g_l
                trial[:] = (w_a, value(w_a))
                return trial[1]

            try:
                armijo_linesearch(phi, f_cur, slope, acceptance.armijo)
            except LinesearchError:
                continue
            w_armijo, f_armijo = trial  # the search stops on the accepted trial

            res = lbfgs_minimize_block(
                evaluate, w_l,
                replace(lbfgs, grad_tol=eps), deadline=deadline,
                check_cadence=stop.check_cadence, start_fg=(f_l, g_l))
            inner_total += max(res.iterations, 1)

            disp = frobenius_norm(res.x - w_l)
            if accept_trial(f_cur, res.f, f_armijo, disp, acceptance):
                chosen, f_new = res.x, res.f
            else:
                chosen, f_new = w_armijo, f_armijo

            commit(chosen)
            last_rel_dec[l - 1] = (f_cur - f_new) / max(f_cur, 1.0)
            f_cur = f_new
            traj.append(f_cur)
            counts[l - 1] += 1
            any_update = True

            if deadline is not None and time.monotonic() > deadline:
                reason = "time_limit"
                break
            if stop.max_inner_iters is not None and inner_total >= stop.max_inner_iters:
                reason = "iteration_budget"
                break

        if reason is None and not any_update:
            reason = "f_tol"
        eps *= lbfgs.accuracy_shrink
        cycle += 1

    gnorm = gradient_norm(_all_blocks(weights, cache, Y, cfg, cfg.rho))
    return OptimizerRun(algorithm="B2LD", seed=seed, final_weights=weights,
                        trajectory=traj, final_objective=f_cur,
                        final_grad_norm=gnorm,
                        elapsed_seconds=time.monotonic() - start,
                        layer_update_counts=counts, stop_reason=reason,
                        inner_iterations=inner_total)


def lbfgs_baseline_run(weights0: NetworkWeights, X, Y, cfg: ObjectiveConfig,
                       lbfgs: LbfgsParams, stop: StoppingCriteria,
                       seed: int = 0) -> OptimizerRun:
    """Full-variable L-BFGS on the whole problem, same stopping criteria."""
    weights = weights0.copy()
    start = time.monotonic()
    deadline = None if stop.time_limit_seconds is None \
        else start + stop.time_limit_seconds
    cache = ForwardCache.for_rows(weights.arch, X.shape[0])

    def trial(vec):
        weights.set_from_flat(vec)
        forward(weights, X, cache)
        f = _loss(cache.outputs, Y, cfg, weights_squared_norm(weights), cfg.rho)
        return f, lambda: np.concatenate(
            [g.ravel() for g in _all_blocks(weights, cache, Y, cfg, cfg.rho)])

    max_iters = stop.max_inner_iters if stop.max_inner_iters is not None \
        else lbfgs.max_iters
    params = replace(lbfgs, grad_tol=stop.grad_norm_tol, max_iters=max_iters)
    res = lbfgs_minimize(trial, weights0.flatten(), params, deadline=deadline,
                         check_cadence=stop.check_cadence, f_tol=stop.f_tol)
    weights.set_from_flat(res.x)
    reason = {"grad_tol": "grad_norm", "max_iters": "iteration_budget"}.get(
        res.stop_reason, res.stop_reason)
    return OptimizerRun(algorithm="LBFGS", seed=seed, final_weights=weights,
                        trajectory=res.f_history, final_objective=res.f,
                        final_grad_norm=res.grad_norm,
                        elapsed_seconds=time.monotonic() - start,
                        layer_update_counts=[res.iterations] * weights.num_layers,
                        stop_reason=reason, inner_iterations=res.iterations)

