"""Batch layer-block descent drivers.

Each outer cycle visits every weight block once, in backward order from the
output layer down. A visited block is updated by an inner L-BFGS solve on
that block alone, accepted only if the trial point is (1) no worse than the
point reached by an Armijo step along the block steepest-descent direction and
(2) achieves sufficient decrease measured by the quadratic forcing term
sigma0 * ||displacement||^2; otherwise the Armijo point itself is committed.
The inner gradient tolerance tightens by a fixed factor after every cycle.

A full-variable L-BFGS driver with the same stopping criteria serves as the
non-decomposed baseline.
"""

import math
import numbers
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import _is_a, frobenius_norm
# `sigmoid` is not called here; bench/tests/test_bench.py looks it up as
# `batch.sigmoid`.
from .network import (ForwardCache, NetworkWeights, forward, forward_partial,
                      sigmoid)  # noqa: F401
from .objective import (ObjectiveConfig, _loss, block_gradient, cached_value,
                        flat_gradient, full_gradient, gradient_norm,
                        weights_squared_norm)
from .solvers import (ArmijoParams, LbfgsParams, LinesearchError,
                      armijo_linesearch, lbfgs_minimize, lbfgs_minimize_block)

ACCURACY_SHRINK = 0.5   # factor applied to the inner grad_tol per cycle


class BlockSelectionRule:
    """The cyclic block order: backward, L..1."""

    BACKWARD = "backward"

    def __init__(self, kind: str):
        if kind != self.BACKWARD:
            raise ValueError(f"unknown selection rule {kind!r}")

    def cycle(self, num_layers: int):
        """Block visit order for one cycle; every block appears exactly once."""
        return list(range(num_layers, 0, -1))


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
    # Hardware-neutral caps used instead of wall clock in deterministic runs.
    max_cycles: int = None
    max_epochs: int = None
    max_inner_iters: int = None

    def __post_init__(self):
        for name in ("max_cycles", "max_epochs", "max_inner_iters"):
            cap = getattr(self, name)
            if cap is not None and not (_is_a(cap, numbers.Integral)
                                        and cap >= 0):
                raise ValueError(f"{name} {cap!r} must be an int >= 0 or null")
        if not (_is_a(self.grad_norm_tol, numbers.Real)
                and self.grad_norm_tol >= 0):
            raise ValueError(f"grad_norm_tol {self.grad_norm_tol!r} must be a "
                             "number >= 0")
        # -inf is legal: no relative decrease is <= -inf, so it never stops
        if not _is_a(self.f_tol, numbers.Real) or math.isnan(self.f_tol):
            raise ValueError(f"f_tol {self.f_tol!r} must be a number, not NaN")
        # None or inf: no deadline, which RunLedger.check_ends refuses for
        # BLInG and IG without max_epochs and for B2LD with f_tol < 0, no cap
        t = self.time_limit_seconds
        if t is not None and not (_is_a(t, numbers.Real) and t >= 0):
            raise ValueError(f"time_limit_seconds {t!r} must be a number >= 0 or null")


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


class RunLedger:
    """When one run stops, and why. Built from its StoppingCriteria as the
    run starts, it holds the start time and the deadline, answers "stop now?"
    at each driver's grain, keeps the first reason and builds the run."""

    CAP_REASONS = {"max_inner_iters": "iteration_budget"}  # else the cap's name

    def __init__(self, stop: StoppingCriteria):
        self.stop, self.reason, self.start = stop, None, time.monotonic()
        t = stop.time_limit_seconds
        self.deadline = None if t is None else self.start + t

    def halt(self, reason, hit=True):
        """Keep `reason` if `hit` and none is kept yet; True once one is."""
        if hit and self.reason is None:
            self.reason = reason
        return self.reason is not None

    def capped(self, name, count):
        cap = getattr(self.stop, name)
        return self.halt(self.CAP_REASONS.get(name, name),
                         cap is not None and count >= cap)

    def timed_out(self):  # reads the clock only while no reason is kept
        return self.halt("time_limit", self.reason is None and self.deadline
                         is not None and time.monotonic() > self.deadline)

    def at_cycle(self, cycle, iters, f, gnorm):
        """B2LD's checks before a cycle, in their order."""
        return (self.halt("non_finite", not all(map(math.isfinite, (f, gnorm))))
                or self.halt("grad_norm", gnorm <= self.stop.grad_norm_tol)
                or self.capped("max_cycles", cycle)
                or self.capped("max_inner_iters", iters) or self.timed_out())

    @staticmethod
    def check_ends(algorithm, stop: StoppingCriteria):
        """Refuse a `stop` under which an `algorithm` run may never end. The
        epoch loop checks only max_epochs and the deadline. An accepted B2LD
        visit never raises f, so with f_tol >= 0 f falls through finitely many
        floats before a cycle moves no block; with f_tol < 0 that stop never
        comes. LBFGS ends at its solver's max_iters."""
        caps = {"BLInG": ["max_epochs"], "IG": ["max_epochs"]}.get(algorithm)
        if algorithm == "B2LD" and stop.f_tol < 0:
            caps = ["max_cycles", "max_inner_iters"]
        limit = stop.time_limit_seconds
        if caps and limit in (None, math.inf) \
                and all(getattr(stop, c) is None for c in caps):
            why = f" with f_tol {stop.f_tol!r} < 0" if algorithm == "B2LD" else ""
            raise ValueError(f"{algorithm}{why} needs {', '.join(caps)} "
                             f"or a finite time_limit_seconds, not {limit!r}")

    def record(self, **fields) -> OptimizerRun:
        return OptimizerRun(elapsed_seconds=time.monotonic() - self.start,
                            stop_reason=self.reason, **fields)


def _block_eval(weights, cache, Y, cfg, l, base_sq):
    """Closures on block l alone, the other blocks frozen: (evaluate, start,
    commit). evaluate(Wl) follows `lbfgs_minimize`'s trial contract: it sets
    block l to Wl, propagates it with `forward_partial` and returns f, with
    ||w||^2 updated from `base_sq`, and a grad() through `block_gradient`.
    start is evaluate's pair at the current block, from `cache` as it is.
    commit(Wl) leaves block l at Wl, evaluating it once more unless the
    weights already hold its bytes, as they do after a trial at Wl."""
    w_l = weights.block(l)
    old_sq = float(np.dot(w_l.ravel(), w_l.ravel()))

    def pair():
        Wl = weights.block(l)
        sq_norm = base_sq - old_sq + float(np.dot(Wl.ravel(), Wl.ravel()))
        return (_loss(cache.outputs, Y, cfg, sq_norm),
                lambda: block_gradient(weights, Y, cfg, l, cache))

    def evaluate(Wl):
        weights.set_block(l, Wl)
        forward_partial(weights, cache, l)
        return pair()

    def commit(Wl):
        # bytes, not ==: -0.0 == 0.0 and NaN != NaN
        if Wl.tobytes() != weights.block(l).tobytes():
            evaluate(Wl)

    f, grad = pair()
    return evaluate, (f, grad()), commit


# `rule` has one order; bench/workloads.py still passes it.
def b2ld_run(weights0: NetworkWeights, X, Y, cfg: ObjectiveConfig,
             rule: BlockSelectionRule, acceptance: AcceptanceParams,
             lbfgs: LbfgsParams, stop: StoppingCriteria,
             seed: int = 0) -> OptimizerRun:
    """Cyclic block-layer descent with inner L-BFGS solves of increasing accuracy."""
    RunLedger.check_ends("B2LD", stop)
    weights = weights0.copy()
    L = weights.num_layers
    ledger = RunLedger(stop)

    _, cache = forward(weights, X)
    f_cur = cached_value(weights, cache, Y, cfg)
    traj = [f_cur]
    counts = [0] * L
    last_rel_dec = [math.inf] * L
    eps = lbfgs.grad_tol
    inner_total = cycle = 0

    while True:
        gnorm = gradient_norm(full_gradient(weights, Y, cfg, cache))
        if ledger.at_cycle(cycle, inner_total, f_cur, gnorm):
            break

        any_update = False
        for l in rule.cycle(L):
            evaluate, (f_l, g_l), commit = _block_eval(
                weights, cache, Y, cfg, l, weights_squared_norm(weights))
            bnorm = frobenius_norm(g_l)
            if ledger.halt("non_finite", not math.isfinite(bnorm)):
                break
            # Skip blocks whose gradient or last relative decrease is already
            # below tolerance; skipped blocks still advance the cycle but are
            # not counted as updates.
            if bnorm <= stop.grad_norm_tol or last_rel_dec[l - 1] <= stop.f_tol:
                continue
            w_l = weights.block(l)  # trials replace the block, never write it

            # Armijo reference point along the block steepest-descent direction.
            f_armijo = None  # f at the search's latest trial

            def phi(a):
                nonlocal f_armijo
                f_armijo, _ = evaluate(w_l - a * g_l)
                return f_armijo

            try:
                armijo_linesearch(phi, f_cur, -bnorm * bnorm, acceptance.armijo)
            except LinesearchError:
                commit(w_l)
                continue
            w_armijo = weights.block(l)  # the search stops on the accepted trial

            res = lbfgs_minimize_block(
                evaluate, w_l,
                replace(lbfgs, grad_tol=eps), deadline=ledger.deadline,
                start_fg=(f_l, g_l))
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
            if ledger.timed_out() or ledger.capped("max_inner_iters", inner_total):
                break

        if not any_update and ledger.reason is None:
            ledger.halt("f_tol")  # no block moved, so gnorm is still current
            break
        eps *= ACCURACY_SHRINK
        cycle += 1

    return ledger.record(algorithm="B2LD", seed=seed, final_weights=weights,
                         trajectory=traj, final_objective=f_cur,
                         final_grad_norm=gnorm, layer_update_counts=counts,
                         inner_iterations=inner_total)


def lbfgs_baseline_run(weights0: NetworkWeights, X, Y, cfg: ObjectiveConfig,
                       lbfgs: LbfgsParams, stop: StoppingCriteria,
                       seed: int = 0) -> OptimizerRun:
    """Full-variable L-BFGS on the whole problem, same stopping criteria."""
    weights = weights0.copy()
    ledger = RunLedger(stop)
    cache = ForwardCache.for_rows(weights.arch, X.shape[0])

    def trial(vec):
        weights.set_from_flat(vec)
        forward(weights, X, cache)
        return cached_value(weights, cache, Y, cfg), \
            lambda: flat_gradient(weights, Y, cfg, cache)

    params = replace(lbfgs, grad_tol=stop.grad_norm_tol, max_iters=lbfgs.max_iters
                     if stop.max_inner_iters is None else stop.max_inner_iters)
    res = lbfgs_minimize(trial, weights0.flatten(), params,
                         deadline=ledger.deadline, f_tol=stop.f_tol)
    weights.set_from_flat(res.x)
    ledger.halt(res.stop_reason)
    return ledger.record(algorithm="LBFGS", seed=seed, final_weights=weights,
                         trajectory=res.f_history, final_objective=res.f,
                         final_grad_norm=res.grad_norm,
                         layer_update_counts=[res.iterations] * weights.num_layers,
                         inner_iterations=res.iterations)

