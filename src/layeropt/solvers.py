"""Armijo backtracking, limited-memory BFGS, and the last-layer ridge solve."""

import math
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from .linalg import _check_int, _check_real

MEMORY = 10    # curvature pairs the two-loop recursion keeps


@dataclass(frozen=True)
class ArmijoParams:
    a: float = 1.0            # initial stepsize
    gamma: float = 1e-4       # sufficient-decrease coefficient
    delta: float = 0.5        # backtracking factor
    max_halvings: int = 60

    def __post_init__(self):
        _check_real(self.a, "a", 0.0, math.inf)
        _check_real(self.gamma, "gamma", 0.0, 1.0)
        _check_real(self.delta, "delta", 0.0, 1.0)
        _check_int(self.max_halvings, "max_halvings", 0, math.inf)


ARMIJO = ArmijoParams()    # the search every L-BFGS step runs


class LinesearchError(RuntimeError):
    """Backtracking exhausted its halving budget; carries the last stepsize tried."""

    def __init__(self, message, last_alpha):
        super().__init__(message)
        self.last_alpha = last_alpha


def armijo_linesearch(phi, phi0: float, slope: float, params: ArmijoParams) -> float:
    """Smallest number of backtracks j >= 0 with phi(a*delta^j) <= phi0 + gamma*a*delta^j*slope.

    `phi` is the objective along the search direction, phi(alpha) = f(w + alpha*d);
    `slope` is the directional derivative at 0 and must be negative.
    """
    if not slope < 0:
        raise ValueError(f"Armijo needs a descent direction, got slope {slope}")
    alpha = params.a
    for _ in range(params.max_halvings + 1):
        if phi(alpha) <= phi0 + params.gamma * alpha * slope:
            return alpha
        alpha *= params.delta
    raise LinesearchError(
        f"no Armijo stepsize within {params.max_halvings} halvings", alpha)


@dataclass(frozen=True)
class LbfgsParams:
    grad_tol: float = 1e-5
    max_iters: int = 30

    def __post_init__(self):
        _check_real(self.grad_tol, "grad_tol", 0.0, math.inf, closed=True)
        _check_int(self.max_iters, "max_iters", 0, math.inf)


@dataclass
class LbfgsResult:
    x: np.ndarray
    f: float
    grad_norm: float
    iterations: int
    f_history: list
    stop_reason: str


def lbfgs_minimize(trial, x0: np.ndarray, params: LbfgsParams,
                   deadline: float = None, f_tol: float = None,
                   start_fg=None) -> LbfgsResult:
    """Two-loop-recursion L-BFGS with value-only Armijo trials on flat vectors.

    trial(x) -> (f, grad): f at x, and a callable grad() that returns the
    gradient at that x, in a new array the solve may overwrite, for as long
    as no other trial has run. trial runs at
    x0, unless the caller passes the pair it holds there as `start_fg`, and
    once per Armijo trial; grad runs only at x0 and at each accepted step,
    the last trial of its search. Stops ("grad_norm") at ||g|| <= grad_tol,
    ("iteration_budget") after max_iters accepted steps, ("non_finite") when
    f or ||g|| is NaN or inf, or ("linesearch_failure") at the last accepted
    point when a search fails. Every accepted step satisfies the Armijo
    condition, so the objective sequence is non-increasing. The latest MEMORY
    curvature pairs are kept, skipping those with s'y <= 1e-10 ||s|| ||y||.
    Each pair is formed in the vectors the step retires, s in x's buffer and
    y in g's, so x0 and start_fg's gradient are copied and never written;
    x0 itself is not kept, so a temporary passed there is freed once copied.
    Beside the pairs the solve holds no more than x, g, the direction d,
    one trial point and its gradient: a backtrack frees the last trial point
    before forming the next, and d is freed before the accepted point's
    gradient is formed. The wall-clock deadline, if given, is checked
    before every iteration.
    """
    x = np.array(x0, dtype=np.float64)
    del x0
    if start_fg is None:
        f, grad = trial(x)
        g = grad()
    else:
        f, g = start_fg[0], np.array(start_fg[1], dtype=np.float64)
    history = [f]
    pairs = deque(maxlen=MEMORY)  # (s, y, 1/s'y), oldest first
    it = 0
    reason = "iteration_budget"
    while it < params.max_iters:
        gnorm = math.sqrt(float(np.dot(g, g)))
        if not (math.isfinite(f) and math.isfinite(gnorm)):
            reason = "non_finite"
            break
        if gnorm <= params.grad_tol:
            reason = "grad_norm"
            break
        if deadline is not None and time.monotonic() > deadline:
            reason = "time_limit"
            break

        d = _two_loop(g, pairs)
        slope = float(np.dot(g, d))
        if slope >= 0:
            d = -g
            slope = -gnorm * gnorm

        last = []  # (x + a*d, f, grad) of the latest trial

        def phi(a):
            last.clear()
            x_a = np.multiply(a, d)     # a*d + x has the bits of x + a*d
            x_a += x
            last[:] = (x_a, *trial(x_a))
            return last[1]

        try:
            armijo_linesearch(phi, f, slope, ARMIJO)
        except LinesearchError:
            reason = "linesearch_failure"
            break

        x_new, f_new, grad = last  # the search stops on the accepted trial
        del d
        g_new = grad()
        s = np.subtract(x_new, x, out=x)
        y = np.subtract(g_new, g, out=g)
        sy = float(np.dot(s, y))
        if sy > 1e-10 * math.sqrt(float(np.dot(s, s)) * float(np.dot(y, y))):
            pairs.append((s, y, 1.0 / sy))
        f_prev = f
        x, f, g = x_new, f_new, g_new
        history.append(f)
        it += 1
        if f_tol is not None and (f_prev - f) / max(f_prev, 1.0) <= f_tol:
            reason = "f_tol"
            break

    return LbfgsResult(x=x, f=f, grad_norm=math.sqrt(float(np.dot(g, g))),
                       iterations=it, f_history=history, stop_reason=reason)


def _two_loop(g, pairs):
    """Implicit product -H_k g via the standard two-loop recursion over the
    (s, y, 1/s'y) pairs, oldest first, in one new vector."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(np.dot(s, q))
        alphas.append(a)
        q -= a * y
    if pairs:
        s, y, _ = pairs[-1]
        q *= float(np.dot(s, y)) / float(np.dot(y, y))
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * float(np.dot(y, q))
        q += (a - b) * s
    return np.negative(q, out=q)


def lbfgs_minimize_block(block_trial, start: np.ndarray, params: LbfgsParams,
                         deadline: float = None, start_fg=None) -> LbfgsResult:
    """L-BFGS over one weight block. block_trial(W) -> (f, grad) follows
    `lbfgs_minimize`'s trial contract with all other blocks frozen, and grad()
    returns the block gradient in W's shape. `start_fg`, when given, is
    (f, block gradient) at `start`. Result x keeps the block's matrix shape."""
    shape = start.shape
    if start_fg is not None:
        start_fg = (start_fg[0], start_fg[1].ravel())

    def trial(vec):
        f, grad = block_trial(vec.reshape(shape))
        return f, lambda: grad().ravel()

    res = lbfgs_minimize(trial, np.asarray(start, dtype=np.float64).ravel(),
                         params, deadline=deadline, start_fg=start_fg)
    res.x = res.x.reshape(shape)
    return res


class SingularSystemError(RuntimeError):
    pass


def llsq_last_layer(Z: np.ndarray, Y: np.ndarray, rho: float, P: int) -> np.ndarray:
    """Unique minimizer of (1/P)||Z w - Y||^2 + rho ||w||^2 over the last block.

    Solves the normal equations ((2/P) Z'Z + 2 rho I) w = (2/P) Z'Y. The
    system is symmetric positive definite whenever rho > 0.
    """
    Z = np.asarray(Z, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    A = (2.0 / P) * (Z.T @ Z) + 2.0 * rho * np.eye(Z.shape[1])
    b = (2.0 / P) * (Z.T @ Y)
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            "last-layer normal equations are singular (rho=0 with rank-deficient Z)") from exc
