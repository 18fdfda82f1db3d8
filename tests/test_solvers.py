import tracemalloc
import types
from collections import Counter

import numpy as np
import pytest

import layeropt.solvers as solvers
from conftest import count_callback_calls, counted
from layeropt.solvers import (ArmijoParams, LbfgsParams, LinesearchError,
                              SingularSystemError, armijo_linesearch,
                              lbfgs_minimize, lbfgs_minimize_block,
                              llsq_last_layer)


class TestArmijo:
    def test_linear_function_accepts_full_step(self):
        params = ArmijoParams(a=1.0, gamma=1e-4, delta=0.5)
        slope = -3.0
        phi = lambda a: 10.0 + slope * a
        assert armijo_linesearch(phi, 10.0, slope, params) == 1.0

    def test_quadratic_toy_backtracks_once(self):
        # f(w) = w^2 at w=1, d=-2: phi(a) = (1-2a)^2, slope = -4
        params = ArmijoParams(a=1.0, gamma=1e-4, delta=0.5)
        phi = lambda a: (1.0 - 2.0 * a) ** 2
        alpha = armijo_linesearch(phi, 1.0, -4.0, params)
        assert alpha == 0.5

    def test_nonnegative_slope_rejected(self):
        with pytest.raises(ValueError):
            armijo_linesearch(lambda a: a, 0.0, 0.0, ArmijoParams())

    def test_postcondition_holds_at_returned_stepsize(self):
        rng = np.random.default_rng(5)
        params = ArmijoParams(a=1.0, gamma=1e-4, delta=0.5)
        for _ in range(50):
            Q = rng.uniform(0.5, 3.0)
            x0 = rng.uniform(-2.0, 2.0)
            g = 2 * Q * x0
            if g == 0:
                continue
            d = -g
            phi = lambda a: Q * (x0 + a * d) ** 2
            phi0, slope = Q * x0 ** 2, g * d
            alpha = armijo_linesearch(phi, phi0, slope, params)
            assert 0.0 < alpha <= params.a
            assert phi(alpha) <= phi0 + params.gamma * alpha * slope

    def test_halvings_cap_raises_with_last_alpha(self):
        # wrong slope sign information: function actually increases
        params = ArmijoParams(a=1.0, gamma=0.9, delta=0.5, max_halvings=5)
        with pytest.raises(LinesearchError) as exc:
            armijo_linesearch(lambda a: 1.0 + a, 1.0, -1e-12, params)
        assert exc.value.last_alpha > 0

    def test_repeated_gradient_steps_satisfy_quadratic_forcing(self):
        # decrease per Armijo step is at least (gamma/a) * ||step||^2
        rng = np.random.default_rng(8)
        params = ArmijoParams(a=1.0, gamma=1e-4, delta=0.5)
        for _ in range(20):
            Q = np.diag(rng.uniform(0.5, 4.0, size=4))
            x = rng.normal(size=4)
            for _ in range(10):
                g = 2 * Q @ x
                if np.linalg.norm(g) < 1e-12:
                    break
                d = -g
                f0 = float(x @ Q @ x)
                phi = lambda a: float((x + a * d) @ Q @ (x + a * d))
                alpha = armijo_linesearch(phi, f0, float(g @ d), params)
                x_new = x + alpha * d
                f_new = float(x_new @ Q @ x_new)
                step_sq = float(np.dot(x_new - x, x_new - x))
                assert f_new - f0 <= -(params.gamma / params.a) * step_sq + 1e-14
                x = x_new


@pytest.mark.parametrize("field, value", [
    ("a", -1.0), ("a", 0.0), ("a", np.nan), ("a", np.inf), ("a", True),
    ("a", "1.0"), ("gamma", 0.0), ("gamma", 1.0), ("gamma", np.nan),
    ("delta", -0.5), ("delta", 1.5), ("delta", np.nan), ("delta", False),
    ("max_halvings", -1), ("max_halvings", 2.0), ("max_halvings", True)])
def test_armijo_params_outside_their_domain_rejected(field, value):
    # a NaN or infinite a passed `a <= 0`; max_halvings -1 was taken
    with pytest.raises(ValueError, match=rf"^{field} "):
        ArmijoParams(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("grad_tol", -1e-3), ("grad_tol", np.nan), ("grad_tol", True),
    ("grad_tol", "1e-5"), ("grad_tol", None), ("max_iters", -1),
    ("max_iters", 2.5), ("max_iters", True), ("max_iters", None)])
def test_lbfgs_params_outside_their_domain_rejected(field, value):
    # max_iters -1 ran no iteration and a NaN grad_tol never stopped
    with pytest.raises(ValueError, match=rf"^{field} "):
        LbfgsParams(**{field: value})


def test_params_in_their_domain_accepted():
    # the values the drivers, tools and bench pass, numpy scalars too
    for kw in [{}, dict(a=1e3, max_halvings=3), dict(a=1e8, max_halvings=0),
               dict(a=np.float64(2.0), gamma=0.9, delta=np.float64(0.1),
                    max_halvings=np.int64(5))]:
        ArmijoParams(**kw)
    for kw in [{}, dict(grad_tol=0.0, max_iters=0), dict(grad_tol=np.inf),
               dict(grad_tol=np.float64(0.1), max_iters=np.int64(3))]:
        LbfgsParams(**kw)


class TestLbfgs:
    def quadratic(self, n, seed):
        rng = np.random.default_rng(seed)
        M = rng.normal(size=(n, n))
        A = M @ M.T + n * np.eye(n)
        b = rng.normal(size=n)

        def trial(x):
            return 0.5 * float(x @ A @ x) - float(b @ x), lambda: A @ x - b

        return trial, np.linalg.solve(A, b)

    def test_stationary_start_returns_immediately(self):
        trial, x_star = self.quadratic(6, 1)
        res = lbfgs_minimize(trial, x_star, LbfgsParams(grad_tol=1e-8))
        assert res.iterations == 0
        assert np.array_equal(res.x, x_star)

    def test_matches_closed_form_on_quadratic(self):
        trial, x_star = self.quadratic(10, 2)
        res = lbfgs_minimize(trial, np.zeros(10),
                             LbfgsParams(grad_tol=1e-10, max_iters=200))
        assert np.abs(res.x - x_star).max() <= 1e-8

    def test_evaluates_start_and_each_armijo_trial_once(self, monkeypatch):
        """The accepted step is the last Armijo trial, whose f is kept and
        whose gradient is taken: no point is evaluated twice, and a gradient
        is computed only at the start and at accepted steps, each before the
        next trial."""
        quadratic, x_star = self.quadratic(10, 2)
        tally = Counter()
        count_callback_calls(monkeypatch, solvers, "armijo_linesearch", tally,
                             "trials")

        def trial(x):
            tally["trial"] += 1
            f, grad = quadratic(x)
            made = tally["trial"]

            def checked_grad():
                assert tally["trial"] == made, "gradient of a superseded trial"
                tally["grad"] += 1
                return grad()
            return f, checked_grad

        res = lbfgs_minimize(trial, np.zeros(10),
                             LbfgsParams(grad_tol=1e-10, max_iters=200))
        assert res.iterations > 0 and tally["trials"] > res.iterations
        assert tally["trial"] == 1 + tally["trials"]
        assert tally["grad"] == 1 + res.iterations
        assert np.abs(res.x - x_star).max() <= 1e-8

    def test_start_fg_skips_the_start_evaluation(self, monkeypatch):
        """Given the start pair, the solve calls its trial only for Armijo
        trials and reaches the same points as a solve that evaluates the
        start itself."""
        quadratic, _ = self.quadratic(6, 3)
        params = LbfgsParams(grad_tol=1e-10, max_iters=200)
        plain = lbfgs_minimize(quadratic, np.ones(6), params)
        tally = Counter()
        count_callback_calls(monkeypatch, solvers, "armijo_linesearch", tally,
                             "trials")
        f0, grad0 = quadratic(np.ones(6))
        res = lbfgs_minimize(counted(quadratic, tally, "trial"), np.ones(6),
                             params, start_fg=(f0, grad0()))
        assert np.array_equal(res.x, plain.x)
        assert res.f_history == plain.f_history
        assert tally["trial"] == tally["trials"] > 0

    def test_caller_arrays_are_never_written(self):
        """The curvature pairs are formed in the solve's own retired
        vectors: after more accepted steps than MEMORY, x0 and start_fg's
        gradient, flat or as a block, keep their bytes."""
        quadratic, _ = self.quadratic(6, 7)
        params = LbfgsParams(grad_tol=0.0, max_iters=solvers.MEMORY + 2)
        x0 = np.linspace(-1.0, 1.0, 6)
        f0, grad0 = quadratic(x0)
        g0 = grad0()
        kept = x0.tobytes(), g0.tobytes()
        for res in (lbfgs_minimize(quadratic, x0, params),
                    lbfgs_minimize(quadratic, x0, params, start_fg=(f0, g0))):
            assert res.iterations == params.max_iters
            assert (x0.tobytes(), g0.tobytes()) == kept

        def block_trial(W):
            f, grad = quadratic(W.ravel())
            return f, lambda: grad().reshape(W.shape)
        W0, G0 = x0.reshape(2, 3), g0.reshape(2, 3)
        res = lbfgs_minimize_block(block_trial, W0, params, start_fg=(f0, G0))
        assert res.iterations == params.max_iters
        assert (x0.tobytes(), g0.tobytes()) == kept

    def test_solve_holds_only_the_vectors_its_arithmetic_reads(self):
        """The traced peak of a solve over n = 100,000 variables, MEMORY + 2
        steps with a backtrack in the first, is at most the 2 MEMORY pair
        vectors plus x, g, d, one trial point and its gradient: no copy of
        x0 but the solve's own, no a*d or -q temporary, and no trial point
        kept past the next backtrack or d past the accepted search."""
        n = 100_000
        curvature = np.linspace(0.5, 8.0, n)  # a unit first step overshoots
        tally = Counter()

        def trial(x):
            tally["trial"] += 1
            g = curvature * x   # the one vector a trial makes
            return 0.5 * float(np.dot(x, g)), lambda: g

        params = LbfgsParams(grad_tol=0.0, max_iters=solvers.MEMORY + 2)
        tracemalloc.start()
        try:
            res = lbfgs_minimize(trial, np.ones(n), params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.iterations == params.max_iters
        assert tally["trial"] > 1 + res.iterations
        vector = 8 * n
        assert peak <= (2 * solvers.MEMORY + 5) * vector + vector // 2

    def test_non_finite_gradient_stops_at_the_last_finite_point(self):
        """A trial whose gradient is NaN ends the solve with reason
        "non_finite"; the reported point is that accepted trial, whose f is
        finite, and the objective history still never rises."""
        quadratic, _ = self.quadratic(6, 4)
        tally = Counter()

        def trial(x):
            f, grad = quadratic(x)
            tally["trial"] += 1
            poisoned = tally["trial"] > 3
            return f, (lambda: np.full(6, np.nan)) if poisoned else grad

        res = lbfgs_minimize(trial, np.ones(6), LbfgsParams(max_iters=50))
        assert res.stop_reason == "non_finite"
        assert 0 < res.iterations < 50 and np.isnan(res.grad_norm)
        assert np.isfinite(res.f) and res.f == res.f_history[-1]
        assert all(b <= a for a, b in zip(res.f_history, res.f_history[1:]))

    def test_non_finite_start_stops_at_once(self):
        res = lbfgs_minimize(lambda x: (np.inf, lambda: np.zeros_like(x)),
                             np.ones(3), LbfgsParams())
        assert res.stop_reason == "non_finite" and res.iterations == 0

    def test_deadline_checked_before_every_iteration(self, monkeypatch):
        """A deadline that passes after the first iteration stops the solve
        before the second."""
        clock = iter([0.0])
        monkeypatch.setattr(solvers, "time", types.SimpleNamespace(
            monotonic=lambda: next(clock, 200.0)))
        trial, _ = self.quadratic(20, 5)
        res = lbfgs_minimize(trial, np.zeros(20),
                             LbfgsParams(grad_tol=0.0, max_iters=40),
                             deadline=100.0)
        assert res.stop_reason == "time_limit" and res.iterations == 1

    def test_failed_search_stops_at_the_last_accepted_point(self):
        """Once the first step is taken every further trial is infinite, so
        the second search fails: the solve stops with reason
        "linesearch_failure" at the point a one-step solve reaches."""
        quadratic, _ = self.quadratic(6, 6)
        tally = Counter()

        def trial(x):
            tally["trial"] += 1
            return quadratic(x)

        one = lbfgs_minimize(trial, np.ones(6), LbfgsParams(max_iters=1))
        assert one.stop_reason == "iteration_budget" and one.iterations == 1
        finite = tally["trial"]

        def poisoned(x):
            tally["poisoned"] += 1
            f, grad = quadratic(x)
            return (f if tally["poisoned"] <= finite else np.inf), grad

        res = lbfgs_minimize(poisoned, np.ones(6), LbfgsParams(max_iters=50))
        assert res.stop_reason == "linesearch_failure" and res.iterations == 1
        assert res.x.tobytes() == one.x.tobytes()
        assert res.f == one.f and res.grad_norm == one.grad_norm
        assert res.f_history == one.f_history

    def test_monotone_objective_history(self):
        trial, _ = self.quadratic(8, 3)
        res = lbfgs_minimize(trial, np.ones(8), LbfgsParams(max_iters=50))
        assert all(b <= a for a, b in zip(res.f_history, res.f_history[1:]))

    def test_f_never_increases_from_start(self):
        trial, _ = self.quadratic(5, 4)
        f0 = trial(np.ones(5))[0]
        res = lbfgs_minimize(trial, np.ones(5), LbfgsParams(max_iters=3))
        assert res.f <= f0

    def test_block_wrapper_keeps_shape(self):
        trial, x_star = self.quadratic(6, 5)

        def block_trial(W):
            f, grad = trial(W.ravel())
            return f, lambda: grad().reshape(W.shape)

        res = lbfgs_minimize_block(block_trial, np.zeros((2, 3)),
                                   LbfgsParams(grad_tol=1e-10, max_iters=200))
        assert res.x.shape == (2, 3)
        assert np.abs(res.x.ravel() - x_star).max() <= 1e-8

    def test_matches_llsq_on_last_layer_subproblem(self):
        rng = np.random.default_rng(6)
        P, n_hidden, m = 20, 4, 2
        Z = rng.uniform(0, 1, size=(P, n_hidden))
        Y = rng.uniform(0, 1, size=(P, m))
        rho = 0.01
        w_star = llsq_last_layer(Z, Y, rho, P)

        def block_trial(W):
            resid = Z @ W - Y
            f = float(np.sum(resid ** 2)) / P + rho * float(np.sum(W ** 2))
            return f, lambda: (2.0 / P) * (Z.T @ resid) + 2 * rho * W

        res = lbfgs_minimize_block(block_trial, np.zeros((n_hidden, m)),
                                   LbfgsParams(grad_tol=1e-12, max_iters=500))
        f_opt = block_trial(w_star)[0]
        assert res.f == pytest.approx(f_opt, rel=1e-6)


class TestLlsq:
    def test_identity_interpolation(self):
        w = llsq_last_layer(np.eye(3), np.eye(3), rho=0.0, P=3)
        assert np.allclose(w, np.eye(3), atol=1e-12)

    def test_scalar_ridge_by_hand(self):
        # minimize (w-1)^2 + w^2 -> w = 0.5
        w = llsq_last_layer(np.array([[1.0]]), np.array([[1.0]]), rho=1.0, P=1)
        assert w[0, 0] == pytest.approx(0.5, abs=1e-14)

    def test_residual_gradient_at_solution(self):
        rng = np.random.default_rng(9)
        Z = rng.uniform(0, 1, size=(30, 5))
        Y = rng.uniform(0, 1, size=(30, 2))
        rho, P = 1e-3, 30
        w = llsq_last_layer(Z, Y, rho, P)
        g = (2.0 / P) * (Z.T @ (Z @ w - Y)) + 2 * rho * w
        assert np.linalg.norm(g) <= 1e-10

    def test_singular_system_raises(self):
        with pytest.raises(SingularSystemError):
            llsq_last_layer(np.zeros((4, 3)), np.ones((4, 1)), rho=0.0, P=4)
