import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import layeropt.batch as batch
import layeropt.objective as objective
import layeropt.solvers as solvers
from conftest import count_callback_calls, counted
from layeropt.batch import (AcceptanceParams, BlockSelectionRule,
                            StoppingCriteria, _block_eval, accept_trial,
                            b2ld_run, lbfgs_baseline_run)
from layeropt.linalg import SeededRng
from layeropt.network import Architecture, forward, init_weights
from layeropt.objective import (ObjectiveConfig, block_gradient,
                                full_gradient, gradient_norm, objective_value,
                                weights_squared_norm)
from layeropt.solvers import ArmijoParams, LbfgsParams, llsq_last_layer


def make_problem(widths, input_dim, P, seed, rho=1e-3):
    arch = Architecture(input_dim, tuple(widths))
    rng = SeededRng(seed)
    w = init_weights(arch, rng)
    X = rng.child(1).uniform(0.0, 1.0, size=(P, input_dim))
    Y = rng.child(2).uniform(0.0, 1.0, size=(P, arch.output_dim))
    return w, X, Y, ObjectiveConfig(rho=rho, sample_count=P)


class TestSelectionRules:
    def test_backward_order(self):
        assert BlockSelectionRule("backward").cycle(3, 0) == [3, 2, 1]

    def test_forward_order(self):
        assert BlockSelectionRule("forward").cycle(3, 5) == [1, 2, 3]

    def test_random_is_permutation_each_cycle(self):
        rule = BlockSelectionRule("random", seed=4)
        seen = set()
        for c in range(10):
            order = rule.cycle(5, c)
            assert sorted(order) == [1, 2, 3, 4, 5]
            seen.add(tuple(order))
        assert len(seen) > 1  # orders actually vary across cycles

    def test_random_deterministic_per_seed(self):
        a = BlockSelectionRule("random", seed=7)
        b = BlockSelectionRule("random", seed=7)
        for c in range(5):
            assert a.cycle(4, c) == b.cycle(4, c)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            BlockSelectionRule("sideways")


class TestAcceptance:
    def test_trial_beating_armijo_and_forcing_accepted(self):
        p = AcceptanceParams()
        # decrease 1.0 over displacement 1: forcing needs 1e-4
        assert accept_trial(10.0, 9.0, 9.5, 1.0, p)

    def test_trial_worse_than_armijo_point_rejected(self):
        p = AcceptanceParams()
        assert not accept_trial(10.0, 9.6, 9.5, 1.0, p)

    def test_trial_failing_forcing_rejected(self):
        p = AcceptanceParams()
        # decrease 1e-9 over displacement 10: needs sigma0*100 = 1e-2
        assert not accept_trial(10.0, 10.0 - 1e-9, 10.0, 10.0, p)

    def test_sigma0_above_gamma_over_a_rejected(self):
        with pytest.raises(ValueError):
            AcceptanceParams(sigma0=1.0)

    def test_default_sigma0_is_gamma_over_a(self):
        p = AcceptanceParams()
        assert p.sigma0 == p.armijo.gamma / p.armijo.a


def run_b2ld(w, X, Y, cfg, max_cycles=20, rule_kind="backward", seed=0,
             grad_tol=1e-3, f_tol=1e-4, acceptance=AcceptanceParams()):
    rule = BlockSelectionRule(rule_kind, seed=seed)
    stop = StoppingCriteria(grad_norm_tol=grad_tol, f_tol=f_tol,
                            max_cycles=max_cycles, time_limit_seconds=None)
    return b2ld_run(w, X, Y, cfg, rule, acceptance,
                    LbfgsParams(grad_tol=0.1, max_iters=30), stop, seed=seed)


class TestB2ld:
    def test_deterministic_given_seed(self):
        w, X, Y, cfg = make_problem([4, 3, 1], 3, 30, seed=1)
        r1 = run_b2ld(w, X, Y, cfg, max_cycles=5)
        r2 = run_b2ld(w, X, Y, cfg, max_cycles=5)
        assert r1.trajectory == r2.trajectory
        assert r1.final_weights.digest() == r2.final_weights.digest()

    def test_monotone_trajectory(self):
        w, X, Y, cfg = make_problem([6, 4, 1], 4, 40, seed=2)
        r = run_b2ld(w, X, Y, cfg, max_cycles=10)
        assert all(b <= a + 1e-15 for a, b in
                   zip(r.trajectory, r.trajectory[1:]))
        assert r.trajectory[-1] < r.trajectory[0]

    def test_final_objective_matches_final_weights(self):
        w, X, Y, cfg = make_problem([5, 1], 3, 25, seed=3)
        r = run_b2ld(w, X, Y, cfg, max_cycles=8)
        f, _ = objective_value(r.final_weights, X, Y, cfg)
        assert f == pytest.approx(r.final_objective, rel=1e-12)
        g = gradient_norm(full_gradient(r.final_weights, X, Y, cfg))
        assert g == pytest.approx(r.final_grad_norm, rel=1e-12)

    def test_stationary_start_stops_without_updates(self):
        # rho=0 and exact teacher labels: the start is a global minimizer
        w, X, _, _ = make_problem([4, 2, 1], 3, 20, seed=4)
        Y, _ = forward(w, X)
        cfg = ObjectiveConfig(rho=0.0, sample_count=20)
        r = run_b2ld(w, X, Y, cfg, max_cycles=10)
        assert r.stop_reason == "grad_norm"
        assert r.layer_update_counts == [0, 0, 0]
        assert r.final_weights.digest() == w.digest()

    def test_single_layer_reaches_llsq_optimum(self):
        # L=1 network is a ridge problem with a closed-form minimizer
        w, X, Y, cfg = make_problem([2], 3, 30, seed=5, rho=1e-2)
        r = run_b2ld(w, X, Y, cfg, max_cycles=200, grad_tol=1e-8, f_tol=1e-14)
        w_star = llsq_last_layer(X, Y, cfg.rho, cfg.sample_count)
        resid = X @ w_star - Y
        f_star = float(np.sum(resid ** 2)) / 30 + cfg.rho * float(np.sum(w_star ** 2))
        assert r.final_objective == pytest.approx(f_star, rel=1e-6)

    def test_every_cycle_visits_every_block(self):
        w, X, Y, cfg = make_problem([5, 5, 5, 1], 4, 40, seed=6)
        r = run_b2ld(w, X, Y, cfg, max_cycles=6, rule_kind="random", seed=11)
        # no block may be updated more often than the number of cycles
        assert max(r.layer_update_counts) <= 6
        assert sum(r.layer_update_counts) == len(r.trajectory) - 1

    def test_skip_rule_not_counted_as_update(self):
        w, X, Y, cfg = make_problem([4, 1], 3, 20, seed=7)
        r = run_b2ld(w, X, Y, cfg, max_cycles=50)
        # once converged below grad tolerance, later cycles record no updates
        assert r.stop_reason in ("grad_norm", "f_tol", "max_cycles")
        assert sum(r.layer_update_counts) == len(r.trajectory) - 1

    def test_max_cycles_respected(self):
        w, X, Y, cfg = make_problem([8, 8, 1], 5, 50, seed=8)
        r = run_b2ld(w, X, Y, cfg, max_cycles=3, f_tol=1e-14)
        assert r.stop_reason == "max_cycles"
        assert max(r.layer_update_counts) <= 3

    def test_forward_and_backward_rules_both_descend(self):
        w, X, Y, cfg = make_problem([5, 3, 1], 4, 30, seed=9)
        f0, _ = objective_value(w, X, Y, cfg)
        for kind in ("forward", "backward"):
            r = run_b2ld(w, X, Y, cfg, max_cycles=5, rule_kind=kind)
            assert r.final_objective < f0


def count_forward_passes(monkeypatch, tally):
    """Count full forward passes, whether the drivers run them directly or
    through `objective`."""
    for module in (batch, objective):
        monkeypatch.setattr(module, "forward",
                            counted(module.forward, tally, "forward"))


class TestEvaluationCounts:
    def test_b2ld_runs_one_forward_pass(self, monkeypatch):
        """The per-cycle and final gradient norms come from B2LD's own cache,
        which forward_partial keeps current."""
        w, X, Y, cfg = make_problem([6, 4, 3, 1], 4, 40, seed=2)
        tally = Counter()
        count_forward_passes(monkeypatch, tally)
        r = run_b2ld(w, X, Y, cfg, max_cycles=4, grad_tol=0.0, f_tol=-np.inf)
        assert r.stop_reason == "max_cycles"
        assert tally["forward"] == 1

    def test_b2ld_armijo_point_is_the_last_trial(self, monkeypatch):
        """The block value closure runs once per Armijo trial and never again
        for the accepted reference point."""
        w, X, Y, cfg = make_problem([6, 4, 3, 1], 4, 40, seed=2)
        tally = Counter()
        count_callback_calls(monkeypatch, batch, "armijo_linesearch", tally,
                             "phi")
        block_eval = batch._block_eval

        def counting_block_eval(*args):
            value, evaluate, start, commit = block_eval(*args)
            return counted(value, tally, "value"), evaluate, start, commit
        monkeypatch.setattr(batch, "_block_eval", counting_block_eval)
        r = run_b2ld(w, X, Y, cfg, max_cycles=4, grad_tol=0.0, f_tol=-np.inf)
        assert sum(r.layer_update_counts) > 0
        assert tally["value"] == tally["phi"] > 0

    def test_b2ld_inner_solve_evaluates_only_its_armijo_trials(self,
                                                              monkeypatch):
        """Each inner solve starts from the (f, block gradient) B2LD already
        holds: its trial closure runs once per Armijo trial of the solve and
        never at the start point."""
        w, X, Y, cfg = make_problem([6, 4, 3, 1], 4, 40, seed=2)
        tally = Counter()
        count_callback_calls(monkeypatch, batch, "lbfgs_minimize_block", tally,
                             "trial")
        # the inner solves' line searches; B2LD's own Armijo reference step
        # calls batch.armijo_linesearch, which this leaves alone
        count_callback_calls(monkeypatch, solvers, "armijo_linesearch", tally,
                             "trials")
        r = run_b2ld(w, X, Y, cfg, max_cycles=4, grad_tol=0.0, f_tol=-np.inf)
        assert r.inner_iterations > 0
        assert tally["trial"] == tally["trials"] > 0

    def test_lbfgs_runs_one_forward_pass_per_evaluation(self, monkeypatch):
        w, X, Y, cfg = make_problem([6, 4, 1], 4, 40, seed=10)
        tally = Counter()
        count_forward_passes(monkeypatch, tally)
        count_callback_calls(monkeypatch, batch, "lbfgs_minimize", tally,
                             "trial")
        stop = StoppingCriteria(time_limit_seconds=None, max_inner_iters=20)
        r = lbfgs_baseline_run(w, X, Y, cfg, LbfgsParams(), stop)
        assert r.inner_iterations > 0
        assert tally["forward"] == tally["trial"] > r.inner_iterations

    def test_lbfgs_backpropagates_only_accepted_trials(self, monkeypatch):
        """Armijo trials are value-only: backprop runs at the start point and
        once per accepted step, while the trial closure runs at the start
        point and once per Armijo trial."""
        w, X, Y, cfg = make_problem([6, 4, 3, 1], 4, 40, seed=2)
        tally = Counter()
        monkeypatch.setattr(objective, "backprop_deltas", counted(
            objective.backprop_deltas, tally, "backprop"))
        count_callback_calls(monkeypatch, batch, "lbfgs_minimize", tally,
                             "trial")
        count_callback_calls(monkeypatch, solvers, "armijo_linesearch", tally,
                             "armijo_trials")
        stop = StoppingCriteria(grad_norm_tol=0.0, f_tol=-np.inf,
                                time_limit_seconds=None, max_inner_iters=20)
        r = lbfgs_baseline_run(w, X, Y, cfg, LbfgsParams(), stop)
        assert r.stop_reason == "iteration_budget"
        assert tally["backprop"] == 1 + r.inner_iterations
        assert tally["trial"] == 1 + tally["armijo_trials"]
        # some trial was rejected, so skipping its gradient saved work
        assert tally["armijo_trials"] > r.inner_iterations

    def test_b2ld_propagates_only_commits_that_differ_from_the_last_trial(
            self, monkeypatch):
        """A commit takes over the trial cache's outputs when its block is,
        bit for bit, the block the latest trial propagated; forward_partial
        runs for the other commits only. A forcing coefficient of 0.1 makes
        B2LD reject some inner L-BFGS results for the Armijo point, which
        exercises both paths."""
        w, X, Y, cfg = make_problem([3, 2], 2, 10, seed=0)
        tally = Counter()
        last = []  # the block the latest trial propagated
        propagate = batch._propagate

        def recording_propagate(weights, z, start, cache, override=None):
            if override is not None:
                last[:] = [override.copy()]
            return propagate(weights, z, start, cache, override)
        monkeypatch.setattr(batch, "_propagate", recording_propagate)
        monkeypatch.setattr(batch, "forward_partial", counted(
            batch.forward_partial, tally, "forward_partial"))
        block_eval = batch._block_eval

        def classifying_block_eval(*args):
            value, evaluate, start, commit = block_eval(*args)

            def classified_commit(Wl):
                same = Wl.tobytes() == last[0].tobytes()
                tally["same" if same else "differs"] += 1
                return commit(Wl)
            return value, evaluate, start, classified_commit
        monkeypatch.setattr(batch, "_block_eval", classifying_block_eval)
        r = run_b2ld(w, X, Y, cfg, max_cycles=6, acceptance=AcceptanceParams(
            armijo=ArmijoParams(gamma=0.1)))
        assert tally["same"] + tally["differs"] == sum(r.layer_update_counts)
        assert tally["same"] > 0 and tally["differs"] > 0
        assert tally["forward_partial"] == tally["differs"]


def warm_peak_bytes(fn):
    """Peak bytes allocated (numpy buffers included) by a second call of fn."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestEvaluationBuffers:
    """An objective evaluation on the batch path reuses its run's buffers:
    at peak it allocates less than one rows x width layer array."""

    def problem(self):
        w, X, Y, cfg = make_problem([40, 40, 40, 1], 6, 500, seed=3)
        return w, X, Y, cfg, X.shape[0] * 40 * 8

    def test_lbfgs_evaluation(self, monkeypatch):
        w, X, Y, cfg, layer_bytes = self.problem()
        seen = []
        real = batch.lbfgs_minimize

        def capture(trial, x0, *args, **kwargs):
            seen.append((trial, x0))
            return real(trial, x0, *args, **kwargs)
        monkeypatch.setattr(batch, "lbfgs_minimize", capture)
        lbfgs_baseline_run(w, X, Y, cfg, LbfgsParams(), StoppingCriteria(
            time_limit_seconds=None, max_inner_iters=1))
        trial, x0 = seen[0]
        assert warm_peak_bytes(lambda: trial(x0)[1]()) < layer_bytes

    def test_b2ld_block_trial(self, monkeypatch):
        w, X, Y, cfg, layer_bytes = self.problem()
        seen = []
        real = batch._block_eval

        def capture(*args):
            seen.append(real(*args))
            return seen[-1]
        monkeypatch.setattr(batch, "_block_eval", capture)
        run_b2ld(w, X, Y, cfg, max_cycles=1)
        for value, evaluate, (_, g), _ in seen[:2]:  # blocks 4 and 3
            W = -0.5 * g
            assert warm_peak_bytes(lambda: value(W)) < layer_bytes
            assert warm_peak_bytes(lambda: evaluate(W)[1]()) < layer_bytes


class TestLbfgsBaseline:
    def test_descends_and_reports_consistent_state(self):
        w, X, Y, cfg = make_problem([6, 4, 1], 4, 40, seed=10)
        f0, _ = objective_value(w, X, Y, cfg)
        stop = StoppingCriteria(time_limit_seconds=None, max_inner_iters=60)
        r = lbfgs_baseline_run(w, X, Y, cfg, LbfgsParams(), stop)
        assert r.final_objective < f0
        f, _ = objective_value(r.final_weights, X, Y, cfg)
        assert f == pytest.approx(r.final_objective, rel=1e-12)

    def test_deterministic(self):
        w, X, Y, cfg = make_problem([5, 1], 3, 25, seed=11)
        stop = StoppingCriteria(time_limit_seconds=None, max_inner_iters=40)
        r1 = lbfgs_baseline_run(w, X, Y, cfg, LbfgsParams(), stop)
        r2 = lbfgs_baseline_run(w, X, Y, cfg, LbfgsParams(), stop)
        assert r1.final_weights.digest() == r2.final_weights.digest()
        assert r1.trajectory == r2.trajectory

    def test_stationary_start(self):
        w, X, _, _ = make_problem([4, 1], 3, 20, seed=12)
        Y, _ = forward(w, X)
        cfg = ObjectiveConfig(rho=0.0, sample_count=20)
        stop = StoppingCriteria(time_limit_seconds=None, max_inner_iters=40)
        r = lbfgs_baseline_run(w, X, Y, cfg, LbfgsParams(), stop)
        assert r.stop_reason == "grad_norm"
        assert r.inner_iterations == 0


@st.composite
def block_trial(draw):
    """A small problem, a block index l and an arbitrary new block for it."""
    widths = draw(st.lists(st.integers(1, 5), min_size=1, max_size=5))
    rho = draw(st.sampled_from([0.0, 1e-3, 0.37]))
    w, X, Y, cfg = make_problem(widths, draw(st.integers(1, 4)),
                                draw(st.integers(1, 7)),
                                draw(st.integers(0, 2**16)), rho=rho)
    l = draw(st.integers(1, w.num_layers))
    r, c = w.arch.block_shape(l)
    values = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
    W = np.array(draw(st.lists(values, min_size=r * c, max_size=r * c)))
    return w, X, Y, cfg, l, W.reshape(r, c)


@settings(max_examples=60, deadline=None)
@given(block_trial())
def test_block_eval_matches_objective_after_set_block(case):
    """B2LD's block closures agree with the full objective and block_gradient
    at the point reached by set_block(l, W). The gradient and, without a
    regularizer, the value are bitwise equal; with one, the closures update
    ||w||^2 by difference, so the value agrees to rounding of that sum. The
    start pair equals the closure at the current block bit for bit, and the
    closures leave the main cache's outputs as they were."""
    w, X, Y, cfg, l, W = case
    _, cache = forward(w, X)
    outputs = [z.copy() for z in cache.z]
    base_sq = weights_squared_norm(w)
    value, evaluate, (f_start, g_start), _ = _block_eval(
        w, cache, cache.sibling(), Y, cfg, l, base_sq)
    f_here, grad_here = evaluate(w.block(l).copy())
    assert f_start == f_here and np.array_equal(g_start, grad_here())
    f_value = value(W)
    f_pair, grad = evaluate(W)
    grad = grad()
    assert all(np.array_equal(a, b) for a, b in zip(cache.z, outputs))

    w.set_block(l, W)
    f_ref, _ = objective_value(w, X, Y, cfg)
    _, cache_ref = forward(w, X)
    assert f_value == f_pair
    assert np.array_equal(grad, block_gradient(w, Y, cfg, l, cache_ref))
    if cfg.rho == 0.0:
        assert f_value == f_ref
    else:
        sq_scale = cfg.rho * (base_sq + float(np.sum(W * W)))
        assert f_value == pytest.approx(f_ref, rel=1e-12, abs=1e-13 * sq_scale)


def check_commits(w, X, Y, cfg, gamma, rule_kind="backward", seed=0):
    """Run B2LD and, after every commit, compare the main cache with a fresh
    forward pass bit for bit. Returns how many commits took over the trial
    cache's outputs ("adopted") and how many propagated ("propagated")."""
    paths = Counter()
    real_block_eval = batch._block_eval
    real_forward_partial = batch.forward_partial

    def checking_block_eval(weights, cache, trial, *args):
        value, evaluate, start, commit = real_block_eval(weights, cache, trial,
                                                         *args)

        def checked_commit(Wl):
            before = paths["forward_partial"]
            commit(Wl)
            paths["propagated" if paths["forward_partial"] > before
                  else "adopted"] += 1
            _, fresh = forward(weights, cache.z[0])
            assert [z.tobytes() for z in cache.z[1:]] == \
                [z.tobytes() for z in fresh.z[1:]]
            assert cache.versions == weights.versions()
        return value, evaluate, start, checked_commit

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(batch, "_block_eval", checking_block_eval)
        mp.setattr(batch, "forward_partial", counted(
            real_forward_partial, paths, "forward_partial"))
        r = run_b2ld(w, X, Y, cfg, max_cycles=4, rule_kind=rule_kind,
                     seed=seed, acceptance=AcceptanceParams(
                         armijo=ArmijoParams(gamma=gamma)))
    assert paths["adopted"] + paths["propagated"] == \
        sum(r.layer_update_counts)
    return paths


@st.composite
def b2ld_problem(draw):
    """A small problem, a block order and an Armijo coefficient; 0.1 and 0.3
    make the forcing condition reject inner L-BFGS results often."""
    widths = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    w, X, Y, cfg = make_problem(widths, draw(st.integers(1, 4)),
                                draw(st.integers(1, 12)),
                                draw(st.integers(0, 2**16)),
                                rho=draw(st.sampled_from([0.0, 1e-3])))
    return (w, X, Y, cfg, draw(st.sampled_from([1e-4, 0.1, 0.3])),
            draw(st.sampled_from(["backward", "forward", "random"])))


@settings(max_examples=40, deadline=None)
@given(b2ld_problem())
def test_every_b2ld_commit_leaves_the_cache_equal_to_a_fresh_forward(case):
    w, X, Y, cfg, gamma, rule_kind = case
    check_commits(w, X, Y, cfg, gamma, rule_kind)


def test_commit_check_covers_adoption_and_propagation():
    w, X, Y, cfg = make_problem([3, 2], 2, 10, seed=0)
    paths = check_commits(w, X, Y, cfg, gamma=0.1)
    assert paths["adopted"] > 0 and paths["propagated"] > 0


class TestNonFinite:
    """One infinite weight makes f infinite; both batch drivers stop with
    reason "non_finite" instead of raising on a NaN slope."""

    def problem(self):
        w, X, Y, cfg = make_problem([4, 4, 1], 3, 20, seed=13)
        W = w.block(1).copy()
        W[0, 0] = np.inf
        w.set_block(1, W)
        return w, X, Y, cfg

    def test_b2ld(self):
        r = run_b2ld(*self.problem(), max_cycles=5)
        assert r.stop_reason == "non_finite"
        assert r.layer_update_counts == [0, 0, 0]
        assert r.final_objective == np.inf

    def test_lbfgs(self):
        stop = StoppingCriteria(time_limit_seconds=None, max_inner_iters=10)
        r = lbfgs_baseline_run(*self.problem(), LbfgsParams(), stop)
        assert r.stop_reason == "non_finite"
        assert r.inner_iterations == 0
        assert r.final_objective == np.inf
