import re
import tracemalloc
import types
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import layeropt.batch as batch
import layeropt.objective as objective
import layeropt.solvers as solvers
from conftest import count_callback_calls, counted, idle_cpu, make_problem
from layeropt.batch import (AcceptanceParams, BlockSelectionRule,
                            StoppingCriteria, _block_eval, accept_trial,
                            b2ld_run, lbfgs_baseline_run)
from layeropt.linalg import ShapeMismatchError
from layeropt.network import (ForwardCache, StaleCacheError, forward,
                              parse_architecture)
from layeropt.objective import (ObjectiveConfig, block_gradient,
                                full_gradient, gradient_norm, objective_value,
                                weights_squared_norm)
from layeropt.solvers import (ArmijoParams, LbfgsParams, LinesearchError,
                              llsq_last_layer)


class TestSelectionRules:
    def test_backward_order(self):
        assert BlockSelectionRule("backward").cycle(3) == [3, 2, 1]

    def test_unknown_kind_rejected(self):
        for kind in ("sideways", "forward", "random"):
            with pytest.raises(ValueError):
                BlockSelectionRule(kind)


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

    @pytest.mark.parametrize("sigma0", [-1.0, -1e-12, np.nan, -np.inf, True,
                                        "1e-4"])
    def test_sigma0_outside_0_to_gamma_over_a_rejected(self, sigma0):
        # a negative sigma0 was taken, and a NaN one failed every trial
        with pytest.raises(ValueError,
                           match=rf"^sigma0 {re.escape(repr(sigma0))} "):
            AcceptanceParams(sigma0=sigma0)

    @pytest.mark.parametrize("armijo, sigma0", [
        (ArmijoParams(), 0.0), (ArmijoParams(), 1e-8), (ArmijoParams(), 1e-4),
        (ArmijoParams(a=1e3, max_halvings=3), None),
        (ArmijoParams(a=1e8, max_halvings=0), None),
        (ArmijoParams(gamma=0.3), np.float64(0.3))])
    def test_sigma0_in_0_to_gamma_over_a_accepted(self, armijo, sigma0):
        p = AcceptanceParams(armijo, sigma0)
        assert p.sigma0 == (armijo.gamma / armijo.a if sigma0 is None
                            else sigma0)


def run_b2ld(w, X, Y, cfg, max_cycles=20, grad_tol=1e-3, f_tol=1e-4,
             acceptance=AcceptanceParams()):
    stop = StoppingCriteria(grad_norm_tol=grad_tol, f_tol=f_tol,
                            max_cycles=max_cycles, time_limit_seconds=None)
    return b2ld_run(w, X, Y, cfg, BlockSelectionRule("backward"), acceptance,
                    LbfgsParams(grad_tol=0.1, max_iters=30), stop)


class TestB2ld:
    @pytest.mark.parametrize("limit", [None, float("inf")])
    def test_run_that_may_never_end_refused_before_any_work(self, limit):
        """With f_tol < 0, no cap and no finite time limit a B2LD run may
        never end. b2ld_run refuses it first, before the forward pass that
        would refuse an X of the wrong width."""
        w, X, Y, cfg = make_problem([4, 3, 1], 3, 30, seed=14)
        stop = StoppingCriteria(grad_norm_tol=0.0, f_tol=-np.inf,
                                time_limit_seconds=limit)
        with pytest.raises(ValueError, match="^B2LD with f_tol -inf < 0 needs"):
            b2ld_run(w, X[:, :2], Y, cfg, BlockSelectionRule("backward"),
                     AcceptanceParams(), LbfgsParams(), stop)

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
        g = gradient_norm(full_gradient(r.final_weights, Y, cfg,
                                        forward(r.final_weights, X)[1]))
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
        r = run_b2ld(w, X, Y, cfg, max_cycles=6)
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
        """Five cycles in the backward order lower the objective."""
        w, X, Y, cfg = make_problem([5, 3, 1], 4, 30, seed=9)
        f0, _ = objective_value(w, X, Y, cfg)
        r = run_b2ld(w, X, Y, cfg, max_cycles=5)
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
        """B2LD itself calls the block trial closure only inside its Armijo
        searches and its inner solves: the reference point's f is the
        search's last trial's and is never evaluated again."""
        w, X, Y, cfg = make_problem([6, 4, 3, 1], 4, 40, seed=2)
        tally = Counter()
        count_callback_calls(monkeypatch, batch, "armijo_linesearch", tally,
                             "phi")
        count_callback_calls(monkeypatch, batch, "lbfgs_minimize_block", tally,
                             "inner")
        block_eval = batch._block_eval

        def counting_block_eval(*args):
            evaluate, start, commit = block_eval(*args)
            return counted(evaluate, tally, "evaluate"), start, commit
        monkeypatch.setattr(batch, "_block_eval", counting_block_eval)
        r = run_b2ld(w, X, Y, cfg, max_cycles=4, grad_tol=0.0, f_tol=-np.inf)
        assert sum(r.layer_update_counts) > 0
        assert tally["phi"] > 0 and tally["inner"] > 0
        assert tally["evaluate"] == tally["phi"] + tally["inner"]

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
        """Every block trial propagates through forward_partial, and so does
        a commit whose block differs, bit for bit, from the one the latest
        trial left in the weights; no other propagation runs, so the Armijo
        point is not propagated again after its own trial. A forcing
        coefficient of 0.1 makes B2LD reject some inner L-BFGS results for
        the Armijo point, which exercises both kinds of commit."""
        w, X, Y, cfg = make_problem([3, 2], 2, 10, seed=0)
        tally = Counter()
        monkeypatch.setattr(batch, "forward_partial", counted(
            batch.forward_partial, tally, "forward_partial"))
        count_callback_calls(monkeypatch, batch, "armijo_linesearch", tally,
                             "phi")
        count_callback_calls(monkeypatch, batch, "lbfgs_minimize_block", tally,
                             "inner")
        block_eval = batch._block_eval

        def classifying_block_eval(weights, cache, Y, cfg, l, base_sq):
            evaluate, start, commit = block_eval(weights, cache, Y, cfg, l,
                                                 base_sq)

            def classified_commit(Wl):
                same = Wl.tobytes() == weights.block(l).tobytes()
                tally["same" if same else "differs"] += 1
                return commit(Wl)
            return evaluate, start, classified_commit
        monkeypatch.setattr(batch, "_block_eval", classifying_block_eval)
        r = run_b2ld(w, X, Y, cfg, max_cycles=6, acceptance=AcceptanceParams(
            armijo=ArmijoParams(gamma=0.1)))
        assert tally["same"] + tally["differs"] == sum(r.layer_update_counts)
        assert tally["same"] > 0 and tally["differs"] > 0
        assert tally["forward_partial"] == \
            tally["phi"] + tally["inner"] + tally["differs"]

    @pytest.mark.parametrize("stop, reason, cycles", [
        (dict(max_cycles=3), "max_cycles", 3),
        (dict(max_cycles=5, acceptance=AcceptanceParams(
            ArmijoParams(a=1e8, max_halvings=0))), "f_tol", 1)])
    def test_b2ld_sweeps_the_full_gradient_once_per_cycle(
            self, monkeypatch, stop, reason, cycles):
        """The reported gradient norm is the one taken at the top of the
        last cycle: a run that stops there, or after a cycle that moved no
        block, sweeps the full gradient once per cycle started and no more.
        The second case fails every Armijo search, so its one cycle moves
        nothing."""
        w, X, Y, cfg = make_problem([4, 3, 1], 3, 30, seed=14)
        tally = Counter()
        monkeypatch.setattr(batch, "full_gradient", counted(
            batch.full_gradient, tally, "sweeps"))
        r = run_b2ld(w, X, Y, cfg, grad_tol=0.0, f_tol=-np.inf, **stop)
        assert r.stop_reason == reason
        assert tally["sweeps"] == cycles + (reason == "max_cycles")
        g = gradient_norm(full_gradient(r.final_weights, Y, cfg,
                                        forward(r.final_weights, X)[1]))
        assert g == r.final_grad_norm


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
        for evaluate, (_, g), _ in seen[:2]:  # blocks 4 and 3
            W = -0.5 * g
            assert warm_peak_bytes(lambda: evaluate(W)) < layer_bytes
            assert warm_peak_bytes(lambda: evaluate(W)[1]()) < layer_bytes

    def test_b2ld_run_holds_one_cache(self):
        """A whole B2LD run allocates its one forward cache and less than
        one more layer array: the block trials write into that cache."""
        w, X, Y, cfg = make_problem([40, 40, 40, 1], 6, 2000, seed=3)
        cache = ForwardCache.for_rows(w.arch, X.shape[0])
        held = {id(a): a for a in cache.z[1:] + cache.deltas + cache.slopes
                + list(cache.scratch.values()) if a is not None}
        cache_bytes = sum(a.nbytes for a in held.values())
        assert warm_peak_bytes(lambda: run_b2ld(w, X, Y, cfg, max_cycles=1)) \
            < cache_bytes + X.shape[0] * 40 * 8

    def test_b2ld_run_by_halves_holds_one_cache(self, monkeypatch):
        """The same bound with blocks 2 and 3 split, the cache's rows x 40
        scratch slope counted: a full gradient's products, formed on the
        helper beside the delta steps, hold no array of their own."""
        idle_cpu(monkeypatch)
        assert ForwardCache.for_rows(parse_architecture("6-[3x40]-1"),
                                     2000).split == (2, 3)
        self.test_b2ld_run_holds_one_cache()

    def test_lbfgs_run_holds_one_cache_and_its_pairs(self):
        """A whole L-BFGS run whose MEMORY curvature pairs are all held
        allocates, at peak, less than its one forward cache, those pairs
        and one more layer array. The cache is counted as it should be laid
        out: the layer outputs, one pair of rows x n buffers per hidden
        width n, the output layer's delta and, when layers split, the
        scratch slope. This fails at d22511d, whose
        cache held a third rows x 40 array: its peak of 4,687,704 B was
        above the bound of 4,428,800 B. The peak is now 4,020,336 B."""
        w, X, Y, cfg = make_problem([40, 40, 40, 1], 6, 2000, seed=3)
        steps = solvers.MEMORY + 4
        stop = StoppingCriteria(grad_norm_tol=0.0, f_tol=float("-inf"),
                                time_limit_seconds=None, max_inner_iters=steps)

        def run():
            assert lbfgs_baseline_run(w, X, Y, cfg, LbfgsParams(),
                                      stop).inner_iterations == steps
        widths = w.arch.layer_widths
        cache_bytes = X.shape[0] * 8 * (
            sum(widths) + 2 * sum(set(widths[:-1])) + widths[-1]) + sum(
            a.nbytes for a in ForwardCache.for_rows(
                w.arch, X.shape[0]).scratch.values())
        pair_bytes = 2 * solvers.MEMORY * w.arch.num_variables * 8
        assert warm_peak_bytes(run) \
            < cache_bytes + pair_bytes + X.shape[0] * 40 * 8

    def test_lbfgs_run_by_halves_holds_one_cache_and_its_pairs(
            self, monkeypatch):
        """The same bound with blocks 2 and 3 split, the cache's rows x 40
        scratch slope counted."""
        idle_cpu(monkeypatch)
        assert ForwardCache.for_rows(parse_architecture("6-[3x40]-1"),
                                     2000).split == (2, 3)
        self.test_lbfgs_run_holds_one_cache_and_its_pairs()


def test_drivers_refuse_targets_of_another_shape():
    """LBFGS computed a wrong f from the broadcast residual before its
    gradient failed inside numpy; now both drivers name the targets."""
    w, X, Y, cfg = make_problem([4, 4, 1], 3, 10, seed=0)
    stop = StoppingCriteria(time_limit_seconds=None, max_cycles=2,
                            max_inner_iters=5)
    for run in (lambda y: run_b2ld(w, X, y, cfg, max_cycles=2),
                lambda y: lbfgs_baseline_run(w, X, y, cfg, LbfgsParams(), stop)):
        with pytest.raises(ShapeMismatchError,
                           match=r"^targets: shapes \(10,\) "):
            run(Y.ravel())


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
    """A block trial at W sets block l to W and leaves the cache equal, bit
    for bit, to a fresh forward pass at the new weights. Its gradient and,
    without a regularizer, its value equal the full objective's and
    block_gradient's there bit for bit; with one, ||w||^2 is updated by
    difference, so the value agrees to rounding of that sum. The start pair
    equals the trial at the current block bit for bit. The block the visit
    started from is never written: committing it restores the weights and
    the cache, and committing the block the weights already hold changes
    nothing."""
    w, X, Y, cfg, l, W = case
    _, cache = forward(w, X)
    w_l = w.block(l)
    start_bytes = w_l.tobytes()
    base_sq = weights_squared_norm(w)
    evaluate, (f_start, g_start), commit = _block_eval(w, cache, Y, cfg, l,
                                                       base_sq)

    def check_fresh(cache):
        _, cache_ref = forward(w, X)
        assert [z.tobytes() for z in cache.z] == \
            [z.tobytes() for z in cache_ref.z]
        assert cache.versions == w.versions()
        return cache_ref

    f_here, grad_here = evaluate(w_l.copy())
    assert f_start == f_here and g_start.tobytes() == grad_here().tobytes()
    f_trial, grad = evaluate(W)
    grad = grad()
    assert w.block(l).tobytes() == W.tobytes()
    assert w_l.tobytes() == start_bytes
    cache_ref = check_fresh(cache)
    assert grad.tobytes() == block_gradient(w, Y, cfg, l, cache_ref).tobytes()
    f_ref, _ = objective_value(w, X, Y, cfg)
    if cfg.rho == 0.0:
        assert f_trial == f_ref
    else:
        sq_scale = cfg.rho * (base_sq + float(np.sum(W * W)))
        assert f_trial == pytest.approx(f_ref, rel=1e-12, abs=1e-13 * sq_scale)

    versions = w.versions()
    commit(W.copy())
    assert w.versions() == versions
    commit(w_l)
    assert w.block(l).tobytes() == start_bytes
    check_fresh(cache)


def test_block_trial_after_a_lower_block_changed_raises_stale_cache():
    """A block trial propagates from the cached output of the layer below
    it, so once a lower block has changed it refuses the stale cache
    instead of returning the objective of weights nobody holds."""
    w, X, Y, cfg = make_problem([4, 3, 1], 3, 20, seed=15)
    _, cache = forward(w, X)
    evaluate, _, _ = _block_eval(w, cache, Y, cfg, 2, weights_squared_norm(w))
    w.set_block(1, w.block(1) + 0.5)
    with pytest.raises(StaleCacheError):
        evaluate(w.block(2) - 0.1)


def check_commits(w, X, Y, cfg, armijo):
    """Run B2LD with the reference step `armijo` and compare the main cache
    with a fresh forward pass bit for bit after every block trial, after
    every commit, restores after a failed Armijo search included, and at the
    start of every block visit. Returns how many commits kept the latest
    trial's outputs ("adopted"), how many propagated ("propagated") and how
    many searches failed ("failed")."""
    paths = Counter()
    real_block_eval = batch._block_eval
    real_forward_partial = batch.forward_partial
    real_search = batch.armijo_linesearch

    def check_current(weights, cache):
        _, fresh = forward(weights, cache.z[0])
        assert [z.tobytes() for z in cache.z[1:]] == \
            [z.tobytes() for z in fresh.z[1:]]
        assert cache.versions == weights.versions()

    def checking_block_eval(weights, cache, Y, cfg, l, base_sq):
        check_current(weights, cache)
        evaluate, start, commit = real_block_eval(weights, cache, Y, cfg, l,
                                                  base_sq)

        def checked_evaluate(Wl):
            pair = evaluate(Wl)
            check_current(weights, cache)
            return pair

        def checked_commit(Wl):
            before = paths["forward_partial"]
            commit(Wl)
            paths["propagated" if paths["forward_partial"] > before
                  else "adopted"] += 1
            assert weights.block(l).tobytes() == Wl.tobytes()
            check_current(weights, cache)
        return checked_evaluate, start, checked_commit

    def counting_search(*args):
        try:
            return real_search(*args)
        except LinesearchError:
            paths["failed"] += 1
            raise

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(batch, "_block_eval", checking_block_eval)
        mp.setattr(batch, "forward_partial", counted(
            real_forward_partial, paths, "forward_partial"))
        mp.setattr(batch, "armijo_linesearch", counting_search)
        r = run_b2ld(w, X, Y, cfg, max_cycles=4,
                     acceptance=AcceptanceParams(armijo=armijo))
    assert paths["adopted"] + paths["propagated"] == \
        sum(r.layer_update_counts) + paths["failed"]
    return paths


# A first step of 1e3 with three halvings: the search fails on a block
# whose gradient is not small.
FAILING_ARMIJO = ArmijoParams(a=1e3, max_halvings=3)


@st.composite
def b2ld_problem(draw):
    """A small problem and a reference step: gamma = 0.1 and 0.3 make the
    forcing condition reject inner L-BFGS results often, and
    FAILING_ARMIJO makes searches fail."""
    widths = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    w, X, Y, cfg = make_problem(widths, draw(st.integers(1, 4)),
                                draw(st.integers(1, 12)),
                                draw(st.integers(0, 2**16)),
                                rho=draw(st.sampled_from([0.0, 1e-3])))
    return w, X, Y, cfg, draw(st.sampled_from([
        ArmijoParams(), ArmijoParams(gamma=0.1), ArmijoParams(gamma=0.3),
        FAILING_ARMIJO]))


@settings(max_examples=40, deadline=None)
@given(b2ld_problem())
def test_every_b2ld_commit_leaves_the_cache_equal_to_a_fresh_forward(case):
    check_commits(*case)


def test_commit_check_covers_adoption_and_propagation():
    w, X, Y, cfg = make_problem([3, 2], 2, 10, seed=0)
    paths = check_commits(w, X, Y, cfg, ArmijoParams(gamma=0.1))
    assert paths["adopted"] > 0 and paths["propagated"] > 0


def test_commit_check_covers_failed_searches():
    """Visits whose Armijo search fails restore their block and leave the
    cache as a fresh forward pass would, between visits that commit."""
    w, X, Y, cfg = make_problem([5, 4, 1], 3, 20, seed=0)
    paths = check_commits(w, X, Y, cfg, FAILING_ARMIJO)
    assert paths["failed"] > 0
    assert paths["adopted"] + paths["propagated"] > paths["failed"]


class TestStopPaths:
    """Stops that the budgets of the other tests never reach. The clocks are
    fake: batch.py's reads come from a list and then jump past the deadline,
    and the inner solves read a clock that never passes it."""

    def fake_clock(self, monkeypatch, reads_before_deadline):
        clock = iter([0.0] * reads_before_deadline)
        monkeypatch.setattr(batch, "time", types.SimpleNamespace(
            monotonic=lambda: next(clock, 200.0)))
        monkeypatch.setattr(solvers, "time", types.SimpleNamespace(
            monotonic=lambda: 0.0))

    def run_b2ld(self, acceptance=AcceptanceParams(), time_limit=100.0):
        w, X, Y, cfg = make_problem([4, 3, 1], 3, 30, seed=14)
        stop = StoppingCriteria(grad_norm_tol=0.0, f_tol=float("-inf"),
                                time_limit_seconds=time_limit, max_cycles=3)
        return w, b2ld_run(w, X, Y, cfg, BlockSelectionRule("backward"),
                           acceptance, LbfgsParams(grad_tol=0.1), stop)

    def test_b2ld_deadline_at_a_cycle_start(self, monkeypatch):
        """Read at the start, at the first cycle's start and after each of
        its three visits: the deadline passes before the second cycle."""
        self.fake_clock(monkeypatch, 5)
        _, r = self.run_b2ld()
        assert r.stop_reason == "time_limit"
        assert r.layer_update_counts == [1, 1, 1] and len(r.trajectory) == 4

    def test_b2ld_deadline_after_a_visit(self, monkeypatch):
        """The deadline passes during the first visit, to block 3: the run
        stops after it, with that one update counted."""
        self.fake_clock(monkeypatch, 2)
        _, r = self.run_b2ld()
        assert r.stop_reason == "time_limit"
        assert r.layer_update_counts == [0, 0, 1] and len(r.trajectory) == 2

    def test_b2ld_skips_a_visit_whose_linesearch_fails(self, monkeypatch):
        """A first trial step of 1e8 with no halving fails the Armijo search
        at every block: each visit is skipped, uncounted and without an inner
        solve, the cycle goes on to the next block, and a cycle without an
        update stops the run on f_tol."""
        tally = Counter()
        count_callback_calls(monkeypatch, batch, "armijo_linesearch", tally,
                             "trials")
        acceptance = AcceptanceParams(ArmijoParams(a=1e8, max_halvings=0))
        w, r = self.run_b2ld(acceptance, time_limit=None)
        assert r.stop_reason == "f_tol"
        assert tally["trials"] == 3
        assert r.layer_update_counts == [0, 0, 0] and r.inner_iterations == 0
        assert r.final_weights.digest() == w.digest()
        assert r.trajectory == [r.final_objective]

    def test_lbfgs_baseline_without_a_budget_stops_at_max_iters(self):
        w, X, Y, cfg = make_problem([4, 3, 1], 3, 30, seed=14)
        stop = StoppingCriteria(grad_norm_tol=0.0, f_tol=float("-inf"),
                                time_limit_seconds=None)
        r = lbfgs_baseline_run(w, X, Y, cfg, LbfgsParams(max_iters=3), stop)
        assert stop.max_inner_iters is None
        assert r.stop_reason == "iteration_budget"
        assert r.inner_iterations == 3 and len(r.trajectory) == 4


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
