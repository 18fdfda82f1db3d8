import types

import numpy as np
import pytest

import layeropt.batch as batch
import layeropt.minibatch as minibatch
from conftest import make_problem
from layeropt.batch import StoppingCriteria
from layeropt.minibatch import (BlingParams, MinibatchSelectionRule, Partition,
                                bling_run, clamped_scale, ig_run,
                                make_partition, stepsize_update)
from layeropt.network import ForwardCache, forward, forward_partial
from layeropt.objective import (ObjectiveConfig, block_gradient, full_gradient,
                                gradient_norm, objective_value)


def epochs(n):
    return StoppingCriteria(time_limit_seconds=None, max_epochs=n)


class TestPartition:
    def test_sizes_4_4_2(self):
        part = make_partition(10, 4)
        assert [len(b) for b in part.batches] == [4, 4, 2]
        assert np.array_equal(np.concatenate(part.batches), np.arange(10))

    def test_single_batch_degenerate(self):
        part = make_partition(7, 7)
        assert part.num_batches == 1

    def test_shuffle_reproducible_and_covering(self):
        p1 = make_partition(20, 6, seed=3, shuffle=True)
        p2 = make_partition(20, 6, seed=3, shuffle=True)
        for b1, b2 in zip(p1.batches, p2.batches):
            assert np.array_equal(b1, b2)
        assert sorted(np.concatenate(p1.batches).tolist()) == list(range(20))

    def test_batch_size_out_of_range(self):
        with pytest.raises(ValueError):
            make_partition(5, 0)
        with pytest.raises(ValueError):
            make_partition(5, 6)

    def test_empty_batch_rejected(self):
        """A minibatch component needs at least one row; Partition is where
        an empty batch is turned away, and so is a partition of no batches."""
        with pytest.raises(ValueError):
            Partition(batches=(np.arange(3), np.arange(0)))
        with pytest.raises(ValueError):
            Partition(batches=())


class TestSelectionRules:
    def test_incremental_fixed_across_epochs(self):
        rule = MinibatchSelectionRule("incremental")
        assert rule.epoch_order(4) == [0, 1, 2, 3]

    def test_unknown_rule_rejected(self):
        for kind in ("alphabetical", "stochastic",
                     "random_without_replacement"):
            with pytest.raises(ValueError):
                MinibatchSelectionRule(kind)


class TestStepsize:
    def test_no_decay_when_eps_zero(self):
        assert stepsize_update(0.5, 0.0) == 0.5

    def test_hand_value(self):
        assert stepsize_update(0.5, 5e-3) == 0.5 * (1 - 0.0025) == 0.49875

    def test_positive_strictly_decreasing_10k(self):
        alpha = 0.5
        for _ in range(10_000):
            nxt = stepsize_update(alpha, 5e-3)
            assert 0.0 < nxt < alpha
            alpha = nxt

    def test_drops_below_1e3_within_1e6_iterations(self):
        # closed form alpha_k ~ 1/(2 + eps*k): the 1e-3 level needs ~2e5 steps
        alpha, k = 0.5, 0
        while alpha >= 1e-3:
            alpha = stepsize_update(alpha, 5e-3)
            k += 1
            assert k <= 10 ** 6
        assert alpha < 1e-3

    def test_default_alpha0_scaling(self):
        assert BlingParams.default_alpha0(1) == 0.5
        assert BlingParams.default_alpha0(3) == 0.5
        assert BlingParams.default_alpha0(12) == 0.05


class TestClampedScale:
    def test_interior(self):
        assert clamped_scale(10.0, 1e-3, 1e6) == 10.0

    def test_floor(self):
        assert clamped_scale(1e-9, 1e-3, 1e6) == 1e-3

    def test_ceiling(self):
        assert clamped_scale(1e9, 1e-3, 1e6) == 1e6


class TestBling:
    def test_deterministic(self):
        w, X, Y, cfg = make_problem([4, 3, 1], 3, 24, seed=1)
        part = make_partition(24, 8)
        rule = MinibatchSelectionRule("incremental")
        r1 = bling_run(w, X, Y, cfg, part, rule, BlingParams(), epochs(3))
        r2 = bling_run(w, X, Y, cfg, part, rule, BlingParams(), epochs(3))
        assert r1.final_weights.digest() == r2.final_weights.digest()

    def test_fixed_point_at_perfect_fit(self, monkeypatch):
        monkeypatch.setattr(minibatch, "EPS_DIM", 0.0)
        w, X, _, _ = make_problem([4, 2, 1], 3, 16, seed=2)
        Y, _ = forward(w, X)
        cfg = ObjectiveConfig(rho=0.0, sample_count=16)
        part = make_partition(16, 16)
        r = bling_run(w, X, Y, cfg, part,
                      MinibatchSelectionRule("incremental"),
                      BlingParams(), epochs(5))
        assert r.final_weights.digest() == w.digest()

    def test_h1_one_epoch_matches_hand_rolled_loop(self):
        w, X, Y, cfg = make_problem([5, 3, 1], 4, 20, seed=3)
        part = make_partition(20, 20)
        params = BlingParams(alpha0=0.25)
        r = bling_run(w, X, Y, cfg, part,
                      MinibatchSelectionRule("incremental"), params, epochs(1))

        # hand-rolled: one backward pass of clamped normalized full-batch steps
        hand = w.copy()
        _, cache = forward(hand, X)
        batch = np.arange(20)
        for l in (3, 2, 1):
            d = block_gradient(hand, Y, cfg.component(20), l, cache)
            import math
            div = max(minibatch.CLAMP_LO,
                      min(minibatch.CLAMP_HI, math.sqrt(float(np.dot(d.ravel(), d.ravel())))))
            hand.set_block(l, hand.block(l) - (params.alpha0 / div) * d)
            forward_partial(hand, cache, l)
        assert r.final_weights.digest() == hand.digest()

    def test_cache_reuse_equals_fresh_forward(self):
        # the invariant behind the driver's partial forwards
        w, X, Y, cfg = make_problem([4, 4, 2], 3, 12, seed=4)
        _, cache = forward(w, X)
        for l in (3, 2, 1):
            d = block_gradient(w, Y, cfg.component(12), l, cache)
            w.set_block(l, w.block(l) - 0.1 * d)
            out_partial, _ = forward_partial(w, cache, l)
            out_full, _ = forward(w, X)
            assert np.array_equal(out_partial, out_full)

    def test_epoch_coverage_incremental(self):
        part = make_partition(17, 5)
        rule = MinibatchSelectionRule("incremental")
        seen = np.concatenate([part.batches[h] for h in rule.epoch_order(part.num_batches)])
        assert sorted(seen.tolist()) == list(range(17))

    def test_update_counts_per_epoch(self):
        w, X, Y, cfg = make_problem([4, 1], 3, 20, seed=5)
        part = make_partition(20, 5)  # H=4
        r = bling_run(w, X, Y, cfg, part,
                      MinibatchSelectionRule("incremental"), BlingParams(),
                      epochs(3))
        assert r.layer_update_counts == [12, 12]  # H * epochs per layer
        assert r.inner_iterations == 12
        assert r.stop_reason == "max_epochs"

    def test_effective_step_bound(self):
        # ||delta_w|| = alpha * ||d|| / clamp(||d||) lies in
        # [alpha*||d||/beta_hi, alpha*||d||/beta_lo]
        w, X, Y, cfg = make_problem([4, 2], 3, 10, seed=6)
        params = BlingParams(alpha0=0.3)
        _, cache = forward(w, X)
        for l in (2, 1):
            d = block_gradient(w, Y, cfg.component(10), l, cache)
            dn = float(np.linalg.norm(d))
            before = w.block(l).copy()
            div = clamped_scale(dn, minibatch.CLAMP_LO, minibatch.CLAMP_HI)
            w.set_block(l, before - (params.alpha0 / div) * d)
            step = float(np.linalg.norm(w.block(l) - before))
            assert step <= params.alpha0 / minibatch.CLAMP_LO * dn + 1e-15
            assert step >= params.alpha0 / minibatch.CLAMP_HI * dn - 1e-15
            forward_partial(w, cache, l)


class TestIg:
    def test_zero_gradient_start_no_movement(self, monkeypatch):
        monkeypatch.setattr(minibatch, "EPS_DIM", 0.0)
        w, X, _, _ = make_problem([3, 1], 2, 12, seed=7)
        Y, _ = forward(w, X)
        cfg = ObjectiveConfig(rho=0.0, sample_count=12)
        part = make_partition(12, 12)
        r = ig_run(w, X, Y, cfg, part, MinibatchSelectionRule("incremental"),
                   BlingParams(), epochs(4))
        assert r.final_weights.digest() == w.digest()

    def test_h1_unclamped_step_is_plain_gradient_step(self, monkeypatch):
        # beta_lo = beta_hi = 1 disables normalization entirely
        monkeypatch.setattr(minibatch, "CLAMP_LO", 1.0)
        monkeypatch.setattr(minibatch, "CLAMP_HI", 1.0)
        w, X, Y, cfg = make_problem([4, 2], 3, 15, seed=8)
        part = make_partition(15, 15)
        params = BlingParams(alpha0=0.1)
        r = ig_run(w, X, Y, cfg, part, MinibatchSelectionRule("incremental"),
                   params, epochs(1))
        hand = w.copy()
        _, cache = forward(hand, X)
        grads = full_gradient(hand, Y, cfg.component(15), cache)
        for l in (1, 2):
            hand.set_block(l, hand.block(l) - params.alpha0 * grads[l - 1])
        assert r.final_weights.digest() == hand.digest()

    def test_h1_clamped_step_matches_hand_loop(self):
        w, X, Y, cfg = make_problem([5, 1], 3, 18, seed=9)
        part = make_partition(18, 18)
        params = BlingParams(alpha0=0.5)
        r = ig_run(w, X, Y, cfg, part, MinibatchSelectionRule("incremental"),
                   params, epochs(1))
        hand = w.copy()
        _, cache = forward(hand, X)
        grads = full_gradient(hand, Y, cfg.component(18), cache)
        import math
        total = math.sqrt(sum(float(np.dot(g.ravel(), g.ravel())) for g in grads))
        div = clamped_scale(total, minibatch.CLAMP_LO, minibatch.CLAMP_HI)
        for l in (1, 2):
            hand.set_block(l, hand.block(l) - (params.alpha0 / div) * grads[l - 1])
        assert r.final_weights.digest() == hand.digest()

    def test_single_block_degeneracy_bitwise(self):
        # L=1: one block is all the weights, so BLInG and IG coincide exactly
        w, X, Y, cfg = make_problem([2], 4, 30, seed=10, rho=1e-3)
        part = make_partition(30, 7)
        rule = MinibatchSelectionRule("incremental")
        params = BlingParams(alpha0=0.5)
        rb = bling_run(w, X, Y, cfg, part, rule, params, epochs(3))
        ri = ig_run(w, X, Y, cfg, part, rule, params, epochs(3))
        assert rb.final_weights.digest() == ri.final_weights.digest()
        assert rb.final_objective == ri.final_objective

    def test_both_drivers_descend_on_a_real_problem(self):
        w, X, Y, cfg = make_problem([6, 4, 1], 4, 60, seed=11)
        f0, _ = objective_value(w, X, Y, cfg)
        part = make_partition(60, 15)
        rule = MinibatchSelectionRule("incremental")
        rb = bling_run(w, X, Y, cfg, part, rule,
                       BlingParams(alpha0=BlingParams.default_alpha0(3)),
                       epochs(30))
        ri = ig_run(w, X, Y, cfg, part, rule, BlingParams(), epochs(30))
        assert rb.final_objective < f0
        assert ri.final_objective < f0


@pytest.mark.parametrize("driver,step", [(bling_run, minibatch._bling_step),
                                         (ig_run, minibatch._ig_step)])
def test_one_minibatch_run_uses_the_component_config(driver, step):
    """A minibatch of all P rows is f_B under cfg.component(P), not cfg: at
    rho = 0.1, P = 3 the two rhos differ in the last bit, and so do the
    steps they give; the run takes the component's."""
    w, X, Y, cfg = make_problem([4, 2, 1], 2, 3, seed=12, rho=0.1)
    component = cfg.component(3)
    assert component.rho != cfg.rho
    params = BlingParams(alpha0=0.5)
    r = driver(w, X, Y, cfg, make_partition(3, 3),
               MinibatchSelectionRule("incremental"), params, epochs(1))
    digests = []
    for c in (component, cfg):
        hand = w.copy()
        _, cache = forward(hand, X)
        assert step(hand, cache, Y, c, params.alpha0)
        digests.append(hand.digest())
    assert digests[0] != digests[1]
    assert r.final_weights.digest() == digests[0]


class TestRunBuffers:
    @pytest.mark.parametrize("driver", [bling_run, ig_run])
    def test_rows_gathered_and_caches_allocated_once_per_run(self, driver,
                                                             monkeypatch):
        """A run allocates one cache per distinct minibatch size and none of
        all P rows, however many epochs it takes, and every visit of a
        minibatch, the final evaluation's included, propagates the same
        gathered rows."""
        w, X, Y, cfg = make_problem([4, 3, 1], 3, 20, seed=7)
        part = make_partition(20, 8)  # sizes 8, 8, 4
        allocated, inputs = [], []
        for_rows = ForwardCache.for_rows
        monkeypatch.setattr(ForwardCache, "for_rows", classmethod(
            lambda cls, arch, rows: allocated.append(rows) or for_rows(arch, rows)))

        def recording_forward(weights, X, cache=None):
            inputs.append(X)
            return forward(weights, X, cache)
        monkeypatch.setattr(minibatch, "forward", recording_forward)
        r = driver(w, X, Y, cfg, part, MinibatchSelectionRule("incremental"),
                   BlingParams(), epochs(3))
        assert r.inner_iterations == 9
        assert sorted(allocated) == [4, 8]
        assert len(inputs) == 12  # 3 epochs and the final pass, 3 each
        assert all(inputs[i] is inputs[i % 3] for i in range(12))


@pytest.mark.parametrize("driver", [bling_run, ig_run])
@pytest.mark.parametrize("batch_size", [8, 20])  # sizes 8, 8, 4; one of 20
def test_final_values_match_a_fresh_evaluation(driver, batch_size):
    """The final objective and gradient norm, summed over the partition's
    components, match one evaluation over all rows to rounding; with one
    minibatch they are that of `component(P)` exactly."""
    w, X, Y, cfg = make_problem([4, 3, 1], 3, 20, seed=16, rho=0.1)
    r = driver(w, X, Y, cfg, make_partition(20, batch_size),
               MinibatchSelectionRule("incremental"), BlingParams(), epochs(2))
    wf = r.final_weights
    for c in (cfg, cfg.component(20)):
        f, _ = objective_value(wf, X, Y, c)
        _, cache = forward(wf, X)
        gnorm = gradient_norm(full_gradient(wf, Y, c, cache))
        assert r.final_objective == pytest.approx(f, rel=1e-12, abs=0)
        assert r.final_grad_norm == pytest.approx(gnorm, rel=1e-12, abs=0)
    if batch_size == 20:
        assert (r.final_objective, r.final_grad_norm) == (f, gnorm)


@pytest.mark.parametrize("driver", [bling_run, ig_run])
@pytest.mark.parametrize("limit", [None, float("inf")])
def test_run_with_no_epoch_bound_refused(driver, limit, monkeypatch):
    """With no max_epochs and no finite time limit the epoch loop would
    never end; the run refuses it before its first forward pass."""
    def no_forward(*args):
        raise AssertionError("forward pass before the check")
    monkeypatch.setattr(minibatch, "forward", no_forward)
    w, X, Y, cfg = make_problem([4, 1], 3, 20, seed=17)
    stop = StoppingCriteria(time_limit_seconds=limit, max_epochs=None)
    with pytest.raises(ValueError, match="max_epochs.*time_limit_seconds"):
        driver(w, X, Y, cfg, make_partition(20, 5),
               MinibatchSelectionRule("incremental"), BlingParams(), stop)


@pytest.mark.parametrize("driver", [bling_run, ig_run])
def test_deadline_checked_after_every_step(driver, monkeypatch):
    """A deadline that passes during the first minibatch step stops the run
    after it, in the first of three epochs of four minibatches. The clock
    is the run ledger's, in batch.py."""
    clock = iter([0.0])
    monkeypatch.setattr(batch, "time", types.SimpleNamespace(
        monotonic=lambda: next(clock, 200.0)))
    w, X, Y, cfg = make_problem([4, 3, 1], 3, 20, seed=15)
    stop = StoppingCriteria(time_limit_seconds=100.0, max_epochs=3)
    r = driver(w, X, Y, cfg, make_partition(20, 5),
               MinibatchSelectionRule("incremental"), BlingParams(), stop)
    assert r.stop_reason == "time_limit"
    assert r.inner_iterations == 1 and r.layer_update_counts == [1, 1, 1]


class TestNonFinite:
    """One infinite weight makes a gradient norm infinite; both minibatch
    drivers stop with reason "non_finite" at that step, before it turns the
    weights into NaN, instead of running out their epochs."""

    def run(self, driver):
        w, X, Y, cfg = make_problem([4, 4, 1], 3, 20, seed=13)
        W = w.block(1).copy()
        W[0, 0] = np.inf
        w.set_block(1, W)
        rule = MinibatchSelectionRule("incremental")
        r = driver(w, X, Y, cfg, make_partition(20, 5), rule, BlingParams(),
                   epochs(3))
        assert r.stop_reason == "non_finite"
        assert r.inner_iterations == 0
        assert not np.isnan(r.final_weights.flatten()).any()
        assert r.final_weights.block(1)[0, 0] == np.inf

    def test_bling(self):
        self.run(bling_run)

    def test_ig(self):
        self.run(ig_run)
