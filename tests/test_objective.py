import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fd_block_gradient, make_problem, rel_error
from layeropt.batch import _block_eval
from layeropt.linalg import SeededRng, ShapeMismatchError
from layeropt.network import (Architecture, ForwardCache, NetworkWeights,
                              StaleCacheError, forward, forward_partial,
                              init_weights, sigmoid, sigmoid_prime)
from layeropt.objective import (ObjectiveConfig, backprop_deltas,
                                block_gradient, cached_value, default_rho,
                                flat_gradient, full_gradient, gradient_norm,
                                mse_value, objective_value,
                                weights_squared_norm)


class TestObjectiveValue:
    def test_perfect_fit_is_zero(self):
        w, X, _, _ = make_problem([4, 1], 3, 8, seed=1)
        Y, _ = forward(w, X)
        cfg = ObjectiveConfig(rho=0.0, sample_count=8)
        f, mse = objective_value(w, X, Y, cfg)
        assert f == 0.0 and mse == 0.0

    def test_hand_evaluation_scalar(self):
        # L=1, w=1, x=1, y=2, rho=1, P=1: (1-2)^2 + 1*1 = 2
        arch = Architecture(1, (1,))
        w = NetworkWeights(arch, [np.array([[1.0]])])
        f, mse = objective_value(w, np.array([[1.0]]), np.array([[2.0]]),
                                 ObjectiveConfig(rho=1.0, sample_count=1))
        assert f == 2.0 and mse == 1.0

    def test_matches_per_sample_loop_oracle(self):
        w, X, Y, cfg = make_problem([5, 3, 2], 4, 10, seed=7, rho=0.01)
        total = 0.0
        for p in range(X.shape[0]):
            out, _ = forward(w, X[p:p + 1])
            total += float(np.sum((out - Y[p:p + 1]) ** 2))
        total /= cfg.sample_count
        reg = sum(float(np.sum(w.block(l) ** 2)) for l in range(1, 3 + 1))
        f, mse = objective_value(w, X, Y, cfg)
        assert f == pytest.approx(total + cfg.rho * reg, rel=1e-12)
        assert mse == pytest.approx(total, rel=1e-12)

    def test_default_rho(self):
        assert default_rho(1000) == 1e-6


class TestBlockGradient:
    def test_perfect_fit_zero_gradient(self):
        w, X, _, _ = make_problem([4, 2, 1], 3, 6, seed=2)
        Y, cache = forward(w, X)
        cfg = ObjectiveConfig(rho=0.0, sample_count=6)
        for l in range(1, 4):
            assert np.all(block_gradient(w, Y, cfg, l, cache) == 0.0)

    def test_regularizer_only(self):
        w, X, _, _ = make_problem([4, 1], 3, 6, seed=3)
        Y, cache = forward(w, X)
        cfg = ObjectiveConfig(rho=0.05, sample_count=6)
        for l in (1, 2):
            g = block_gradient(w, Y, cfg, l, cache)
            assert np.array_equal(g, 2 * cfg.rho * w.block(l))

    def test_finite_difference_oracle_3_4_2_1(self):
        w, X, Y, cfg = make_problem([4, 2, 1], 3, 8, seed=5, rho=1e-3)
        _, cache = forward(w, X)
        for l in range(1, 4):
            g = block_gradient(w, Y, cfg, l, cache)
            fd = fd_block_gradient(w, X, Y, cfg, l)
            assert rel_error(g, fd) <= 1e-5
            _, cache = forward(w, X)  # fd sweep bumps versions

    def test_stale_cache_rejected(self):
        w, X, Y, cfg = make_problem([4, 1], 3, 5, seed=6)
        _, cache = forward(w, X)
        w.set_block(1, w.block(1) * 2.0)
        with pytest.raises(StaleCacheError):
            block_gradient(w, Y, cfg, 1, cache)
        with pytest.raises(StaleCacheError):
            full_gradient(w, Y, cfg, cache)
        with pytest.raises(StaleCacheError):
            flat_gradient(w, Y, cfg, cache)
        with pytest.raises(StaleCacheError):
            cached_value(w, cache, Y, cfg)

    @pytest.mark.parametrize("other", ["another draw", "a copy"])
    @pytest.mark.parametrize("entry", [
        "block_gradient", "full_gradient", "cached_value", "forward_partial"])
    def test_cache_filled_by_other_weights_rejected(self, other, entry):
        """Each net's blocks carried the version tags (0, ..., 0), so a cache
        filled by one init_weights draw passed as current for another, and
        block_gradient mixed w1's activations with w2's blocks."""
        w1, X, Y, cfg = make_problem([4, 3, 1], 3, 6, seed=21)
        _, cache = forward(w1, X)
        w2 = init_weights(w1.arch, SeededRng(22)) if other == "another draw" \
            else w1.copy()
        calls = {"block_gradient": lambda w: block_gradient(w, Y, cfg, 2, cache),
                 "full_gradient": lambda w: full_gradient(w, Y, cfg, cache),
                 "cached_value": lambda w: cached_value(w, cache, Y, cfg),
                 "forward_partial": lambda w: forward_partial(w, cache, 2)}
        with pytest.raises(StaleCacheError):
            calls[entry](w2)
        calls[entry](w1)

    def test_delta_recursion_stops_at_block(self):
        """A sweep down to block l forms the deltas of layers L..l and the
        products of the blocks above l, and touches nothing below l: with
        the outputs, weight blocks and delta buffers of the layers below l
        filled with NaN, it returns the bits of a clean sweep and those
        buffers stay NaN."""
        w, X, Y, cfg = make_problem([3, 3, 3, 1], 2, 5, seed=8)
        _, cache = forward(w, X)
        L = w.num_layers
        products = {l: np.empty(w.arch.block_shape(l))
                    for l in range(1, L + 1)}
        backprop_deltas(w, cache, Y, 1, products)
        for l in range(1, L + 1):
            want = backprop_deltas(w, cache, Y, l).tobytes()
            poisoned_w = w.copy()
            for j in range(1, l + 1):
                poisoned_w.set_block(j, np.full(w.arch.block_shape(j), np.nan))
            below = [np.full_like(d, np.nan) for d in cache.deltas[1:l]]
            poisoned = ForwardCache(
                z=[np.full_like(z, np.nan) for z in cache.z[:l]] + cache.z[l:],
                deltas=[None] + below + cache.deltas[l:],
                slopes=cache.slopes)
            above = {j: np.empty(w.arch.block_shape(j))
                     for j in range(l + 1, L + 1)}
            got = backprop_deltas(poisoned_w, poisoned, Y, l, above)
            assert got is poisoned.deltas[l] and got.tobytes() == want
            assert all(np.isnan(d).all() for d in below)
            assert all(np.array_equal(g, products[j])
                       for j, g in above.items())

    @pytest.mark.parametrize("l", [0, 4, -1])
    def test_block_outside_1_to_L_rejected(self, l):
        # l = 0 failed deep in numpy, l = L + 1 with a bare IndexError
        w, X, Y, cfg = make_problem([3, 3, 1], 2, 5, seed=10)
        _, cache = forward(w, X)
        with pytest.raises(ValueError, match=f"{l} outside 1..3"):
            block_gradient(w, Y, cfg, l, cache)
        with pytest.raises(ValueError, match=f"down_to {l} outside 1..3"):
            backprop_deltas(w, cache, Y, l)

    @pytest.mark.parametrize("down_to, l", [(2, 1), (1, 4), (1, 0)])
    def test_product_outside_down_to_L_rejected(self, down_to, l):
        w, X, Y, cfg = make_problem([3, 3, 1], 2, 5, seed=10)
        _, cache = forward(w, X)
        with pytest.raises(ValueError,
                           match=f"products block {l} outside {down_to}..3"):
            backprop_deltas(w, cache, Y, down_to, {l: np.empty((3, 3))})

    def test_output_delta_is_raw_residual(self):
        w, X, Y, cfg = make_problem([3, 2], 2, 5, seed=9)
        _, cache = forward(w, X)
        delta = backprop_deltas(w, cache, Y, 2)
        assert np.array_equal(delta, cache.outputs - Y)

    @pytest.mark.parametrize("rho", [np.nan, np.inf, -np.inf, -1e-3])
    def test_non_finite_or_negative_rho_rejected(self, rho):
        with pytest.raises(ValueError, match="rho"):
            ObjectiveConfig(rho=rho, sample_count=5)

    @pytest.mark.parametrize("count", [True, False, 2.5, 0, -3, "5", None])
    def test_bad_sample_count_rejected(self, count):
        # a bool or a fraction was taken, and 1/P divided by it
        with pytest.raises(ValueError, match="sample_count"):
            ObjectiveConfig(rho=0.1, sample_count=count)

    def test_integer_sample_count_of_any_kind_accepted(self):
        assert ObjectiveConfig(0.1, np.int64(5)).sample_count == 5


def block_number_calls(w, cache, Y, cfg):
    """Each public call that takes a block number of the 2-[3,3]-1 net, as
    (the argument's name in an error, the call)."""
    return {
        "block_shape": ("layer", w.arch.block_shape),
        "block": ("layer", w.block),
        "set_block": ("layer", lambda l: w.set_block(l, np.zeros((3, 3)))),
        "forward_partial": ("from_layer",
                            lambda l: forward_partial(w, cache, l)),
        "backprop_deltas": ("down_to",
                            lambda l: backprop_deltas(w, cache, Y, l)),
        "products": ("products block", lambda l: backprop_deltas(
            w, cache, Y, 1, {l: np.empty((3, 3))})),
        "block_gradient": ("layer",
                           lambda l: block_gradient(w, Y, cfg, l, cache)),
    }


CALLS = ["block_shape", "block", "set_block", "forward_partial",
         "backprop_deltas", "products", "block_gradient"]


@pytest.mark.parametrize("call", CALLS)
@pytest.mark.parametrize("l", [2.0, True, 0, 4])
def test_block_number_no_integer_in_1_to_L_rejected(call, l):
    # 2.0 failed in indexing or, given to backprop_deltas, ran; True was
    # taken as block 1
    w, X, Y, cfg = make_problem([3, 3, 1], 2, 5, seed=10)
    _, cache = forward(w, X)
    name, fn = block_number_calls(w, cache, Y, cfg)[call]
    with pytest.raises(ValueError, match=re.escape(f"{name} {l} outside 1..3")):
        fn(l)


@pytest.mark.parametrize("call", CALLS)
def test_numpy_integer_block_number_accepted(call):
    w, X, Y, cfg = make_problem([3, 3, 1], 2, 5, seed=10)
    _, cache = forward(w, X)
    block_number_calls(w, cache, Y, cfg)[call][1](np.int64(2))


# Each public call that reads targets, given (weights, X, Y, cfg, cache).
TARGET_CALLS = {
    "cached_value": lambda w, X, Y, cfg, c: cached_value(w, c, Y, cfg),
    "objective_value": lambda w, X, Y, cfg, c: objective_value(w, X, Y, cfg),
    "mse_value": lambda w, X, Y, cfg, c: mse_value(w, X, Y),
    "backprop_deltas": lambda w, X, Y, cfg, c: backprop_deltas(w, c, Y, 1),
    "block_gradient": lambda w, X, Y, cfg, c: block_gradient(w, Y, cfg, 2, c),
    "full_gradient": lambda w, X, Y, cfg, c: full_gradient(w, Y, cfg, c),
    "flat_gradient": lambda w, X, Y, cfg, c: flat_gradient(w, Y, cfg, c),
}


@pytest.mark.parametrize("call", sorted(TARGET_CALLS))
@pytest.mark.parametrize("reshape", [np.ravel, np.transpose])
def test_targets_of_another_shape_rejected(call, reshape):
    """Targets of shape (10,) or (1, 10) against outputs of (10, 1): the
    values broadcast the residual to 10 x 10 and came out wrong, and the
    gradients failed inside numpy with a message that named nothing."""
    w, X, Y, cfg = make_problem([4, 4, 1], 3, 10, seed=0)
    _, cache = forward(w, X)
    bad = reshape(Y)
    with pytest.raises(ShapeMismatchError, match=re.escape(
            f"targets: shapes {bad.shape} and (10, 1) do not conform")):
        TARGET_CALLS[call](w, X, bad, cfg, cache)
    TARGET_CALLS[call](w, X, Y, cfg, cache)


@st.composite
def layered_instance(draw):
    """1 to 5 layers: fixed cases with equal adjacent widths, where a sweep
    reuses each delta buffer two layers down, and with unequal ones, plus
    arbitrary widths."""
    widths = draw(st.one_of(
        st.sampled_from([[3, 3, 3, 1], [4, 2, 4, 2, 1], [3, 3, 3, 3, 3]]),
        st.lists(st.integers(1, 4), min_size=1, max_size=5)))
    P = draw(st.integers(1, 9))
    return make_problem(widths, draw(st.integers(1, 4)), P,
                         draw(st.integers(0, 2**16)),
                         rho=draw(st.sampled_from([0.0, 1e-3, 0.37])))


def same_bits(grads, want):
    return [g.tobytes() for g in grads] == [g.tobytes() for g in want]


class TestFullGradient:
    @settings(max_examples=60, deadline=None)
    @given(layered_instance())
    def test_equals_stacked_block_calls_bitwise(self, case):
        """Every full sweep forms its block gradients as its deltas appear;
        each equals the per-block call bit for bit: full_gradient on a
        forward pass's own cache and on one handed to it, full_gradient of a
        component on a subset of the rows, and the start and trial
        gradients of B2LD's block closures at the current block; and the
        LBFGS baseline's flat_gradient equals the blocks concatenated."""
        w, X, Y, cfg = case
        L = w.num_layers
        _, cache = forward(w, X)
        per_block = [block_gradient(w, Y, cfg, l, cache) for l in range(1, L + 1)]
        assert same_bits(full_gradient(w, Y, cfg, cache), per_block)
        assert same_bits([flat_gradient(w, Y, cfg, cache)],
                         [np.concatenate([g.ravel() for g in per_block])])
        _, given = forward(w, X, ForwardCache.for_rows(w.arch, X.shape[0]))
        assert same_bits(full_gradient(w, Y, cfg, given), per_block)

        n = max(1, X.shape[0] // 2)
        _, mb = forward(w, X[:n])
        mb_blocks = [block_gradient(w, Y[:n], cfg.component(n), l, mb)
                     for l in range(1, L + 1)]
        assert same_bits(full_gradient(w, Y[:n], cfg.component(n), mb),
                         mb_blocks)

        base_sq = weights_squared_norm(w)
        for l in range(1, L + 1):
            # a trial at the block it holds leaves the cache current
            evaluate, (_, g_start), _ = _block_eval(w, cache, Y, cfg, l,
                                                    base_sq)
            _, grad = evaluate(w.block(l).copy())
            assert same_bits([g_start, grad()], [per_block[l - 1]] * 2)

    def test_zero_norm_at_perfect_fit(self):
        w, X, _, _ = make_problem([4, 1], 3, 6, seed=11)
        Y, cache = forward(w, X)
        cfg = ObjectiveConfig(rho=0.0, sample_count=6)
        assert gradient_norm(full_gradient(w, Y, cfg, cache)) == 0.0


@st.composite
def width_run_instance(draw):
    """1 to 5 layers of widths 1 to 6, each layer as wide as the one below
    it or not on a coin flip, so that runs of equal widths, which share a
    cache's buffer pair, and width changes both occur."""
    widths = [draw(st.integers(1, 6))]
    for _ in range(draw(st.integers(0, 4))):
        same = draw(st.booleans())
        widths.append(widths[-1] if same else draw(st.integers(1, 6)))
    return make_problem(widths, draw(st.integers(1, 4)),
                         draw(st.integers(1, 9)), draw(st.integers(0, 2**16)),
                         rho=draw(st.sampled_from([0.0, 1e-3])))


def unshared_cache(arch, rows):
    """A cache in which every output, delta and slope buffer is an array of
    its own."""
    widths = arch.layer_widths

    def fresh(ns):
        return [None] + [np.empty((rows, n)) for n in ns]
    return ForwardCache(z=fresh(widths), deltas=fresh(widths),
                        slopes=fresh(widths[:-1]) + [None])


@settings(max_examples=80, deadline=None)
@given(width_run_instance(), st.data())
def test_shared_buffers_give_the_bits_of_unshared_ones(case, data):
    """Through `ForwardCache.for_rows`, whose layers share one buffer pair
    per width, a forward pass, a full gradient, every block gradient, and a
    partial forward after a block edit followed by a full gradient give the
    bits they give through a cache with no buffer shared."""
    w, X, Y, cfg = case
    L = w.num_layers
    k = data.draw(st.integers(1, L))
    results = []
    for cache in (ForwardCache.for_rows(w.arch, X.shape[0]),
                  unshared_cache(w.arch, X.shape[0])):
        net = w.copy()
        got = [forward(net, X, cache)[0].tobytes()]
        got += [g.tobytes() for g in full_gradient(net, Y, cfg, cache)]
        got += [block_gradient(net, Y, cfg, l, cache).tobytes()
                for l in range(1, L + 1)]
        net.set_block(k, 0.5 * net.block(k))
        got.append(forward_partial(net, cache, k)[0].tobytes())
        got += [g.tobytes() for g in full_gradient(net, Y, cfg, cache)]
        results.append(got)
    assert results[0] == results[1]


@st.composite
def partitioned_instance(draw):
    """A small instance and an arbitrary partition of its rows: a seeded
    shuffle cut at arbitrary points into nonempty batches."""
    widths = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    P = draw(st.integers(1, 12))
    w, X, Y, cfg = make_problem(widths, draw(st.integers(1, 4)), P,
                                 draw(st.integers(0, 2**16)),
                                 rho=draw(st.sampled_from([0.0, 1e-3, 0.37])))
    order = draw(st.permutations(range(P)))
    cuts = sorted(draw(st.sets(st.integers(1, P - 1), max_size=P - 1))) \
        if P > 1 else []
    batches = [np.array(order[i:j], dtype=np.intp)
               for i, j in zip([0] + cuts, cuts + [P])]
    return w, X, Y, cfg, batches


def components(w, X, Y, cfg, batch, l):
    """(f_B, grad of f_B w.r.t. block l) from a cache over the batch rows."""
    _, cache = forward(w, X[batch])
    cfg_b = cfg.component(len(batch))
    return (cached_value(w, cache, Y[batch], cfg_b),
            block_gradient(w, Y[batch], cfg_b, l, cache))


class TestMinibatchComponents:
    @settings(max_examples=60, deadline=None)
    @given(partitioned_instance())
    def test_trivial_partition_equals_full(self, case):
        """The component over every row is f, and its block gradients are
        the full block gradients."""
        w, X, Y, cfg, _ = case
        f_full, _ = objective_value(w, X, Y, cfg)
        _, cache = forward(w, X)
        everything = np.arange(X.shape[0])
        for l in range(1, w.num_layers + 1):
            fh, gh = components(w, X, Y, cfg, everything, l)
            assert fh == pytest.approx(f_full, rel=1e-12)
            full = block_gradient(w, Y, cfg, l, cache)
            scale = max(1.0, float(np.abs(full).max()))
            assert np.allclose(gh, full, rtol=1e-12, atol=1e-14 * scale)

    @settings(max_examples=60, deadline=None)
    @given(partitioned_instance())
    def test_partition_sum_identity(self, case):
        """The components of any partition sum to f, and their block
        gradients to the full block gradient."""
        w, X, Y, cfg, batches = case
        f_full, _ = objective_value(w, X, Y, cfg)
        _, cache = forward(w, X)
        for l in range(1, w.num_layers + 1):
            parts = [components(w, X, Y, cfg, b, l) for b in batches]
            assert sum(f for f, _ in parts) == pytest.approx(f_full,
                                                             rel=1e-12)
            full = block_gradient(w, Y, cfg, l, cache)
            scale = max(1.0, float(np.abs(full).max()))
            assert np.allclose(sum(g for _, g in parts), full,
                               rtol=1e-12, atol=1e-14 * scale)

    def test_single_sample_hand_loop(self):
        w, X, Y, _ = make_problem([3, 1], 2, 5, seed=14)
        cfg = ObjectiveConfig(rho=0.0, sample_count=5)
        p = 2
        _, gh = components(w, X, Y, cfg, [p], 2)
        # by hand: (2/P) z_1' delta_2 for the single sample, linear output
        z1 = sigmoid(X[p:p + 1] @ w.block(1))
        out = z1 @ w.block(2)
        delta = out - Y[p:p + 1]
        hand = (2.0 / 5) * (z1.T @ delta)
        assert np.allclose(gh, hand, rtol=1e-12)

    def test_empty_batch_rejected(self):
        _, _, _, cfg = make_problem([3, 1], 2, 5, seed=15)
        with pytest.raises(ValueError, match="at least one row"):
            cfg.component(0)


def test_gradient_consistency_random_instances():
    rng = np.random.default_rng(0)
    for trial in range(10):
        widths = [int(rng.integers(2, 5)) for _ in range(int(rng.integers(1, 4)))]
        widths.append(int(rng.integers(1, 3)))
        d = int(rng.integers(2, 5))
        P = int(rng.integers(3, 12))
        w, X, Y, cfg = make_problem(widths, d, P, seed=100 + trial, rho=1e-3)
        for l in range(1, len(widths) + 1):
            _, cache = forward(w, X)
            g = block_gradient(w, Y, cfg, l, cache)
            fd = fd_block_gradient(w, X, Y, cfg, l)
            assert rel_error(g, fd) <= 1e-5
