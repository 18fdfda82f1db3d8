import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layeropt.linalg import SeededRng
from layeropt.network import (Architecture, NetworkWeights, StaleCacheError,
                              forward, init_weights, sigmoid, sigmoid_prime)
from layeropt.objective import (ObjectiveConfig, backprop_deltas,
                                block_gradient, default_rho, full_gradient,
                                gradient_norm, minibatch_block_gradient,
                                minibatch_value, objective_value)


def make_instance(widths, input_dim, P, seed, rho=1e-3):
    arch = Architecture(input_dim, tuple(widths))
    rng = SeededRng(seed)
    w = init_weights(arch, rng)
    X = rng.child(1).uniform(0.0, 1.0, size=(P, input_dim))
    Y = rng.child(2).uniform(0.0, 1.0, size=(P, arch.output_dim))
    return w, X, Y, ObjectiveConfig(rho=rho, sample_count=P)


def fd_block_gradient(weights, X, Y, cfg, l, h=1e-6):
    """Central finite differences, step scaled by parameter magnitude."""
    W = weights.block(l).copy()
    fd = np.zeros_like(W)
    for i in range(W.shape[0]):
        for j in range(W.shape[1]):
            step = h * max(1.0, abs(W[i, j]))
            Wp, Wm = W.copy(), W.copy()
            Wp[i, j] += step
            Wm[i, j] -= step
            weights.set_block(l, Wp)
            fp, _ = objective_value(weights, X, Y, cfg)
            weights.set_block(l, Wm)
            fm, _ = objective_value(weights, X, Y, cfg)
            fd[i, j] = (fp - fm) / (2 * step)
    weights.set_block(l, W)
    return fd


def rel_error(g, fd):
    """Block-level relative error; elementwise ratios blow up on entries at
    the finite-difference noise floor."""
    return float(np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-8))


class TestObjectiveValue:
    def test_perfect_fit_is_zero(self):
        w, X, _, _ = make_instance([4, 1], 3, 8, seed=1)
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
        w, X, Y, cfg = make_instance([5, 3, 2], 4, 10, seed=7, rho=0.01)
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
        w, X, _, _ = make_instance([4, 2, 1], 3, 6, seed=2)
        Y, cache = forward(w, X)
        cfg = ObjectiveConfig(rho=0.0, sample_count=6)
        for l in range(1, 4):
            assert np.all(block_gradient(w, Y, cfg, l, cache) == 0.0)

    def test_regularizer_only(self):
        w, X, _, _ = make_instance([4, 1], 3, 6, seed=3)
        Y, cache = forward(w, X)
        cfg = ObjectiveConfig(rho=0.05, sample_count=6)
        for l in (1, 2):
            g = block_gradient(w, Y, cfg, l, cache)
            assert np.array_equal(g, 2 * cfg.rho * w.block(l))

    def test_finite_difference_oracle_3_4_2_1(self):
        w, X, Y, cfg = make_instance([4, 2, 1], 3, 8, seed=5, rho=1e-3)
        _, cache = forward(w, X)
        for l in range(1, 4):
            g = block_gradient(w, Y, cfg, l, cache)
            fd = fd_block_gradient(w, X, Y, cfg, l)
            assert rel_error(g, fd) <= 1e-5
            _, cache = forward(w, X)  # fd sweep bumps versions

    def test_stale_cache_rejected(self):
        w, X, Y, cfg = make_instance([4, 1], 3, 5, seed=6)
        _, cache = forward(w, X)
        w.set_block(1, w.block(1) * 2.0)
        with pytest.raises(StaleCacheError):
            block_gradient(w, Y, cfg, 1, cache)

    def test_delta_recursion_stops_at_block(self):
        w, X, Y, cfg = make_instance([3, 3, 3, 1], 2, 5, seed=8)
        _, cache = forward(w, X)
        for l in range(1, 5):
            deltas = backprop_deltas(w, cache, Y, l)
            assert set(deltas.keys()) == set(range(l, 5))

    def test_output_delta_is_raw_residual(self):
        w, X, Y, cfg = make_instance([3, 2], 2, 5, seed=9)
        _, cache = forward(w, X)
        deltas = backprop_deltas(w, cache, Y, 2)
        assert np.array_equal(deltas[2], cache.outputs - Y)


class TestFullGradient:
    def test_equals_stacked_block_calls_bitwise(self):
        w, X, Y, cfg = make_instance([4, 3, 2], 3, 7, seed=10)
        grads = full_gradient(w, X, Y, cfg)
        _, cache = forward(w, X)
        for l in range(1, 4):
            assert np.array_equal(grads[l - 1],
                                  block_gradient(w, Y, cfg, l, cache))

    def test_zero_norm_at_perfect_fit(self):
        w, X, _, _ = make_instance([4, 1], 3, 6, seed=11)
        Y, _ = forward(w, X)
        cfg = ObjectiveConfig(rho=0.0, sample_count=6)
        assert gradient_norm(full_gradient(w, X, Y, cfg)) == 0.0


@st.composite
def partitioned_instance(draw):
    """A small instance and an arbitrary partition of its rows: a seeded
    shuffle cut at arbitrary points into nonempty batches."""
    widths = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    P = draw(st.integers(1, 12))
    w, X, Y, cfg = make_instance(widths, draw(st.integers(1, 4)), P,
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
    return (minibatch_value(w, cache, Y[batch], cfg),
            minibatch_block_gradient(w, cache, Y[batch], cfg, l))


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
        w, X, Y, _ = make_instance([3, 1], 2, 5, seed=14)
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
        w, X, Y, cfg = make_instance([3, 1], 2, 5, seed=15)
        empty = np.array([], dtype=np.intp)
        _, cache = forward(w, X[empty])
        with pytest.raises(ValueError):
            minibatch_value(w, cache, Y[empty], cfg)
        with pytest.raises(ValueError):
            minibatch_block_gradient(w, cache, Y[empty], cfg, 1)


def test_gradient_consistency_random_instances():
    rng = np.random.default_rng(0)
    for trial in range(10):
        widths = [int(rng.integers(2, 5)) for _ in range(int(rng.integers(1, 4)))]
        widths.append(int(rng.integers(1, 3)))
        d = int(rng.integers(2, 5))
        P = int(rng.integers(3, 12))
        w, X, Y, cfg = make_instance(widths, d, P, seed=100 + trial, rho=1e-3)
        for l in range(1, len(widths) + 1):
            _, cache = forward(w, X)
            g = block_gradient(w, Y, cfg, l, cache)
            fd = fd_block_gradient(w, X, Y, cfg, l)
            assert rel_error(g, fd) <= 1e-5
