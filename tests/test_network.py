import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import idle_cpu
from layeropt.linalg import SeededRng, ShapeMismatchError
from layeropt.network import (Architecture, ForwardCache, NetworkWeights,
                              StaleCacheError, _sigmoid_slope, forward,
                              forward_partial, init_weights,
                              parse_architecture, sigmoid, sigmoid_prime)


def arrays_held(cache):
    """The distinct arrays in a cache's fields, in their lists, tuples and
    dicts included."""
    held, todo = {}, [getattr(cache, f.name) for f in dataclasses.fields(cache)]
    while todo:
        x = todo.pop()
        if isinstance(x, np.ndarray):
            held[id(x)] = x
        elif isinstance(x, (list, tuple, dict)):
            todo.extend(x.values() if isinstance(x, dict) else x)
    return list(held.values())


def random_net(widths, seed, input_dim=None, P=6):
    arch = Architecture(input_dim or widths[0], tuple(widths))
    rng = SeededRng(seed)
    w = init_weights(arch, rng)
    X = rng.child(99).uniform(0.0, 1.0, size=(P, arch.input_dim))
    return arch, w, X


class TestArchitecture:
    def test_parse_repeated_form(self):
        arch = parse_architecture("13-[10x50]-1")
        assert arch.input_dim == 13
        assert arch.layer_widths == tuple([50] * 10 + [1])
        assert arch.num_layers == 11

    def test_parse_list_form(self):
        arch = parse_architecture("59-[200,50,200]-1")
        assert arch.layer_widths == (200, 50, 200, 1)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_architecture("not-an-arch")

    @pytest.mark.parametrize("text", [
        "3-[2x3x4]-1", "3-[2x]-1", "3-[x5]-1", "3-[2,x]-1", "3-[2,]-1",
        "3-[ ]-1", "3-[2x0]-1", "0-[2x5]-1"])
    def test_every_parse_error_names_the_string(self, text):
        """Before, "[2x3x4]" failed on a tuple unpack and "[2x]" on int('')
        with messages that did not name the string."""
        with pytest.raises(ValueError, match=re.escape(repr(text))):
            parse_architecture(text)

    def test_parse_allows_spaces_inside_the_brackets(self):
        assert parse_architecture(" 3-[ 2 x 4 ]-1 ").layer_widths == (4, 4, 1)
        assert parse_architecture("3-[4 , 5]-2").layer_widths == (4, 5, 2)

    @pytest.mark.parametrize("input_dim, widths, name", [
        (3.0, (4, 1), "input_dim"), (True, (4, 1), "input_dim"),
        ("3", (4, 1), "input_dim"), (0, (4, 1), "input_dim"),
        (3, (4.7, 1), "layer_widths"), (3, (4, True), "layer_widths"),
        (3, (4, 1.0), "layer_widths"), (3, (4, 0), "layer_widths"),
        (3, (), "layer_widths")])
    def test_non_integral_or_bool_dims_rejected(self, input_dim, widths, name):
        """Before, 3.0 and True built a net and a width of 4.7 became 4."""
        with pytest.raises(ValueError, match=name):
            Architecture(input_dim, widths)

    def test_numpy_integer_dims_accepted(self):
        arch = Architecture(np.int64(3), (np.int32(4), np.uint8(1)))
        assert arch.block_shapes == ((3, 4), (4, 1))
        assert [type(n) for n in arch.layer_widths] == [int, int]

    def test_variable_count(self):
        arch = parse_architecture("13-[1x50]-1")
        assert arch.num_variables == 13 * 50 + 50 * 1 == 700

    def test_block_shapes(self):
        arch = parse_architecture("3-[4,5]-2")
        assert arch.block_shape(1) == (3, 4)
        assert arch.block_shape(2) == (4, 5)
        assert arch.block_shape(3) == (5, 2)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 20), st.lists(st.integers(1, 20), min_size=1,
                                        max_size=8))
    def test_stored_block_shapes_are_fan_in_by_width(self, input_dim, widths):
        """The shapes formed at construction are (fan-in, width) for every
        block, the variable count is their sum, and block numbers outside
        1..L are still refused."""
        arch = Architecture(input_dim, tuple(widths))
        fan_in = [input_dim] + widths[:-1]
        L = len(widths)
        for l in range(1, L + 1):
            assert arch.block_shape(l) == (fan_in[l - 1], widths[l - 1])
        assert arch.num_variables == sum(k * n for k, n in zip(fan_in, widths))
        w = init_weights(arch, SeededRng(0))
        assert [w.block(l).shape for l in range(1, L + 1)] == \
            list(arch.block_shapes)
        for l in (0, L + 1):
            with pytest.raises(ValueError, match=f"layer {l} outside 1..{L}"):
                arch.block_shape(l)


class TestSigmoid:
    def test_symmetry_point(self):
        assert sigmoid(0.0) == 0.5
        assert sigmoid_prime(0.0) == 0.25

    def test_symmetry_identity(self):
        for a in (1.0, 10.0, 100.0):
            assert sigmoid(-a) == pytest.approx(1.0 - sigmoid(a), abs=1e-15)

    def test_no_overflow_large_inputs(self):
        for a in (-1e3, 1e3):
            v = sigmoid(a)
            assert np.isfinite(v) and 0.0 <= v <= 1.0

    def test_prime_matches_central_difference(self):
        h = 1e-6
        for a in (-2.0, 0.3, 5.0):
            fd = (sigmoid(a + h) - sigmoid(a - h)) / (2 * h)
            assert sigmoid_prime(a) == pytest.approx(fd, rel=1e-7)


def gather_scatter_sigmoid(a):
    """The two-branch sigmoid `sigmoid` replaced: 1/(1+exp(-a)) on the
    nonnegative entries and exp(a)/(1+exp(a)) on the rest, each gathered by a
    boolean mask and scattered back. Kept as the reference."""
    a = np.asarray(a, dtype=np.float64)
    out = np.empty_like(a)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    ea = np.exp(a[~pos])
    out[~pos] = ea / (1.0 + ea)
    return out if out.ndim else float(out)


SIGMOID_EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 745.0,
                          -745.0, 1e3, -1e3, np.inf, -np.inf, np.nan, -np.nan])


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2),
                  elements=st.floats(allow_nan=True, allow_infinity=True)
                  | st.sampled_from(list(SIGMOID_EDGES))))
@example(SIGMOID_EDGES)
@example(SIGMOID_EDGES.reshape(2, 7))
@example(np.array(-0.0))
@example(np.array(np.nan))
def test_sigmoid_bitwise_equals_gather_scatter_form(a):
    """`sigmoid` equals the gather/scatter form bit for bit, NaN signs
    included, and returns a float exactly where the reference does. The
    derivative taken from the output equals `sigmoid_prime` bit for bit.
    Both also hold when they write into `out`, the forward pass's in-place
    form, which returns `out` and leaves the input untouched without it."""
    a_before = np.array(a, dtype=np.float64)
    got, ref = sigmoid(a), gather_scatter_sigmoid(a)
    assert type(got) is type(ref)
    assert np.array_equal(bits(got), bits(ref))
    assert np.array_equal(bits(a), bits(a_before))
    assert np.array_equal(bits(_sigmoid_slope(got)), bits(sigmoid_prime(a)))

    scratch = a_before.copy()
    out = np.empty_like(scratch)
    assert sigmoid(scratch, out=out) is out
    assert np.array_equal(bits(out), bits(ref))
    slope = np.empty_like(out)
    assert _sigmoid_slope(out, out=slope) is slope
    assert np.array_equal(bits(slope), bits(sigmoid_prime(a)))


class TestInitWeights:
    def test_deterministic_per_seed(self):
        arch = parse_architecture("4-[2x5]-1")
        w1 = init_weights(arch, SeededRng(42))
        w2 = init_weights(arch, SeededRng(42))
        for l in range(1, arch.num_layers + 1):
            assert np.array_equal(w1.block(l), w2.block(l))

    def test_fan_in_bound(self):
        arch = parse_architecture("9-[3x7]-2")
        w = init_weights(arch, SeededRng(0))
        for l in range(1, arch.num_layers + 1):
            fan_in = w.block(l).shape[0]
            assert np.all(np.abs(w.block(l)) <= 1.0 / np.sqrt(fan_in))

    def test_seeds_differ(self):
        arch = parse_architecture("4-[1x3]-1")
        w1 = init_weights(arch, SeededRng(1))
        w2 = init_weights(arch, SeededRng(2))
        assert not np.array_equal(w1.block(1), w2.block(1))

    @pytest.mark.parametrize("l", [0, 4, -1])
    def test_block_outside_1_to_L_rejected(self, l):
        # block(0) read block L and block(-1) block L-1
        arch = parse_architecture("3-[2x4]-2")
        w = init_weights(arch, SeededRng(0))
        with pytest.raises(ValueError, match=f"layer {l} outside 1..3"):
            w.block(l)
        with pytest.raises(ValueError, match=f"layer {l} outside 1..3"):
            arch.block_shape(l)

    @pytest.mark.parametrize("size", [12, 33])
    def test_flat_vector_of_wrong_length_sets_no_block(self, size):
        # 12 overwrote block 1 and then failed to reshape, 33 overwrote all
        w = init_weights(parse_architecture("3-[4,4]-1"), SeededRng(0))
        before = w.digest()
        with pytest.raises(ValueError,
                           match=f"flat vector length {size} != 32"):
            w.set_from_flat(np.zeros(size))
        assert w.digest() == before

    def test_blocks_view_follows_set_block(self):
        arch = parse_architecture("3-[2x4]-2")
        w = init_weights(arch, SeededRng(0))
        view = w.blocks
        assert isinstance(view, tuple)
        assert all(v is w.block(l) for l, v in enumerate(view, start=1))
        w.set_block(2, np.zeros((4, 4)))
        assert w.blocks[1] is w.block(2) and view[1] is not w.block(2)


class TestForward:
    def test_identity_linear_network(self):
        arch = Architecture(3, (3,))  # L=1: linear output only
        w = NetworkWeights(arch, [np.eye(3)])
        X = np.arange(12.0).reshape(4, 3)
        out, _ = forward(w, X)
        assert np.array_equal(out, X)

    def test_zero_inputs_give_half_hidden(self):
        arch, w, _ = random_net([5, 5, 1], seed=3, input_dim=4)
        X = np.zeros((3, 4))
        _, cache = forward(w, X)
        assert np.all(cache.z[1] == 0.5)

    def test_1_1_1_hand_evaluation(self):
        arch = Architecture(1, (1, 1))
        w = NetworkWeights(arch, [np.array([[1.0]]), np.array([[2.0]])])
        out, _ = forward(w, np.array([[0.0]]))
        assert out[0, 0] == 2.0 * sigmoid(0.0) == 1.0

    def test_output_layer_is_linear(self):
        arch, w, X = random_net([6, 2], seed=5, input_dim=4)
        out1, _ = forward(w, X)
        w.set_block(2, 2.0 * w.block(2))
        out2, _ = forward(w, X)
        assert np.array_equal(out2, 2.0 * out1)

    def test_shape_mismatch(self):
        arch, w, _ = random_net([3, 1], seed=0, input_dim=5)
        with pytest.raises(Exception):
            forward(w, np.ones((2, 4)))

    @pytest.mark.parametrize("inputs, want", [
        (np.ones(3), (3, 3)), (np.ones((2, 4)), (2, 3)),
        (np.ones((2, 3, 1)), (2, 3)), (1.0, (3,))])
    def test_inputs_not_rows_by_input_dim_are_refused(self, inputs, want):
        """Before, a 1-D batch raised a bare IndexError."""
        _, w, _ = random_net([4, 1], seed=0, input_dim=3)
        with pytest.raises(ShapeMismatchError, match="forward inputs") as err:
            forward(w, inputs)
        assert err.value.shape_b == want

    def test_given_cache_keeps_its_buffers_and_equals_a_fresh_pass(self):
        arch, w, X = random_net([7, 5, 6, 2], seed=13, input_dim=3, P=9)
        cache = ForwardCache.for_rows(arch, X.shape[0])
        buffers = [list(cache.z[1:]), list(cache.deltas), list(cache.slopes)]
        for _ in range(2):
            w.set_block(2, 1.5 * w.block(2))
            out, got = forward(w, X, cache)
            _, fresh = forward(w, X)
            assert got is cache and out is cache.z[-1]
            assert all(a is b for a, b in zip(cache.z[1:], buffers[0]))
            assert all(a is b for a, b in zip(cache.deltas, buffers[1]))
            assert all(a is b for a, b in zip(cache.slopes, buffers[2]))
            assert cache.versions == w.versions()
            for j in range(arch.num_layers + 1):
                assert np.array_equal(bits(cache.z[j]), bits(fresh.z[j]))

    @pytest.mark.parametrize("widths", [
        [3, 3, 3, 1], [4, 2, 4, 2, 1], [5], [2, 2], [50] * 10 + [1]])
    def test_two_delta_buffers_per_width_by_layer_parity(self, widths):
        """Hidden layer l's delta and slope buffers are the two members of
        its width's one pair, taken by l mod 2, so a layer's slope buffer is
        the delta buffer of an adjacent layer as wide. The output layer's
        delta is an array of its own and it has no slope buffer."""
        cache = ForwardCache.for_rows(Architecture(3, tuple(widths)), 7)
        deltas, slopes = cache.deltas, cache.slopes
        L = len(widths)
        assert deltas[0] is None and slopes[0] is None and slopes[L] is None
        hidden = list(enumerate(widths[:-1], start=1))
        for l, n in hidden:
            assert deltas[l].shape == slopes[l].shape == (7, n)
            assert not np.shares_memory(deltas[l], slopes[l])
            for j, m in hidden:
                if m == n:
                    same = (j - l) % 2 == 0
                    assert (deltas[j] is deltas[l]) == same
                    assert (slopes[j] is deltas[l]) != same
        assert deltas[L].shape == (7, widths[-1])
        pairs = [deltas[l] for l, _ in hidden] + [slopes[l] for l, _ in hidden]
        assert not any(np.shares_memory(deltas[L], a) for a in pairs)
        assert len({id(a) for a in pairs}) == 2 * len(set(widths[:-1]))

    def test_student_cache_holds_12_arrays_of_rows_by_50(self):
        """The 10-[10x50]-1 student's cache holds ten outputs and one pair
        of delta buffers of rows x 50; B2LD's block trials write into the
        same arrays."""
        cache = ForwardCache.for_rows(parse_architecture("10-[10x50]-1"), 9)
        assert sum(a.shape == (9, 50) for a in arrays_held(cache)) == 12

    def test_split_student_cache_holds_a_quarter_scratch_slope(
            self, monkeypatch):
        """On 1,600 rows, where blocks 2-10 run by halves, the cache holds
        the same 12 arrays of rows x 50 and one more of 400 x 50, the
        scratch slope of a step whose product is formed beside it. This
        fails at a6f61bd, whose scratch was a 13th rows x 50 array."""
        idle_cpu(monkeypatch)
        cache = ForwardCache.for_rows(parse_architecture("10-[10x50]-1"),
                                      1600)
        assert cache.split == tuple(range(2, 11))
        assert sum(a.shape == (1600, 50) for a in arrays_held(cache)) == 12
        assert [a.shape for a in cache.scratch.values()] == [(400, 50)]

    def test_cache_for_other_rows_is_rejected(self):
        arch, w, X = random_net([4, 1], seed=1, input_dim=3, P=5)
        with pytest.raises(ShapeMismatchError, match="forward cache"):
            forward(w, X, ForwardCache.for_rows(arch, 6))

    def test_cache_for_other_widths_is_rejected(self):
        """As many rows, layers and outputs, but a hidden width that
        differs."""
        arch, w, X = random_net([4, 5, 1], seed=1, input_dim=3, P=5)
        other = ForwardCache.for_rows(Architecture(3, (4, 6, 1)), 5)
        with pytest.raises(ShapeMismatchError, match="forward cache"):
            forward(w, X, other)
        _, cache = forward(w, X)
        with pytest.raises(ShapeMismatchError, match="forward cache"):
            forward(init_weights(Architecture(3, (4, 6, 1)), SeededRng(1)),
                    X, cache)

    def test_hand_built_cache_is_checked_by_its_buffers(self):
        """A cache not made by `for_rows` has no recorded geometry: its
        buffers are checked, it then works like any other, and one whose
        buffers do not fit is refused."""
        arch, w, X = random_net([4, 5, 1], seed=2, input_dim=3, P=5)

        def hand_built(widths):
            def fresh(ns):
                return [None] + [np.empty((5, n)) for n in ns]
            return ForwardCache(z=fresh(widths), deltas=fresh(widths),
                                slopes=fresh(widths[:-1]) + [None])
        cache = hand_built(arch.layer_widths)
        for _ in range(2):
            out, got = forward(w, X, cache)
            assert got is cache
            assert out.tobytes() == forward(w, X)[0].tobytes()
        assert cache.geometry == (5, arch.layer_widths)
        with pytest.raises(ShapeMismatchError, match="forward cache"):
            forward(w, X, hand_built((4, 6, 1)))


class TestForwardPartial:
    @pytest.mark.parametrize("widths,input_dim", [
        ([8, 8, 8, 1], 4), ([5, 3, 2], 6), ([4], 3)])
    def test_matches_full_forward_for_all_layers(self, widths, input_dim):
        arch, w, X = random_net(widths, seed=11, input_dim=input_dim)
        rng = SeededRng(77)
        for l in range(1, arch.num_layers + 1):
            _, cache = forward(w, X)
            r, c = arch.block_shape(l)
            w.set_block(l, rng.uniform(-0.5, 0.5, size=(r, c)))
            out_partial, _ = forward_partial(w, cache, l)
            out_full, full_cache = forward(w, X)
            assert np.array_equal(out_partial, out_full)
            for j in range(l, arch.num_layers + 1):
                assert np.array_equal(cache.z[j], full_cache.z[j])

    def test_from_layer_one_is_full_recompute(self):
        arch, w, X = random_net([4, 4, 1], seed=2, input_dim=3)
        _, cache = forward(w, X)
        out, _ = forward_partial(w, cache, 1)
        full, _ = forward(w, X)
        assert np.array_equal(out, full)

    def test_noop_when_unchanged(self):
        arch, w, X = random_net([4, 2], seed=8, input_dim=3)
        out0, cache = forward(w, X)
        for l in range(1, arch.num_layers + 1):
            out, _ = forward_partial(w, cache, l)
            assert np.array_equal(out, out0)

    def test_stale_cache_detected(self):
        arch, w, X = random_net([4, 4, 1], seed=4, input_dim=3)
        _, cache = forward(w, X)
        w.set_block(1, w.block(1) * 1.5)  # below from_layer=2
        with pytest.raises(StaleCacheError):
            forward_partial(w, cache, 2)

    def test_stale_layer_is_named(self):
        arch, w, X = random_net([4, 4, 4, 1], seed=4, input_dim=3)
        _, cache = forward(w, X)
        w.set_block(2, w.block(2) * 1.5)
        forward_partial(w, cache, 2)
        w.set_block(3, w.block(3) * 1.5)
        with pytest.raises(StaleCacheError, match="stale at layer 3"):
            forward_partial(w, cache, 4)

    @pytest.mark.parametrize("from_layer", [1, 2, 3])
    def test_cache_with_no_forward_pass_is_refused(self, from_layer):
        # from layer 1 numpy raised on the empty input slot (dtype('O')),
        # from layer 2 up the version check raised a bare IndexError
        arch, w, X = random_net([4, 4, 1], seed=4, input_dim=3)
        for cache in (ForwardCache.for_rows(arch, X.shape[0]), ForwardCache()):
            with pytest.raises(StaleCacheError, match="no forward pass"):
                forward_partial(w, cache, from_layer)


@st.composite
def net_and_edits(draw):
    """A small net, its inputs, and a list of (layer, new block) edits."""
    widths = draw(st.lists(st.integers(1, 5), min_size=1, max_size=5))
    arch, w, X = random_net(widths, seed=draw(st.integers(0, 2**16)),
                            input_dim=draw(st.integers(1, 4)),
                            P=draw(st.integers(1, 7)))
    values = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
    edits = []
    for l in draw(st.lists(st.integers(1, arch.num_layers), min_size=1,
                           max_size=4)):
        shape = arch.block_shape(l)
        flat = draw(st.lists(values, min_size=shape[0] * shape[1],
                             max_size=shape[0] * shape[1]))
        edits.append((l, np.array(flat).reshape(shape)))
    return arch, w, X, edits


@settings(max_examples=60, deadline=None)
@given(net_and_edits())
def test_forward_partial_matches_forward_after_block_edits(case):
    arch, w, X, edits = case
    _, cache = forward(w, X)
    for l, block in edits:
        w.set_block(l, block)
    out, _ = forward_partial(w, cache, min(l for l, _ in edits))
    full, full_cache = forward(w, X)
    assert np.array_equal(out, full)
    for j in range(1, arch.num_layers + 1):
        assert np.array_equal(cache.z[j], full_cache.z[j])
