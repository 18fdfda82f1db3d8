import numpy as np
import pytest

from layeropt.linalg import SeededRng, ShapeMismatchError, frobenius_norm
from layeropt.network import Architecture, init_weights


def test_shape_mismatch_names_shapes():
    w = init_weights(Architecture(3, (2, 1)), SeededRng(0))
    with pytest.raises(ShapeMismatchError) as exc:
        w.set_block(1, np.ones((4, 2)))
    assert exc.value.shape_a == (4, 2)
    assert exc.value.shape_b == (3, 2)


def test_frobenius_zero():
    assert frobenius_norm(np.zeros((3, 3))) == 0.0


def test_frobenius_345():
    assert frobenius_norm(np.array([[3.0, 4.0]])) == 5.0


def test_frobenius_brute_force_oracle():
    rng = np.random.default_rng(3)
    M = rng.normal(size=(5, 5))
    brute = 0.0
    for i in range(5):
        for j in range(5):
            brute += M[i, j] ** 2
    brute = brute ** 0.5
    assert abs(frobenius_norm(M) - brute) <= 1e-12 * brute


def test_frobenius_absolute_homogeneity():
    rng = np.random.default_rng(4)
    M = rng.normal(size=(3, 6))
    for c in (-2.5, 0.0, 1e-3, 7.0):
        got = frobenius_norm(c * M)
        want = abs(c) * frobenius_norm(M)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_rng_equal_seeds_equal_streams():
    a = SeededRng(123).uniform(-1, 1, size=10_000)
    b = SeededRng(123).uniform(-1, 1, size=10_000)
    assert np.array_equal(a, b)


def test_rng_different_seeds_differ():
    a = SeededRng(1).uniform(-1, 1, size=100)
    b = SeededRng(2).uniform(-1, 1, size=100)
    assert not np.array_equal(a, b)


def test_rng_child_streams_reproducible_and_distinct():
    r = SeededRng(9)
    assert np.array_equal(SeededRng(9).child(1).uniform(0, 1, 50),
                          r.child(1).uniform(0, 1, 50))
    assert not np.array_equal(r.child(1).uniform(0, 1, 50),
                              r.child(2).uniform(0, 1, 50))
