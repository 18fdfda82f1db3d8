"""Dense matrix helpers and seeded pseudo-randomness.

All numeric state in this package lives in row-major float64 numpy arrays.
Batches of samples are stored samples-as-rows, so propagating a batch through
one layer is a single matrix product acting on the right.
"""

import math
import numbers

import numpy as np


class ShapeMismatchError(ValueError):
    """Raised when two operands have non-conforming shapes."""

    def __init__(self, op, shape_a, shape_b):
        self.op = op
        self.shape_a = tuple(shape_a)
        self.shape_b = tuple(shape_b)
        super().__init__(f"{op}: shapes {self.shape_a} and {self.shape_b} do not conform")


def frobenius_norm(a: np.ndarray) -> float:
    """sqrt of the sum of squared entries."""
    r = a.ravel()
    return math.sqrt(float(np.dot(r, r)))


def _is_a(value, kind) -> bool:
    """isinstance(value, kind), with a bool counted as no number."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _check_int(l, name: str, lo: int, hi: int):
    """Refuse an integer l outside lo..hi, a bool or float too."""
    if not ((type(l) is int or _is_a(l, numbers.Integral)) and lo <= l <= hi):
        raise ValueError(f"{name} {l} outside {lo}..{hi}")


def _check_real(x, name: str, lo: float, hi: float, closed: bool = False):
    """Refuse a parameter x outside (lo, hi), or [lo, hi] if `closed`: NaN, a
    bool or no number too."""
    if not (_is_a(x, numbers.Real) and (lo <= x <= hi if closed else lo < x < hi)):
        ends = "[]" if closed else "()"
        raise ValueError(f"{name} {x!r} outside {ends[0]}{lo}, {hi}{ends[1]}")


class SeededRng:
    """Deterministic random stream backed by numpy's PCG64.

    PCG64 is a fixed, documented counter-based generator; equal seeds give
    equal draw sequences on every platform, which the experiment protocol
    relies on (shared initial points across compared algorithms).
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, low, high, size):
        return self._gen.uniform(low, high, size=size)

    def normal(self, loc, scale, size):
        return self._gen.normal(loc, scale, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def child(self, tag: int) -> "SeededRng":
        """Derive an independent stream for a sub-task, reproducible per (seed, tag)."""
        return SeededRng((self.seed * 0x9E3779B97F4A7C15 + tag) % (1 << 63))
