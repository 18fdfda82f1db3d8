"""Feedforward network: architecture, weights, forward propagation with caching.

The network has L weight blocks w_1..w_L, block l of shape (N_{l-1}, N_l) with
N_0 = input dim and N_L = output dim. Hidden layers apply the sigmoid
element-wise; the output layer is linear. There are no bias units: the model
is y = w_L' g(w_{L-1}' g(... g(w_1' x))) acting on samples-as-rows batches,
so a batch Z propagates as Z @ w_1, g(.), @ w_2, ...
"""

import enum
import re
from dataclasses import dataclass, field

import numpy as np

from .linalg import SeededRng, ShapeMismatchError


# One member: hidden layers are sigmoid; bench/tests/test_bench.py reads it.
class Activation(enum.Enum):
    SIGMOID = "sigmoid"


def sigmoid(a, out=None):
    """Numerically stable logistic function, safe for |a| up to ~1e3.

    With e = exp(-|a|) this is 1/(1+e) for a >= 0 and e/(1+e) below, the
    same two expressions as 1/(1+exp(-a)) and exp(a)/(1+exp(a)), in one pass
    with no exponential that can overflow. -|a| is taken as min(a, -a), which
    also keeps the sign of a NaN input. The numerator, 1 or e, is picked as
    max(e, [a >= 0]): e lies in [0, 1], and a NaN e wins the max. Every step
    is a plain element-wise ufunc; a masked select costs more than all of
    them.

    Without `out`, `a` is left as it is and a new array (a float for 0-d
    input) is returned. With `out`, the result is written into it and `a`,
    which must then be a writable float64 array of the same shape, is
    overwritten with the numerator: no temporary as large as `a` is
    allocated."""
    a = np.asarray(a, dtype=np.float64)
    fresh = out is None
    out, num = (np.empty_like(a), np.empty_like(a)) if fresh else (out, a)
    np.negative(a, out=out)
    np.minimum(a, out, out=out)         # -|a|
    np.greater_equal(a, 0.0, out=num)   # 1.0 where a >= 0, else 0.0
    np.exp(out, out=out)                # e
    np.maximum(out, num, out=num)       # np.where(a >= 0, 1.0, e)
    out += 1.0
    np.divide(num, out, out=out)
    return float(out) if fresh and not out.ndim else out


def sigmoid_prime(a):
    s = sigmoid(a)
    return s * (1.0 - s)


def _sigmoid_slope(z, out=None):
    """sigmoid'(a) written in the output z = sigmoid(a): (1 - z) * z, into
    `out` when one is given."""
    out = np.subtract(1.0, z, out=out)
    out *= z
    return out


# Not read here; bench/tests/test_bench.py looks it up.
_ACT = {Activation.SIGMOID: (sigmoid, _sigmoid_slope)}


@dataclass(frozen=True)
class Architecture:
    """Widths of a feedforward net: input dim, hidden+output layer widths."""

    input_dim: int
    layer_widths: tuple  # N_1..N_L, last entry is the output dim

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if len(self.layer_widths) < 1 or any(w < 1 for w in self.layer_widths):
            raise ValueError("need at least one layer, all widths >= 1")
        object.__setattr__(self, "layer_widths", tuple(int(w) for w in self.layer_widths))

    @property
    def num_layers(self) -> int:
        return len(self.layer_widths)

    @property
    def output_dim(self) -> int:
        return self.layer_widths[-1]

    def block_shape(self, layer: int):
        """Shape of weight block `layer` (1-based)."""
        fan_in = self.input_dim if layer == 1 else self.layer_widths[layer - 2]
        return (fan_in, self.layer_widths[layer - 1])

    @property
    def num_variables(self) -> int:
        return sum(r * c for r, c in (self.block_shape(l) for l in range(1, self.num_layers + 1)))


_ARCH_RE = re.compile(r"(\d+)-\[\s*(?:(\d+)\s*x\s*(\d+)|(\d+(?:\s*,\s*\d+)*))"
                      r"\s*\]-(\d+)")


def parse_architecture(text: str) -> Architecture:
    """Parse "d-[LxN]-m" or "d-[N1,N2,...]-m" into an Architecture.

    "13-[10x50]-1" means 13 inputs, 10 hidden layers of 50 neurons, 1 output;
    "59-[200,50,200]-1" lists the hidden widths explicitly. Every error
    names `text`.
    """
    m = _ARCH_RE.fullmatch(text.strip())
    if not m:
        raise ValueError(f"unrecognized architecture string: {text!r}")
    d, L, N, listed, out = m.groups()
    widths = [int(N)] * int(L) if L else [int(n) for n in listed.split(",")]
    try:
        return Architecture(int(d), tuple(widths + [int(out)]))
    except ValueError as exc:
        raise ValueError(f"architecture string {text!r}: {exc}") from exc


class NetworkWeights:
    """Ordered list of per-layer weight blocks with per-block version tags.

    Version tags let a ForwardCache detect when layers below a partial
    recompute point have been silently modified.
    """

    def __init__(self, arch: Architecture, blocks):
        self.arch = arch
        blocks = [np.array(b, dtype=np.float64, order="C") for b in blocks]
        if len(blocks) != arch.num_layers:
            raise ValueError(f"expected {arch.num_layers} blocks, got {len(blocks)}")
        for l, b in enumerate(blocks, start=1):
            if b.shape != arch.block_shape(l):
                raise ShapeMismatchError(f"weights block {l}", b.shape, arch.block_shape(l))
        self._blocks = blocks
        self._versions = [0] * len(blocks)

    @property
    def num_layers(self) -> int:
        return self.arch.num_layers

    def block(self, layer: int) -> np.ndarray:
        """Read weight block `layer` (1-based)."""
        return self._blocks[layer - 1]

    def set_block(self, layer: int, value: np.ndarray):
        value = np.array(value, dtype=np.float64, order="C")
        if value.shape != self.arch.block_shape(layer):
            raise ShapeMismatchError(f"weights block {layer}", value.shape,
                                     self.arch.block_shape(layer))
        self._blocks[layer - 1] = value
        self._versions[layer - 1] += 1

    def versions(self):
        return tuple(self._versions)

    def copy(self) -> "NetworkWeights":
        return NetworkWeights(self.arch, [b.copy() for b in self._blocks])

    def flatten(self) -> np.ndarray:
        return np.concatenate([b.ravel() for b in self._blocks])

    def set_from_flat(self, vec: np.ndarray):
        pos = 0
        for l in range(1, self.num_layers + 1):
            r, c = self.arch.block_shape(l)
            self.set_block(l, vec[pos:pos + r * c].reshape(r, c))
            pos += r * c
        if pos != vec.size:
            raise ValueError(f"flat vector length {vec.size} != {pos}")

    def digest(self) -> str:
        import hashlib
        h = hashlib.sha256()
        for b in self._blocks:
            h.update(np.ascontiguousarray(b).tobytes())
        return h.hexdigest()


def init_weights(arch: Architecture, rng: SeededRng) -> NetworkWeights:
    """Uniform fan-in-scaled init: block l entries in [-1/sqrt(N_{l-1}), +1/sqrt(N_{l-1})]."""
    blocks = []
    for l in range(1, arch.num_layers + 1):
        r, c = arch.block_shape(l)
        bound = 1.0 / np.sqrt(r)
        blocks.append(rng.uniform(-bound, bound, size=(r, c)))
    return NetworkWeights(arch, blocks)


class StaleCacheError(RuntimeError):
    """Partial forward requested against a cache whose lower layers are outdated."""


@dataclass
class ForwardCache:
    """Per-layer outputs `z` for one input batch, with the buffers that
    forward and backward passes over those rows reuse.

    z[0] is the input batch and z[l] (1-based) the output of layer l. Each
    distinct hidden width n has one pair of rows x n buffers; hidden layer l
    takes member l mod 2 as deltas[l] and the other as slopes[l]. A forward
    pass writes layer l's pre-activation into deltas[l]; backprop writes the
    error delta_l there and sigmoid'(z_l) into slopes[l]. When layer l+1 is
    hidden and as wide, slopes[l] is deltas[l+1]: delta_{l+1} is dead once
    delta_l's matmul has read it. The output layer's delta is an array of
    its own. A delta therefore holds only until the next pass on the cache,
    forward or backward. `versions` records the weight-block versions z was
    computed from.

    Passes write into these buffers in place: a cache handed to `forward`,
    `forward_partial` or `objective.backprop_deltas` is overwritten, and
    `outputs` and the deltas are views of it, not copies. Copy what must
    outlive the next pass. Reusing one cache keeps a run from allocating
    fresh rows x width arrays on every evaluation, B2LD's block trials
    included, which go through `forward_partial` like any other. For the
    `10-[10x50]-1` student that is 12 arrays of rows x 50: ten outputs and
    one pair of buffers.
    """

    z: list = field(default_factory=list)
    deltas: list = field(default_factory=list)    # None at 0
    slopes: list = field(default_factory=list)    # None at 0 and at L
    versions: tuple = ()

    @classmethod
    def for_rows(cls, arch: Architecture, rows: int) -> "ForwardCache":
        """Unfilled buffers for a batch of `rows` samples through `arch`."""
        widths = arch.layer_widths
        pairs = {n: (np.empty((rows, n)), np.empty((rows, n)))
                 for n in widths[:-1]}
        hidden = list(enumerate(widths[:-1], start=1))
        return cls(z=[None] + [np.empty((rows, n)) for n in widths],
                   deltas=[None] + [pairs[n][l % 2] for l, n in hidden]
                   + [np.empty((rows, widths[-1]))],
                   slopes=[None] + [pairs[n][1 - l % 2] for l, n in hidden]
                   + [None])

    @property
    def outputs(self) -> np.ndarray:
        return self.z[-1]


def forward(weights: NetworkWeights, inputs: np.ndarray, cache: ForwardCache = None):
    """Full forward pass; returns (outputs, cache).

    Without a cache, one is allocated for the rows of `inputs`. A cache that
    is given must come from `ForwardCache.for_rows` (or an earlier `forward`)
    for as many rows and the same architecture; it is overwritten in place
    and returned, and the outputs are its z[L]."""
    inputs = np.asarray(inputs, dtype=np.float64)
    arch = weights.arch
    if inputs.shape[1] != arch.input_dim:
        raise ShapeMismatchError("forward inputs", inputs.shape,
                                 (inputs.shape[0], arch.input_dim))
    if cache is None:
        cache = ForwardCache.for_rows(arch, inputs.shape[0])
    else:
        got = [b.shape for b in cache.z[1:]]
        want = [(inputs.shape[0], n) for n in arch.layer_widths]
        if got != want:
            raise ShapeMismatchError("forward cache", got, want)
    cache.z[0] = inputs
    _propagate(weights, inputs, 1, cache)
    cache.versions = weights.versions()
    return cache.outputs, cache


def forward_partial(weights: NetworkWeights, cache: ForwardCache, from_layer: int):
    """Recompute z only for layers >= from_layer, reusing the cached prefix.

    Layers below from_layer must still match the weight versions the cache
    was built from; otherwise the cached prefix is silently wrong and a
    StaleCacheError is raised.
    """
    L = weights.num_layers
    if not 1 <= from_layer <= L:
        raise ValueError(f"from_layer {from_layer} outside 1..{L}")
    cur = weights.versions()
    for l in range(1, from_layer):
        if cache.versions[l - 1] != cur[l - 1]:
            raise StaleCacheError(
                f"cache stale at layer {l}: version {cache.versions[l - 1]} != {cur[l - 1]}")
    _propagate(weights, cache.z[from_layer - 1], from_layer, cache)
    cache.versions = cur
    return cache.outputs, cache


def _propagate(weights: NetworkWeights, z, start: int, cache: ForwardCache):
    """The layer loop of `forward` and `forward_partial`, the one way any
    caller propagates: carry z, the output of layer start-1, through layers
    start..L, writing each layer's output into cache.z, and return the
    network outputs. Hidden layer l's pre-activation passes through
    cache.deltas[l], overwriting any delta held there, and is not kept."""
    L = weights.num_layers
    for l in range(start, L + 1):
        W = weights.block(l)
        if l == L:
            z = np.matmul(z, W, out=cache.z[L])
        else:
            z = sigmoid(np.matmul(z, W, out=cache.deltas[l]), out=cache.z[l])
    return z

