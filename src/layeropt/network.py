"""Feedforward network: architecture, weights, forward propagation with caching.

The network has L weight blocks w_1..w_L, block l of shape (N_{l-1}, N_l) with
N_0 = input dim and N_L = output dim. Hidden layers apply the sigmoid
element-wise; the output layer is linear. There are no bias units: the model
is y = w_L' g(w_{L-1}' g(... g(w_1' x))) acting on samples-as-rows batches,
so a batch Z propagates as Z @ w_1, g(.), @ w_2, ...
"""

import ctypes
import enum
import functools
import numbers
import os
import re
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from .linalg import SeededRng, ShapeMismatchError, _check_int, _is_a


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
    _logistic(a, out, num)
    return float(out) if fresh and not out.ndim else out


def _logistic(a, out, num=None):
    """The passes of `sigmoid`: the logistic of `a` into `out`, with `num`,
    `a` itself unless given, as scratch for the numerator."""
    num = a if num is None else num
    np.negative(a, out=out)
    np.minimum(a, out, out=out)         # -|a|
    np.greater_equal(a, 0.0, out=num)   # 1.0 where a >= 0, else 0.0
    np.exp(out, out=out)                # e
    np.maximum(out, num, out=num)       # np.where(a >= 0, 1.0, e)
    out += 1.0
    np.divide(num, out, out=out)
    return out


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
    block_shapes: tuple = field(init=False, repr=False, compare=False)  # (N_{l-1}, N_l)

    def __post_init__(self):
        if not (_is_a(self.input_dim, numbers.Integral) and self.input_dim >= 1):
            raise ValueError(f"input_dim must be an integer >= 1, got "
                             f"{self.input_dim!r}")
        if len(self.layer_widths) < 1 or not all(
                _is_a(w, numbers.Integral) and w >= 1 for w in self.layer_widths):
            raise ValueError(f"layer_widths must be one or more integers >= 1, "
                             f"got {self.layer_widths!r}")
        widths = tuple(int(w) for w in self.layer_widths)
        object.__setattr__(self, "layer_widths", widths)
        object.__setattr__(self, "block_shapes",
                           tuple(zip((self.input_dim,) + widths, widths)))

    @property
    def num_layers(self) -> int:
        return len(self.layer_widths)

    @property
    def output_dim(self) -> int:
        return self.layer_widths[-1]

    def block_shape(self, layer: int):
        """Shape of weight block `layer` (1-based)."""
        _check_int(layer, "layer", 1, len(self.block_shapes))
        return self.block_shapes[layer - 1]

    @property
    def num_variables(self) -> int:
        return sum(r * c for r, c in self.block_shapes)

    def unflatten(self, vec: np.ndarray) -> list:
        """Blocks 1..L of a flat vector in `NetworkWeights.flatten`'s order,
        views where `vec` is contiguous; one of the wrong length is refused."""
        if vec.size != (n := self.num_variables):
            raise ValueError(f"flat vector length {vec.size} != {n}")
        pos, blocks = 0, []
        for r, c in self.block_shapes:
            blocks.append(vec[pos:pos + r * c].reshape(r, c))
            pos += r * c
        return blocks


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

    A tag is a fresh object() for every block a net is built with or set
    to, equal only to itself. A ForwardCache keeps the tags of the weights
    that filled it, so a cache read with other weights, a copy or another
    net included, or with a block set since, is refused as stale.
    """

    def __init__(self, arch: Architecture, blocks):
        self.arch = arch
        blocks = [np.array(b, dtype=np.float64, order="C") for b in blocks]
        if len(blocks) != arch.num_layers:
            raise ValueError(f"expected {arch.num_layers} blocks, got {len(blocks)}")
        for l, (b, shape) in enumerate(zip(blocks, arch.block_shapes), start=1):
            if b.shape != shape:
                raise ShapeMismatchError(f"weights block {l}", b.shape, shape)
        self._blocks = blocks
        self._versions = [object() for _ in blocks]

    @property
    def num_layers(self) -> int:
        return len(self._blocks)

    def block(self, layer: int) -> np.ndarray:
        """Read weight block `layer` (1-based), refusing a layer outside
        1..L as `block_shape` does. This module's kernels index the blocks
        directly."""
        _check_int(layer, "layer", 1, len(self._blocks))
        return self._blocks[layer - 1]

    @property
    def blocks(self) -> tuple:
        """Blocks 1..L, in order, as a tuple the caller cannot reorder."""
        return tuple(self._blocks)

    def set_block(self, layer: int, value: np.ndarray):
        value = np.array(value, dtype=np.float64, order="C")
        if value.shape != self.arch.block_shape(layer):
            raise ShapeMismatchError(f"weights block {layer}", value.shape,
                                     self.arch.block_shape(layer))
        self._blocks[layer - 1] = value
        self._versions[layer - 1] = object()

    def versions(self):
        return tuple(self._versions)

    def copy(self) -> "NetworkWeights":
        return NetworkWeights(self.arch, [b.copy() for b in self._blocks])

    def flatten(self) -> np.ndarray:
        return np.concatenate([b.ravel() for b in self._blocks])

    def set_from_flat(self, vec: np.ndarray):
        """Set the blocks from `vec`; one of the wrong length sets none."""
        for l, block in enumerate(self.arch.unflatten(vec), start=1):
            self.set_block(l, block)

    def digest(self) -> str:
        import hashlib
        h = hashlib.sha256()
        for b in self._blocks:
            h.update(np.ascontiguousarray(b).tobytes())
        return h.hexdigest()


def init_weights(arch: Architecture, rng: SeededRng) -> NetworkWeights:
    """Uniform fan-in-scaled init: block l entries in [-1/sqrt(N_{l-1}), +1/sqrt(N_{l-1})]."""
    blocks = []
    for r, c in arch.block_shapes:
        bound = 1.0 / np.sqrt(r)
        blocks.append(rng.uniform(-bound, bound, size=(r, c)))
    return NetworkWeights(arch, blocks)


class StaleCacheError(RuntimeError):
    """Partial forward requested against a cache whose lower layers are outdated."""


# A weight block's products, z @ W forward and delta @ W' backward, run by
# row halves, one half on a helper thread, when three things hold:
# - Each output has _SPLIT_MIN or more rows x width elements. With BLAS on
#   one thread, serial -> halves, in us, for a layer's matmul and sigmoid:
#   25 -> 63 at 128x50, 41 -> 74 at 640x20, 106 -> 92 at 2000x20, 153 -> 106
#   at 800x50, 260 -> 149 at 1311x50 and 310 -> 219 at 1600x50. Layers break
#   even near 25,000 elements; 2^16 splits a deep student's 1600x50 layers
#   and leaves serial a data set's 2000x20 teacher pass, which would start
#   the thread for one forward.
# - Each half does _HALF_PRODUCT_MIN or more multiply-adds. OpenBLAS forms
#   products of up to 100^3 with other kernels, whose bits differ: halves of
#   1311x16 @ 16x50 do not give the bits of one call; halves above 2^20 did
#   in every shape tried, with BLAS on one thread or two.
# - Both widths are 2 or more: BLAS forms a matrix-vector product in other
#   ways, and its halves did not keep the bits.
_SPLIT_MIN = 65_536
_HALF_PRODUCT_MIN = 2 ** 20
# A split step whose product is asked for slopes its rows in this many
# chunks, so its scratch holds that share of the rows. At 1,600 x 50 with
# BLAS on one thread, four chunks of 400 rows kept the caller's side of the
# step (matmul, slope, multiply) as fast as one whole pass; 100-row chunks
# cost about 15% more.
_SCRATCH_PARTS = 4


def _can_split() -> bool:
    """Whether a CPU is idle for the helper: BLAS on one thread (with two, a
    1600x50 layer took 304 us in halves against 282 us whole), 2+ CPUs, and
    no multiprocessing worker, whose pool keeps them busy. A worker always
    has `multiprocessing` in `sys.modules`, so the check imports nothing."""
    parent = getattr(sys.modules.get("multiprocessing"), "parent_process", None)
    return _blas_threads() == 1 and len(os.sched_getaffinity(0)) >= 2 \
        and (parent is None or parent() is None)


@functools.cache
def _openblas():
    """(get, set) of the thread count of the OpenBLAS that numpy loaded, or
    None where no OpenBLAS is mapped into the process or the platform has
    no /proc."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:     # a "(deleted)" mapping, for one
            continue
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            query = getattr(lib, name, None)
            if query is not None:
                query.argtypes, query.restype = [], ctypes.c_int
                setter = getattr(lib, name.replace("_get_", "_set_"))
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return query, setter
    return None


def _blas_threads():
    """The thread count `_openblas` reports, or None where it finds no
    OpenBLAS."""
    blas = _openblas()
    return blas and blas[0]()


def _one_blas_thread():
    """Set OpenBLAS, if numpy loaded one, to one thread: `run_experiment`'s
    pool workers start so, as each already has a CPU to itself."""
    if blas := _openblas():
        blas[1](1)


def _reset_helper():
    """No `_helper`, a free lock: a forked child has no worker, no lock holder."""
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


_reset_helper()
os.register_at_fork(after_in_child=_reset_helper)


def _start_helper():
    """Make `_helper` under the lock, once however many first calls overlap."""
    global _helper
    with _helper_lock:
        if _helper is None:
            from concurrent.futures import ThreadPoolExecutor
            _helper = ThreadPoolExecutor(1, thread_name_prefix="layeropt-halves")
    return _helper


def _alongside(job, mine):
    """Run job() on the helper thread and mine() on this one; once both are
    done, raise mine's exception, else job's. The helper is `_helper`'s one
    worker, made at the first call; calling threads queue their jobs on it.
    From the start of interpreter exit, before any atexit hook, none takes a
    job or can be made, and job() then mine() run here. Neither may write
    what the other reads or writes; job calls only numpy and private
    functions, as a tracer that wraps the public ones keeps no lock."""
    try:
        done = (_helper or _start_helper()).submit(job)
    except RuntimeError:    # at exit, from submit or from the import
        job()
        return mine()
    try:
        mine()
    finally:
        failed = done.exception()
    if failed is not None:
        raise failed


def _in_halves(n: int, body):
    """Run body(n // 2, n) as `_alongside`'s job, on the helper thread, and
    body(0, n // 2) on this one; the halves must write disjoint ranges."""
    h = n // 2
    _alongside(lambda: body(h, n), lambda: body(0, h))


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
    forward or backward. `versions` holds the block tags z was computed from,
    () before a forward pass, and `geometry` the (rows, widths) z last fit.

    Passes write into these buffers in place: a cache handed to `forward`,
    `forward_partial` or `objective.backprop_deltas` is overwritten, and
    `outputs` and the deltas are views of it, not copies. Copy what must
    outlive the next pass. Reusing one cache keeps a run from allocating
    fresh rows x width arrays on every evaluation, B2LD's block trials
    included, which go through `forward_partial` like any other. For the
    `10-[10x50]-1` student that is 12 arrays of rows x 50: ten outputs and
    one pair of buffers.

    `split` holds the weight blocks l whose products, z @ W in forward
    layer l and delta @ W' in backward step l-1, run by row halves with the
    helper thread; `for_rows` fills it with the blocks large enough (see
    `_SPLIT_MIN`) when a CPU is idle for the helper (see `_can_split`).
    `_propagate` and `_backpropagate` plan the hand-offs. Each product is
    the serial call or row halves of it, so the bits are the serial ones. A
    split step whose product is asked for writes its slope into `scratch`,
    one array per width n of a layer that a split block reads, of a
    `_SCRATCH_PARTS`th of the rows by n, and empty when nothing splits:
    160,000 bytes for the student on 1,600 rows."""

    z: list = field(default_factory=list)
    deltas: list = field(default_factory=list)    # None at 0
    slopes: list = field(default_factory=list)    # None at 0 and at L
    versions: tuple = ()
    geometry: tuple = ()
    split: tuple = ()
    scratch: dict = field(default_factory=dict)   # width -> chunk x width

    @classmethod
    def for_rows(cls, arch: Architecture, rows: int) -> "ForwardCache":
        """Unfilled buffers for a batch of `rows` samples through `arch`."""
        widths = arch.layer_widths
        pairs = {n: (np.empty((rows, n)), np.empty((rows, n)))
                 for n in widths[:-1]}
        hidden = list(enumerate(widths[:-1], start=1))
        split = tuple(
            l for l, (k, n) in enumerate(arch.block_shapes, start=1)
            if min(k, n) >= 2 and rows * min(k, n) >= _SPLIT_MIN
            and rows // 2 * k * n >= _HALF_PRODUCT_MIN)
        split = split if split and _can_split() else ()
        return cls(z=[None] + [np.empty((rows, n)) for n in widths],
                   deltas=[None] + [pairs[n][l % 2] for l, n in hidden]
                   + [np.empty((rows, widths[-1]))],
                   slopes=[None] + [pairs[n][1 - l % 2] for l, n in hidden]
                   + [None],
                   geometry=(rows, widths), split=split,
                   scratch={n: np.empty((-(-rows // _SCRATCH_PARTS), n))
                            for n in {widths[l - 2] for l in split if l > 1}})

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
    if inputs.shape[1:] != (arch.input_dim,):
        raise ShapeMismatchError("forward inputs", inputs.shape,
                                 inputs.shape[:1] + (arch.input_dim,))
    if cache is None:
        cache = ForwardCache.for_rows(arch, inputs.shape[0])
    elif cache.geometry != (inputs.shape[0], arch.layer_widths):
        got = [b.shape for b in cache.z[1:]]
        want = [(inputs.shape[0], n) for n in arch.layer_widths]
        if got != want:
            raise ShapeMismatchError("forward cache", got, want)
        cache.geometry = (inputs.shape[0], arch.layer_widths)
    cache.z[0] = inputs
    _propagate(weights, inputs, 1, cache)
    cache.versions = weights.versions()
    return cache.outputs, cache


def forward_partial(weights: NetworkWeights, cache: ForwardCache, from_layer: int):
    """Recompute z only for layers >= from_layer, reusing the cached prefix.

    Layers below from_layer must still match the weight versions the cache
    was built from; otherwise the cached prefix is silently wrong and a
    StaleCacheError is raised, as it is for a cache that holds no forward
    pass.
    """
    _check_int(from_layer, "from_layer", 1, weights.num_layers)
    if not cache.versions:
        raise StaleCacheError("cache holds no forward pass")
    cur = weights.versions()
    if cache.versions[:from_layer - 1] != cur[:from_layer - 1]:
        l = next(l for l, (a, b) in enumerate(zip(cache.versions, cur), 1) if a != b)
        raise StaleCacheError(f"cache stale at layer {l}: not filled by this block")
    _propagate(weights, cache.z[from_layer - 1], from_layer, cache)
    cache.versions = cur
    return cache.outputs, cache


def _propagate(weights: NetworkWeights, z, start: int, cache: ForwardCache):
    """The layer loop of `forward` and `forward_partial`, the one way any
    caller propagates: carry z, the output of layer start-1, through layers
    start..L and return the network outputs. Each run of hidden layers that
    do not split is one `_layers` call over all rows; each run of split
    ones, with the hidden layer below it, one call by halves. A block below
    the run and the output block form their products whole."""
    blocks, L, split = weights._blocks, weights.num_layers, cache.split
    if split and split[-1] == L:       # the output product stays whole
        split = split[:-1]
    l = start
    while l < L:
        stop = l + 1
        if l in split or stop in split:
            while stop in split:
                stop += 1
            if l not in split:
                np.matmul(z, blocks[l - 1], out=cache.deltas[l])
            _in_halves(len(z),
                       functools.partial(_layers, blocks, z, l, stop, cache))
        else:
            while stop < L and stop not in split and stop + 1 not in split:
                stop += 1
            _layers(blocks, z, l, stop, cache)
        z, l = cache.z[stop - 1], stop
    return np.matmul(z, blocks[L - 1], out=cache.z[L])


def _layers(blocks, z, first: int, stop: int, cache: ForwardCache, lo=0,
            hi=None):
    """Hidden layers first..stop-1 over rows lo..hi-1 of z_{first-1}, or all
    rows when hi is None, into cache.z. Layer l's pre-activation passes
    through cache.deltas[l], overwriting any delta held there. By halves
    only split blocks form products here: rows of a product do not mix, and
    BLAS gives each half the bits of one call. Rows from 0 go through
    `sigmoid`, which a tracer counts once per layer; the helper's half,
    which starts past 0, calls no public function."""
    split, act = cache.split, _logistic if lo else sigmoid
    if hi is not None:
        z = z[lo:hi]
    for l in range(first, stop):
        a, out = cache.deltas[l], cache.z[l]
        if hi is not None:
            a, out = a[lo:hi], out[lo:hi]
        if hi is None or l in split:
            np.matmul(z, blocks[l - 1], out=a)
        z = act(a, out)


def _backpropagate(weights: NetworkWeights, delta, down_to: int,
                   cache: ForwardCache, products):
    """The layer loop of `objective.backprop_deltas`, `_propagate`'s twin:
    carry delta_L down to delta_{down_to} and write the products asked for,
    as that function says. Step l forms delta_l with block l+1. Each run of
    steps whose blocks do not split is one `_steps` call over all rows,
    products included; each run of split steps whose products are not asked
    for, one call by halves. A split step whose product is asked for is one
    whole call beside the helper, which forms the product whole, as it sums
    over the rows; its slope goes, a chunk of rows at a time, into the
    scratch array for the width, as slopes[l] may be the buffer of the
    delta the helper reads."""
    blocks, split = weights._blocks, cache.split
    l = weights.num_layers - 1
    while l >= down_to:
        stop = l - 1
        if l + 1 not in split:
            while stop >= down_to and stop + 1 not in split:
                stop -= 1
            _steps(blocks, delta, l, stop, cache, products=products)
        elif l + 1 in products:
            z = cache.z[l]
            _alongside(functools.partial(np.matmul, z.T, delta,
                                         out=products[l + 1]),
                       functools.partial(_steps, blocks, delta, l, stop, cache,
                                         slopes={l: cache.scratch[z.shape[1]]}))
        else:
            while stop >= down_to and stop + 1 in split \
                    and stop + 1 not in products:
                stop -= 1
            _in_halves(len(delta),
                       functools.partial(_steps, blocks, delta, l, stop, cache))
        delta, l = cache.deltas[stop + 1], stop
    if down_to in products:
        np.matmul(cache.z[down_to - 1].T, delta, out=products[down_to])
    return delta


def _steps(blocks, delta, first: int, stop: int, cache: ForwardCache, lo=0,
           hi=None, products=(), slopes=None):
    """Steps first down to stop+1 over rows lo..hi-1 of delta_{first+1}, or
    all rows when hi is None. Step l writes delta_l into cache.deltas[l]
    and sigmoid'(z_l) into `slopes`[l], cache.slopes unless given, after
    its last read of delta_{l+1}, whose buffer that may be; a slopes[l] of
    fewer rows takes them in chunks of its length, as elementwise ufuncs
    give the same bits on any run of rows. Over all rows it first forms a
    product asked for."""
    slopes = slopes or cache.slopes
    if hi is not None:
        delta = delta[lo:hi]
    for l in range(first, stop, -1):
        if l + 1 in products:
            np.matmul(cache.z[l].T, delta, out=products[l + 1])
        d, z, s = cache.deltas[l], cache.z[l], slopes[l]
        if hi is not None:
            d, z, s = d[lo:hi], z[lo:hi], s[lo:hi]
        delta = np.matmul(delta, blocks[l].T, out=d)
        k = len(s)
        if k == len(d):
            delta *= _sigmoid_slope(z, out=s)
        else:   # a scratch of fewer rows: chunks of k rows
            for i in range(0, len(d), k):
                part = delta[i:i + k]
                part *= _sigmoid_slope(z[i:i + k], out=s[:len(part)])
