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


class Activation(enum.Enum):
    SIGMOID = "sigmoid"
    LINEAR = "linear"


def sigmoid(a):
    """Numerically stable logistic function, safe for |a| up to ~1e3.

    With e = exp(-|a|) this is 1/(1+e) for a >= 0 and e/(1+e) below, the
    same two expressions as 1/(1+exp(-a)) and exp(a)/(1+exp(a)), in one pass
    with no exponential that can overflow. -|a| is taken as min(a, -a), which
    also keeps the sign of a NaN input."""
    a = np.asarray(a, dtype=np.float64)
    e = np.exp(np.minimum(a, -a))
    out = np.where(a >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out if out.ndim else float(out)


def sigmoid_prime(a):
    s = sigmoid(a)
    return s * (1.0 - s)


# Per activation: the function of the pre-activation a, and its derivative
# written in the output z = g(a), which the forward cache already holds.
_ACT = {
    Activation.SIGMOID: (sigmoid, lambda z: z * (1.0 - z)),
    Activation.LINEAR: (lambda a: np.asarray(a, dtype=np.float64),
                        lambda z: np.ones_like(np.asarray(z, dtype=np.float64))),
}


@dataclass(frozen=True)
class Architecture:
    """Widths of a feedforward net: input dim, hidden+output layer widths."""

    input_dim: int
    layer_widths: tuple  # N_1..N_L, last entry is the output dim
    activation: Activation = Activation.SIGMOID

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


_ARCH_RE = re.compile(r"^(\d+)-\[([0-9x,\s]+)\]-(\d+)$")


def parse_architecture(text: str, activation: Activation = Activation.SIGMOID) -> Architecture:
    """Parse "d-[LxN]-m" or "d-[N1,N2,...]-m" into an Architecture.

    "13-[10x50]-1" means 13 inputs, 10 hidden layers of 50 neurons, 1 output;
    "59-[200,50,200]-1" lists the hidden widths explicitly.
    """
    m = _ARCH_RE.match(text.strip())
    if not m:
        raise ValueError(f"unrecognized architecture string: {text!r}")
    d, hidden, out = int(m.group(1)), m.group(2).replace(" ", ""), int(m.group(3))
    if "x" in hidden:
        L, N = hidden.split("x")
        widths = [int(N)] * int(L)
    else:
        widths = [int(tok) for tok in hidden.split(",") if tok]
    return Architecture(d, tuple(widths + [out]), activation)


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
    """Per-layer pre-activations `a` and outputs `z` for one input batch.

    z[0] is the input batch; a[l] and z[l] (1-based) are the pre-activation
    and output of layer l. `versions` records the weight-block versions the
    entries were computed from.
    """

    a: list = field(default_factory=list)   # a[0] unused placeholder
    z: list = field(default_factory=list)
    versions: tuple = ()

    @property
    def outputs(self) -> np.ndarray:
        return self.z[-1]


def forward(weights: NetworkWeights, inputs: np.ndarray):
    """Full forward pass; returns (outputs, cache)."""
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.shape[1] != weights.arch.input_dim:
        raise ShapeMismatchError("forward inputs", inputs.shape,
                                 (inputs.shape[0], weights.arch.input_dim))
    cache = ForwardCache(a=[None] * (weights.num_layers + 1),
                         z=[None] * (weights.num_layers + 1))
    cache.z[0] = inputs
    _propagate(weights, inputs, 1, cache)
    cache.versions = weights.versions()
    return cache.outputs, cache


def forward_partial(weights: NetworkWeights, cache: ForwardCache, from_layer: int):
    """Recompute a/z only for layers >= from_layer, reusing the cached prefix.

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


def _propagate(weights: NetworkWeights, z, start: int, cache: ForwardCache = None,
               override: np.ndarray = None):
    """The layer loop: carry z, the output of layer start-1, through layers
    start..L and return the network outputs. Block `start` is read from
    `override` when one is given. With a cache, every visited layer's a and z
    are stored into it; without one, nothing per layer is kept."""
    L = weights.num_layers
    g, _ = _ACT[weights.arch.activation]
    for l in range(start, L + 1):
        a = z @ (override if l == start and override is not None
                 else weights.block(l))
        if cache is not None:
            cache.a[l] = a
        z = a if l == L else g(a)
        if cache is not None:
            cache.z[l] = z
    return z


def hidden_activation_prime(arch: Architecture):
    """Derivative of the hidden activation, as a callable on the layer output
    z = g(a): z * (1 - z) for the sigmoid, ones for the linear activation."""
    return _ACT[arch.activation][1]
