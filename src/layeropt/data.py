"""Dataset ingestion, min-max normalization, splitting, synthetic teachers.

File format: UTF-8 text, no header, a row per sample split by one delimiter
character. `save_dataset` writes it comma-delimited, targets first, ``%.17g``;
`load_delimited`, for ``kind: "file"`` datasets, reads it back bitwise.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .linalg import SeededRng, _is_a
from .network import Architecture, forward, init_weights


@dataclass
class Dataset:
    X: np.ndarray   # (P, d) features, samples as rows
    Y: np.ndarray   # (P, m) targets

    def __post_init__(self):
        self.X = np.atleast_2d(np.asarray(self.X, dtype=np.float64))
        self.Y = np.atleast_2d(np.asarray(self.Y, dtype=np.float64))
        if self.Y.shape[0] != self.X.shape[0]:
            raise ValueError(f"X has {self.X.shape[0]} rows, Y has {self.Y.shape[0]}")

    @property
    def num_samples(self) -> int:
        return self.X.shape[0]

    @property
    def num_features(self) -> int:
        return self.X.shape[1]

    @property
    def num_targets(self) -> int:
        return self.Y.shape[1]


class ParseError(ValueError):
    """Malformed delimited input; names its file, carries 1-based row/column."""

    def __init__(self, message, row=None, col=None):
        self.row = row
        self.col = col
        super().__init__(message)


def load_delimited(path, target_columns, delimiter=",") -> Dataset:
    """Read a file of the module's format and split its columns into the
    targets at the 1-based `target_columns` and the features. The delimiter
    is not detected: the caller states it."""
    rows = []
    width = None
    # bytes that are not UTF-8 read as lone surrogates, which encode() refuses
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        lines = [ln for ln in (raw.strip() for raw in fh) if ln]
    for r, line in enumerate(lines, start=1):
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise ParseError(f"{path}: row {r} is not UTF-8 text", row=r) from None
        cells = line.split(delimiter)
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise ParseError(f"{path}: row {r} has {len(cells)} cells, "
                             f"expected {width}", row=r)
        parsed = []
        for c, cell in enumerate(cells, start=1):
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ParseError(f"{path}: non-numeric or non-finite value "
                                 f"{cell!r} at row {r}, column {c}", row=r, col=c)
            parsed.append(value)
        rows.append(parsed)
    if not rows:
        raise ParseError(f"{path} contains no data rows")
    mat = np.array(rows, dtype=np.float64)
    targets = sorted(set(int(c) for c in target_columns))
    if any(not 1 <= c <= mat.shape[1] for c in targets):
        raise ValueError(f"target columns {targets} outside 1..{mat.shape[1]}")
    tmask = np.zeros(mat.shape[1], dtype=bool)
    tmask[[c - 1 for c in targets]] = True
    return Dataset(X=mat[:, ~tmask], Y=mat[:, tmask])


def fit_apply_normalization(train: Dataset, test: Dataset):
    """Fit per-column min-max scaling on the training rows only and apply it
    to both splits: train columns map to [0,1], constant ones to 0 (their
    divisor is forced to 1). Returns (train, test, bounds), `bounds` being
    the (min, max) pairs of the X columns and of the Y columns."""
    if train.num_samples == 0:
        raise ValueError("training split is empty")
    bounds = [(v.min(axis=0), v.max(axis=0)) for v in (train.X, train.Y)]
    (x_lo, _), (y_lo, _) = bounds
    x_span, y_span = (np.where(hi - lo == 0.0, 1.0, hi - lo) for lo, hi in bounds)

    def scaled(ds):
        return Dataset(X=(ds.X - x_lo) / x_span, Y=(ds.Y - y_lo) / y_span)

    return scaled(train), scaled(test), bounds


def train_test_split(ds: Dataset, test_fraction: float, seed: int):
    """Seeded shuffle then cut; train gets ceil(P*(1-frac)) rows."""
    if not 0 < test_fraction < 1:
        raise ValueError("test_fraction must be in (0,1)")
    P = ds.num_samples
    perm = SeededRng(seed).permutation(P)
    n_train = math.ceil(P * (1.0 - test_fraction))
    tr, te = perm[:n_train], perm[n_train:]
    return Dataset(ds.X[tr], ds.Y[tr]), Dataset(ds.X[te], ds.Y[te])


# What `synth_teacher_dataset` asks of its sample count and noise, by the
# names `DatasetSpec` gives them: a test and the words for what it asks.
SYNTH_RULES = {
    "samples": (lambda P: _is_a(P, numbers.Integral) and P >= 1,
                "must be an int >= 1"),
    "noise_sd": (lambda sd: _is_a(sd, numbers.Real) and math.isfinite(sd)
                 and sd >= 0, "must be a finite number >= 0")}


def synth_teacher_dataset(arch: Architecture, P: int, noise_sd: float,
                          seed: int) -> Dataset:
    """Inputs uniform in [0,1]^d; targets are a seeded teacher network's
    outputs plus Gaussian noise. Realizable by construction at noise_sd=0.
    P and noise_sd that break `SYNTH_RULES` raise a ValueError naming the
    field, before any draw."""
    for key, value in (("samples", P), ("noise_sd", noise_sd)):
        ok, need = SYNTH_RULES[key]
        if not ok(value):
            raise ValueError(f"{key} {value!r} {need}")
    rng = SeededRng(seed)
    teacher = init_weights(arch, rng.child(1))
    X = rng.child(2).uniform(0.0, 1.0, size=(P, arch.input_dim))
    Y, _ = forward(teacher, X)
    if noise_sd > 0:
        Y = Y + rng.child(3).normal(0.0, noise_sd, size=Y.shape)
    return Dataset(X=X, Y=Y)


def save_dataset(path, ds: Dataset):
    """Write `ds` in the module's dataset file format, targets first."""
    np.savetxt(path, np.hstack([ds.Y, ds.X]), fmt="%.17g", delimiter=",")
