"""Dataset ingestion, min-max normalization, splitting, synthetic teachers.

File format: comma-delimited UTF-8 text, a row per sample, its m targets and
then its features written ``%.17g``. `save_dataset` writes it; `load_delimited`,
which ``kind: "file"`` datasets use, reads it back bitwise with targets 1..m.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import SeededRng
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


def load_delimited(path, target_columns, delimiter=",", has_header=False) -> Dataset:
    """Read a numeric delimited UTF-8 text file and split it into
    features/targets.

    `target_columns` are 1-based column indices. No delimiter auto-detection:
    the caller states the format explicitly.
    """
    rows = []
    width = None
    # bytes that are not UTF-8 read as lone surrogates, which encode() refuses
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        lines = [ln for ln in (raw.strip() for raw in fh) if ln]
    if has_header:
        lines = lines[1:]
    for r, line in enumerate(lines, start=1):
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise ParseError(f"{path}: row {r} is not UTF-8 text", row=r) from None
        cells = line.split(delimiter) if delimiter != " " else line.split()
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


@dataclass
class NormalizationModel:
    """Per-column min/max learned from training rows; maps train columns to
    [0,1]. Constant columns map to 0 (the scale divisor is forced to 1)."""

    x_min: np.ndarray
    x_max: np.ndarray
    y_min: np.ndarray
    y_max: np.ndarray

    @staticmethod
    def fit(train: Dataset) -> "NormalizationModel":
        return NormalizationModel(
            x_min=train.X.min(axis=0), x_max=train.X.max(axis=0),
            y_min=train.Y.min(axis=0), y_max=train.Y.max(axis=0))

    @staticmethod
    def _scale(values, lo, hi):
        span = hi - lo
        span = np.where(span == 0.0, 1.0, span)
        return (values - lo) / span

    def apply(self, ds: Dataset) -> Dataset:
        return Dataset(X=self._scale(ds.X, self.x_min, self.x_max),
                       Y=self._scale(ds.Y, self.y_min, self.y_max))


def fit_apply_normalization(train: Dataset, test: Dataset):
    """Fit min-max scaling on the training rows only, apply to both splits."""
    if train.num_samples == 0:
        raise ValueError("training split is empty")
    model = NormalizationModel.fit(train)
    return model.apply(train), model.apply(test), model


def train_test_split(ds: Dataset, test_fraction: float, seed: int):
    """Seeded shuffle then cut; train gets ceil(P*(1-frac)) rows."""
    if not 0 < test_fraction < 1:
        raise ValueError("test_fraction must be in (0,1)")
    P = ds.num_samples
    perm = SeededRng(seed).permutation(P)
    n_train = math.ceil(P * (1.0 - test_fraction))
    tr, te = perm[:n_train], perm[n_train:]
    return Dataset(ds.X[tr], ds.Y[tr]), Dataset(ds.X[te], ds.Y[te])


def synth_teacher_dataset(arch: Architecture, P: int, noise_sd: float,
                          seed: int) -> Dataset:
    """Inputs uniform in [0,1]^d; targets are a seeded teacher network's
    outputs plus Gaussian noise. Realizable by construction at noise_sd=0."""
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
