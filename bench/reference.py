"""The benchmark's own numpy model of the problem, written apart from layeropt.

Output checks compare layeropt's results with these functions, so none of
them calls into the package. They follow the documented model: sigmoid
hidden layers, a linear output layer, no bias units, samples as rows, and
f(w) = (1/P) sum ||yhat - y||^2 + rho ||w||^2 with rho = 1e-3 / n.
"""

import hashlib
import math

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15


def sigmoid(a):
    # tanh form: a different formula from the package's, equal to ~1 ulp
    return 0.5 * (1.0 + np.tanh(0.5 * a))


def block_shapes(input_dim, layer_widths):
    fan_in = [input_dim] + list(layer_widths[:-1])
    return list(zip(fan_in, layer_widths))


def default_rho(input_dim, layer_widths):
    return 1e-3 / sum(r * c for r, c in block_shapes(input_dim, layer_widths))


def init_blocks(input_dim, layer_widths, seed):
    """Uniform fan-in init, block l in [-1/sqrt(N_{l-1}), 1/sqrt(N_{l-1})],
    all blocks drawn in order from one PCG64 stream."""
    gen = np.random.Generator(np.random.PCG64(int(seed)))
    blocks = []
    for r, c in block_shapes(input_dim, layer_widths):
        bound = 1.0 / np.sqrt(r)
        blocks.append(gen.uniform(-bound, bound, size=(r, c)))
    return blocks


def child_seed(seed, tag):
    return (int(seed) * _GOLDEN + tag) % (1 << 63)


def digest(blocks):
    h = hashlib.sha256()
    for b in blocks:
        h.update(np.ascontiguousarray(b, dtype=np.float64).tobytes())
    return h.hexdigest()


def forward(blocks, X):
    z = np.asarray(X, dtype=np.float64)
    for i, W in enumerate(blocks):
        a = z @ W
        z = a if i == len(blocks) - 1 else sigmoid(a)
    return z


def objective(blocks, X, Y, rho):
    resid = forward(blocks, X) - Y
    sq = sum(float(np.sum(b * b)) for b in blocks)
    return float(np.sum(resid * resid)) / X.shape[0] + rho * sq


def teacher_dataset(input_dim, layer_widths, samples, noise_sd, seed):
    """Inputs uniform in [0,1]^d, targets from a seeded teacher plus noise."""
    teacher = init_blocks(input_dim, layer_widths, child_seed(seed, 1))
    X = np.random.Generator(np.random.PCG64(child_seed(seed, 2))).uniform(
        0.0, 1.0, size=(samples, input_dim))
    Y = forward(teacher, X)
    if noise_sd > 0:
        Y = Y + np.random.Generator(np.random.PCG64(child_seed(seed, 3))).normal(
            0.0, noise_sd, size=Y.shape)
    return X, Y


def split_normalize(X, Y, test_fraction, seed):
    """Seeded shuffle and cut, then min-max scaling fitted on the train rows.
    Returns (X_train, Y_train, X_test, Y_test)."""
    P = X.shape[0]
    perm = np.random.Generator(np.random.PCG64(int(seed))).permutation(P)
    n_train = math.ceil(P * (1.0 - test_fraction))
    tr, te = perm[:n_train], perm[n_train:]

    def scale(train, test):
        lo, hi = train.min(axis=0), train.max(axis=0)
        span = np.where(hi - lo == 0.0, 1.0, hi - lo)
        return (train - lo) / span, (test - lo) / span

    Xtr, Xte = scale(X[tr], X[te])
    Ytr, Yte = scale(Y[tr], Y[te])
    return Xtr, Ytr, Xte, Yte


def target_variance(Y):
    """Mean squared deviation of the targets from their column means: the
    unregularized objective of the best constant predictor."""
    resid = Y - Y.mean(axis=0)
    return float(np.sum(resid * resid)) / Y.shape[0]
