import os

import numpy as np

from layeropt import network
from layeropt.harness import ExperimentConfig
from layeropt.linalg import SeededRng
from layeropt.network import Architecture, init_weights
from layeropt.objective import ObjectiveConfig, objective_value

CRITERION_RESULTS = []


def record_criterion(number, passed, detail):
    CRITERION_RESULTS.append((number, passed, detail))


def pytest_terminal_summary(terminalreporter):
    if not CRITERION_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, passed, detail in sorted(CRITERION_RESULTS):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"CRITERION {number:2d}: {status} — {detail}")


def counted(fn, tally, key):
    """`fn` wrapped to add one to tally[key] on every call."""
    def wrapper(*args, **kwargs):
        tally[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def count_callback_calls(monkeypatch, module, name, tally, key):
    """Replace `module.name(callback, ...)` by a wrapper that counts the
    calls of the callback it is handed under tally[key]."""
    fn = getattr(module, name)

    def wrapper(callback, *args, **kwargs):
        return fn(counted(callback, tally, key), *args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)


def idle_cpu(mp):
    """An affinity of two CPUs and BLAS on one thread, whatever the machine
    has, so that large layers run by halves; BLAS keeps its own thread
    count."""
    mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    mp.setattr(network, "_blas_threads", lambda: 1)


def make_problem(widths, input_dim, P, seed, rho=1e-3):
    """A seeded net of `widths` over `input_dim` inputs, with P rows of
    uniform inputs and targets and the objective config of rho over P."""
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


def small_experiment():
    """Four algorithms, two architectures and three seeds on a small
    synthetic set: 24 runs of a few iterations each."""
    raw = {
        "datasets": [{"name": "toy", "kind": "synthetic",
                      "teacher_arch": "3-[1x4]-1", "samples": 60,
                      "noise_sd": 0.01, "data_seed": 5}],
        "architectures": ["[1x4]", "[2x4]"],
        "algorithms": ["B2LD", "LBFGS", "BLInG", "IG"],
        "seeds": [0, 1, 2],
        "stopping": {"time_limit_seconds": None, "max_cycles": 3,
                     "max_epochs": 3, "max_inner_iters": 15},
        "batch_size": 16,
    }
    return ExperimentConfig.from_dict(raw)
