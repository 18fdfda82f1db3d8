"""Kernel microbenchmarks at the shapes the workloads run.

``sigmoid`` and the delta step call layeropt; the two matrix products are
the numpy calls the package issues for a layer's forward product and a
block gradient, so they move only with layout, dtype or BLAS changes.
"""

import statistics
import time

import numpy as np

import layeropt.linalg as linalg
import layeropt.network as network
import layeropt.objective as objective

REPEATS = 15
MIN_BATCH_S = 2e-3


def time_us(fn):
    """Median time of one call in microseconds, over REPEATS batches of calls
    sized to last at least MIN_BATCH_S."""
    fn()
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 >= MIN_BATCH_S:
            break
        n *= 2
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t0) / n)
    return statistics.median(samples) * 1e6


def kernel_metrics():
    gen = np.random.Generator(np.random.PCG64(2024))
    out = {}
    for rows, cols in ((1600, 50), (128, 50), (64, 20)):
        a = gen.normal(0.0, 2.0, size=(rows, cols))
        out[f"network.sigmoid_us.{rows}x{cols}"] = time_us(lambda: network.sigmoid(a))
    z = gen.uniform(0.0, 1.0, size=(1600, 50))
    w = gen.uniform(-0.14, 0.14, size=(50, 50))
    delta = gen.normal(0.0, 1.0, size=(1600, 50))
    out["network.matmul_us.1600x50"] = time_us(lambda: z @ w)
    out["objective.block_grad_us.1600x50"] = time_us(lambda: z.T @ delta)
    # one backward sweep of the 10-[10x50]-1 student over 1600 rows, per step
    student = network.parse_architecture("10-[10x50]-1")
    weights = network.init_weights(student, linalg.SeededRng(0))
    _, cache = network.forward(weights, gen.uniform(0.0, 1.0, size=(1600, 10)))
    Y = gen.uniform(0.0, 1.0, size=(1600, 1))
    steps = student.num_layers - 1
    out["objective.delta_step_us.1600x50"] = time_us(
        lambda: objective.backprop_deltas(weights, cache, Y, 1)) / steps
    return out
