"""A record of the machine a run measured on, and a fixed reference kernel.

The reference kernel uses numpy alone, so its time moves with the machine
and not with layeropt: set beside a run's metrics, it tells drift of a
shared machine apart from a change in the program.
"""

import ctypes
import os
import platform
import statistics
import time

import numpy as np

_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads", "openblas_get_num_threads",
                   "MKL_Get_Max_Threads")


def blas_info():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


def blas_threads():
    """Thread count reported by the loaded BLAS library, or None."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {ln.split()[-1] for ln in fh if len(ln.split()) >= 6}
    except OSError:
        return None
    libs = [p for p in paths
            if "blas" in os.path.basename(p).lower() and ".so" in p]
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _THREAD_QUERIES:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def reference_kernel_ms():
    """Median of 9 timings of a fixed numpy workload: a 256x256 product and
    an exp over 100k values."""
    gen = np.random.Generator(np.random.PCG64(12345))
    a = gen.uniform(-1.0, 1.0, size=(256, 256))
    v = gen.normal(0.0, 1.0, size=100_000)
    samples = []
    for _ in range(9):
        t0 = time.perf_counter()
        for _ in range(5):
            float((a @ a).sum()) + float(np.exp(-np.abs(v)).sum())
        samples.append((time.perf_counter() - t0) / 5 * 1e3)
    return statistics.median(samples)


def machine_record():
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads": blas_threads(),
        "reference_kernel_ms": reference_kernel_ms(),
    }
