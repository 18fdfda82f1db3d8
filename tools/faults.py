"""Warm-run wall time, minor page faults, peak RSS and traced peak of B2LD,
LBFGS, BLInG and IG.

    python3 tools/faults.py

Like ``outcomes.py``, it imports layeropt from the ``src/`` beside this
file's directory, so it measures the tree it sits in. Each method runs on the
criterion-10 instance with ``outcomes.py``'s budgets (40 inner iterations for
B2LD and LBFGS, 10 epochs of batch 128 for BLInG and IG), at init seed 0, in
a fresh process: one warm-up run, then one measured run. For that run it
prints the wall time and ``ru_minflt`` from ``getrusage``, the minor page
faults: pages the process touched afresh, for example after the allocator
handed freed memory back to the kernel. They show memory churn that the
wall time alone hides. It also prints the process's peak resident set
size (``ru_maxrss``) after both runs, in MB: each method's own memory high
mark, with the interpreter, numpy and the dataset included. Then a third,
identical run goes under ``tracemalloc``, and ``traced_peak_b`` is the peak
of the bytes it allocated, numpy buffers and Python objects included.
Unlike ``ru_maxrss``, it repeats from run to run, so a memory change can
cite it as a count. For BLInG and IG it repeats exactly. B2LD and LBFGS
run large layers on the helper thread, whose slice views the peak may or
may not catch alive, so theirs can move by up to about 100 bytes; at
2 CPUs both repeated exactly over three runs. B2LD's peak falls inside a
``full_gradient`` sweep, so the objects a sweep holds, such as the map of
its products, count there.
``threads`` is ``threading.active_count()`` after the measured run: 2 where
the method's layers ran by halves, so that the worker thread of network.py's
one-worker executor has started, 1 where they did not. BLAS is pinned to one
thread.
"""

import argparse
import resource
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

# outcomes pins BLAS before numpy is first imported and puts src/ on the path
from outcomes import DEEP  # noqa: E402

from layeropt.harness import (ALGORITHMS, prepare_dataset,  # noqa: E402
                              resolve_architecture, run_single)
from layeropt.linalg import SeededRng  # noqa: E402
from layeropt.network import init_weights  # noqa: E402

SEED = 0


def measure(method):
    """(seconds, minor faults, live threads) of the second of two identical
    runs, the process's peak RSS in MB after them, and the traced peak bytes
    of a third."""
    train, test = prepare_dataset(DEEP["dataset"])
    arch = resolve_architecture(DEEP["architectures"][0], train.num_features,
                                train.num_targets)
    weights0 = init_weights(arch, SeededRng(SEED))

    def run():
        run_single(method, weights0, train, test, DEEP["stopping"],
                   batch_size=DEEP["batch_size"], seed=SEED)

    run()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    run()
    seconds = time.perf_counter() - start
    threads = threading.active_count()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    tracemalloc.start()
    try:
        run()
        traced_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (seconds, usage.ru_minflt - faults, threads, usage.ru_maxrss / 1024,
            traced_peak)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--method", choices=ALGORITHMS,
                        help="measure this method in this process and print "
                             "one tab-separated line")
    args = parser.parse_args(argv)
    if args.method:
        seconds, faults, threads, peak_mb, traced_peak = measure(args.method)
        print(f"{args.method}\t{seconds:.3f}\t{faults}\t{threads}"
              f"\t{peak_mb:.1f}\t{traced_peak}")
        return
    print(f"{'method':<8}{'warm_run_s':>12}{'minor_faults':>14}{'threads':>9}"
          f"{'peak_rss_mb':>13}{'traced_peak_b':>15}")
    for method in ALGORITHMS:
        line = subprocess.run([sys.executable, __file__, "--method", method],
                              capture_output=True, text=True, check=True).stdout
        name, seconds, faults, threads, peak_mb, traced_peak = line.split()
        print(f"{name:<8}{seconds:>12}{faults:>14}{threads:>9}{peak_mb:>13}"
              f"{int(traced_peak):>15,}")


if __name__ == "__main__":
    main()
