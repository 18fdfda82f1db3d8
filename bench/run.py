"""Run one benchmark workload and print its metrics as the last line.

    python3 bench/run.py --workload deep-batch --seed 0 --seconds 40 --trace 0

Run from the repository root; layeropt is imported from ``src/``. With
``--trace 0`` the result holds the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of traced rounds, which alternate with untraced
rounds of the same operations. A record of the run, with the machine record
and, when traced, the spans of the first traced round, is written to
``.bench_out/``.
"""

import os

# One BLAS thread, set before numpy is first imported. This is the
# benchmark's choice: the package's own thread handling cannot show here.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_WARMUP = 3   # lazy set-up a process pays once, left out of setup_s
# Set-up is timed in batches before the first round and after every round,
# so that one slow moment of a shared machine does not set its median.
SETUP_BATCH = 5

END_TO_END = {
    "setup_s": "s", "decomp_run_s": "s", "base_run_s": "s",
    "decomp_final_f_rel": "ratio", "base_final_f_rel": "ratio",
    "runs_per_s": "1/s", "peak_rss_mb": "MB",
}

PER_LAYER = {
    "network.forward_calls": "count", "network.forward_partial_calls": "count",
    "network.layer_forwards": "count", "network.sigmoid_calls": "count",
    "network.sigmoid_s": "s", "network.forward_self_s": "s",
    "network.sigmoid_us.1600x50": "us", "network.sigmoid_us.128x50": "us",
    "network.sigmoid_us.64x20": "us", "network.matmul_us.1600x50": "us",
    "objective.backprop_calls": "count", "objective.delta_steps": "count",
    "objective.backprop_s": "s", "objective.full_gradient_calls": "count",
    "objective.block_gradient_calls": "count",
    "objective.delta_step_us.1600x50": "us", "objective.block_grad_us.1600x50": "us",
    "solvers.lbfgs_iterations": "count", "solvers.fg_evals": "count",
    "solvers.armijo_trials": "count", "solvers.useful_eval_ratio": "ratio",
    "solvers.self_s": "s",
    "batch.inner_solves": "count", "batch.self_s": "s",
    "minibatch.steps": "count", "minibatch.self_s": "s",
    "data.load_delimited_s": "s", "data.prepare_s": "s",
    "harness.task_busy_s": "s", "harness.pool_busy_ratio": "ratio",
    "harness.emit_report_s": "s", "harness.load_report_s": "s",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Round:
    traced: bool
    wall: float
    ops: list
    summary: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def time_setup(workload, times, repeats=SETUP_BATCH):
    for _ in range(repeats):
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)


def measure(workload, seconds, traced, tracer=None, setup_times=None):
    """Whole rounds until the next one would end past ``seconds``; at least
    two. Traced runs alternate untraced and traced rounds. After each round
    the inputs are built again into ``setup_times``, when it is given."""
    rounds = []
    start = time.perf_counter()
    while True:
        trace_this = traced and len(rounds) % 2 == 1
        if trace_this:
            tracer.reset()
            tracer.install()
        t0 = time.perf_counter()
        try:
            ops = workload.round(tracer if trace_this else None)
        finally:
            if trace_this:
                tracer.uninstall()
        rnd = Round(trace_this, time.perf_counter() - t0, ops)
        if trace_this:
            rnd.summary, rnd.spans = tracer.summary(), tracer.spans
        rounds.append(rnd)
        if setup_times is not None:
            time_setup(workload, setup_times)
        elapsed = time.perf_counter() - start
        if len(rounds) >= 2 and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def peak_rss_mb(workers):
    """Peak resident set of this process, plus workers times the largest
    peak among its finished children (the pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def end_to_end(workload, rounds, setup_times):
    ops_per_s = statistics.median(
        sum(op.method != "report" for op in r.ops) / r.wall for r in rounds)
    values = dict(workload.metrics(rounds), setup_s=statistics.median(setup_times),
                  runs_per_s=ops_per_s,
                  peak_rss_mb=peak_rss_mb(getattr(workload, "workers", 0)))
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def per_layer(workload, rounds):
    import checks
    import kernels
    import layertrace

    traced = [r for r in rounds if r.traced]
    untraced = [r for r in rounds if not r.traced]
    per_round = [layertrace.layer_metrics(r.summary, getattr(workload, "workers", 0))
                 for r in traced]
    for m in per_round[1:]:
        for name in layertrace.COUNT_METRICS:
            if m[name] != per_round[0][name]:
                raise checks.CheckError(f"{name} differs between traced rounds: "
                                        f"{m[name]} != {per_round[0][name]}")
    values = {name: per_round[0][name] if name in layertrace.COUNT_METRICS
              else statistics.median(m[name] for m in per_round)
              for name in per_round[0]}
    values.update(kernels.kernel_metrics())
    values["trace.overhead_ratio"] = (statistics.median(r.wall for r in traced)
                                      / statistics.median(r.wall for r in untraced))
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER.items()}


def main(argv=None):
    args = parse_args(argv)
    sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]
    try:
        import layeropt  # noqa: F401
    except ImportError as exc:
        print(f"cannot import layeropt from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import checks
    import layertrace
    import machine
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"work-{os.getpid()}"
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine.machine_record()}
    correct, error, setup_times = True, None, []
    try:
        wl = workloads.make(args.workload, args.seed, str(workdir))
        time_setup(wl, [], SETUP_WARMUP)
        time_setup(wl, setup_times)
        wl.verify_inputs()
        tracer = layertrace.Tracer() if args.trace else None
        rounds = measure(wl, args.seconds, bool(args.trace), tracer, setup_times)
        metrics = per_layer(wl, rounds) if args.trace \
            else end_to_end(wl, rounds, setup_times)
    except checks.CheckError as exc:
        correct, error, rounds, metrics = False, str(exc), [], {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for r in rounds for op in r.ops]
    result = {"correct": correct, "attempted": max(len(ops), 1),
              "failed": sum(op.failed for op in ops), "metrics": metrics}
    record.update(result=result, error=error, setup_s=setup_times, rounds=[
        {"traced": r.traced, "wall_s": r.wall,
         "ops": [vars(op) for op in r.ops]} for r in rounds])
    spans = next((r.spans for r in rounds if r.traced), None)
    if spans is not None:
        record["spans"] = {"fields": ["name", "start_ns", "end_ns", "parent"],
                           "rows": spans}
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_dir / name, "w") as fh:
        json.dump(record, fh)
    if error:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({"machine": record["machine"]}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
