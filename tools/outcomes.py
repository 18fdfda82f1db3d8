"""Outcome digests of B2LD, LBFGS, BLInG and IG: the bitwise check for a
change that should not move any result.

    python3 tools/outcomes.py outcomes.json

layeropt is imported from the ``src/`` beside this file's directory, so the
script runs the tree it sits in. It writes one record per run, every float as
``float.hex()``, for ten sets:

- ``deep``: the criterion-10 instance (a ``10-[2x20]-1`` teacher, 2000
  samples, noise 0.05, data seed 99, an 80/20 split, min-max scaling, a
  ``10-[10x50]-1`` student) at init seeds 0 and 1, all four methods, with
  tolerances that never stop a run: 40 inner iterations for B2LD and LBFGS,
  10 epochs of batch 128 for BLInG and IG;
- ``demo``: the 40-run cross product of the demo experiment, with its
  config written out below;
- ``one-batch``: BLInG and IG at init seeds 0-2 with a ``batch_size`` above
  the 48 training rows, so that each run has one minibatch, and an explicit
  rho = 0.1, for which 48 * rho / 48 != rho: these records move if a
  minibatch of every row is given rho itself instead of its component's
  rho, ``cfg.component(P)``;
- ``deep-failing-armijo``: B2LD on the ``deep`` runs, with a reference
  Armijo search that starts at a = 1e3 and may halve three times, so that
  20 of its 99 searches fail: these records move if a visit whose search
  failed leaves the run's forward cache other than it found it, and, as
  each failed search's trials set the block and the visit sets it back,
  if it leaves the weights other than it found them;
- ``file``: the demo's data written by ``save_dataset`` to a temporary
  file, targets first, and read back as a ``kind: "file"`` dataset, all
  four methods on ``[2x20]`` at init seeds 0 and 1: these records move if
  ``load_delimited`` or the min-max scaling changes what a run is given;
- ``odd-rows``: B2LD and LBFGS on the ``deep`` student at init seed 0,
  trained on the first 1,599 of its training rows, so that each layer that
  runs by row halves splits into 799 and 800 rows: these records move if
  uneven halves lose the bits of one call;
- ``mixed-widths``: B2LD and LBFGS on a ``10-[50,100,50]-1`` student over
  the ``deep`` data's 1,600 training rows at init seed 0: in a full
  backward sweep the helper thread writes block l+1's product
  z_l' delta_{l+1} while the caller forms delta_{l+1} W_{l+1}', and in this
  net delta_{l+1} does not share a buffer with slopes[l], so these records
  pin that overlap where the two do not alias;
- ``broken-chain``: B2LD and LBFGS on a ``10-[50,50,20,50,50]-1`` student
  over the same rows at init seed 0, whose split blocks, 2 and 5, are not
  consecutive: a pass hands the helper one job per run of split layers,
  each thread carrying its rows through the run, so these records pin
  where runs begin and end, with whole layers between them;
- ``wide-output``: B2LD and LBFGS on a ``10-[50,50]-16`` student at init
  seed 0 over the 4,100 training rows of a 16-target ``10-[2x20]-16``
  teacher set (5,125 samples, otherwise as ``deep``), whose split blocks, 2
  and 3, include the output block: a backward sweep then takes its first
  step by halves or beside block 3's product, while the forward pass forms
  the output layer's product whole, so these records pin a split output
  block, which the one-output sets never have;
- ``stops``: all four methods on the demo's data, ``[2x20]``, init seeds 0
  and 1, no time limit, in three variants. Under the default tolerances,
  50 cycles, 400 inner iterations and 3 epochs, B2LD stops on ``grad_norm``
  (seed 0) and ``f_tol`` (seed 1), and LBFGS on ``f_tol``; with
  ``grad_norm_tol = 2e-2`` and ``f_tol = -inf`` both stop on ``grad_norm``;
  from an infinite weight in block 1 all four stop on ``non_finite``. The
  other sets stop only on a cap, so these records move if a tolerance
  stop, or the check order that reaches it, changes.

Each record holds the init and final-weight digests, the final objective and
gradient norm, the trajectory, the stop reason, the update counts, the inner
iterations and the test MSE. Four more records, set ``demo-report``, hold the
SHA-256 of the ``report.tsv`` and ``summary.txt`` that ``emit_report`` writes
for the demo runs' rows (``elapsed_seconds`` zeroed, plus one error row that
leaves a seed unpaired), and of the two files again after a ``load_report``
round trip; they train nothing more. To check a change, run the script in a copy of
the parent commit and in the change, and compare the two files with ``cmp``.
BLAS is pinned to one thread, so the records do not depend on its threading.
On two or more CPUs the B2LD and LBFGS runs of ``deep``,
``deep-failing-armijo``, ``odd-rows``, ``mixed-widths``, ``broken-chain`` and
``wide-output`` then split their large layers over the helper thread, and a
tree without it runs them whole: equal records show that the halves keep the
bits.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from layeropt.batch import (AcceptanceParams,  # noqa: E402
                            BlockSelectionRule, StoppingCriteria, b2ld_run)
from layeropt.data import (Dataset, save_dataset,  # noqa: E402
                           synth_teacher_dataset)
from layeropt.harness import (ALGORITHMS, DatasetSpec,  # noqa: E402
                              ExperimentReport, RunRow, emit_report,
                              load_report, prepare_dataset,
                              resolve_architecture, run_single)
from layeropt.linalg import SeededRng  # noqa: E402
from layeropt.network import init_weights, parse_architecture  # noqa: E402
from layeropt.objective import (ObjectiveConfig, default_rho,  # noqa: E402
                                mse_value)
from layeropt.solvers import ArmijoParams, LbfgsParams  # noqa: E402

DEEP = {
    "dataset": DatasetSpec(name="criterion10", teacher_arch="10-[2x20]-1",
                           samples=2000, noise_sd=0.05, data_seed=99,
                           test_fraction=0.2),
    "architectures": ["10-[10x50]-1"],
    "seeds": [0, 1],
    "stopping": StoppingCriteria(grad_norm_tol=0.0, f_tol=float("-inf"),
                                 time_limit_seconds=None, max_inner_iters=40,
                                 max_epochs=10),
    "batch_size": 128,
}

DEMO = {
    "dataset": DatasetSpec(name="teacher8", teacher_arch="8-[2x16]-1",
                           samples=800, noise_sd=0.02, data_seed=7,
                           test_fraction=0.2),
    "architectures": ["[2x20]", "[4x20]"],
    "seeds": [0, 1, 2, 3, 4],
    "stopping": StoppingCriteria(grad_norm_tol=0.0, f_tol=0.0,
                                 time_limit_seconds=None, max_cycles=10,
                                 max_epochs=30, max_inner_iters=100),
    "batch_size": 64,
}

ONE_BATCH = {
    "dataset": DatasetSpec(name="one-batch", teacher_arch="4-[1x6]-1",
                           samples=60, noise_sd=0.05, data_seed=5,
                           test_fraction=0.2),
    "architectures": ["[2x6]"],
    "seeds": [0, 1, 2],
    "algorithms": ("BLInG", "IG"),
    "rho": 0.1,
    "stopping": StoppingCriteria(grad_norm_tol=0.0, f_tol=float("-inf"),
                                 time_limit_seconds=None, max_epochs=20),
    "batch_size": 1000,
}


def b2ld_failing_armijo(algorithm, weights0, train, test, stop, rho=None,
                        batch_size=None, seed=0):
    """``run_single``'s B2LD, with an Armijo reference search that starts at
    a = 1e3 and may halve three times."""
    if rho is None:
        rho = default_rho(weights0.arch.num_variables)
    cfg = ObjectiveConfig(rho=rho, sample_count=train.num_samples)
    run = b2ld_run(weights0, train.X, train.Y, cfg,
                   BlockSelectionRule(BlockSelectionRule.BACKWARD),
                   AcceptanceParams(armijo=ArmijoParams(a=1e3, max_halvings=3)),
                   LbfgsParams(grad_tol=0.1), stop, seed=seed)
    return run, mse_value(run.final_weights, test.X, test.Y)


FAILING_ARMIJO = dict(DEEP, algorithms=("B2LD",), run=b2ld_failing_armijo)

ODD_ROWS = dict(DEEP, seeds=[0], algorithms=("B2LD", "LBFGS"), rows=1599)

MIXED_WIDTHS = dict(DEEP, architectures=["10-[50,100,50]-1"], seeds=[0],
                    algorithms=("B2LD", "LBFGS"))

BROKEN_CHAIN = dict(MIXED_WIDTHS, architectures=["10-[50,50,20,50,50]-1"])

WIDE_OUTPUT = dict(MIXED_WIDTHS, architectures=["10-[50,50]-16"],
                   dataset=DatasetSpec(name="wide-output",
                                       teacher_arch="10-[2x20]-16",
                                       samples=5125, noise_sd=0.05,
                                       data_seed=99, test_fraction=0.2))


STOPS = dict(DEMO, architectures=["[2x20]"], seeds=[0, 1],
             stopping=StoppingCriteria(time_limit_seconds=None, max_cycles=50,
                                       max_inner_iters=400, max_epochs=3))

STOPS_GRAD_NORM = dict(STOPS, stopping=replace(
    STOPS["stopping"], grad_norm_tol=2e-2, f_tol=-math.inf))

STOPS_NON_FINITE = dict(STOPS, inf_weight=True)


def file_set(tmp):
    """The demo's data as a file in directory `tmp`, and the set that runs it."""
    demo = DEMO["dataset"]
    path = Path(tmp, "teacher8.csv")
    save_dataset(path, synth_teacher_dataset(
        parse_architecture(demo.teacher_arch), demo.samples, demo.noise_sd,
        demo.data_seed))
    return dict(DEMO, architectures=["[2x20]"], seeds=[0, 1],
                dataset=DatasetSpec(name="teacher8-file", kind="file",
                                    path=str(path), data_seed=demo.data_seed,
                                    test_fraction=demo.test_fraction))


def _hex(values):
    return [float(v).hex() for v in values]


def records(name, spec, rows):
    """The records of one set; appends each run's report row to `rows`."""
    train, test = prepare_dataset(spec["dataset"])
    if "rows" in spec:
        train = Dataset(train.X[:spec["rows"]], train.Y[:spec["rows"]])
    for arch_text in spec["architectures"]:
        arch = resolve_architecture(arch_text, train.num_features,
                                    train.num_targets)
        for seed in spec["seeds"]:
            weights0 = init_weights(arch, SeededRng(seed))
            if spec.get("inf_weight"):
                W = weights0.block(1).copy()
                W[0, 0] = math.inf
                weights0.set_block(1, W)
            for algorithm in spec.get("algorithms", ALGORITHMS):
                run, test_mse = spec.get("run", run_single)(
                    algorithm, weights0, train, test, spec["stopping"],
                    rho=spec.get("rho"), batch_size=spec["batch_size"],
                    seed=seed)
                rows.append(RunRow(
                    dataset=spec["dataset"].name, architecture=arch_text,
                    algorithm=algorithm, seed=seed,
                    final_objective=run.final_objective,
                    grad_norm=run.final_grad_norm, test_mse=test_mse,
                    elapsed_seconds=0.0, stop_reason=run.stop_reason,
                    layer_update_counts=list(run.layer_update_counts),
                    init_digest=weights0.digest()))
                yield {
                    "set": name, "architecture": arch_text,
                    "algorithm": algorithm, "seed": seed,
                    "init_digest": weights0.digest(),
                    "final_digest": run.final_weights.digest(),
                    "final_objective": float(run.final_objective).hex(),
                    "final_grad_norm": float(run.final_grad_norm).hex(),
                    "trajectory": _hex(run.trajectory),
                    "stop_reason": run.stop_reason,
                    "layer_update_counts": list(run.layer_update_counts),
                    "inner_iterations": run.inner_iterations,
                    "test_mse": float(test_mse).hex(),
                }


def report_records(rows):
    """Digests of the report files of `rows` plus one error row, as emitted
    and as re-emitted after load_report."""
    nan = float("nan")
    rows = rows + [RunRow(
        dataset=rows[-1].dataset, architecture=rows[-1].architecture,
        algorithm="IG", seed=max(r.seed for r in rows) + 1,
        final_objective=nan, grad_norm=nan, test_mse=nan,
        elapsed_seconds=0.0, stop_reason="error", layer_update_counts=[],
        init_digest="", error="RuntimeError: injected\tfailure")]
    with tempfile.TemporaryDirectory(prefix="outcomes-") as tmp:
        emitted = emit_report(ExperimentReport(rows=rows), Path(tmp, "emitted"))
        reloaded = emit_report(load_report(emitted[0]), Path(tmp, "reloaded"))
        for stage, paths in (("emitted", emitted), ("reloaded", reloaded)):
            for path in paths:
                yield {"set": "demo-report", "stage": stage,
                       "file": Path(path).name,
                       "sha256": hashlib.sha256(Path(path).read_bytes())
                       .hexdigest()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="JSON file to write")
    args = parser.parse_args(argv)
    start = time.monotonic()
    demo_rows = []
    out = [rec for name, spec in (("deep", DEEP), ("demo", DEMO))
           for rec in records(name, spec, demo_rows if name == "demo" else [])]
    out += report_records(demo_rows)
    out += records("one-batch", ONE_BATCH, [])
    out += records("deep-failing-armijo", FAILING_ARMIJO, [])
    with tempfile.TemporaryDirectory(prefix="outcomes-") as tmp:
        out += records("file", file_set(tmp), [])
    out += records("odd-rows", ODD_ROWS, [])
    out += records("mixed-widths", MIXED_WIDTHS, [])
    out += records("broken-chain", BROKEN_CHAIN, [])
    out += records("wide-output", WIDE_OUTPUT, [])
    out += records("stops/tolerances", STOPS, [])
    out += records("stops/grad-norm", STOPS_GRAD_NORM, [])
    with np.errstate(invalid="ignore"):  # the inf weight times a zero input
        out += records("stops/non-finite", STOPS_NON_FINITE, [])
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(out)} records in {time.monotonic() - start:.1f} s -> {args.out}")


if __name__ == "__main__":
    main()
