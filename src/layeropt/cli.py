"""Command line interface.

Subcommands:
  train      one optimization run on a dataset file or synthetic teacher
  benchmark  full experiment from a JSON config file
  gradcheck  finite-difference gradient check on a random instance
  synth      generate a teacher-network dataset to disk

Exit codes: 0 on success; 1 on config/IO errors, a failed `train` run, a
`benchmark` with no error-free run, or a violated gradcheck tolerance. `train`
runs as one cell of `benchmark`, with its checks; its defaults are those of
`DatasetSpec`, `ExperimentConfig` and `StoppingCriteria`.
"""

import argparse
import sys
from dataclasses import fields

import numpy as np

from .batch import StoppingCriteria
from .data import ParseError, save_dataset, synth_teacher_dataset
from .harness import (ALGORITHMS, ConfigError, DatasetSpec, ExperimentConfig,
                      emit_report, run_experiment)
from .linalg import SeededRng
from .network import init_weights, parse_architecture, forward
from .objective import (ObjectiveConfig, block_gradient, default_rho,
                        full_gradient, objective_value)


def _add_stopping_flags(p):
    short = {"grad_norm_tol": "grad_tol", "time_limit_seconds": "time_limit"}
    for f in fields(StoppingCriteria):
        flag = "--" + short.get(f.name, f.name).replace("_", "-")
        p.add_argument(flag, dest=f.name, type=f.type, default=f.default)


def cmd_train(args) -> int:
    config = ExperimentConfig.from_dict({
        "datasets": [{
            "name": "train", "kind": "file" if args.data else "synthetic",
            "path": args.data or "", "target_columns": args.target_columns,
            "delimiter": args.delimiter, "teacher_arch": args.teacher,
            "samples": args.samples, "noise_sd": args.noise_sd,
            "data_seed": args.seed, "test_fraction": args.test_fraction}],
        "architectures": [args.arch], "algorithms": [args.algorithm],
        "seeds": [args.seed], "batch_size": args.batch_size, "rho": args.rho,
        "stopping": {f.name: getattr(args, f.name)
                     for f in fields(StoppingCriteria)}})
    row, = run_experiment(config, workers=1).rows
    if row.error:
        print(f"error: {row.error}", file=sys.stderr)
        return 1
    print(f"algorithm        {row.algorithm}")
    print(f"final objective  {row.final_objective:.10e}")
    print(f"gradient norm    {row.grad_norm:.10e}")
    print(f"test mse         {row.test_mse:.10e}")
    print(f"elapsed seconds  {row.elapsed_seconds:.3f}")
    print(f"stop reason      {row.stop_reason}")
    print("updates/layer    " + " ".join(str(c) for c in row.layer_update_counts))
    return 0


def cmd_benchmark(args) -> int:
    config = ExperimentConfig.from_json_file(args.config)
    report = run_experiment(config, workers=args.workers)
    csv_path, summary_path = emit_report(report,
                                         args.out or config.output_path)
    print(f"wrote {csv_path}")
    print(f"wrote {summary_path}")
    failures = [r for r in report.rows if r.error]
    for r in failures:
        print(f"FAILED {r.dataset} {r.architecture} {r.algorithm} "
              f"seed={r.seed}: {r.error}", file=sys.stderr)
    return 0 if len(failures) < len(report.rows) else 1


def cmd_gradcheck(args) -> int:
    rng = SeededRng(args.seed)
    arch = parse_architecture(args.arch)
    weights = init_weights(arch, rng)
    X = rng.child(1).uniform(0.0, 1.0, size=(args.samples, arch.input_dim))
    Y = rng.child(2).uniform(0.0, 1.0, size=(args.samples, arch.output_dim))
    cfg = ObjectiveConfig(rho=default_rho(arch.num_variables),
                          sample_count=args.samples)
    _, cache = forward(weights, X)
    grads = full_gradient(weights, Y, cfg, cache)
    h = 1e-6
    ok = True
    for l in range(1, arch.num_layers + 1):
        # set_block bumps version tags during the finite-difference sweep,
        # so refresh the cache per block
        _, cache = forward(weights, X)
        g = block_gradient(weights, Y, cfg, l, cache)
        fd = _central_difference_block(weights, X, Y, cfg, l, h)
        worst = float(np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-8))
        status = "ok" if worst <= args.tol else "FAIL"
        if worst > args.tol:
            ok = False
        print(f"block {l}: relative error {worst:.3e} [{status}]")
        if not np.array_equal(g, grads[l - 1]):
            print(f"block {l}: block/full gradient mismatch [FAIL]")
            ok = False
    return 0 if ok else 1


def _central_difference_block(weights, X, Y, cfg, l, h):
    W = weights.block(l)
    fd = np.zeros_like(W)
    for i in range(W.shape[0]):
        for j in range(W.shape[1]):
            step = h * max(1.0, abs(W[i, j]))
            for sign in (+1.0, -1.0):
                Wp = W.copy()
                Wp[i, j] += sign * step
                weights.set_block(l, Wp)
                f, _ = objective_value(weights, X, Y, cfg)
                fd[i, j] += sign * f / (2.0 * step)
            weights.set_block(l, W)
    return fd


def cmd_synth(args) -> int:
    arch = parse_architecture(args.arch)
    ds = synth_teacher_dataset(arch, args.samples, args.noise_sd, args.seed)
    save_dataset(args.out, ds)
    print(f"wrote {args.out} ({ds.num_samples} samples, "
          f"{ds.num_features} features, {ds.num_targets} targets)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="layeropt",
        description="Layer-wise block coordinate training for feedforward nets")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run one optimizer on one dataset")
    p.add_argument("--data", help="delimited text dataset path")
    p.add_argument("--target-columns", type=int, nargs="+",
                   default=DatasetSpec.target_columns,
                   help="1-based target column indices")
    p.add_argument("--delimiter", default=DatasetSpec.delimiter)
    p.add_argument("--teacher", default=DatasetSpec.teacher_arch,
                   help="teacher architecture for synthetic data")
    p.add_argument("--samples", type=int, default=DatasetSpec.samples)
    p.add_argument("--noise-sd", type=float, default=DatasetSpec.noise_sd)
    p.add_argument("--test-fraction", type=float,
                   default=DatasetSpec.test_fraction)
    p.add_argument("--arch", required=True,
                   help='architecture, e.g. "13-[10x50]-1" or "[3x20]"')
    p.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--batch-size", type=int,
                   default=ExperimentConfig.batch_size)
    _add_stopping_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("benchmark", help="full experiment from a JSON config")
    p.add_argument("config", help="JSON experiment config file")
    p.add_argument("--out", help="output directory (default: the config's "
                   "output_path)")
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("gradcheck",
                       help="finite-difference gradient check; exit 0 iff all pass")
    p.add_argument("--arch", default="5-[3x6]-2")
    p.add_argument("--samples", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-5)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("synth", help="generate a teacher-network dataset")
    p.add_argument("--arch", required=True, help='teacher, e.g. "10-[2x16]-1"')
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--noise-sd", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True,
                   help="output path, comma-delimited text with the targets "
                   "first, as `train --data` reads")
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
