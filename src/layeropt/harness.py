"""Experiment orchestration: multi-seed runs, win/tie/defeat tallies,
depth ratios, report emission.

The protocol: for every (dataset, architecture, seed), all compared
algorithms start from the identical randomly initialized weights; results are
compared pairwise per seed with a 5% win rule (a value wins only when it is
at least 5% better than the other, else the pair is a tie).
"""

import json
import math
import numbers
import os
from collections import namedtuple
from dataclasses import dataclass, field, fields
from itertools import combinations, product

from .batch import (AcceptanceParams, BlockSelectionRule, RunLedger,
                    StoppingCriteria, b2ld_run, lbfgs_baseline_run)
from .data import (SYNTH_RULES, Dataset, fit_apply_normalization,
                   load_delimited, synth_teacher_dataset, train_test_split)
from .linalg import SeededRng, _is_a
from .minibatch import (BlingParams, MinibatchSelectionRule, bling_run,
                        ig_run, make_partition)
from .network import (Architecture, _one_blas_thread, _openblas,
                      init_weights, parse_architecture)
from .objective import ObjectiveConfig, default_rho, mse_value
from .solvers import LbfgsParams

ALGORITHMS = ("B2LD", "LBFGS", "BLInG", "IG")

WIN_RULE = 0.05    # a value wins a pair only when at least 5% better


class ConfigError(ValueError):
    pass


@dataclass
class DatasetSpec:
    name: str
    kind: str = "synthetic"            # "synthetic" or "file"
    # file datasets
    path: str = ""
    target_columns: tuple = (1,)       # 1-based
    delimiter: str = ","
    # synthetic datasets
    teacher_arch: str = "10-[1x20]-1"
    samples: int = 1000
    noise_sd: float = 0.05
    data_seed: int = 12345
    # common
    test_fraction: float = 0.2

    def check(self):
        """Raise a ConfigError naming the dataset and the first malformed
        field; bools count as no number."""
        for key, ok, need in (
                ("kind", self.kind in ("synthetic", "file"),
                 "must be 'synthetic' or 'file'"),
                ("teacher_arch", isinstance(self.teacher_arch, str),
                 "must be a string"),
                ("path", self.kind != "file"
                 or (isinstance(self.path, str) and self.path != ""),
                 "must be a non-empty string"),
                ("delimiter", isinstance(self.delimiter, str)
                 and len(self.delimiter) == 1, "must be one character"),
                ("target_columns", isinstance(self.target_columns, (list, tuple))
                 and len(self.target_columns) > 0
                 and all(_is_a(c, numbers.Integral) and c >= 1
                         for c in self.target_columns),
                 "must be a non-empty list of ints >= 1"),
                *((key, ok(getattr(self, key)), need)
                  for key, (ok, need) in SYNTH_RULES.items()),
                ("data_seed", _is_a(self.data_seed, numbers.Integral)
                 and self.data_seed >= 0, "must be an int >= 0"),
                ("test_fraction", _is_a(self.test_fraction, numbers.Real)
                 and 0 < self.test_fraction < 1, "must lie in (0, 1)")):
            if not ok:
                raise ConfigError(f"dataset {self.name!r}: {key} "
                                  f"{getattr(self, key)!r} {need}")


@dataclass
class ExperimentConfig:
    datasets: list
    architectures: list                # strings, full or hidden-only "[LxN]"
    algorithms: list = field(default_factory=lambda: list(ALGORITHMS))
    seeds: list = field(default_factory=lambda: list(range(10)))
    stopping: StoppingCriteria = field(default_factory=StoppingCriteria)
    batch_size: int = 128
    rho: float = None                  # None -> 1e-3 / n per architecture
    output_path: str = "report"

    @staticmethod
    def from_json_file(path) -> "ExperimentConfig":
        with open(path) as fh:
            raw = json.load(fh)
        return ExperimentConfig.from_dict(raw)

    @staticmethod
    def from_dict(raw) -> "ExperimentConfig":
        try:
            unknown = set(raw) - {f.name for f in fields(ExperimentConfig)}
            if unknown:
                raise ConfigError(f"unknown config keys {sorted(unknown)}")
            cfg = ExperimentConfig(**dict(
                raw, datasets=[DatasetSpec(**d) for d in raw["datasets"]],
                stopping=StoppingCriteria(**raw.get("stopping", {}))))
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad experiment config: {exc}") from exc
        for key, kind in (("seeds", int), ("architectures", str),
                          ("algorithms", str)):
            value = getattr(cfg, key)
            if not (isinstance(value, list)
                    and all(isinstance(v, kind) for v in value)):
                raise ConfigError(f"{key} {value!r} must be a list of "
                                  f"{kind.__name__} values")
            if len(set(value)) != len(value):
                raise ConfigError(f"{key} {value!r} repeats an entry")
        if not all(_is_a(s, int) and s >= 0 for s in cfg.seeds):
            raise ConfigError(f"seeds {cfg.seeds!r} must be ints >= 0")
        for spec in cfg.datasets:
            spec.check()
        names = [d.name for d in cfg.datasets]
        repeated = sorted({n for n in names if names.count(n) > 1})
        if repeated:
            raise ConfigError(f"dataset names {repeated} repeat")
        if not _is_a(cfg.batch_size, int) or cfg.batch_size < 1:
            raise ConfigError(f"batch_size {cfg.batch_size!r} must be an "
                              "integer >= 1")
        if cfg.rho is not None:
            try:
                ObjectiveConfig(rho=cfg.rho, sample_count=1)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad rho {cfg.rho!r}: {exc}") from exc
        if not (isinstance(cfg.output_path, str) and cfg.output_path):
            raise ConfigError(f"output_path {cfg.output_path!r} must be a "
                              "non-empty string")
        unknown = set(cfg.algorithms) - set(ALGORITHMS)
        if unknown:
            raise ConfigError(f"unknown algorithms {sorted(unknown)}")
        for algorithm in cfg.algorithms:
            try:
                RunLedger.check_ends(algorithm, cfg.stopping)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        return cfg


@dataclass
class RunRow:
    dataset: str
    architecture: str
    algorithm: str
    seed: int
    final_objective: float
    grad_norm: float
    test_mse: float
    elapsed_seconds: float
    stop_reason: str
    layer_update_counts: list
    init_digest: str
    error: str = ""


class Tally(namedtuple("Tally", "dataset architecture a b wins defeats ties "
                       "seeds dropped")):
    """Seed-paired [wins; defeats; ties] of algorithm a against b: of the
    `seeds` either ran, `dropped` lack an error-free row of one of them."""

    def __str__(self):
        note = f" ({self.dropped} of {self.seeds} seeds dropped: error rows)" \
            if self.dropped else ""
        return (f"{self.dataset} {self.architecture} {self.a} vs {self.b}: "
                f"[{self.wins}; {self.defeats}; {self.ties}]{note}")


@dataclass
class ExperimentReport:
    rows: list

    def ok_rows(self, dataset, architecture, algorithm):
        """The error-free rows of one algorithm on one dataset/architecture."""
        return [r for r in self.rows
                if r.dataset == dataset and r.architecture == architecture
                and r.algorithm == algorithm and not r.error]

    def by_seed(self, dataset, architecture, algorithm, metric="final_objective"):
        """{seed: metric value} over the error-free rows."""
        return {r.seed: getattr(r, metric)
                for r in self.ok_rows(dataset, architecture, algorithm)}

    def best(self, dataset, architecture, algorithm):
        """The error-free row with the lowest final objective, a non-finite
        one ranked after every finite one, or None."""
        return min(self.ok_rows(dataset, architecture, algorithm),
                   key=lambda r: (not math.isfinite(r.final_objective),
                                  r.final_objective), default=None)

    def keys(self):
        return sorted({(r.dataset, r.architecture) for r in self.rows})

    def algorithms(self):
        return sorted({r.algorithm for r in self.rows})

    def tallies(self):
        """A `Tally` on final objective for each pair of algorithms on each
        dataset/architecture, pairing rows by seed: a seed counts only when
        both methods have an error-free row for it."""
        pairs = combinations(self.algorithms(), 2)
        for (ds, arch), (a, b) in product(self.keys(), pairs):
            seeds = {r.seed for r in self.rows if r.dataset == ds
                     and r.architecture == arch and r.algorithm in (a, b)}
            if seeds:
                va, vb = self.by_seed(ds, arch, a), self.by_seed(ds, arch, b)
                shared = sorted(va.keys() & vb.keys())
                counts = tally_wins([va[s] for s in shared],
                                    [vb[s] for s in shared])
                yield Tally(ds, arch, a, b, *counts, len(seeds),
                            len(seeds) - len(shared))


def tally_wins(values_a, values_b):
    """(wins_a, defeats_a, ties) under the 5% rule, pairwise by seed.

    a wins a pair iff a <= (1-WIN_RULE)*b and the symmetric condition does
    not also hold (both can only hold at 0, which counts as a tie).
    """
    if len(values_a) != len(values_b):
        raise ValueError(f"length mismatch: {len(values_a)} vs {len(values_b)}")
    wins = defeats = ties = 0
    for a, b in zip(values_a, values_b):
        a_cond = a <= (1.0 - WIN_RULE) * b
        b_cond = b <= (1.0 - WIN_RULE) * a
        if a_cond and not b_cond:
            wins += 1
        elif b_cond and not a_cond:
            defeats += 1
        else:
            ties += 1
    return wins, defeats, ties


def depth_ratio(report: ExperimentReport, arch_deep: str, arch_shallow: str):
    """Best-of-seeds deep / shallow final objective, per dataset and
    algorithm; missing cells are reported as None, never fabricated."""
    out = {}
    datasets = sorted({r.dataset for r in report.rows})
    for ds in datasets:
        per_algo = {}
        for algo in report.algorithms():
            deep = report.best(ds, arch_deep, algo)
            shallow = report.best(ds, arch_shallow, algo)
            per_algo[algo] = None if deep is None or shallow is None \
                else deep.final_objective / shallow.final_objective
        out[ds] = per_algo
    return out


def resolve_architecture(text: str, d: int, m: int) -> Architecture:
    """Full "d-[...]-m" strings are validated against the dataset dims;
    hidden-only "[...]" strings adapt to them."""
    text = text.strip()
    if text.startswith("["):
        arch = parse_architecture(f"{d}-{text}-{m}")
    else:
        arch = parse_architecture(text)
        if arch.input_dim != d or arch.output_dim != m:
            raise ConfigError(
                f"architecture {text!r} expects dims {arch.input_dim}->"
                f"{arch.output_dim}, dataset has {d}->{m}")
    return arch


def prepare_dataset(spec: DatasetSpec):
    """Materialize, split, and normalize one dataset spec; returns
    (train, test) in normalized units."""
    if spec.kind == "synthetic":
        teacher = parse_architecture(spec.teacher_arch)
        ds = synth_teacher_dataset(teacher, spec.samples, spec.noise_sd,
                                   spec.data_seed)
    elif spec.kind == "file":
        ds = load_delimited(spec.path, spec.target_columns, spec.delimiter)
    else:
        raise ConfigError(f"unknown dataset kind {spec.kind!r}")
    train, test = train_test_split(ds, spec.test_fraction, spec.data_seed)
    train, test, _ = fit_apply_normalization(train, test)
    return train, test


def run_single(algorithm: str, weights0, train: Dataset, test: Dataset,
               stop: StoppingCriteria, rho: float = None,
               batch_size: int = ExperimentConfig.batch_size, seed: int = 0):
    """Run one algorithm from the given initial weights; returns (run, test_mse)."""
    arch = weights0.arch
    if rho is None:
        rho = default_rho(arch.num_variables)
    cfg = ObjectiveConfig(rho=rho, sample_count=train.num_samples)
    X, Y = train.X, train.Y
    if algorithm == "B2LD":
        run = b2ld_run(weights0, X, Y, cfg,
                       BlockSelectionRule(BlockSelectionRule.BACKWARD),
                       AcceptanceParams(), LbfgsParams(grad_tol=0.1),
                       stop, seed=seed)
    elif algorithm == "LBFGS":
        run = lbfgs_baseline_run(weights0, X, Y, cfg, LbfgsParams(), stop,
                                 seed=seed)
    elif algorithm in ("BLInG", "IG"):
        part = make_partition(train.num_samples,
                              min(batch_size, train.num_samples))
        rule = MinibatchSelectionRule(MinibatchSelectionRule.INCREMENTAL)
        params = BlingParams(alpha0=BlingParams.default_alpha0(arch.num_layers)
                             if algorithm == "BLInG" else 0.5)
        driver = bling_run if algorithm == "BLInG" else ig_run
        run = driver(weights0, X, Y, cfg, part, rule, params, stop, seed=seed)
    else:
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    tmse = mse_value(run.final_weights, test.X, test.Y) if test.num_samples \
        else float("nan")
    return run, tmse


def _error_row(task, exc, digest=""):
    """The report row of a task that raised `exc`."""
    ds_name, arch_text, algorithm, seed = task[:4]
    return RunRow(dataset=ds_name, architecture=arch_text, algorithm=algorithm,
                  seed=seed, final_objective=float("nan"),
                  grad_norm=float("nan"), test_mse=float("nan"),
                  elapsed_seconds=0.0, stop_reason="error",
                  layer_update_counts=[], init_digest=digest,
                  error=f"{type(exc).__name__}: {exc}")


def _execute_task(task):
    ds_name, arch_text, algorithm, seed, arch, train, test, stop, rho, batch_size = task
    digest = ""
    try:
        weights0 = init_weights(arch, SeededRng(seed))
        digest = weights0.digest()
        run, tmse = run_single(algorithm, weights0, train, test, stop, rho,
                               batch_size, seed)
        return RunRow(dataset=ds_name, architecture=arch_text,
                      algorithm=algorithm, seed=seed,
                      final_objective=run.final_objective,
                      grad_norm=run.final_grad_norm, test_mse=tmse,
                      elapsed_seconds=run.elapsed_seconds,
                      stop_reason=run.stop_reason,
                      layer_update_counts=list(run.layer_update_counts),
                      init_digest=digest)
    except Exception as exc:  # failures become rows, the experiment continues
        return _error_row(task, exc, digest)


def _pool_row(future, task):
    """The row a pool future resolved to, or an error row naming what it
    raised instead: a worker that dies fails its own future and every one
    still pending with BrokenProcessPool."""
    try:
        return future.result()
    except Exception as exc:
        return _error_row(task, exc)


def run_experiment(config: ExperimentConfig, workers: int = None) -> ExperimentReport:
    """Cross product of datasets x architectures x algorithms x seeds, one row
    each; runs execute on a bounded worker pool (seed determinism does not
    depend on scheduling). Every architecture is resolved against every
    dataset before any task is queued, and a ConfigError naming both stops
    the experiment before any run. A task that fails, or whose worker dies,
    becomes an error row; the rows of the other tasks are kept. `workers`
    defaults to the CPUs this process may run on; fewer than 1 is refused.
    Pool workers run OpenBLAS on one thread; this process keeps its own."""
    if workers is None:
        workers = len(os.sched_getaffinity(0))
    if not (_is_a(workers, numbers.Integral) and workers >= 1):
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    tasks = []
    for spec in config.datasets:
        train, test = prepare_dataset(spec)
        for arch_text in config.architectures:
            try:
                arch = resolve_architecture(arch_text, train.num_features,
                                            train.num_targets)
            except ValueError as exc:
                raise ConfigError(f"dataset {spec.name!r}: {exc}") from exc
            for seed in config.seeds:
                for algorithm in config.algorithms:
                    tasks.append((spec.name, arch_text, algorithm, int(seed),
                                  arch, train, test, config.stopping,
                                  config.rho, config.batch_size))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        # found here, so that forked workers inherit it: finding it in
        # each worker raised its peak RSS by about 0.4 MB
        _openblas()
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_one_blas_thread) as pool:
            futures = [pool.submit(_execute_task, t) for t in tasks]
            rows = [_pool_row(f, t) for f, t in zip(futures, tasks)]
    else:
        rows = [_execute_task(t) for t in tasks]
    return ExperimentReport(rows=rows)


CSV_COLUMNS = tuple(f.name for f in fields(RunRow))


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, list):
        return ";".join(str(v) for v in value)
    # a tab, CR or LF inside a cell would split its row
    return str(value).replace("\t", " ").replace("\r", " ").replace("\n", " ")


def _parse(cell, kind):
    """The value of a report cell whose RunRow field has type `kind`."""
    if kind is list:
        return [int(v) for v in cell.split(";") if v]
    return kind(cell)


def emit_report(report: ExperimentReport, out_dir):
    """Write report.tsv (machine readable, tab-delimited, 17 significant
    digits) and summary.txt (best-of tables, pairwise tallies, per-layer
    histograms). Tabs are used because architecture strings contain commas."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "report.tsv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(CSV_COLUMNS) + "\n")
        for r in report.rows:
            fh.write("\t".join(_fmt(getattr(r, c)) for c in CSV_COLUMNS) + "\n")

    summary_path = os.path.join(out_dir, "summary.txt")
    with open(summary_path, "w", encoding="utf-8") as fh:
        best = [row for (ds, arch), algo
                in product(report.keys(), report.algorithms())
                if (row := report.best(ds, arch, algo)) is not None]
        fh.write("Best final objective over seeds\n")
        for r in best:
            fh.write(f"  {r.dataset} {r.architecture} {r.algorithm}: "
                     f"{r.final_objective:.6e}\n")
        fh.write("\nPairwise tallies [wins; defeats; ties] on final objective "
                 f"({WIN_RULE:.0%} rule)\n")
        for tally in report.tallies():
            fh.write(f"  {tally}\n")
        fh.write("\nPer-layer update counts (best run per dataset/arch/algorithm)\n")
        for r in best:
            counts = " ".join(str(c) for c in r.layer_update_counts)
            fh.write(f"  {r.dataset} {r.architecture} {r.algorithm}: {counts}\n")
    return csv_path, summary_path


def load_report(csv_path) -> ExperimentReport:
    """Reload an emitted report; numeric fields round-trip bitwise."""
    kinds = [f.type for f in fields(RunRow)]
    rows = []
    with open(csv_path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if tuple(header) != CSV_COLUMNS:
            raise ValueError(f"unexpected report header {header}")
        for lineno, line in enumerate(fh, start=2):
            cells = line.rstrip("\n").split("\t")
            if len(cells) != len(kinds):
                raise ValueError(f"{csv_path} line {lineno}: {len(cells)} "
                                 f"cells, expected {len(kinds)}")
            values = []
            for col, (name, cell, kind) in enumerate(
                    zip(CSV_COLUMNS, cells, kinds), start=1):
                try:
                    values.append(_parse(cell, kind))
                except ValueError as exc:
                    raise ValueError(f"{csv_path} line {lineno} column {col} "
                                     f"({name}): {cell!r}: {exc}") from exc
            rows.append(RunRow(*values))
    return ExperimentReport(rows=rows)
