"""Experiment orchestration: multi-seed runs, win/tie/defeat tallies,
depth ratios, report emission.

The protocol: for every (dataset, architecture, seed), all compared
algorithms start from the identical randomly initialized weights; results are
compared pairwise per seed with a 5% win rule (a value wins only when it is
at least 5% better than the other, else the pair is a tie).
"""

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict

from .batch import (AcceptanceParams, BlockSelectionRule, StoppingCriteria,
                    b2ld_run, lbfgs_baseline_run)
from .data import (Dataset, fit_apply_normalization, load_delimited,
                   synth_teacher_dataset, train_test_split)
from .linalg import SeededRng
from .minibatch import (BlingParams, MinibatchSelectionRule, bling_run, ig_run,
                        make_partition)
from .network import Architecture, init_weights, parse_architecture
from .objective import ObjectiveConfig, default_rho, mse_value
from .solvers import LbfgsParams

ALGORITHMS = ("B2LD", "LBFGS", "BLInG", "IG")

WORKERS_ENV = "LAYEROPT_WORKERS"


class ConfigError(ValueError):
    pass


@dataclass
class DatasetSpec:
    name: str
    kind: str = "synthetic"            # "synthetic" or "file"
    # file datasets
    path: str = ""
    target_columns: tuple = (0,)       # 1-based
    delimiter: str = ","
    has_header: bool = False
    # synthetic datasets
    teacher_arch: str = "10-[1x20]-1"
    samples: int = 1000
    noise_sd: float = 0.05
    data_seed: int = 12345
    # common
    test_fraction: float = 0.2
    normalize: bool = True


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
            datasets = [DatasetSpec(**d) for d in raw["datasets"]]
            stopping = StoppingCriteria(**raw.get("stopping", {}))
            cfg = ExperimentConfig(
                datasets=datasets,
                architectures=list(raw["architectures"]),
                algorithms=list(raw.get("algorithms", ALGORITHMS)),
                seeds=list(raw.get("seeds", range(10))),
                stopping=stopping,
                batch_size=int(raw.get("batch_size", 128)),
                rho=raw.get("rho"),
                output_path=raw.get("output_path", "report"))
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"bad experiment config: {exc}") from exc
        unknown = set(cfg.algorithms) - set(ALGORITHMS)
        if unknown:
            raise ConfigError(f"unknown algorithms {sorted(unknown)}")
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


@dataclass
class ExperimentReport:
    rows: list

    def values(self, dataset, architecture, algorithm, metric="final_objective"):
        """Per-seed metric values, ordered by seed."""
        picked = [r for r in self.rows
                  if r.dataset == dataset and r.architecture == architecture
                  and r.algorithm == algorithm and not r.error]
        return [getattr(r, metric) for r in sorted(picked, key=lambda r: r.seed)]

    def by_seed(self, dataset, architecture, algorithm, metric="final_objective"):
        """{seed: metric value} over the error-free rows."""
        return {r.seed: getattr(r, metric) for r in self.rows
                if r.dataset == dataset and r.architecture == architecture
                and r.algorithm == algorithm and not r.error}

    def best(self, dataset, architecture, algorithm, metric="final_objective"):
        vals = self.values(dataset, architecture, algorithm, metric)
        return min(vals) if vals else None

    def keys(self):
        return sorted({(r.dataset, r.architecture) for r in self.rows})

    def algorithms(self):
        return sorted({r.algorithm for r in self.rows})


def tally_wins(values_a, values_b, threshold: float = 0.05):
    """(wins_a, defeats_a, ties) under the 5% rule, pairwise by seed.

    a wins a pair iff a <= (1-threshold)*b and the symmetric condition does
    not also hold (both can only hold at 0, which counts as a tie).
    """
    if len(values_a) != len(values_b):
        raise ValueError(f"length mismatch: {len(values_a)} vs {len(values_b)}")
    wins = defeats = ties = 0
    for a, b in zip(values_a, values_b):
        a_cond = a <= (1.0 - threshold) * b
        b_cond = b <= (1.0 - threshold) * a
        if a_cond and not b_cond:
            wins += 1
        elif b_cond and not a_cond:
            defeats += 1
        else:
            ties += 1
    return wins, defeats, ties


def depth_ratio(report: ExperimentReport, arch_deep: str, arch_shallow: str,
                metric: str = "final_objective"):
    """Best-of-seeds deep value / best-of-seeds shallow value, per dataset and
    algorithm; missing cells are reported as None, never fabricated."""
    out = {}
    datasets = sorted({r.dataset for r in report.rows})
    for ds in datasets:
        per_algo = {}
        for algo in report.algorithms():
            deep = report.best(ds, arch_deep, algo, metric)
            shallow = report.best(ds, arch_shallow, algo, metric)
            per_algo[algo] = None if deep is None or shallow is None \
                else deep / shallow
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
        ds = load_delimited(spec.path, spec.target_columns, spec.delimiter,
                            spec.has_header)
    else:
        raise ConfigError(f"unknown dataset kind {spec.kind!r}")
    train, test = train_test_split(ds, spec.test_fraction, spec.data_seed)
    if spec.normalize:
        train, test, _ = fit_apply_normalization(train, test)
    return train, test


def run_single(algorithm: str, weights0, train: Dataset, test: Dataset,
               stop: StoppingCriteria, rho: float = None, batch_size: int = 128,
               seed: int = 0):
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
    (ds_name, arch_text, algorithm, seed, train, test, stop, rho, batch_size) = task
    digest = ""
    try:
        arch = resolve_architecture(arch_text, train.num_features,
                                    train.num_targets)
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
    depend on scheduling). A task that fails, or whose worker dies, becomes
    an error row; the rows of the other tasks are kept."""
    if workers is None:
        workers = int(os.environ.get(WORKERS_ENV, os.cpu_count() or 1))
    tasks = []
    for spec in config.datasets:
        train, test = prepare_dataset(spec)
        for arch_text in config.architectures:
            for seed in config.seeds:
                for algorithm in config.algorithms:
                    tasks.append((spec.name, arch_text, algorithm, int(seed),
                                  train, test, config.stopping, config.rho,
                                  config.batch_size))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_execute_task, t) for t in tasks]
            rows = [_pool_row(f, t) for f, t in zip(futures, tasks)]
    else:
        rows = [_execute_task(t) for t in tasks]
    return ExperimentReport(rows=rows)


CSV_COLUMNS = ("dataset", "architecture", "algorithm", "seed",
               "final_objective", "grad_norm", "test_mse", "elapsed_seconds",
               "stop_reason", "layer_update_counts", "init_digest", "error")


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, list):
        return ";".join(str(v) for v in value)
    # a tab, CR or LF inside a cell would split its row
    return str(value).replace("\t", " ").replace("\r", " ").replace("\n", " ")


def emit_report(report: ExperimentReport, out_dir, threshold: float = 0.05):
    """Write report.tsv (machine readable, tab-delimited, 17 significant
    digits) and summary.txt (best-of tables, pairwise tallies, per-layer
    histograms). Tabs are used because architecture strings contain commas."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "report.tsv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(CSV_COLUMNS) + "\n")
        for r in report.rows:
            d = asdict(r)
            fh.write("\t".join(_fmt(d[c]) for c in CSV_COLUMNS) + "\n")

    summary_path = os.path.join(out_dir, "summary.txt")
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write("Best final objective over seeds\n")
        for ds, arch in report.keys():
            for algo in report.algorithms():
                best = report.best(ds, arch, algo)
                if best is not None:
                    fh.write(f"  {ds} {arch} {algo}: {best:.6e}\n")
        fh.write("\nPairwise tallies [wins; defeats; ties] on final objective "
                 f"({threshold:.0%} rule)\n")
        algos = report.algorithms()
        for ds, arch in report.keys():
            for i, a in enumerate(algos):
                for b in algos[i + 1:]:
                    # pair by seed: a seed counts only when both methods
                    # have an error-free row for it
                    seeds = {r.seed for r in report.rows
                             if r.dataset == ds and r.architecture == arch
                             and r.algorithm in (a, b)}
                    if not seeds:
                        continue
                    va = report.by_seed(ds, arch, a)
                    vb = report.by_seed(ds, arch, b)
                    shared = sorted(va.keys() & vb.keys())
                    w, d_, t = tally_wins([va[s] for s in shared],
                                          [vb[s] for s in shared], threshold)
                    dropped = len(seeds) - len(shared)
                    note = f" ({dropped} of {len(seeds)} seeds dropped: " \
                        "error rows)" if dropped else ""
                    fh.write(f"  {ds} {arch} {a} vs {b}: "
                             f"[{w}; {d_}; {t}]{note}\n")
        fh.write("\nPer-layer update counts (best run per dataset/arch/algorithm)\n")
        for ds, arch in report.keys():
            for algo in report.algorithms():
                rows = [r for r in report.rows
                        if r.dataset == ds and r.architecture == arch
                        and r.algorithm == algo and not r.error]
                if rows:
                    best_row = min(rows, key=lambda r: r.final_objective)
                    counts = " ".join(str(c) for c in best_row.layer_update_counts)
                    fh.write(f"  {ds} {arch} {algo}: {counts}\n")
    return csv_path, summary_path


def load_report(csv_path) -> ExperimentReport:
    """Reload an emitted report; numeric fields round-trip bitwise."""
    rows = []
    with open(csv_path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if tuple(header) != CSV_COLUMNS:
            raise ValueError(f"unexpected report header {header}")
        for line in fh:
            cells = line.rstrip("\n").split("\t")
            rec = dict(zip(CSV_COLUMNS, cells))
            rows.append(RunRow(
                dataset=rec["dataset"], architecture=rec["architecture"],
                algorithm=rec["algorithm"], seed=int(rec["seed"]),
                final_objective=float(rec["final_objective"]),
                grad_norm=float(rec["grad_norm"]),
                test_mse=float(rec["test_mse"]),
                elapsed_seconds=float(rec["elapsed_seconds"]),
                stop_reason=rec["stop_reason"],
                layer_update_counts=[int(v) for v in
                                     rec["layer_update_counts"].split(";") if v],
                init_digest=rec["init_digest"], error=rec["error"]))
    return ExperimentReport(rows=rows)
