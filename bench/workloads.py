"""The benchmark's workloads: inputs, one round of operations, checks, metrics.

Every call into layeropt goes through a module attribute (``batch.b2ld_run``,
not an imported name), so a traced round reaches the tracer's wrappers.
"""

import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import layeropt.batch as batch
import layeropt.data as data
import layeropt.harness as harness
import layeropt.linalg as linalg
import layeropt.minibatch as minibatch
import layeropt.network as network
import layeropt.objective as objective
import layeropt.solvers as solvers

import checks
import reference as ref

# Tolerances that never stop a run, so every run spends its whole budget.
# f_tol is -inf, not 0: at the deep student's plateau an accepted L-BFGS step
# can leave f unchanged, and a zero decrease passes a tolerance of 0.
NO_TOLERANCE = {"grad_norm_tol": 0.0, "f_tol": float("-inf"),
                "time_limit_seconds": None}


@dataclass(frozen=True)
class DeepSize:
    """The criterion-10 instance: a 10-[2x20]-1 teacher, 2000 samples, noise
    0.05, data seed 99, an 80/20 split, and a 10-[10x50]-1 student."""

    teacher: str = "10-[2x20]-1"
    student: str = "10-[10x50]-1"
    samples: int = 2000
    noise_sd: float = 0.05
    data_seed: int = 99
    test_fraction: float = 0.2
    inner_budget: int = 40
    epochs: int = 10
    batch_size: int = 128


@dataclass(frozen=True)
class ExperimentSize:
    """The cross product of demos/benchmark_experiment.json, with a file
    dataset and tolerances that never stop a run."""

    teacher: str = "8-[2x16]-1"
    samples: int = 800
    noise_sd: float = 0.02
    data_seed: int = 7
    test_fraction: float = 0.2
    architectures: tuple = ("[2x20]", "[4x20]")
    seeds_per_run: int = 5
    max_cycles: int = 10
    max_epochs: int = 30
    max_inner_iters: int = 100
    batch_size: int = 64


@dataclass
class Op:
    """One operation: a training run or a report round trip."""

    method: str
    seed: int
    seconds: float
    failed: bool = False
    result: dict = field(default_factory=dict)


def _arch_dims(text):
    arch = network.parse_architecture(text)
    return arch.input_dim, list(arch.layer_widths)


class DeepWorkload:
    """Two methods of one pair on the deep student, from shared initial
    weights. ``init_seeds`` is the panel of initial-weight seeds each round
    covers; ``seed`` sets the order of the operations in every round."""

    PAIRS = {"deep-batch": ("B2LD", "LBFGS"), "deep-minibatch": ("BLInG", "IG")}

    def __init__(self, name, seed, size=DeepSize(), init_seeds=(0,)):
        self.name = name
        self.methods = self.PAIRS[name]
        self.seed = seed
        self.size = size
        self.init_seeds = tuple(init_seeds)
        self._order = np.random.Generator(np.random.PCG64(seed))
        self._digests = {}

    def setup(self):
        s = self.size
        ds = data.synth_teacher_dataset(network.parse_architecture(s.teacher),
                                        s.samples, s.noise_sd, s.data_seed)
        train, test = data.train_test_split(ds, s.test_fraction, s.data_seed)
        train, _, _ = data.fit_apply_normalization(train, test)
        student = network.parse_architecture(s.student)
        self.X, self.Y = train.X, train.Y
        self.weights0 = {k: network.init_weights(student, linalg.SeededRng(k))
                         for k in self.init_seeds}
        self.cfg = objective.ObjectiveConfig(
            rho=objective.default_rho(student.num_variables),
            sample_count=train.num_samples)
        self.partition = minibatch.make_partition(
            train.num_samples, min(s.batch_size, train.num_samples))

    def verify_inputs(self):
        """Compare the prepared inputs with the reference pipeline."""
        s = self.size
        d, widths = _arch_dims(s.teacher)
        Xr, Yr, _, _ = ref.split_normalize(
            *ref.teacher_dataset(d, widths, s.samples, s.noise_sd, s.data_seed),
            s.test_fraction, s.data_seed)
        checks.check_inputs(self.X, self.Y, Xr, Yr)
        d, self.widths = _arch_dims(s.student)
        self.rho = ref.default_rho(d, self.widths)
        checks.check_equal("rho", self.cfg.rho, self.rho)
        self.var = ref.target_variance(self.Y)
        self.init_digest = {k: ref.digest(ref.init_blocks(d, self.widths, k))
                            for k in self.init_seeds}

    def _run(self, method, w0, seed):
        s = self.size
        if method in ("B2LD", "LBFGS"):
            stop = batch.StoppingCriteria(max_inner_iters=s.inner_budget,
                                          **NO_TOLERANCE)
            if method == "B2LD":
                return batch.b2ld_run(
                    w0, self.X, self.Y, self.cfg,
                    batch.BlockSelectionRule(batch.BlockSelectionRule.BACKWARD),
                    batch.AcceptanceParams(), solvers.LbfgsParams(grad_tol=0.1),
                    stop, seed=seed)
            return batch.lbfgs_baseline_run(w0, self.X, self.Y, self.cfg,
                                            solvers.LbfgsParams(), stop, seed=seed)
        stop = batch.StoppingCriteria(max_epochs=s.epochs, **NO_TOLERANCE)
        alpha0 = minibatch.BlingParams.default_alpha0(w0.num_layers) \
            if method == "BLInG" else 0.5
        driver = minibatch.bling_run if method == "BLInG" else minibatch.ig_run
        return driver(w0, self.X, self.Y, self.cfg, self.partition,
                      minibatch.MinibatchSelectionRule(
                          minibatch.MinibatchSelectionRule.INCREMENTAL),
                      minibatch.BlingParams(alpha0=alpha0), stop, seed=seed)

    def check_run(self, run):
        s = self.size
        if run.algorithm in ("B2LD", "LBFGS"):
            checks.check_iteration_budget(run, s.inner_budget)
            checks.check_monotone(run)
        else:
            checks.check_epoch_budget(run, s.epochs,
                                      self.partition.num_batches)
        checks.check_objective(run, self.X, self.Y, self.rho)

    def round(self, tracer=None):
        plan = [(k, m) for k in self.init_seeds for m in self.methods]
        ops = []
        for i in self._order.permutation(len(plan)):
            k, method = plan[i]
            w0 = self.weights0[k]
            t0 = time.perf_counter()
            run = self._run(method, w0, k)
            seconds = time.perf_counter() - t0
            self.check_run(run)
            checks.check_equal(f"{method} seed {k}: initial-weights digest",
                               w0.digest(), self.init_digest[k])
            final = run.final_weights.digest()
            checks.check_equal(f"{method} seed {k}: final-weights digest "
                               "against the first run of this process",
                               final, self._digests.setdefault((method, k), final))
            ops.append(Op(method, k, seconds, result={
                "final_objective": run.final_objective,
                "stop_reason": run.stop_reason,
                "inner_iterations": run.inner_iterations,
                "final_digest": final}))
        return ops

    def metrics(self, rounds):
        ops = [op for r in rounds for op in r.ops]
        decomp, base = self.methods

        def run_s(method):
            return statistics.median(op.seconds for op in ops if op.method == method)

        def f_rel(method):
            return statistics.median(op.result["final_objective"] / self.var
                                     for op in rounds[0].ops if op.method == method)

        return {"decomp_run_s": run_s(decomp), "base_run_s": run_s(base),
                "decomp_final_f_rel": f_rel(decomp), "base_final_f_rel": f_rel(base)}


class ExperimentWorkload:
    """``harness.run_experiment`` over a delimited file, then the report
    round trip. ``seed`` picks the experiment's initial-weight seeds."""

    name = "experiment"
    DECOMPOSED = ("B2LD", "BLInG")

    def __init__(self, seed, workdir, size=ExperimentSize(), workers=None):
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.workers = workers or min(len(os.sched_getaffinity(0)), 4)
        self.seeds = [size.seeds_per_run * seed + i
                      for i in range(size.seeds_per_run)]
        self._rows = None

    def setup(self):
        s = self.size
        d, widths = _arch_dims(s.teacher)
        X, Y = ref.teacher_dataset(d, widths, s.samples, s.noise_sd, s.data_seed)
        os.makedirs(self.workdir, exist_ok=True)
        self.data_path = os.path.join(self.workdir, "teacher8.csv")
        np.savetxt(self.data_path, np.hstack([X, Y]), delimiter=",", fmt="%.17g")
        self.config = harness.ExperimentConfig.from_dict({
            "datasets": [{"name": "teacher8", "kind": "file",
                          "path": self.data_path,
                          "target_columns": [d + Y.shape[1]], "delimiter": ",",
                          "data_seed": s.data_seed,
                          "test_fraction": s.test_fraction}],
            "architectures": list(s.architectures),
            "algorithms": list(harness.ALGORITHMS),
            "seeds": self.seeds,
            "stopping": dict(NO_TOLERANCE, max_cycles=s.max_cycles,
                             max_epochs=s.max_epochs,
                             max_inner_iters=s.max_inner_iters),
            "batch_size": s.batch_size,
            "output_path": os.path.join(self.workdir, "report")})

    def verify_inputs(self):
        """Reference split, variance, initial digests and objectives."""
        s = self.size
        raw = np.loadtxt(self.data_path, delimiter=",", ndmin=2)
        d = raw.shape[1] - 1
        Xtr, Ytr, _, _ = ref.split_normalize(raw[:, :d], raw[:, d:],
                                             s.test_fraction, s.data_seed)
        self.var = ref.target_variance(Ytr)
        init = {}
        for text in s.architectures:
            _, widths = _arch_dims(f"{d}-{text}-1")
            rho = ref.default_rho(d, widths)
            for k in self.seeds:
                blocks = ref.init_blocks(d, widths, k)
                init[(text, k)] = (ref.digest(blocks),
                                   ref.objective(blocks, Xtr, Ytr, rho),
                                   len(widths))
        minibatches = math.ceil(Xtr.shape[0] / min(s.batch_size, Xtr.shape[0]))
        self.expect = {"count": len(s.architectures) * len(self.seeds)
                       * len(harness.ALGORITHMS),
                       "init": init, "epochs": s.max_epochs,
                       "minibatches": minibatches}

    def round(self, tracer=None):
        t0 = time.perf_counter()
        report = harness.run_experiment(self.config, workers=self.workers)
        t1 = time.perf_counter()
        rows = report.rows
        for r in rows:
            summary = r.__dict__.pop("trace", None)
            if summary is not None and tracer is not None:
                tracer.merge(summary)
        tsv, _ = harness.emit_report(report, self.config.output_path)
        loaded = harness.load_report(tsv)
        t2 = time.perf_counter()
        ops = [Op(r.algorithm, r.seed, r.elapsed_seconds, failed=bool(r.error),
                  result={"final_objective": r.final_objective})
               for r in rows]
        checks.check_experiment_rows(rows, self.expect)
        checks.check_round_trip(rows, loaded.rows)
        fixed = [_row_outcome(r) for r in rows]
        if self._rows is None:
            self._rows = fixed
        checks.check_equal("experiment rows against the first round of this "
                           "process", fixed, self._rows)
        ops.append(Op("report", self.seed, t2 - t1,
                      result={"run_experiment_s": t1 - t0}))
        return ops

    def metrics(self, rounds):
        def runs(ops, decomposed):
            return [op for op in ops if op.method != "report" and not op.failed
                    and (op.method in self.DECOMPOSED) == decomposed]

        def run_s(decomposed):
            return statistics.median(
                statistics.fmean(op.seconds for op in runs(r.ops, decomposed))
                for r in rounds)

        def f_rel(decomposed):
            return statistics.geometric_mean(
                op.result["final_objective"] / self.var
                for op in runs(rounds[0].ops, decomposed))

        return {"decomp_run_s": run_s(True), "base_run_s": run_s(False),
                "decomp_final_f_rel": f_rel(True), "base_final_f_rel": f_rel(False)}


def _row_outcome(row):
    """A report row without its wall-clock field, as bytes-exact values."""
    return tuple(checks.bits(v) for k, v in vars(row).items()
                 if k != "elapsed_seconds")


WORKLOADS = ("deep-batch", "deep-minibatch", "experiment")


def make(name, seed, workdir):
    """The workload ``name`` at full size."""
    if name == "experiment":
        return ExperimentWorkload(seed, workdir)
    # a B2LD+LBFGS pair takes ~13 s on a 2-CPU x86 box and BLInG+IG ~4 s,
    # so a deep-minibatch round affords two init seeds
    init_seeds = (0,) if name == "deep-batch" else (0, 1)
    return DeepWorkload(name, seed, init_seeds=init_seeds)
