"""The benchmark's own tests: each workload end to end at a tiny size, the
tracer, and each output check fed a perturbed result.

    python3 -m pytest bench/tests
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import layeropt
import layeropt.batch as batch
import layeropt.harness as harness
import layeropt.network as network

import checks
import layertrace
import run
import workloads

TINY_DEEP = workloads.DeepSize(teacher="4-[1x5]-1", student="4-[3x6]-1",
                               samples=100, inner_budget=6, epochs=2,
                               batch_size=16)
TINY_EXPERIMENT = workloads.ExperimentSize(
    teacher="3-[1x4]-1", samples=60, architectures=("[1x4]", "[2x3]"),
    seeds_per_run=2, max_cycles=2, max_epochs=2, max_inner_iters=5,
    batch_size=16)


def deep(name, seed=0):
    wl = workloads.DeepWorkload(name, seed, size=TINY_DEEP, init_seeds=(0, 1))
    wl.setup()
    wl.verify_inputs()
    return wl


def experiment(tmp_path, workers=2, seed=0):
    wl = workloads.ExperimentWorkload(seed, str(tmp_path), size=TINY_EXPERIMENT,
                                      workers=workers)
    wl.setup()
    wl.verify_inputs()
    return wl


def assert_metrics(metrics, table):
    assert list(metrics) == list(table)
    for name, unit in table.items():
        assert metrics[name]["unit"] == unit
        assert math.isfinite(metrics[name]["value"]), name


@pytest.mark.parametrize("name", ["deep-batch", "deep-minibatch"])
def test_deep_workload_end_to_end(name):
    wl = deep(name)
    rounds = run.measure(wl, 0.0, traced=False)
    assert len(rounds) == 2 and all(len(r.ops) == 4 for r in rounds)
    metrics = run.end_to_end(wl, rounds, [0.01])
    assert_metrics(metrics, run.END_TO_END)
    for key in ("decomp_run_s", "base_run_s", "decomp_final_f_rel",
                "base_final_f_rel", "runs_per_s", "peak_rss_mb"):
        assert metrics[key]["value"] > 0, key


def test_experiment_end_to_end(tmp_path):
    wl = experiment(tmp_path)
    rounds = run.measure(wl, 0.0, traced=False)
    assert [len(r.ops) for r in rounds] == [17, 17]  # 16 runs + report
    assert not any(op.failed for r in rounds for op in r.ops)
    metrics = run.end_to_end(wl, rounds, [0.01])
    assert_metrics(metrics, run.END_TO_END)
    assert metrics["runs_per_s"]["value"] > 0


def test_traced_deep_batch_counts_solver_work():
    wl = deep("deep-batch")
    rounds = run.measure(wl, 0.0, traced=True, tracer=layertrace.Tracer())
    assert [r.traced for r in rounds] == [False, True]
    metrics = run.per_layer(wl, rounds)
    assert_metrics(metrics, run.PER_LAYER)
    v = {k: m["value"] for k, m in metrics.items()}
    assert v["solvers.lbfgs_iterations"] > 0 and v["batch.inner_solves"] > 0
    # one initial evaluation plus one per accepted step, at least
    assert v["solvers.fg_evals"] > v["solvers.lbfgs_iterations"]
    assert v["solvers.armijo_trials"] > 0
    assert v["minibatch.steps"] == 0 and v["harness.task_busy_s"] == 0
    assert v["network.layer_forwards"] >= 4 * v["network.forward_calls"]
    assert all(isinstance(v[n], int) for n in layertrace.COUNT_METRICS)
    # the traced round reproduced the untraced final weights (checked in round)
    digests = [[op.result["final_digest"] for op in r.ops] for r in rounds]
    assert sorted(digests[0]) == sorted(digests[1])


def test_traced_deep_minibatch_counts_match_the_schedule():
    wl = deep("deep-minibatch")
    rounds = run.measure(wl, 0.0, traced=True, tracer=layertrace.Tracer())
    v = {k: m["value"] for k, m in run.per_layer(wl, rounds).items()}
    visits = TINY_DEEP.epochs * wl.partition.num_batches
    layers = 4  # 4-[3x6]-1
    seeds = 2
    assert v["minibatch.steps"] == seeds * (visits * layers + visits)
    assert v["network.forward_partial_calls"] == seeds * visits * layers
    assert v["solvers.fg_evals"] == 0 and v["batch.inner_solves"] == 0


def test_traced_experiment_collects_worker_spans(tmp_path):
    wl = experiment(tmp_path)
    rounds = run.measure(wl, 0.0, traced=True, tracer=layertrace.Tracer())
    v = {k: m["value"] for k, m in run.per_layer(wl, rounds).items()}
    assert v["harness.task_busy_s"] > 0 and 0 < v["harness.pool_busy_ratio"] <= 1
    assert v["network.forward_calls"] > 0 and v["solvers.fg_evals"] > 0
    assert v["data.load_delimited_s"] > 0 and v["harness.emit_report_s"] > 0


def test_tracer_shares_one_wrapper_and_restores_originals():
    originals = (network.forward, network.sigmoid, batch.forward,
                 network._ACT[network.Activation.SIGMOID])
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert batch.forward is network.forward is layeropt.forward
        assert network.forward is not originals[0]
        assert batch.sigmoid is network.sigmoid
        assert network._ACT[network.Activation.SIGMOID][0] is network.sigmoid
        network.sigmoid(np.zeros(3))
        assert tracer.calls["network.sigmoid"] == 1
    finally:
        tracer.uninstall()
    assert (network.forward, network.sigmoid, batch.forward,
            network._ACT[network.Activation.SIGMOID]) == originals
    assert layeropt.forward is originals[0]


def test_self_time_excludes_child_spans():
    tracer = layertrace.Tracer()
    import time

    def child():
        time.sleep(0.02)

    def parent():
        tracer.call("x.child", child, (), {})
        time.sleep(0.01)

    tracer.call("x.parent", parent, (), {})
    assert tracer.self_ns["x.parent"] < tracer.total_ns["x.parent"] - 15e6
    assert tracer.self_ns["x.child"] == tracer.total_ns["x.child"]
    assert [s[3] for s in tracer.spans] == [-1, 0]


# ---- each output check fails on a perturbed result ----

@pytest.fixture(scope="module")
def batch_runs():
    wl = deep("deep-batch")
    runs = {m: wl._run(m, wl.weights0[0], 0) for m in wl.methods}
    for r in runs.values():
        wl.check_run(r)
    return wl, runs


def test_check_objective_rejects_a_perturbed_objective(batch_runs):
    wl, runs = batch_runs
    bad = dataclasses.replace(runs["B2LD"],
                              final_objective=runs["B2LD"].final_objective * (1 + 1e-7))
    with pytest.raises(checks.CheckError, match="final objective"):
        checks.check_objective(bad, wl.X, wl.Y, wl.rho)


def test_check_monotone_rejects_a_perturbed_trajectory(batch_runs):
    _, runs = batch_runs
    traj = list(runs["LBFGS"].trajectory)
    traj[3] = traj[2] * 1.001
    with pytest.raises(checks.CheckError, match="rose"):
        checks.check_monotone(dataclasses.replace(runs["LBFGS"], trajectory=traj))
    with pytest.raises(checks.CheckError, match="ends at"):
        checks.check_monotone(dataclasses.replace(
            runs["LBFGS"], trajectory=runs["LBFGS"].trajectory[:-1]))


def test_budget_checks_reject_an_early_stop(batch_runs):
    _, runs = batch_runs
    with pytest.raises(checks.CheckError, match="f_tol"):
        checks.check_iteration_budget(
            dataclasses.replace(runs["LBFGS"], stop_reason="f_tol"), 6)
    wl = deep("deep-minibatch")
    mb = wl._run("IG", wl.weights0[0], 0)
    wl.check_run(mb)
    counts = list(mb.layer_update_counts)
    counts[0] -= 1
    with pytest.raises(checks.CheckError, match="layer updates"):
        checks.check_epoch_budget(dataclasses.replace(mb, layer_update_counts=counts),
                                  TINY_DEEP.epochs, wl.partition.num_batches)


@pytest.fixture(scope="module")
def report_rows(tmp_path_factory):
    wl = experiment(tmp_path_factory.mktemp("exp"), workers=1)
    report = harness.run_experiment(wl.config, workers=1)
    tsv, _ = harness.emit_report(report, wl.config.output_path)
    return wl, report.rows, harness.load_report(tsv).rows


def test_round_trip_check_rejects_a_perturbed_report_row(report_rows):
    wl, emitted, loaded = report_rows
    checks.check_experiment_rows(emitted, wl.expect)
    checks.check_round_trip(emitted, loaded)
    bad = list(loaded)
    bad[5] = dataclasses.replace(bad[5], final_objective=float(
        np.nextafter(bad[5].final_objective, np.inf)))
    with pytest.raises(checks.CheckError, match="final_objective"):
        checks.check_round_trip(emitted, bad)
    with pytest.raises(checks.CheckError, match="rows"):
        checks.check_round_trip(emitted, loaded[:-1])


def test_row_check_rejects_perturbed_rows(report_rows):
    wl, emitted, _ = report_rows
    cases = [
        (dict(init_digest="0" * 64), "digest"),
        (dict(error="RuntimeError: boom"), "error row"),
        (dict(stop_reason="f_tol"), "stopped"),
        (dict(final_objective=float("nan")), "final objective"),
    ]
    for change, message in cases:
        for i in (0, 2):  # a B2LD row and a BLInG row
            bad = list(emitted)
            bad[i] = dataclasses.replace(bad[i], **change)
            with pytest.raises(checks.CheckError, match=message):
                checks.check_experiment_rows(bad, wl.expect)
    b2ld = next(i for i, r in enumerate(emitted) if r.algorithm == "B2LD")
    bad = list(emitted)
    bad[b2ld] = dataclasses.replace(bad[b2ld], final_objective=1e9)
    with pytest.raises(checks.CheckError, match="above the initial"):
        checks.check_experiment_rows(bad, wl.expect)


def test_input_check_rejects_perturbed_data():
    wl = deep("deep-batch")
    Y = wl.Y.copy()
    Y[7, 0] += 1e-9
    with pytest.raises(checks.CheckError, match="Y"):
        checks.check_inputs(wl.X, Y, wl.X, wl.Y)


# ---- the benchmark's definition ----

def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "deep-batch", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
