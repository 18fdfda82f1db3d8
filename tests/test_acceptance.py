"""Acceptance gate: one test per criterion, one printed verdict line each.

Criterion 10 is a soft gate: the raw win/defeat/tie tallies are always
reported, and the threshold assertion states the documented expectation.
"""

import time

import numpy as np
import pytest

from conftest import record_criterion
from layeropt.batch import (AcceptanceParams, BlockSelectionRule,
                            StoppingCriteria, accept_trial, b2ld_run,
                            lbfgs_baseline_run)
from layeropt.data import (fit_apply_normalization, synth_teacher_dataset,
                           train_test_split)
from layeropt.harness import run_experiment, run_single, tally_wins
from layeropt.linalg import SeededRng
from layeropt.minibatch import (BlingParams, MinibatchSelectionRule, bling_run,
                                ig_run, make_partition, stepsize_update)
from layeropt.network import Architecture, forward, init_weights, parse_architecture
from layeropt.objective import (ObjectiveConfig, block_gradient, full_gradient,
                                minibatch_value, objective_value)
from layeropt.solvers import (ArmijoParams, LbfgsParams, armijo_linesearch,
                              llsq_last_layer)

from test_harness import small_experiment
from test_objective import fd_block_gradient, rel_error


def make_instance(rng, max_layers=4, max_width=8, max_samples=64):
    widths = [int(rng.integers(2, max_width + 1))
              for _ in range(int(rng.integers(1, max_layers)))]
    widths.append(int(rng.integers(1, 3)))
    d = int(rng.integers(2, 6))
    P = int(rng.integers(4, max_samples + 1))
    arch = Architecture(d, tuple(widths))
    seed = int(rng.integers(0, 2 ** 31))
    sr = SeededRng(seed)
    w = init_weights(arch, sr)
    X = sr.child(1).uniform(0.0, 1.0, size=(P, d))
    Y = sr.child(2).uniform(0.0, 1.0, size=(P, arch.output_dim))
    return w, X, Y, ObjectiveConfig(rho=1e-3, sample_count=P)


def test_criterion_1_gradient_correctness():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        w, X, Y, cfg = make_instance(rng)
        grads = full_gradient(w, X, Y, cfg)
        for l in range(1, w.num_layers + 1):
            fd = fd_block_gradient(w, X, Y, cfg, l)
            worst = max(worst, rel_error(grads[l - 1], fd))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-5 and elapsed <= 30.0
    record_criterion(1, ok, f"gradient vs central differences on 50 instances: "
                            f"worst relative error {worst:.2e} (tol 1e-5), "
                            f"{elapsed:.1f}s (limit 30s)")
    assert ok


def test_criterion_2_partial_propagation_equivalence():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(20):
        w, X, Y, cfg = make_instance(rng, max_samples=32)
        grads = full_gradient(w, X, Y, cfg)
        _, cache = forward(w, X)
        for l in range(1, w.num_layers + 1):
            g = block_gradient(w, Y, cfg, l, cache)  # deltas stop at block l
            denom = max(float(np.linalg.norm(grads[l - 1])), 1e-300)
            worst = max(worst, float(np.linalg.norm(g - grads[l - 1])) / denom)
    ok = worst <= 1e-12
    record_criterion(2, ok, f"stopped-delta block gradients vs full backprop "
                            f"slices on 20 instances: worst relative "
                            f"difference {worst:.2e} (tol 1e-12)")
    assert ok


def test_criterion_3_llsq_oracle():
    worst = 0.0
    for seed in range(5):
        arch = Architecture(4, (2,))
        sr = SeededRng(1000 + seed)
        w0 = init_weights(arch, sr)
        X = sr.child(1).uniform(0.0, 1.0, size=(40, 4))
        Y = sr.child(2).uniform(0.0, 1.0, size=(40, 2))
        cfg = ObjectiveConfig(rho=1e-2, sample_count=40)
        w_star = llsq_last_layer(X, Y, cfg.rho, 40)
        resid = X @ w_star - Y
        f_star = float(np.sum(resid ** 2)) / 40 \
            + cfg.rho * float(np.sum(w_star ** 2))
        stop = StoppingCriteria(grad_norm_tol=1e-9, f_tol=1e-14,
                                time_limit_seconds=None, max_cycles=300,
                                max_inner_iters=3000)
        rb = b2ld_run(w0, X, Y, cfg, BlockSelectionRule("backward"),
                      AcceptanceParams(), LbfgsParams(grad_tol=0.1), stop)
        rl = lbfgs_baseline_run(w0, X, Y, cfg, LbfgsParams(), stop)
        worst = max(worst, abs(rb.final_objective - f_star) / f_star,
                    abs(rl.final_objective - f_star) / f_star)
    ok = worst <= 1e-6
    record_criterion(3, ok, f"L=1 strictly convex problems: B2LD, LBFGS and "
                            f"the closed-form ridge solution agree, worst "
                            f"relative gap {worst:.2e} (tol 1e-6)")
    assert ok


def test_criterion_4_descent_monotonicity():
    rng = np.random.default_rng(104)
    violations = 0
    trajectories = 0
    for _ in range(6):
        w, X, Y, cfg = make_instance(rng, max_layers=3, max_samples=40)
        stop = StoppingCriteria(time_limit_seconds=None, max_cycles=6,
                                max_inner_iters=40, f_tol=1e-12)
        for run in (b2ld_run(w, X, Y, cfg, BlockSelectionRule("backward"),
                             AcceptanceParams(), LbfgsParams(grad_tol=0.1),
                             stop),
                    lbfgs_baseline_run(w, X, Y, cfg, LbfgsParams(), stop)):
            trajectories += 1
            violations += sum(1 for a, b in
                              zip(run.trajectory, run.trajectory[1:]) if b > a)
    ok = violations == 0
    record_criterion(4, ok, f"objective non-increasing on all {trajectories} "
                            f"recorded B2LD/LBFGS trajectories: "
                            f"{violations} violations")
    assert ok


def test_criterion_5_condition_enforcement():
    rng = np.random.default_rng(105)
    params = AcceptanceParams()
    mismatches = 0
    for _ in range(1000):
        f_cur = float(rng.uniform(0.1, 10.0))
        f_trial = f_cur + float(rng.uniform(-1.0, 0.5))
        f_armijo = f_cur - float(rng.uniform(0.0, 1.0))
        disp = float(rng.uniform(0.0, 3.0))
        got = accept_trial(f_cur, f_trial, f_armijo, disp, params)
        cond1 = f_trial <= f_armijo
        cond2 = f_trial - f_cur <= -params.sigma0 * disp ** 2
        if got != (cond1 and cond2):
            mismatches += 1

    # the Armijo fallback point always satisfies both conditions
    fallback_failures = 0
    ap = params.armijo
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        diag = rng.uniform(0.5, 4.0, size=n)
        x = rng.normal(size=n)
        g = 2 * diag * x
        slope = -float(g @ g)
        if slope == 0.0:
            continue
        phi = lambda a: float(((x - a * g) ** 2) @ diag)
        f_cur = float((x ** 2) @ diag)
        alpha = armijo_linesearch(phi, f_cur, slope, ap)
        f_armijo = phi(alpha)
        disp = alpha * float(np.linalg.norm(g))
        if not accept_trial(f_cur, f_armijo, f_armijo, disp, params):
            fallback_failures += 1
    ok = mismatches == 0 and fallback_failures == 0
    record_criterion(5, ok, f"accept_trial vs direct cond1/cond2 on 1000 "
                            f"cases: {mismatches} mismatches; Armijo fallback "
                            f"failed both-conditions check {fallback_failures} "
                            f"times out of 1000")
    assert ok


def test_criterion_6_armijo_toy_case():
    # f(w)=w^2 at w=1, d=-2: slope -4, first backtrack accepts
    alpha = armijo_linesearch(lambda a: (1.0 - 2.0 * a) ** 2, 1.0, -4.0,
                              ArmijoParams(a=1.0, gamma=1e-4, delta=0.5))
    ok = alpha == 0.5
    record_criterion(6, ok, f"quadratic toy linesearch returned alpha={alpha} "
                            f"(expected exactly 0.5)")
    assert ok


def test_criterion_7_stepsize_schedule():
    alpha, k = 0.5, 0
    ok = True
    while alpha >= 1e-3 and k < 10 ** 6:
        nxt = stepsize_update(alpha, 5e-3)
        if not 0.0 < nxt < alpha:
            ok = False
            break
        alpha, k = nxt, k + 1
    ok = ok and alpha < 1e-3
    record_criterion(7, ok, f"diminishing stepsize from 0.5 stays positive, "
                            f"strictly decreasing, below 1e-3 after {k} "
                            f"iterations (limit 1e6)")
    assert ok


def test_criterion_8_minibatch_decomposition_identity():
    rng = np.random.default_rng(108)
    worst = 0.0
    for H in (1, 3, 7):
        for _ in range(5):
            w, X, Y, cfg = make_instance(rng, max_samples=40)
            P = cfg.sample_count
            part = make_partition(P, max(1, P // H), seed=int(rng.integers(1e6)),
                                  shuffle=True)
            total = 0.0
            for b in part.batches:
                _, cache = forward(w, X[b])
                total += minibatch_value(w, cache, Y[b], cfg)
            f, _ = objective_value(w, X, Y, cfg)
            worst = max(worst, abs(total - f) / f)
    ok = worst <= 1e-12
    record_criterion(8, ok, f"sum of minibatch components equals the full "
                            f"objective, worst relative gap {worst:.2e} "
                            f"(tol 1e-12) over H in {{1,3,7}}")
    assert ok


def test_criterion_9_single_block_degeneracy():
    arch = Architecture(5, (2,))
    sr = SeededRng(9)
    w0 = init_weights(arch, sr)
    X = sr.child(1).uniform(0.0, 1.0, size=(40, 5))
    Y = sr.child(2).uniform(0.0, 1.0, size=(40, 2))
    cfg = ObjectiveConfig(rho=1e-3, sample_count=40)
    part = make_partition(40, 8)
    rule = MinibatchSelectionRule("incremental")
    stop = StoppingCriteria(time_limit_seconds=None, max_epochs=3)
    rb = bling_run(w0, X, Y, cfg, part, rule, BlingParams(), stop)
    ri = ig_run(w0, X, Y, cfg, part, rule, BlingParams(), stop)
    ok = rb.final_weights.digest() == ri.final_weights.digest() \
        and rb.final_objective == ri.final_objective
    record_criterion(9, ok, "L=1 BLInG and IG coincide bitwise over 3 epochs"
                     if ok else "L=1 BLInG and IG diverged")
    assert ok


def test_criterion_10_desk_scale_trend():
    teacher = parse_architecture("10-[2x20]-1")
    ds = synth_teacher_dataset(teacher, 2000, 0.05, seed=99)
    train, test = train_test_split(ds, 0.2, seed=99)
    train, test, _ = fit_apply_normalization(train, test)
    student = parse_architecture("10-[10x50]-1")

    # equal iteration budgets of 40 with tiny grad/f tolerances; even so,
    # neither method spends its budget: on seeds 0-9 both stop on f_tol at
    # the shared plateau, B2LD after 13 inner iterations and LBFGS after 4-5
    stop_batch = StoppingCriteria(grad_norm_tol=1e-12, f_tol=1e-12,
                                  time_limit_seconds=None, max_inner_iters=40)
    stop_mb = StoppingCriteria(time_limit_seconds=None, max_epochs=10)
    b2, lb, bl, ig = [], [], [], []
    for seed in range(10):
        w0 = init_weights(student, SeededRng(seed))
        for algo, sink, stop in (("B2LD", b2, stop_batch),
                                 ("LBFGS", lb, stop_batch),
                                 ("BLInG", bl, stop_mb),
                                 ("IG", ig, stop_mb)):
            run, _ = run_single(algo, w0, train, test, stop, batch_size=128,
                                seed=seed)
            sink.append(run.final_objective)
    batch_tally = tally_wins(b2, lb)
    mb_tally = tally_wins(bl, ig)
    ok = batch_tally[0] >= 7 and mb_tally[0] >= 7
    record_criterion(
        10, ok,
        f"soft gate, raw tallies [wins; defeats; ties] — B2LD vs LBFGS: "
        f"{list(batch_tally)} (need >=7 wins), BLInG vs IG: {list(mb_tally)} "
        f"(need >=7 wins); under the fan-in-scaled initialization both batch "
        f"methods reach the same last-layer plateau on every seed, so the "
        f"batch half ties — see the decisions ledger")
    assert ok, (f"B2LD vs LBFGS tally {batch_tally}, BLInG vs IG tally "
                f"{mb_tally}; the batch half is unattainable under the "
                f"mandated initialization (see decisions ledger)")


def test_criterion_11_tally_logic():
    hand = (tally_wins([0.9], [1.0]) == (1, 0, 0)
            and tally_wins([0.97], [1.0]) == (0, 0, 1)
            and tally_wins([1.0], [0.9]) == (0, 1, 0))
    rng = np.random.default_rng(111)
    antisym = True
    for _ in range(1000):
        a = [float(v) for v in rng.uniform(0, 2, size=4)]
        b = [float(v) for v in rng.uniform(0, 2, size=4)]
        wa, da, ta = tally_wins(a, b)
        wb, db, tb = tally_wins(b, a)
        if (wa, da, ta) != (db, wb, tb):
            antisym = False
            break
    ok = hand and antisym
    record_criterion(11, ok, f"hand-computed tallies reproduced: {hand}; "
                             f"antisymmetry on 1000 random pairs: {antisym}")
    assert ok


def test_criterion_12_determinism():
    cfg = small_experiment()
    r1 = run_experiment(cfg, workers=1)
    r2 = run_experiment(cfg, workers=1)
    same_rows = all(
        a.final_objective == b.final_objective and a.grad_norm == b.grad_norm
        and a.test_mse == b.test_mse and a.stop_reason == b.stop_reason
        and a.layer_update_counts == b.layer_update_counts
        and a.init_digest == b.init_digest
        for a, b in zip(r1.rows, r2.rows))

    # bitwise-identical final weights for a repeated single run
    teacher = parse_architecture("3-[1x4]-1")
    ds = synth_teacher_dataset(teacher, 60, 0.01, seed=5)
    train, test = train_test_split(ds, 0.2, seed=5)
    train, test, _ = fit_apply_normalization(train, test)
    arch = parse_architecture("3-[2x4]-1")
    stop = StoppingCriteria(time_limit_seconds=None, max_cycles=3,
                            max_epochs=3, max_inner_iters=15)
    same_weights = True
    for algo in ("B2LD", "LBFGS", "BLInG", "IG"):
        w0 = init_weights(arch, SeededRng(7))
        a, _ = run_single(algo, w0, train, test, stop, batch_size=16, seed=7)
        b, _ = run_single(algo, w0, train, test, stop, batch_size=16, seed=7)
        if a.final_weights.digest() != b.final_weights.digest():
            same_weights = False
    ok = same_rows and same_weights
    record_criterion(12, ok, f"repeated seeded runs bitwise identical — "
                             f"report rows: {same_rows}, final weights for "
                             f"all four algorithms: {same_weights}")
    assert ok
