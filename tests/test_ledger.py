"""The run ledger: the stop reason of each cap, the first reason kept, the
deadline and its clock reads, the order of B2LD's cycle checks, the criteria
under which a run may never end, and, over random caps, what each of the
four drivers has done when a cap stops it."""

import math
import types
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import layeropt.batch as batch
from conftest import counted, make_problem
from layeropt.batch import (AcceptanceParams, BlockSelectionRule, RunLedger,
                            StoppingCriteria, b2ld_run, lbfgs_baseline_run)
from layeropt.minibatch import (BlingParams, MinibatchSelectionRule,
                                bling_run, ig_run, make_partition)
from layeropt.solvers import LbfgsParams

CAPS = ["max_cycles", "max_epochs", "max_inner_iters"]


def fake_clock(monkeypatch, reads_before_deadline=1):
    """batch.py's clock: 0.0 for the first reads, then 200.0."""
    clock = iter([0.0] * reads_before_deadline)
    monkeypatch.setattr(batch, "time", types.SimpleNamespace(
        monotonic=lambda: next(clock, 200.0)))


@pytest.mark.parametrize("cap,reason", zip(CAPS, ["max_cycles", "max_epochs",
                                                  "iteration_budget"]))
def test_each_cap_stops_with_its_reason(cap, reason):
    ledger = RunLedger(StoppingCriteria(time_limit_seconds=None, **{cap: 3}))
    assert not ledger.capped(cap, 2) and ledger.reason is None
    assert ledger.capped(cap, 3) and ledger.reason == reason


@pytest.mark.parametrize("cap", CAPS)
def test_an_unset_cap_never_stops(cap):
    ledger = RunLedger(StoppingCriteria(time_limit_seconds=None))
    assert not ledger.capped(cap, 10 ** 9) and ledger.reason is None


def test_the_first_reason_wins(monkeypatch):
    fake_clock(monkeypatch)
    ledger = RunLedger(StoppingCriteria(time_limit_seconds=100.0,
                                        max_cycles=0))
    assert not ledger.halt("non_finite", hit=False) and ledger.reason is None
    assert ledger.halt("grad_norm")
    assert ledger.halt("f_tol") and ledger.capped("max_cycles", 5)
    assert ledger.timed_out() and ledger.at_cycle(5, math.nan, math.nan)
    run = ledger.record(algorithm="B2LD", seed=0, final_weights=None,
                        trajectory=[], final_objective=0.0,
                        final_grad_norm=0.0, layer_update_counts=[])
    assert ledger.reason == run.stop_reason == "grad_norm"
    assert run.elapsed_seconds == 200.0


@pytest.mark.parametrize("limit", [None, 0.0, 2.5, math.inf])
def test_deadline_is_none_exactly_when_the_time_limit_is(limit, monkeypatch):
    fake_clock(monkeypatch)
    ledger = RunLedger(StoppingCriteria(time_limit_seconds=limit))
    assert ledger.start == 0.0
    assert (ledger.deadline is None) == (limit is None)
    if limit is not None:
        assert ledger.deadline == limit


def test_the_clock_is_read_only_while_it_can_stop_the_run(monkeypatch):
    """Once at the start; then by `timed_out` only with a deadline and while
    no reason is kept."""
    reads = Counter()
    monkeypatch.setattr(batch, "time", types.SimpleNamespace(
        monotonic=counted(lambda: 0.0, reads, "clock")))
    no_deadline = RunLedger(StoppingCriteria(time_limit_seconds=None))
    assert not no_deadline.timed_out() and reads["clock"] == 1
    ledger = RunLedger(StoppingCriteria(time_limit_seconds=5.0))
    assert not ledger.timed_out() and reads["clock"] == 3
    ledger.halt("grad_norm")
    assert ledger.timed_out() and reads["clock"] == 3


@pytest.mark.parametrize("f,gnorm,cycle,reason", [
    (math.inf, 0.0, 9, "non_finite"), (math.nan, 0.0, 9, "non_finite"),
    (1.0, 0.5, 9, "grad_norm"), (1.0, 1.0, 9, "max_cycles"),
    (1.0, 1.0, 8, "time_limit")])
def test_cycle_checks_in_their_order(f, gnorm, cycle, reason, monkeypatch):
    """Each row would stop on every later check too, so the reason kept
    shows which check comes first."""
    fake_clock(monkeypatch)
    ledger = RunLedger(StoppingCriteria(grad_norm_tol=0.5, max_cycles=9,
                                        time_limit_seconds=100.0))
    assert ledger.at_cycle(cycle, f, gnorm) and ledger.reason == reason


def test_a_cycle_within_every_bound_goes_on(monkeypatch):
    fake_clock(monkeypatch, 2)
    ledger = RunLedger(StoppingCriteria(grad_norm_tol=0.5, max_cycles=9,
                                        time_limit_seconds=100.0))
    assert not ledger.at_cycle(8, 1.0, 1.0) and ledger.reason is None


@pytest.mark.parametrize("limit", [None, math.inf])
@pytest.mark.parametrize("algorithm,stop,match", [
    ("B2LD", {"f_tol": -math.inf},
     "f_tol -inf < 0 needs max_cycles, max_inner_iters or a finite "
     "time_limit_seconds"),
    ("B2LD", {"f_tol": -1e-12, "max_epochs": 5}, "f_tol -1e-12 < 0"),
    ("BLInG", {"max_cycles": 5, "max_inner_iters": 5},
     "max_epochs or a finite time_limit_seconds"),
    ("IG", {}, "max_epochs or a finite time_limit_seconds")])
def test_a_run_that_may_never_end_is_refused(algorithm, stop, match, limit):
    with pytest.raises(ValueError, match=f"^{algorithm} .*{match}"):
        RunLedger.check_ends(algorithm, StoppingCriteria(
            time_limit_seconds=limit, **stop))


@pytest.mark.parametrize("algorithm,stop", [
    ("B2LD", {"f_tol": 0.0}),
    ("B2LD", {"f_tol": -math.inf, "max_cycles": 0}),
    ("B2LD", {"f_tol": -math.inf, "max_inner_iters": 5}),
    ("B2LD", {"f_tol": -math.inf, "time_limit_seconds": 1.0}),
    ("LBFGS", {"f_tol": -math.inf}),
    ("BLInG", {"max_epochs": 0}),
    ("IG", {"time_limit_seconds": 0.0})])
def test_a_run_that_ends_is_accepted(algorithm, stop):
    RunLedger.check_ends(algorithm, StoppingCriteria(
        **{"time_limit_seconds": None, **stop}))


@settings(max_examples=25, deadline=None)
@given(max_cycles=st.none() | st.integers(0, 4),
       max_inner_iters=st.none() | st.integers(0, 40),
       max_epochs=st.integers(0, 3), batch_size=st.integers(4, 20),
       seed=st.integers(0, 3))
def test_a_cap_stop_has_done_the_work_its_cap_allows(
        max_cycles, max_inner_iters, max_epochs, batch_size, seed):
    """With no tolerance and no deadline only a cap stops a run: B2LD
    stopped by max_cycles has swept the full gradient once per cycle and
    once more, a B2LD or LBFGS run stopped by its iteration budget has done
    at least that many inner iterations, and a BLInG or IG run has taken
    one step per minibatch of each epoch."""
    w, X, Y, cfg = make_problem([4, 3, 1], 3, 20, seed=seed)
    stop = StoppingCriteria(grad_norm_tol=0.0, f_tol=-math.inf,
                            time_limit_seconds=None, max_cycles=max_cycles,
                            max_inner_iters=max_inner_iters,
                            max_epochs=max_epochs)
    tally = Counter()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(batch, "full_gradient",
                   counted(batch.full_gradient, tally, "sweeps"))
        runs = [lbfgs_baseline_run(w, X, Y, cfg, LbfgsParams(max_iters=30),
                                   stop)]
        tally.clear()  # the sweeps of LBFGS's objective
        if max_cycles is not None or max_inner_iters is not None:
            runs.append(b2ld_run(w, X, Y, cfg, BlockSelectionRule("backward"),
                                 AcceptanceParams(), LbfgsParams(grad_tol=0.1),
                                 stop))
    part = make_partition(20, batch_size)
    rule = MinibatchSelectionRule("incremental")
    runs += [driver(w, X, Y, cfg, part, rule, BlingParams(), stop)
             for driver in (bling_run, ig_run)]
    for r in runs:
        assert np.isfinite(r.final_objective)
        if r.stop_reason == "max_cycles":
            assert r.algorithm == "B2LD"
            assert tally["sweeps"] == max_cycles + 1
        elif r.stop_reason == "iteration_budget":
            assert r.algorithm in ("B2LD", "LBFGS")
            budget = 30 if max_inner_iters is None else max_inner_iters
            assert r.inner_iterations >= budget
        else:
            assert (r.algorithm, r.stop_reason) in (("BLInG", "max_epochs"),
                                                    ("IG", "max_epochs"))
            assert r.inner_iterations == max_epochs * part.num_batches
