import json
import os
import re
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import layeropt.harness as harness
from layeropt.batch import StoppingCriteria
from layeropt.harness import (ALGORITHMS, ConfigError, DatasetSpec,
                              ExperimentConfig, ExperimentReport, RunRow,
                              depth_ratio, emit_report, load_report,
                              prepare_dataset, resolve_architecture,
                              run_experiment, run_single, tally_wins)
from layeropt.linalg import SeededRng
from layeropt.network import init_weights


class TestTallyWins:
    def test_hand_case_clear_win(self):
        # 0.9 <= 0.95 * 1.0 and not vice versa
        assert tally_wins([0.9], [1.0]) == (1, 0, 0)

    def test_hand_case_within_5_percent_is_tie(self):
        assert tally_wins([0.97], [1.0]) == (0, 0, 1)

    def test_boundary_exact_5_percent_wins(self):
        assert tally_wins([0.95], [1.0]) == (1, 0, 0)

    def test_both_zero_is_tie(self):
        # both win-conditions hold at 0; exclusivity makes it a tie
        assert tally_wins([0.0], [0.0]) == (0, 0, 1)

    def test_defeat_mirror(self):
        assert tally_wins([1.0], [0.9]) == (0, 1, 0)

    def test_mixed_sequence(self):
        a = [0.9, 1.0, 0.97]
        b = [1.0, 0.9, 1.0]
        assert tally_wins(a, b) == (1, 1, 1)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            tally_wins([1.0], [1.0, 2.0])

    def test_antisymmetry_random(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            a = [float(v) for v in rng.uniform(0, 2, size=5)]
            b = [float(v) for v in rng.uniform(0, 2, size=5)]
            wa, da, ta = tally_wins(a, b)
            wb, db, tb = tally_wins(b, a)
            assert (wa, da, ta) == (db, wb, tb)
            assert wa + da + ta == 5


class TestConfig:
    def minimal(self):
        return {
            "datasets": [{"name": "toy", "kind": "synthetic",
                          "teacher_arch": "3-[1x4]-1", "samples": 60,
                          "noise_sd": 0.0, "data_seed": 1}],
            "architectures": ["[1x4]"],
            "algorithms": ["B2LD", "IG"],
            "seeds": [0, 1],
            "stopping": {"time_limit_seconds": None, "max_cycles": 2,
                         "max_epochs": 2, "max_inner_iters": 10},
        }

    def test_from_dict_round(self):
        cfg = ExperimentConfig.from_dict(self.minimal())
        assert cfg.algorithms == ["B2LD", "IG"]
        assert cfg.stopping.max_cycles == 2
        assert cfg.datasets[0].name == "toy"

    def test_from_json_file(self, tmp_path):
        p = tmp_path / "exp.json"
        p.write_text(json.dumps(self.minimal()))
        cfg = ExperimentConfig.from_json_file(p)
        assert cfg.seeds == [0, 1]

    def test_unknown_algorithm_rejected(self):
        raw = self.minimal()
        raw["algorithms"] = ["B2LD", "SGD"]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)

    def test_missing_required_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"architectures": []})

    def test_unknown_dataset_field_rejected(self):
        raw = self.minimal()
        raw["datasets"][0]["surprise"] = 1
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)


class TestResolveArchitecture:
    def test_hidden_only_adapts_to_dims(self):
        arch = resolve_architecture("[2x7]", 5, 3)
        assert arch.input_dim == 5
        assert arch.layer_widths == (7, 7, 3)

    def test_full_string_validated(self):
        arch = resolve_architecture("5-[1x7]-3", 5, 3)
        assert arch.layer_widths == (7, 3)

    def test_full_string_dim_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            resolve_architecture("4-[1x7]-3", 5, 3)


class TestPrepareDataset:
    def test_synthetic_split_and_normalized(self):
        spec = DatasetSpec(name="s", kind="synthetic",
                           teacher_arch="3-[1x4]-1", samples=50,
                           noise_sd=0.0, data_seed=2, test_fraction=0.2)
        train, test = prepare_dataset(spec)
        assert train.num_samples == 40 and test.num_samples == 10
        assert train.X.min() >= 0.0 and train.X.max() <= 1.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            prepare_dataset(DatasetSpec(name="x", kind="sql"))

    def test_file_kind(self, tmp_path):
        p = tmp_path / "d.csv"
        rows = "\n".join(f"{i},{2*i},{3*i}" for i in range(1, 21))
        p.write_text(rows + "\n")
        spec = DatasetSpec(name="f", kind="file", path=str(p),
                           target_columns=(3,), test_fraction=0.25,
                           data_seed=0)
        train, test = prepare_dataset(spec)
        assert train.num_features == 2 and train.num_targets == 1
        assert train.num_samples + test.num_samples == 20


def small_experiment(tmp_path=None):
    raw = {
        "datasets": [{"name": "toy", "kind": "synthetic",
                      "teacher_arch": "3-[1x4]-1", "samples": 60,
                      "noise_sd": 0.01, "data_seed": 5}],
        "architectures": ["[1x4]", "[2x4]"],
        "algorithms": ["B2LD", "LBFGS", "BLInG", "IG"],
        "seeds": [0, 1, 2],
        "stopping": {"time_limit_seconds": None, "max_cycles": 3,
                     "max_epochs": 3, "max_inner_iters": 15},
        "batch_size": 16,
    }
    return ExperimentConfig.from_dict(raw)


@pytest.fixture(scope="module")
def report():
    return run_experiment(small_experiment(), workers=1)


class TestRunExperiment:

    def test_cardinality(self, report):
        # 1 dataset x 2 architectures x 4 algorithms x 3 seeds
        assert len(report.rows) == 24
        assert not any(r.error for r in report.rows)

    def test_shared_initial_weights_per_seed(self, report):
        # all algorithms on the same (arch, seed) start from identical weights
        for arch in ("[1x4]", "[2x4]"):
            for seed in (0, 1, 2):
                digests = {r.init_digest for r in report.rows
                           if r.architecture == arch and r.seed == seed}
                assert len(digests) == 1

    def test_values_ordered_by_seed(self, report):
        vals = report.values("toy", "[1x4]", "B2LD")
        assert len(vals) == 3
        assert report.best("toy", "[1x4]", "B2LD") == min(vals)

    def test_rerun_is_deterministic_modulo_timing(self):
        r1 = run_experiment(small_experiment(), workers=1)
        r2 = run_experiment(small_experiment(), workers=1)
        for a, b in zip(r1.rows, r2.rows):
            assert a.final_objective == b.final_objective
            assert a.grad_norm == b.grad_norm
            assert a.test_mse == b.test_mse
            assert a.layer_update_counts == b.layer_update_counts

    def test_depth_ratio_table(self, report):
        ratios = depth_ratio(report, "[2x4]", "[1x4]")
        assert set(ratios["toy"].keys()) == set(ALGORITHMS)
        for v in ratios["toy"].values():
            assert v is None or v > 0

    def test_depth_ratio_missing_cell_is_none(self, report):
        ratios = depth_ratio(report, "[9x9]", "[1x4]")
        assert all(v is None for v in ratios["toy"].values())

    def test_emit_and_reload_bitwise(self, report, tmp_path):
        tsv, summary = emit_report(report, tmp_path / "out")
        back = load_report(tsv)
        assert len(back.rows) == len(report.rows)
        for a, b in zip(report.rows, back.rows):
            assert a.final_objective == b.final_objective  # 17 digits round-trip
            assert a.grad_norm == b.grad_norm
            assert a.layer_update_counts == b.layer_update_counts
            assert a.init_digest == b.init_digest
        text = (tmp_path / "out" / "summary.txt").read_text()
        assert "Pairwise tallies" in text
        assert "Best final objective" in text

    def test_failed_run_becomes_row(self):
        cfg = small_experiment()
        cfg.architectures = ["7-[1x4]-1"]  # wrong input dim: every run fails
        report = run_experiment(cfg, workers=1)
        assert len(report.rows) == 12
        assert all(r.error for r in report.rows)
        assert all(r.stop_reason == "error" for r in report.rows)

    def test_worker_crash_becomes_error_rows(self, monkeypatch, tmp_path):
        """A worker that dies fails its task and the tasks still in flight
        with BrokenProcessPool; those become error rows, the finished rows
        are kept, and the report round-trips through report.tsv."""
        monkeypatch.setattr(harness, "_execute_task", _die_on_last_task)
        cfg = small_experiment()
        cfg.architectures = ["[1x4]"]
        report = run_experiment(cfg, workers=2)
        assert [(r.algorithm, r.seed) for r in report.rows] == \
            [(a, s) for s in cfg.seeds for a in cfg.algorithms]
        failed = [r for r in report.rows if r.error]
        assert report.rows[-1] in failed
        assert len(failed) < len(report.rows)
        for r in failed:
            assert r.error.startswith("BrokenProcessPool: ")
            assert r.stop_reason == "error" and np.isnan(r.final_objective)
        tsv, _ = emit_report(report, tmp_path / "out")
        back = load_report(tsv)
        assert len(back.rows) == len(report.rows)
        for a, b in zip(report.rows, back.rows):
            assert (a.algorithm, a.seed, a.error, a.stop_reason) == \
                (b.algorithm, b.seed, b.error, b.stop_reason)
            assert bits(a.final_objective) == bits(b.final_objective)

    def test_parallel_matches_serial(self):
        cfg = small_experiment()
        cfg.architectures = ["[1x4]"]
        cfg.seeds = [0]
        serial = run_experiment(cfg, workers=1)
        parallel = run_experiment(cfg, workers=2)
        for a, b in zip(serial.rows, parallel.rows):
            assert a.final_objective == b.final_objective
            assert a.init_digest == b.init_digest


class TestReportCells:
    def test_error_with_line_breaks_round_trips_as_one_row(self, tmp_path):
        nan = float("nan")
        row = RunRow(dataset="toy", architecture="[1x4]", algorithm="IG",
                     seed=3, final_objective=nan, grad_norm=nan, test_mse=nan,
                     elapsed_seconds=0.0, stop_reason="error",
                     layer_update_counts=[], init_digest="abc",
                     error="ValueError: line one\nline two\r\nline\tthree")
        tsv, _ = emit_report(ExperimentReport(rows=[row]), tmp_path / "out")
        back = load_report(tsv)
        assert len(back.rows) == 1
        got = back.rows[0]
        assert (got.architecture, got.seed, got.init_digest) == ("[1x4]", 3, "abc")
        assert got.error == "ValueError: line one line two  line three"


_EXECUTE_TASK = harness._execute_task


def _die_on_last_task(task):
    """Stands in for `_execute_task` in forked pool workers: the worker that
    draws IG on seed 2, the last task of `small_experiment`, exits at once,
    as a crashed process would."""
    if task[2] == "IG" and task[3] == 2:
        os._exit(3)
    return _EXECUTE_TASK(task)


def bits(x):
    return struct.pack("<d", x)


# any text, and the cell breakers _fmt blanks; floats of every kind, the NaN
# the report writes among them
TEXT = st.text(max_size=12) | st.sampled_from(
    ["a\tb", "x\r\ny\rz\n", "\t\n", "\u00fc\u2028\x85\x0b\x1c\u00e9"])
FLOATS = st.floats(allow_nan=False) | st.just(float("nan"))
ROWS = st.lists(st.builds(
    RunRow, dataset=TEXT, architecture=TEXT, algorithm=TEXT,
    seed=st.integers(), final_objective=FLOATS, grad_norm=FLOATS,
    test_mse=FLOATS, elapsed_seconds=FLOATS, stop_reason=TEXT,
    layer_update_counts=st.lists(st.integers(), max_size=4),
    init_digest=TEXT, error=TEXT), max_size=4)


@settings(max_examples=80, deadline=None)
@given(ROWS)
def test_report_round_trips_any_text_and_float(rows):
    """emit_report then load_report gives back every row: text cells as
    _fmt blanked them, floats (NaN and infinities too) bit for bit."""
    with tempfile.TemporaryDirectory() as out:
        tsv, _ = emit_report(ExperimentReport(rows=rows), out)
        back = load_report(tsv).rows
    assert len(back) == len(rows)
    for a, b in zip(rows, back):
        for name in ("dataset", "architecture", "algorithm", "stop_reason",
                     "init_digest", "error"):
            assert getattr(b, name) == harness._fmt(getattr(a, name)), name
        for name in ("final_objective", "grad_norm", "test_mse",
                     "elapsed_seconds"):
            assert bits(getattr(b, name)) == bits(getattr(a, name)), name
        assert (b.seed, b.layer_update_counts) == \
            (a.seed, a.layer_update_counts)


def tally_row(algorithm, seed, value, failed):
    nan = float("nan")
    return RunRow(dataset="toy", architecture="[1x4]", algorithm=algorithm,
                  seed=seed, final_objective=nan if failed else value,
                  grad_norm=nan, test_mse=nan, elapsed_seconds=0.0,
                  stop_reason="error" if failed else "max_cycles",
                  layer_update_counts=[], init_digest="abc",
                  error="RuntimeError: boom" if failed else "")


# per seed: (B2LD value, LBFGS value, B2LD failed, LBFGS failed)
SEED_CASES = st.lists(st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0),
                                st.booleans(), st.booleans()),
                      min_size=1, max_size=8)


@settings(max_examples=60, deadline=None)
@given(SEED_CASES)
# B2LD fails on seed 1 and LBFGS on seed 2: pairing the surviving rows by
# position would compare B2LD's seed 2 with LBFGS's seed 1
@example([(1.0, 2.0, False, False), (1.0, 1.0, True, False),
          (1.0, 1.0, False, True), (2.0, 1.0, False, False)])
def test_tally_pairs_rows_by_seed_and_counts_dropped_seeds(cases):
    rows = [tally_row(algo, seed, value, failed)
            for seed, (va, vb, fa, fb) in enumerate(cases)
            for algo, value, failed in (("B2LD", va, fa), ("LBFGS", vb, fb))]
    shared = [(va, vb) for va, vb, fa, fb in cases if not fa and not fb]
    want = tally_wins([p[0] for p in shared], [p[1] for p in shared])
    with tempfile.TemporaryDirectory() as out:
        _, summary = emit_report(ExperimentReport(rows=rows), out)
        with open(summary) as fh:
            text = fh.read()
    line = re.search(r"toy \[1x4\] B2LD vs LBFGS: (.*)", text).group(1)
    dropped = len(cases) - len(shared)
    note = f" ({dropped} of {len(cases)} seeds dropped: error rows)" \
        if dropped else ""
    assert line == f"[{want[0]}; {want[1]}; {want[2]}]{note}"


class TestRunSingle:
    @pytest.mark.parametrize("algorithm,driver", [("BLInG", "bling_run"),
                                                  ("IG", "ig_run")])
    def test_minibatch_time_limit_passed_unchanged(self, monkeypatch,
                                                   algorithm, driver):
        real = getattr(harness, driver)
        seen = []

        def spy(*args, **kwargs):
            seen.append(args[7])
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, driver, spy)
        train, test = prepare_dataset(DatasetSpec(
            name="toy", teacher_arch="3-[1x4]-1", samples=40, data_seed=2))
        w0 = init_weights(resolve_architecture("[1x4]", 3, 1), SeededRng(0))
        # the overall default limit, which must not be rewritten for
        # minibatch methods
        stop = StoppingCriteria(max_epochs=1)
        assert stop.time_limit_seconds == 150.0
        run, _ = run_single(algorithm, w0, train, test, stop, batch_size=16)
        assert seen == [stop] and run.stop_reason == "max_epochs"
