import concurrent.futures
import json
import os
import re
import struct
import subprocess
import sys
import tempfile
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import layeropt.harness as harness
from conftest import small_experiment
from layeropt.batch import StoppingCriteria
from layeropt.harness import (ALGORITHMS, CSV_COLUMNS, ConfigError,
                              DatasetSpec, ExperimentConfig, ExperimentReport, RunRow,
                              depth_ratio, emit_report, load_report,
                              prepare_dataset, resolve_architecture,
                              run_experiment, run_single, tally_wins)
from layeropt.linalg import SeededRng
from layeropt.network import init_weights
from layeropt.objective import ObjectiveConfig


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

    def test_unknown_top_level_keys_rejected(self):
        raw = self.minimal()
        raw["seed"] = [7]
        raw["algoritms"] = ["B2LD"]
        with pytest.raises(ConfigError, match=r"\['algoritms', 'seed'\]"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("rho", [float("nan"), float("inf"),
                                     float("-inf"), -1.0, "0.1", True, False])
    def test_bad_rho_rejected_up_front(self, rho):
        raw = self.minimal()
        raw["rho"] = rho
        with pytest.raises(ConfigError, match="rho"):
            ExperimentConfig.from_dict(raw)
        with pytest.raises(ValueError, match="rho"):
            ObjectiveConfig(rho=rho, sample_count=1)

    @pytest.mark.parametrize("batch_size", [0, -3, 1.5, "64", None, True])
    def test_bad_batch_size_rejected_up_front(self, batch_size):
        raw = self.minimal()
        raw["batch_size"] = batch_size
        with pytest.raises(ConfigError, match="batch_size"):
            ExperimentConfig.from_dict(raw)

    def test_scalar_seeds_rejected_up_front(self):
        # loaded before, then run_experiment raised a bare TypeError
        raw = self.minimal()
        raw["seeds"] = 5
        with pytest.raises(ConfigError, match="seeds"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("where, key, value", [
        ("dataset", "samples", 40.0), ("dataset", "samples", 0),
        ("dataset", "samples", True), ("dataset", "data_seed", -1),
        ("dataset", "data_seed", 1.0), ("dataset", "data_seed", False),
        ("dataset", "noise_sd", "0.05"), ("dataset", "noise_sd", -0.05),
        ("dataset", "noise_sd", float("nan")),
        ("dataset", "noise_sd", float("inf")),
        ("dataset", "noise_sd", True), ("dataset", "test_fraction", 0.0),
        ("dataset", "test_fraction", 1.0), ("dataset", "test_fraction", "0.2"),
        ("dataset", "kind", "sql"), ("top", "seeds", [-1]),
        ("top", "seeds", [True]), ("top", "seeds", [1, False]),
        ("dataset", "teacher_arch", 5), ("dataset", "teacher_arch", None),
        ("file", "path", 7), ("file", "path", ""), ("file", "path", None),
        ("dataset", "delimiter", 5), ("dataset", "delimiter", ""),
        ("dataset", "delimiter", ", "), ("dataset", "target_columns", 1),
        ("dataset", "target_columns", []),
        ("dataset", "target_columns", [0]),
        ("dataset", "target_columns", [1.0]),
        ("dataset", "target_columns", [True]),
        ("dataset", "target_columns", "1")])
    def test_malformed_dataset_field_or_seed_rejected_up_front(
            self, where, key, value):
        """Loaded before: a bad type then raised a bare TypeError while the
        data was made, a negative or NaN noise_sd gave noise-free data, and
        a negative seed made every task an error row. A path of 7 read file
        descriptor 7. "file" puts the key on a file dataset."""
        raw = self.minimal()
        if where == "file":
            raw["datasets"][0]["kind"] = "file"
        (raw if where == "top" else raw["datasets"][0])[key] = value
        name = r"dataset 'toy': " if where != "top" else ""
        with pytest.raises(ConfigError, match=f"^{name}{key} "):
            ExperimentConfig.from_dict(raw)

    def test_string_architectures_rejected_up_front(self):
        # loaded before, then ran one error row per character
        raw = self.minimal()
        raw["architectures"] = "[1x3]"
        with pytest.raises(ConfigError, match="architectures"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("algorithms", [5, "IG"])
    def test_non_list_algorithms_rejected_up_front(self, algorithms):
        # 5 escaped as a bare TypeError; "IG" was read as ['G', 'I']
        raw = self.minimal()
        raw["algorithms"] = algorithms
        with pytest.raises(ConfigError, match="algorithms.*must be a list"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("key,value", [("seeds", [0, 0, 1]),
                                           ("architectures", ["[1x4]", "[1x4]"]),
                                           ("algorithms", ["B2LD", "B2LD"])])
    def test_repeated_entry_rejected_up_front(self, key, value):
        # a repeated entry ran its tasks twice but was tallied once
        raw = self.minimal()
        raw[key] = value
        with pytest.raises(ConfigError, match=f"{key}.*repeats"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("output_path", [5, "", None])
    def test_bad_output_path_rejected_up_front(self, output_path):
        raw = self.minimal()
        raw["output_path"] = output_path
        with pytest.raises(ConfigError, match="output_path"):
            ExperimentConfig.from_dict(raw)

    def test_repeated_dataset_name_rejected_up_front(self):
        # both loaded, and their rows merged under one dataset key
        raw = self.minimal()
        raw["datasets"].append(dict(raw["datasets"][0], data_seed=2))
        with pytest.raises(ConfigError, match=r"dataset names \['toy'\]"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("limit", [-5.0, float("nan"), float("-inf"),
                                       True, "5"])
    def test_bad_time_limit_rejected_up_front(self, limit):
        raw = self.minimal()
        raw["stopping"]["time_limit_seconds"] = limit
        with pytest.raises(ConfigError, match="time_limit_seconds"):
            ExperimentConfig.from_dict(raw)
        with pytest.raises(ValueError, match="time_limit_seconds"):
            StoppingCriteria(time_limit_seconds=limit)

    @pytest.mark.parametrize("key,value", [
        *[(cap, bad) for cap in ("max_cycles", "max_epochs", "max_inner_iters")
          for bad in ("2", -3, 2.5, True)],
        ("grad_norm_tol", -1e-3), ("grad_norm_tol", float("nan")),
        ("grad_norm_tol", "0"), ("f_tol", float("nan")), ("f_tol", "1e-4")])
    def test_bad_stopping_value_rejected_up_front(self, key, value):
        # "2" loaded before, then every task was a TypeError error row;
        # -3 ran IG for zero epochs with no error
        raw = self.minimal()
        raw["stopping"][key] = value
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_dict(raw)
        with pytest.raises(ValueError, match=key):
            StoppingCriteria(**{key: value})

    def test_no_tolerance_stopping_stays_legal(self):
        # the budgets-only criteria of tools/outcomes.py and the benchmark
        raw = self.minimal()
        raw["stopping"].update(grad_norm_tol=0.0, f_tol=float("-inf"),
                               time_limit_seconds=None)
        assert ExperimentConfig.from_dict(raw).stopping.f_tol == float("-inf")
        assert StoppingCriteria(time_limit_seconds=0.0).time_limit_seconds == 0

    @pytest.mark.parametrize("algorithm", ["BLInG", "IG"])
    @pytest.mark.parametrize("limit", [None, float("inf")])
    def test_minibatch_run_with_no_epoch_bound_rejected_up_front(
            self, algorithm, limit):
        # loaded before, then its BLInG and IG runs never ended
        raw = self.minimal()
        raw["algorithms"] = ["B2LD", algorithm]
        raw["stopping"] = {"time_limit_seconds": limit}
        with pytest.raises(ConfigError,
                           match="max_epochs.*time_limit_seconds"):
            ExperimentConfig.from_dict(raw)
        raw["algorithms"] = ["B2LD", "LBFGS"]
        assert ExperimentConfig.from_dict(raw).stopping.max_epochs is None

    @pytest.mark.parametrize("limit", [None, float("inf")])
    def test_b2ld_run_that_may_never_end_rejected_up_front(self, limit):
        # loaded before, then its B2LD runs went on until killed
        raw = self.minimal()
        raw["stopping"] = {"grad_norm_tol": 0.0, "f_tol": float("-inf"),
                           "time_limit_seconds": limit, "max_epochs": 2}
        with pytest.raises(ConfigError, match="^B2LD with f_tol -inf < 0 "
                           "needs max_cycles, max_inner_iters or a finite "
                           "time_limit_seconds"):
            ExperimentConfig.from_dict(raw)
        raw["algorithms"] = ["LBFGS", "IG"]
        assert ExperimentConfig.from_dict(raw).stopping.max_cycles is None

    def test_demo_config_accepted(self):
        path = Path(__file__).resolve().parent.parent / "demos" \
            / "benchmark_experiment.json"
        cfg = ExperimentConfig.from_json_file(path)
        assert set(cfg.algorithms) == set(ALGORITHMS)

    def test_nan_rho_in_json_file_rejected(self, tmp_path):
        p = tmp_path / "exp.json"
        p.write_text(json.dumps(self.minimal())[:-1] + ', "rho": NaN}')
        with pytest.raises(ConfigError, match="rho"):
            ExperimentConfig.from_json_file(p)


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

    def test_file_kind_targets_first_column_by_default(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("\n".join(f"{i},{2*i},{3*i}" for i in range(1, 21)))
        train, test = prepare_dataset(DatasetSpec(name="f", kind="file",
                                                  path=str(p)))
        assert train.num_features == 2 and train.num_targets == 1
        # min-max scaled, the target column is the first: y = x1 / 2
        assert np.allclose(train.Y[:, 0], train.X[:, 0])


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
        vals = report.by_seed("toy", "[1x4]", "B2LD")
        assert sorted(vals) == [0, 1, 2]
        best = report.best("toy", "[1x4]", "B2LD")
        assert best.final_objective == min(vals.values())
        assert (best.architecture, best.algorithm) == ("[1x4]", "B2LD")
        assert any(best is r for r in report.ok_rows("toy", "[1x4]", "B2LD"))
        assert report.best("toy", "[9x9]", "B2LD") is None

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

    def test_best_ranks_a_non_finite_objective_last(self):
        """A diverged run's NaN objective, first or not, is never the best
        of a cell; a cell of diverged runs only still has a best row."""
        def row(seed, f, arch="[1x4]"):
            return RunRow(dataset="toy", architecture=arch, algorithm="IG",
                          seed=seed, final_objective=f, grad_norm=f,
                          test_mse=f, elapsed_seconds=0.0,
                          stop_reason="non_finite" if f != f else "f_tol",
                          layer_update_counts=[1], init_digest="")
        nan, inf = float("nan"), float("inf")
        report = ExperimentReport(rows=[
            row(0, nan), row(1, 0.5), row(2, 0.7), row(3, inf),
            row(0, nan, "[2x4]"), row(1, nan, "[2x4]")])
        assert report.best("toy", "[1x4]", "IG").seed == 1
        assert report.best("toy", "[2x4]", "IG").seed == 0
        assert np.isnan(depth_ratio(report, "[2x4]", "[1x4]")["toy"]["IG"])
        assert depth_ratio(report, "[1x4]", "[1x4]")["toy"]["IG"] == 1.0

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

    def test_failed_run_becomes_row(self, monkeypatch):
        def failing_run_single(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(harness, "run_single", failing_run_single)
        cfg = small_experiment()
        cfg.architectures = ["[1x4]"]
        report = run_experiment(cfg, workers=1)
        assert len(report.rows) == 12
        assert all(r.error == "RuntimeError: boom" for r in report.rows)
        assert all(r.stop_reason == "error" for r in report.rows)
        assert all(r.init_digest for r in report.rows)

    def test_architecture_that_misfits_a_dataset_runs_nothing(self,
                                                              monkeypatch):
        # became one error row per task before, and the benchmark exited 0
        tasks = []
        monkeypatch.setattr(harness, "_execute_task", tasks.append)
        cfg = small_experiment()
        cfg.architectures = ["[1x4]", "5-[1x4]-1"]
        with pytest.raises(ConfigError, match=r"dataset 'toy': architecture "
                           r"'5-\[1x4\]-1' expects dims 5->1, dataset has 3->1"):
            run_experiment(cfg, workers=1)
        assert tasks == []

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

    @pytest.mark.parametrize("cpus, pools", [({0}, []), ({0, 2, 5}, [3])])
    def test_default_pool_size_is_the_cpu_affinity(self, monkeypatch, cpus,
                                                   pools):
        """workers=None runs as many workers as the CPUs the process may run
        on, not the host's CPU count: inline on one CPU."""
        sizes = []

        class Pool:
            def __init__(self, max_workers, initializer):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, task):
                done = Future()
                done.set_result(fn(task))
                return done

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        tasks = []
        monkeypatch.setattr(harness, "_execute_task", tasks.append)
        run_experiment(small_experiment())
        assert sizes == pools and len(tasks) == 24

    @pytest.mark.parametrize("workers", [0, -3])
    def test_fewer_than_one_worker_refused(self, monkeypatch, workers):
        tasks = []
        monkeypatch.setattr(harness, "_execute_task", tasks.append)
        with pytest.raises(ValueError, match=rf"workers must be >= 1, got "
                           rf"{workers}$"):
            run_experiment(small_experiment(), workers=workers)
        assert tasks == []

    def test_pool_workers_run_blas_on_one_thread(self):
        """Each pool worker sets OpenBLAS to one thread as it starts: two
        workers of two BLAS threads each on two CPUs made run times noise.
        The calling process keeps its own count."""
        script = ("import layeropt.harness as harness\n"
                  "from conftest import small_experiment\n"
                  "from layeropt.network import _blas_threads\n"
                  "def probe(task):\n"
                  "    return _blas_threads()\n"
                  "harness._execute_task = probe\n"
                  "rows = harness.run_experiment(small_experiment(), 2).rows\n"
                  "print(sorted(set(rows)), _blas_threads())\n")
        paths = [os.path.dirname(os.path.dirname(harness.__file__)),
                 os.path.dirname(__file__)]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
                   PYTHONPATH=os.pathsep.join(paths))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             check=True, capture_output=True, text=True,
                             timeout=120).stdout.strip()
        if out == "[None] None":
            pytest.skip("numpy's BLAS is no OpenBLAS")
        assert out == "[1] 2"

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

    @pytest.mark.parametrize("cells", [11, 13])
    def test_row_with_wrong_cell_count_names_its_line(self, tmp_path, cells):
        row = RunRow(dataset="toy", architecture="[1x4]", algorithm="IG",
                     seed=3, final_objective=1.0, grad_norm=0.5, test_mse=2.0,
                     elapsed_seconds=0.0, stop_reason="max_epochs",
                     layer_update_counts=[4, 4], init_digest="abc")
        tsv, _ = emit_report(ExperimentReport(rows=[row, row]), tmp_path)
        with open(tsv) as fh:
            lines = fh.read().splitlines()
        cut = lines[2].split("\t")[:11] + ["x"] * (cells - 11)
        lines[2] = "\t".join(cut)
        with open(tsv, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"line 3: {cells} cells, expected 12"):
            load_report(tsv)


    @pytest.mark.parametrize("column,cell", [
        ("final_objective", "x"), ("seed", "1.5"),
        ("layer_update_counts", "4;y")])
    def test_unparsable_cell_names_its_place(self, tmp_path, column, cell):
        row = RunRow(dataset="toy", architecture="[1x4]", algorithm="IG",
                     seed=3, final_objective=1.0, grad_norm=0.5, test_mse=2.0,
                     elapsed_seconds=0.0, stop_reason="max_epochs",
                     layer_update_counts=[4, 4], init_digest="abc")
        tsv, _ = emit_report(ExperimentReport(rows=[row, row]), tmp_path)
        with open(tsv) as fh:
            lines = fh.read().splitlines()
        col = CSV_COLUMNS.index(column)
        lines[2] = "\t".join(cell if i == col else c
                             for i, c in enumerate(lines[2].split("\t")))
        with open(tsv, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            load_report(tsv)
        assert str(info.value).startswith(
            f"{tsv} line 3 column {col + 1} ({column}): {cell!r}: ")
        assert isinstance(info.value.__cause__, ValueError)


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
    # the tallies the report hands other callers are the summary's lines
    tallies = list(ExperimentReport(rows=rows).tallies())
    assert [tuple(t[4:]) for t in tallies] == \
        [(*want, len(cases), dropped)]
    assert f"  {tallies[0]}\n" in text


def test_minibatch_task_with_no_epoch_bound_is_an_error_row():
    """A config built without `from_dict` reaches the run, which refuses to
    start; its task becomes an error row and the other tasks run."""
    raw = TestConfig().minimal()
    cfg = ExperimentConfig(
        datasets=[DatasetSpec(**raw["datasets"][0])],
        architectures=raw["architectures"], algorithms=["LBFGS", "IG"],
        seeds=[0], stopping=StoppingCriteria(time_limit_seconds=None,
                                             max_inner_iters=5))
    rows = {r.algorithm: r for r in run_experiment(cfg, workers=1).rows}
    assert not rows["LBFGS"].error
    assert rows["IG"].stop_reason == "error"
    assert re.match(r"ValueError: .*max_epochs.*time_limit_seconds",
                    rows["IG"].error)


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
