import json
import re
import time

import numpy as np
import pytest

import layeropt.cli as cli
import layeropt.harness as harness
from layeropt.batch import StoppingCriteria
from layeropt.cli import main
from layeropt.harness import DatasetSpec, ExperimentConfig
from layeropt.data import load_delimited, synth_teacher_dataset
from layeropt.network import parse_architecture


class TestGradcheck:
    def test_passes_on_default_instance(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "relative error" in out and "FAIL" not in out

    def test_deeper_architecture(self):
        assert main(["gradcheck", "--arch", "4-[4x5]-2", "--samples", "8"]) == 0

    def test_fails_on_impossible_tolerance(self, capsys):
        assert main(["gradcheck", "--tol", "0"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_bad_architecture_exits_1(self, capsys):
        assert main(["gradcheck", "--arch", "garbage"]) == 1
        assert "error:" in capsys.readouterr().err


class TestSynth:
    def test_writes_snapshot(self, tmp_path, capsys):
        out = tmp_path / "teacher.csv"
        rc = main(["synth", "--arch", "4-[1x6]-1", "--samples", "30",
                   "--seed", "3", "--out", str(out)])
        assert rc == 0
        ds = load_delimited(out, (1,))
        assert ds.num_samples == 30 and ds.num_features == 4
        assert "30 samples" in capsys.readouterr().out

    def test_deterministic_per_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            main(["synth", "--arch", "3-[1x4]-1", "--samples", "20",
                  "--seed", "7", "--out", str(out)])
        da, db = load_delimited(a, (1,)), load_delimited(b, (1,))
        assert np.array_equal(da.X, db.X) and np.array_equal(da.Y, db.Y)

    @pytest.mark.parametrize("flags, field", [
        (["--samples", "0"], "samples"), (["--samples", "-2"], "samples"),
        (["--noise-sd", "-1"], "noise_sd"), (["--noise-sd", "nan"], "noise_sd"),
        (["--noise-sd", "inf"], "noise_sd")])
    def test_bad_samples_or_noise_exit_1_and_write_no_file(self, tmp_path,
                                                           capsys, flags,
                                                           field):
        out = tmp_path / "f.csv"
        argv = ["synth", "--arch", "3-[1x4]-1", "--samples", "5",
                "--out", str(out)]
        assert main(argv + flags) == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith(f"error: {field} ")

    def test_train_reads_what_synth_writes(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["synth", "--arch", "3-[1x4]-1", "--samples", "40",
                     "--noise-sd", "0.05", "--seed", "2", "--out",
                     str(out)]) == 0
        ds = synth_teacher_dataset(parse_architecture("3-[1x4]-1"), 40, 0.05, 2)
        back = load_delimited(out, (1,))
        assert back.X.tobytes() == ds.X.tobytes()
        assert back.Y.tobytes() == ds.Y.tobytes()
        assert main(["train", "--data", str(out), "--arch", "[1x4]",
                     "--algorithm", "IG", "--max-epochs", "1"]) == 0
        assert "test mse" in capsys.readouterr().out

    def test_train_names_an_undecodable_file(self, tmp_path, capsys):
        out = tmp_path / "t.npz"
        np.savez(out, X=np.zeros((4, 3)), Y=np.ones((4, 1)))
        assert main(["train", "--data", str(out), "--arch", "[1x4]",
                     "--algorithm", "IG", "--max-epochs", "1"]) == 1
        err = capsys.readouterr().err
        assert re.search(rf"{re.escape(str(out))}: row \d+ is not UTF-8 text", err)


class TestTrain:
    def run_synth_train(self, algorithm, extra=()):
        return main(["train", "--arch", "[1x4]", "--algorithm", algorithm,
                     "--samples", "60", "--noise-sd", "0.01", "--seed", "1",
                     "--teacher", "3-[1x4]-1", "--max-cycles", "2",
                     "--max-epochs", "2", "--max-inner-iters", "10",
                     "--time-limit", "30", "--batch-size", "16", *extra])

    @pytest.mark.parametrize("algorithm", ["B2LD", "LBFGS", "BLInG", "IG"])
    def test_all_algorithms_run(self, algorithm, capsys):
        assert self.run_synth_train(algorithm) == 0
        out = capsys.readouterr().out
        assert f"algorithm        {algorithm}" in out
        assert "final objective" in out and "stop reason" in out

    @pytest.mark.parametrize("rho", ["nan", "inf"])
    def test_non_finite_rho_exits_1(self, rho, capsys):
        assert self.run_synth_train("B2LD", ["--rho", rho]) == 1
        assert "rho" in capsys.readouterr().err

    @pytest.mark.parametrize("limit", ["-5", "nan"])
    def test_negative_or_nan_time_limit_exits_1(self, limit, capsys):
        assert self.run_synth_train("B2LD", ["--time-limit", limit]) == 1
        assert "time_limit_seconds" in capsys.readouterr().err

    @pytest.mark.parametrize("algorithm", ["BLInG", "IG"])
    def test_minibatch_run_with_no_epoch_bound_exits_1(self, algorithm, capsys):
        # ran forever before
        assert main(["train", "--arch", "[1x4]", "--algorithm", algorithm,
                     "--samples", "60", "--teacher", "3-[1x4]-1",
                     "--time-limit", "inf"]) == 1
        assert re.search("max_epochs.*time_limit_seconds",
                         capsys.readouterr().err)

    def test_b2ld_run_that_may_never_end_exits_1(self, capsys):
        # ran until killed before
        start = time.monotonic()
        assert main(["train", "--arch", "[1x4]", "--teacher", "3-[1x4]-1",
                     "--samples", "50", "--algorithm", "B2LD",
                     "--grad-tol", "0", "--f-tol=-inf",
                     "--time-limit", "inf"]) == 1
        assert time.monotonic() - start < 1.0
        assert re.search("f_tol -inf < 0 needs max_cycles, max_inner_iters or "
                         "a finite time_limit_seconds", capsys.readouterr().err)

    def test_defaults_are_the_dataclass_defaults(self, monkeypatch):
        seen = []

        def recording_run_single(algorithm, weights0, train, test, stop, *args):
            seen.append(stop)
            raise RuntimeError("recorded")

        monkeypatch.setattr(harness, "run_single", recording_run_single)
        assert main(["train", "--arch", "[1x4]", "--algorithm", "IG"]) == 1
        assert seen == [StoppingCriteria()]
        args = cli.build_parser().parse_args(
            ["train", "--arch", "[1x4]", "--algorithm", "IG"])
        spec = DatasetSpec(name="")
        assert (tuple(args.target_columns), args.delimiter, args.teacher,
                args.samples, args.noise_sd, args.test_fraction) == \
            (spec.target_columns, spec.delimiter, spec.teacher_arch,
             spec.samples, spec.noise_sd, spec.test_fraction)
        assert args.batch_size == ExperimentConfig.batch_size

    def test_hidden_only_arch_without_teacher_runs(self, capsys):
        # exited 1 before: the student string "[1x4]" was used as teacher
        assert main(["train", "--arch", "[1x4]", "--algorithm", "IG",
                     "--max-epochs", "1"]) == 0
        assert "stop reason      max_epochs" in capsys.readouterr().out

    @pytest.mark.parametrize("fraction,train_rows", [("0.2", 80), ("0.5", 50)])
    def test_synthetic_data_honours_test_fraction(self, fraction, train_rows,
                                                   monkeypatch):
        sizes = []
        run_single = harness.run_single

        def recording_run_single(algorithm, weights0, train, test, *args,
                                 **kwargs):
            sizes.append((train.num_samples, test.num_samples))
            return run_single(algorithm, weights0, train, test, *args, **kwargs)

        monkeypatch.setattr(harness, "run_single", recording_run_single)
        assert main(["train", "--arch", "[1x4]", "--algorithm", "IG",
                     "--samples", "100", "--teacher", "3-[1x4]-1",
                     "--test-fraction", fraction, "--max-epochs", "1"]) == 0
        assert sizes == [(train_rows, 100 - train_rows)]

    def test_file_dataset(self, tmp_path, capsys):
        p = tmp_path / "d.csv"
        rng = np.random.default_rng(0)
        rows = [f"{a:.6f},{b:.6f},{a+b:.6f}"
                for a, b in rng.uniform(0, 1, size=(40, 2))]
        p.write_text("\n".join(rows) + "\n")
        rc = main(["train", "--data", str(p), "--target-columns", "3",
                   "--arch", "[1x4]", "--algorithm", "IG", "--max-epochs", "2",
                   "--time-limit", "30"])
        assert rc == 0
        assert "test mse" in capsys.readouterr().out

    def test_missing_file_exits_1(self, capsys):
        rc = main(["train", "--data", "/no/such/file.csv", "--arch", "[1x4]",
                   "--algorithm", "IG"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_failed_run_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(harness, "run_single", raise_boom)
        assert self.run_synth_train("LBFGS") == 1
        out, err = capsys.readouterr()
        assert err == "error: RuntimeError: boom\n" and out == ""


def raise_boom(*args):
    raise RuntimeError("boom")


class TestBenchmark:
    def test_end_to_end(self, tmp_path, capsys):
        cfg = {
            "datasets": [{"name": "toy", "kind": "synthetic",
                          "teacher_arch": "3-[1x4]-1", "samples": 40,
                          "noise_sd": 0.0, "data_seed": 1}],
            "architectures": ["[1x4]"],
            "algorithms": ["B2LD", "IG"],
            "seeds": [0, 1],
            "stopping": {"time_limit_seconds": None, "max_cycles": 2,
                         "max_epochs": 2, "max_inner_iters": 10},
            "batch_size": 16,
        }
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "report"
        rc = main(["benchmark", str(cfg_path), "--out", str(out_dir),
                   "--workers", "1"])
        assert rc == 0
        assert (out_dir / "report.tsv").exists()
        assert (out_dir / "summary.txt").exists()
        assert "wrote" in capsys.readouterr().out
        lines = (out_dir / "report.tsv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2  # header + algorithms x seeds

    def test_out_defaults_to_config_output_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = {"datasets": [{"name": "toy", "kind": "synthetic",
                             "teacher_arch": "3-[1x4]-1", "samples": 40}],
               "architectures": ["[1x4]"], "algorithms": ["IG"],
               "seeds": [0], "stopping": {"max_epochs": 1},
               "output_path": "from_config"}
        (tmp_path / "exp.json").write_text(json.dumps(cfg))
        assert main(["benchmark", "exp.json", "--workers", "1"]) == 0
        assert (tmp_path / "from_config" / "report.tsv").exists()
        assert not (tmp_path / "report").exists()

    def test_bad_config_exits_1(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"architectures": []}))
        assert main(["benchmark", str(p)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_scalar_algorithms_exits_1(self, tmp_path, capsys):
        # escaped before as a bare TypeError traceback
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"datasets": [{"name": "toy"}],
                                 "architectures": ["[1x4]"], "algorithms": 5}))
        assert main(["benchmark", str(p)]) == 1
        assert "algorithms 5 must be a list" in capsys.readouterr().err

    def test_string_stopping_cap_exits_1(self, tmp_path, capsys):
        # loaded before, and every task became a TypeError error row
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({
            "datasets": [{"name": "toy", "kind": "synthetic",
                          "teacher_arch": "3-[1x4]-1", "samples": 40}],
            "architectures": ["[1x4]"], "algorithms": ["IG"],
            "stopping": {"max_epochs": "2"}}))
        assert main(["benchmark", str(p), "--out", str(tmp_path / "r")]) == 1
        assert "max_epochs '2' must be an int" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("output_path", [5, ""])
    def test_bad_output_path_exits_1_before_any_task(self, tmp_path, capsys,
                                                     monkeypatch, output_path):
        # ran every task before, then failed writing the report
        monkeypatch.setattr(harness, "run_single", raise_boom)
        p = tmp_path / "exp.json"
        p.write_text(json.dumps({
            "datasets": [{"name": "toy", "kind": "synthetic",
                          "teacher_arch": "3-[1x4]-1", "samples": 40}],
            "architectures": ["[1x4]"], "algorithms": ["IG"], "seeds": [0],
            "stopping": {"max_epochs": 1}, "output_path": output_path}))
        assert main(["benchmark", str(p), "--workers", "1"]) == 1
        err = capsys.readouterr().err
        assert f"output_path {output_path!r} must be" in err
        assert "boom" not in err

    def test_missing_config_exits_1(self):
        assert main(["benchmark", "/no/such/config.json"]) == 1

    @pytest.mark.parametrize("failing,rc", [(("B2LD", "IG"), 1), (("IG",), 0)],
                             ids=["every_run_fails", "one_run_succeeds"])
    def test_exits_1_only_when_no_run_is_error_free(self, tmp_path, capsys,
                                                    monkeypatch, failing, rc):
        # exited 0 before when every run failed
        run_single = harness.run_single

        def failing_run_single(algorithm, *args):
            if algorithm in failing:
                raise_boom()
            return run_single(algorithm, *args)

        monkeypatch.setattr(harness, "run_single", failing_run_single)
        p = tmp_path / "exp.json"
        p.write_text(json.dumps({
            "datasets": [{"name": "toy", "kind": "synthetic",
                          "teacher_arch": "3-[1x4]-1", "samples": 40}],
            "architectures": ["[1x4]"], "algorithms": ["B2LD", "IG"],
            "seeds": [0], "stopping": {"max_epochs": 1, "max_cycles": 1}}))
        assert main(["benchmark", str(p), "--out", str(tmp_path / "r"),
                     "--workers", "1"]) == rc
        err = capsys.readouterr().err
        assert err.count("RuntimeError: boom") == len(failing)
        assert (tmp_path / "r" / "report.tsv").exists()
