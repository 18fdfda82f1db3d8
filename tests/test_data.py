import numpy as np
import pytest

from layeropt.data import (Dataset, ParseError, fit_apply_normalization,
                           load_delimited, save_dataset,
                           synth_teacher_dataset, train_test_split)
from layeropt.linalg import SeededRng
from layeropt.network import forward, init_weights, parse_architecture


class TestLoadDelimited:
    def write(self, tmp_path, text, name="data.csv"):
        p = tmp_path / name
        p.write_text(text)
        return p

    def test_basic_csv(self, tmp_path):
        p = self.write(tmp_path, "1,2,3\n4,5,6\n")
        ds = load_delimited(p, target_columns=[3])
        assert np.array_equal(ds.X, [[1, 2], [4, 5]])
        assert np.array_equal(ds.Y, [[3], [6]])

    def test_target_column_in_middle(self, tmp_path):
        p = self.write(tmp_path, "1,2,3\n4,5,6\n")
        ds = load_delimited(p, target_columns=[2])
        assert np.array_equal(ds.X, [[1, 3], [4, 6]])
        assert np.array_equal(ds.Y, [[2], [5]])

    def test_multiple_targets(self, tmp_path):
        p = self.write(tmp_path, "1,2,3,4\n")
        ds = load_delimited(p, target_columns=[1, 4])
        assert np.array_equal(ds.X, [[2, 3]])
        assert np.array_equal(ds.Y, [[1, 4]])

    def test_non_numeric_cell_reports_row_and_col(self, tmp_path):
        p = self.write(tmp_path, "1,2\n3,oops\n")
        with pytest.raises(ParseError) as exc:
            load_delimited(p, target_columns=[2])
        assert exc.value.row == 2 and exc.value.col == 2
        assert str(exc.value).startswith(f"{p}: ")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_cell_reports_row_and_col(self, tmp_path, cell):
        p = self.write(tmp_path, f"1,2,3\n4,5,6\n7,{cell},9\n")
        with pytest.raises(ParseError) as exc:
            load_delimited(p, target_columns=[3])
        assert exc.value.row == 3 and exc.value.col == 2

    def test_ragged_row_reports_row(self, tmp_path):
        p = self.write(tmp_path, "1,2,3\n4,5\n")
        with pytest.raises(ParseError) as exc:
            load_delimited(p, target_columns=[1])
        assert exc.value.row == 2
        assert str(exc.value).startswith(f"{p}: ")

    def test_empty_file_rejected(self, tmp_path):
        p = self.write(tmp_path, "\n\n")
        with pytest.raises(ParseError):
            load_delimited(p, target_columns=[1])

    def test_target_out_of_range(self, tmp_path):
        p = self.write(tmp_path, "1,2\n")
        with pytest.raises(ValueError):
            load_delimited(p, target_columns=[3])

    def test_undecodable_bytes_name_the_file_and_row(self, tmp_path):
        p = tmp_path / "old.npz"
        p.write_bytes(b"1,2\n3,\xb8\n")
        with pytest.raises(ParseError, match="old.npz: row 2 ") as exc:
            load_delimited(p, target_columns=[1])
        assert exc.value.row == 2

    def test_read_as_utf8(self, tmp_path):
        # a cell decoded in any other codec would be quoted otherwise
        p = tmp_path / "data.csv"
        p.write_bytes("1,2\n3,\u00e9t\u00e9\n".encode("utf-8"))
        with pytest.raises(ParseError, match="'\u00e9t\u00e9' at row 2, "
                           "column 2"):
            load_delimited(p, target_columns=[2])

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_delimited(tmp_path / "nope.csv", target_columns=[1])


class TestNormalization:
    def test_column_0_5_10_maps_to_unit_interval(self):
        train = Dataset(X=[[0.0], [5.0], [10.0]], Y=[[2.0], [4.0], [6.0]])
        out, _, _ = fit_apply_normalization(train, train)
        assert np.array_equal(out.X, [[0.0], [0.5], [1.0]])
        assert np.array_equal(out.Y, [[0.0], [0.5], [1.0]])

    def test_constant_column_maps_to_zero(self):
        train = Dataset(X=[[7.0, 1.0], [7.0, 3.0]], Y=[[1.0], [2.0]])
        out, _, _ = fit_apply_normalization(train, train)
        assert np.all(out.X[:, 0] == 0.0)
        assert np.array_equal(out.X[:, 1], [0.0, 1.0])

    def test_fit_on_train_only(self):
        train = Dataset(X=[[0.0], [10.0]], Y=[[0.0], [1.0]])
        test = Dataset(X=[[20.0]], Y=[[0.5]])
        tr, te, bounds = fit_apply_normalization(train, test)
        assert te.X[0, 0] == 2.0  # outside [0,1]: test stats never leak in
        (x_min, x_max), _ = bounds
        assert x_min[0] == 0.0 and x_max[0] == 10.0


class TestSplit:
    def test_sizes_ceil_rule(self):
        ds = Dataset(X=np.arange(10.0).reshape(10, 1), Y=np.zeros((10, 1)))
        tr, te = train_test_split(ds, 0.25, seed=0)
        # ceil(10 * 0.75) = 8
        assert tr.num_samples == 8 and te.num_samples == 2

    def test_partition_of_rows(self):
        ds = Dataset(X=np.arange(12.0).reshape(12, 1), Y=np.zeros((12, 1)))
        tr, te = train_test_split(ds, 0.3, seed=5)
        rows = sorted(tr.X.ravel().tolist() + te.X.ravel().tolist())
        assert rows == list(np.arange(12.0))

    def test_deterministic_per_seed(self):
        ds = Dataset(X=np.arange(9.0).reshape(9, 1), Y=np.zeros((9, 1)))
        a, _ = train_test_split(ds, 0.2, seed=7)
        b, _ = train_test_split(ds, 0.2, seed=7)
        assert np.array_equal(a.X, b.X)

    def test_bad_fraction_rejected(self):
        ds = Dataset(X=[[1.0]], Y=[[1.0]])
        for frac in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                train_test_split(ds, frac, seed=0)


class TestSynthTeacher:
    def test_deterministic(self):
        arch = parse_architecture("4-[2x6]-1")
        a = synth_teacher_dataset(arch, 50, 0.05, seed=3)
        b = synth_teacher_dataset(arch, 50, 0.05, seed=3)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.Y, b.Y)

    def test_noiseless_is_realizable(self):
        arch = parse_architecture("3-[1x5]-2")
        ds = synth_teacher_dataset(arch, 40, 0.0, seed=9)
        teacher = init_weights(arch, SeededRng(9).child(1))
        out, _ = forward(teacher, ds.X)
        assert np.array_equal(out, ds.Y)

    def test_noise_variance_scale(self):
        arch = parse_architecture("3-[1x4]-1")
        clean = synth_teacher_dataset(arch, 20_000, 0.0, seed=11)
        noisy = synth_teacher_dataset(arch, 20_000, 0.1, seed=11)
        resid = noisy.Y - clean.Y
        assert float(resid.std()) == pytest.approx(0.1, rel=0.05)

    def test_inputs_in_unit_cube(self):
        arch = parse_architecture("5-[1x3]-1")
        ds = synth_teacher_dataset(arch, 100, 0.0, seed=2)
        assert ds.X.min() >= 0.0 and ds.X.max() <= 1.0

    @pytest.mark.parametrize("P", [0, -2, True, 2.0, "5", None])
    def test_samples_not_an_int_of_1_or_more_refused(self, P):
        with pytest.raises(ValueError,
                           match=r"^samples .* must be an int >= 1$"):
            synth_teacher_dataset(parse_architecture("3-[1x4]-1"), P, 0.0, 0)

    @pytest.mark.parametrize("noise_sd", [-1.0, float("nan"), float("inf"),
                                          -float("inf"), True, "0.1", None])
    def test_noise_sd_not_a_finite_number_of_0_or_more_refused(self,
                                                                noise_sd):
        with pytest.raises(ValueError, match=r"^noise_sd .* must be a finite "
                           r"number >= 0$"):
            synth_teacher_dataset(parse_architecture("3-[1x4]-1"), 5,
                                  noise_sd, 0)

    def test_numpy_scalars_accepted(self):
        arch = parse_architecture("3-[1x4]-1")
        a = synth_teacher_dataset(arch, np.int64(6), np.float64(0.1), 1)
        b = synth_teacher_dataset(arch, 6, 0.1, 1)
        assert np.array_equal(a.Y, b.Y)


class TestSnapshot:
    def test_round_trip_bitwise(self, tmp_path):
        arch = parse_architecture("3-[1x4]-1")
        ds = synth_teacher_dataset(arch, 30, 0.02, seed=4)
        path = tmp_path / "snap.csv"
        save_dataset(path, ds)
        back = load_delimited(path, (1,))
        assert back.X.tobytes() == ds.X.tobytes()
        assert back.Y.tobytes() == ds.Y.tobytes()

    def test_targets_first_multi_target_round_trip(self, tmp_path):
        X = np.array([[-0.0, 1e-300, 0.1], [2.5, -7.0, 1 / 3]])
        Y = np.array([[np.nextafter(1.0, 2.0), -1e300], [0.0, 5e-324]])
        path = tmp_path / "snap.csv"
        save_dataset(path, Dataset(X=X, Y=Y))
        back = load_delimited(path, (1, 2))
        assert back.X.tobytes() == X.tobytes()
        assert back.Y.tobytes() == Y.tobytes()


def test_dataset_row_count_mismatch_rejected():
    with pytest.raises(ValueError):
        Dataset(X=np.zeros((3, 2)), Y=np.zeros((2, 1)))
