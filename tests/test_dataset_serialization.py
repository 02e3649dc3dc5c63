"""Dataset construction rules and the two text file formats."""

import numpy as np
import pytest

from geogress import (
    Dataset,
    DimensionMismatch,
    IoFailure,
    MalformedFile,
    NotOrthonormal,
    NotTangent,
    load_dataset,
    load_model,
    planted_instance,
    random_geodesic,
    save_dataset,
    save_model,
)


class TestDataset:
    def test_basic_properties(self):
        ds = Dataset(np.array([0.0, 0.5, 1.0]), (np.ones((4, 2)), np.ones((4, 1)), np.ones((4, 3))))
        assert ds.d == 4 and ds.n_samples == 3 and ds.total_columns == 6
        assert ds.column_stack().shape == (4, 6)

    def test_non_finite_entries_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            x = np.ones((4, 2))
            x[2, 1] = bad
            with pytest.raises(ValueError, match="sample 1"):
                Dataset(np.array([0.0, 0.5, 1.0]), (np.ones((4, 1)), x, np.ones((4, 3))))

    def test_non_finite_times_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="times must be finite"):
                Dataset(np.array([0.0, bad]), (np.ones((4, 1)), np.ones((4, 1))))

    def test_zero_width_sample_rejected(self):
        with pytest.raises(DimensionMismatch):
            Dataset(np.array([0.0, 1.0]), (np.ones((4, 1)), np.ones((4, 0))))

    def test_inconsistent_ambient_dimension(self):
        with pytest.raises(DimensionMismatch):
            Dataset(np.array([0.0, 1.0]), (np.ones((4, 1)), np.ones((5, 1))))

    def test_count_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Dataset(np.array([0.0, 1.0]), (np.ones((4, 1)),))

    def test_empty_rejected(self):
        with pytest.raises(DimensionMismatch):
            Dataset(np.array([]), ())

    def test_with_times_shifts_only_times(self):
        ds = Dataset(np.array([0.0, 1.0]), (np.ones((4, 1)), np.zeros((4, 1))))
        shifted = ds.with_times(ds.times - 0.5)
        np.testing.assert_array_equal(shifted.times, [-0.5, 0.5])
        assert np.array_equal(shifted.matrices[0], ds.matrices[0])


class TestModelFiles:
    def test_round_trip_is_bitwise(self, tmp_path):
        m = random_geodesic(7, 2, 1.3, seed=21)
        path = tmp_path / "model.geo"
        save_model(m, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.H, m.H)
        assert np.array_equal(loaded.Y, m.Y)
        assert np.array_equal(loaded.theta, m.theta)

    def test_truncated_file_rejected(self, tmp_path):
        m = random_geodesic(7, 2, 1.3, seed=22)
        path = tmp_path / "model.geo"
        save_model(m, path)
        text = path.read_text()
        path.write_text("\n".join(text.splitlines()[:5]) + "\n")
        with pytest.raises(MalformedFile):
            load_model(path)

    def test_tangency_violations_rejected_on_load(self, tmp_path):
        m = random_geodesic(7, 2, 1.3, seed=23)
        path = tmp_path / "model.geo"
        save_model(m, path)
        lines = path.read_text().splitlines()
        # overwrite the Y block with a copy of H
        lines[9:16] = lines[1:8]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(NotTangent):
            load_model(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "model.geo"
        path.write_text("not a model\n")
        with pytest.raises(MalformedFile):
            load_model(path)


    # Line numbers in a d=7, k=2 model file: H rows 1-7, blank 8, Y rows
    # 9-15, blank 16, theta 17.
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("line, error", [(2, NotOrthonormal), (10, NotOrthonormal), (17, MalformedFile)],
                             ids=["H", "Y", "theta"])
    def test_non_finite_tokens_rejected(self, tmp_path, line, error, token):
        path = tmp_path / "model.geo"
        save_model(random_geodesic(7, 2, 1.3, seed=25), path)
        lines = path.read_text().splitlines()
        lines[line] = " ".join([token, *lines[line].split()[1:]])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(error):
            load_model(path)

    @pytest.mark.parametrize("edit", [
        lambda lines: lines[:1] + ["1.0 x"] + lines[2:],
        lambda lines: lines[:8] + ["0.0 0.0"] + lines[9:],
        lambda lines: lines[:3] + [lines[3] + " 0.0"] + lines[4:],
        lambda lines: lines[:17] + [lines[17] + " 0.0"],
        lambda lines: [],
    ], ids=["unparseable-number", "missing-blank-separator", "row-width", "theta-count", "empty-file"])
    def test_malformed_model_file(self, tmp_path, edit):
        path = tmp_path / "model.geo"
        save_model(random_geodesic(7, 2, 1.3, seed=26), path)
        lines = edit(path.read_text().splitlines())
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(MalformedFile):
            load_model(path)

    def test_unwritable_path_raises_io_failure(self, tmp_path):
        with pytest.raises(IoFailure):
            save_model(random_geodesic(7, 2, 1.3, seed=27), tmp_path / "missing" / "model.geo")


class TestDatasetFiles:
    def test_round_trip_is_bitwise(self, tmp_path):
        inst = planted_instance(6, 2, 3, 4, 0.3, 1.2, seed=24)
        path = tmp_path / "data.txt"
        save_dataset(inst.dataset, path)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.times, inst.dataset.times)
        for a, b in zip(loaded.matrices, inst.dataset.matrices):
            assert np.array_equal(a, b)

    def test_ragged_widths_round_trip(self, tmp_path):
        ds = Dataset(
            np.array([0.0, 0.25, 1.0]),
            (np.full((3, 2), 0.1), np.full((3, 1), -2.0), np.full((3, 4), 7.0)),
        )
        path = tmp_path / "data.txt"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert [m.shape for m in loaded.matrices] == [(3, 2), (3, 1), (3, 4)]

    def test_inconsistent_dimension_rejected(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text(
            "geogress-dataset v1 d=3 T=2\n"
            "t=0.0\n"
            "1.0 2.0 3.0\n"
            "t=1.0\n"
            "1.0 2.0\n"
        )
        with pytest.raises(DimensionMismatch):
            load_dataset(path)

    def test_time_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("geogress-dataset v1 d=2 T=1\nt=1.5\n1.0 2.0\n")
        with pytest.raises(MalformedFile):
            load_dataset(path)

    def test_non_finite_entries_rejected(self, tmp_path):
        path = tmp_path / "data.txt"
        for token in ("nan", "inf", "-inf"):
            path.write_text(f"geogress-dataset v1 d=2 T=2\nt=0.0\n1.0 2.0\nt=1.0\n1.0 {token}\n")
            with pytest.raises(MalformedFile, match="sample 1"):
                load_dataset(path)

    def test_sample_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("geogress-dataset v1 d=2 T=2\nt=0.0\n1.0 2.0\n")
        with pytest.raises(MalformedFile):
            load_dataset(path)

    @pytest.mark.parametrize("text", [
        "",
        "geogress-dataset v2 d=2 T=1\nt=0.0\n1.0 2.0\n",
        "geogress-dataset v1 d=2 T=2\nt=0.0\nt=1.0\n1.0 2.0\n",
        "geogress-dataset v1 d=2 T=1\n1.0 2.0\nt=0.0\n1.0 2.0\n",
        "geogress-dataset v1 d=2 T=1\nt=zero\n1.0 2.0\n",
    ], ids=["empty-file", "bad-header", "sample-without-vectors", "data-before-time", "unparseable-time"])
    def test_malformed_dataset_file(self, tmp_path, text):
        path = tmp_path / "data.txt"
        path.write_text(text)
        with pytest.raises(MalformedFile):
            load_dataset(path)
