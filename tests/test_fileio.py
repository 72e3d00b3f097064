import json

import numpy as np
import pytest

from perpca import fileio
from perpca.errors import DimensionError
from perpca.solver import RoundTrace


def _rng():
    return np.random.default_rng(0)


class TestMatrixRoundTrip:
    def test_csv_is_bitwise_lossless(self, tmp_path):
        M = _rng().standard_normal((7, 3)) * np.logspace(-8, 8, 3)
        path = fileio.save_matrix(tmp_path / "m.csv", M)
        back = fileio.load_matrix(path)
        assert np.array_equal(back, M)

    def test_bin_round_trip(self, tmp_path):
        M = _rng().standard_normal((5, 4))
        path = fileio.save_matrix(tmp_path / "m.mat64", M, fmt="bin")
        back = fileio.load_matrix(path)
        assert np.array_equal(back, M)
        assert path.stat().st_size == 16 + 8 * 20

    def test_csv_header(self, tmp_path):
        M = np.arange(6.0).reshape(2, 3)
        path = fileio.save_matrix(tmp_path / "m.csv", M, header=["a", "b", "c"])
        assert path.read_text().splitlines()[0] == "a,b,c"
        assert np.array_equal(fileio.load_matrix(path, header=True), M)

    def test_rewrite_is_bitwise_identical(self, tmp_path):
        M = _rng().standard_normal((4, 4))
        p1 = fileio.save_matrix(tmp_path / "a.csv", M)
        p2 = fileio.save_matrix(tmp_path / "b.csv", M)
        assert p1.read_bytes() == p2.read_bytes()


class TestMalformedFiles:
    @pytest.mark.parametrize("cut", [4, 8])
    def test_truncated_mat64_payload_names_file(self, tmp_path, cut):
        path = fileio.save_matrix(tmp_path / "m.mat64", np.ones((3, 2)), fmt="bin")
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(ValueError, match=r"m\.mat64: header announces 3 x 2 values"):
            fileio.load_matrix(path)

    def test_mat64_header_larger_than_payload_names_file(self, tmp_path):
        path = tmp_path / "m.mat64"
        path.write_bytes(np.array([4, 4], dtype="<u8").tobytes() + np.ones(3).tobytes())
        with pytest.raises(ValueError, match=r"m\.mat64: header announces 4 x 4 values"):
            fileio.load_matrix(path)

    def test_short_mat64_header_names_file(self, tmp_path):
        path = tmp_path / "m.mat64"
        path.write_bytes(b"\x03" * 10)
        with pytest.raises(ValueError, match=r"m\.mat64: 10 bytes, shorter than"):
            fileio.load_matrix(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_csv_cell_names_file(self, tmp_path, bad):
        path = tmp_path / "client_0.csv"
        path.write_text(f"1.0,2.0\n3.0,{bad}\n")
        with pytest.raises(ValueError, match=r"client_0\.csv: non-finite value .* row 1, column 1"):
            fileio.load_matrix(path)

    def test_non_finite_mat64_value_names_file(self, tmp_path):
        M = np.ones((2, 3))
        M[0, 2] = np.inf
        path = fileio.save_matrix(tmp_path / "m.mat64", M, fmt="bin")
        with pytest.raises(ValueError, match=r"m\.mat64: non-finite value inf in row 0, column 2"):
            fileio.load_matrix(path)


class TestDatasets:
    def test_save_load_transposes(self, tmp_path):
        Ys = [_rng().standard_normal((4, 9)), _rng().standard_normal((4, 5))]
        fileio.save_datasets(tmp_path, Ys)
        paths = fileio.resolve_data_paths([tmp_path])
        assert [p.name for p in paths] == ["client_0.csv", "client_1.csv"]
        back = fileio.load_datasets(paths)
        assert all(np.array_equal(a, b) for a, b in zip(back, Ys))

    def test_client_order_is_numeric(self, tmp_path):
        for i in (0, 2, 10, 1):
            fileio.save_matrix(tmp_path / f"client_{i}.csv", np.full((2, 2), float(i)))
        paths = fileio.resolve_data_paths([tmp_path])
        assert [p.name for p in paths] == [
            "client_0.csv", "client_1.csv", "client_2.csv", "client_10.csv",
        ]

    def test_inconsistent_dimension_rejected(self, tmp_path):
        fileio.save_matrix(tmp_path / "client_0.csv", np.zeros((3, 4)))
        fileio.save_matrix(tmp_path / "client_1.csv", np.zeros((3, 5)))
        with pytest.raises(DimensionError):
            fileio.load_datasets(fileio.resolve_data_paths([tmp_path]))

    def test_centering(self, tmp_path):
        Y = _rng().standard_normal((3, 50)) + 5.0
        fileio.save_datasets(tmp_path, [Y])
        back = fileio.load_datasets(fileio.resolve_data_paths([tmp_path]), center=True)
        assert np.max(np.abs(back[0].mean(axis=1))) < 1e-12


class TestComponents:
    def test_round_trip(self, tmp_path):
        U = _rng().standard_normal((5, 2))
        V = [_rng().standard_normal((5, 1)) for _ in range(3)]
        fileio.save_components(tmp_path, U, V)
        U2, V2 = fileio.load_components(tmp_path)
        assert np.array_equal(U, U2)
        assert all(np.array_equal(a, b) for a, b in zip(V, V2))

    def test_prefix_isolation(self, tmp_path):
        U = np.eye(3)[:, :1]
        fileio.save_components(tmp_path, U, [U], prefix="truth_")
        fileio.save_components(tmp_path, 2 * U, [2 * U, 3 * U])
        U_t, V_t = fileio.load_components(tmp_path, prefix="truth_")
        U_f, V_f = fileio.load_components(tmp_path)
        assert np.array_equal(U_t, U)
        assert len(V_t) == 1 and len(V_f) == 2
        assert np.array_equal(U_f, 2 * U)


def test_trace_round_trip(tmp_path):
    trace = [
        RoundTrace(1, 1.5, 0.1, 0.2, 3.0, 0.5),
        RoundTrace(2, 1.7, 0.05, 0.1, 2.5, 0.25),
    ]
    path = fileio.save_trace(tmp_path / "trace.csv", trace)
    lines = path.read_text().splitlines()
    assert lines[0] == "round,objective,kkt_global,kkt_local,recon_error_mean,subspace_error"
    assert len(lines) == 3
    no_truth = [RoundTrace(1, 1.5, 0.1, 0.2, 3.0, None)]
    path2 = fileio.save_trace(tmp_path / "t2.csv", no_truth)
    assert path2.read_text().splitlines()[0].count("subspace_error") == 0


def test_manifest_schema(tmp_path):
    data = fileio.save_matrix(tmp_path / "client_0.csv", np.zeros((2, 2)))
    path = fileio.write_manifest(
        tmp_path, "fit", {"rounds": 3}, inputs=[data], outputs=[data],
        metrics={"objective": 1.0}, wall_time_s=0.5,
    )
    payload = json.loads(path.read_text())
    assert set(payload) == {
        "version", "command", "flags", "timestamp", "input_digests",
        "outputs", "metrics", "wall_time_s",
    }
    assert payload["command"] == "fit"
    assert list(payload["input_digests"].values())[0] == fileio.file_digest(data)
