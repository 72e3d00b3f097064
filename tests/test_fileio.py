import contextlib
import io
import itertools
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from forcing import MODES, deadline, each_mode, force  # noqa: F401 (deadline is a fixture)
from perpca import cli, fileio, parallel, synth
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
        path = fileio.save_matrix(tmp_path / "m.mat64", M)
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
        path = fileio.save_matrix(tmp_path / "m.mat64", np.ones((3, 2)))
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

    @pytest.mark.parametrize("text", ["", "\n", "# comment\n"])
    def test_empty_csv_names_file(self, tmp_path, text):
        path = tmp_path / "client_0.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=r"client_0\.csv: no values"):
            fileio.load_matrix(path)

    def test_non_finite_mat64_value_names_file(self, tmp_path):
        M = np.ones((2, 3))
        M[0, 2] = np.inf
        path = fileio.save_matrix(tmp_path / "m.mat64", M)
        with pytest.raises(ValueError, match=r"m\.mat64: non-finite value inf in row 0, column 2"):
            fileio.load_matrix(path)


class TestDatasets:
    def test_save_load_transposes(self, tmp_path):
        Ys = [_rng().standard_normal((4, 9)), _rng().standard_normal((4, 5))]
        _write(tmp_path, Ys)
        paths = fileio.resolve_data_paths([tmp_path])
        assert [p.name for p in paths] == ["client_0.csv", "client_1.csv"]
        back = [Y for _, _, Y in fileio.read_clients(paths, _identity)]
        assert all(np.array_equal(a, b) for a, b in zip(back, Ys))

    def test_client_order_is_numeric(self, tmp_path):
        for i in (0, 2, 10, 1, *range(3, 10)):
            fileio.save_matrix(tmp_path / f"client_{i}.csv", np.full((2, 2), float(i)))
        paths = fileio.resolve_data_paths([tmp_path])
        assert [p.name for p in paths] == [f"client_{i}.csv" for i in range(11)]

    @pytest.mark.parametrize("defect, message", [
        ("gap", r"client_2\.csv: no client_1 file before it$"),
        ("first", r"client_1\.csv: no client_0 file before it$"),
        ("twice", r"client_0\.mat64: a second file for client 0$"),
    ])
    def test_data_directory_is_a_complete_client_sequence(self, tmp_path, defect, message):
        _write(tmp_path, [np.eye(2)] * 3)
        if defect == "twice":  # as synth run twice into one directory, in both formats
            fileio.write_clients(tmp_path, lambda i: np.eye(2), [(2, 2)] * 3, fmt="bin")
        else:
            (tmp_path / f"client_{1 if defect == 'gap' else 0}.csv").unlink()
        with pytest.raises(ValueError, match=message) as exc:
            fileio.resolve_data_paths([tmp_path])
        assert str(tmp_path) in str(exc.value)

    def test_inconsistent_dimension_rejected(self, tmp_path):
        fileio.save_matrix(tmp_path / "client_0.csv", np.zeros((3, 4)))
        fileio.save_matrix(tmp_path / "client_1.csv", np.zeros((3, 5)))
        with pytest.raises(DimensionError):
            fileio.read_clients(fileio.resolve_data_paths([tmp_path]), _identity)

    def test_centering(self, tmp_path):
        Y = _rng().standard_normal((3, 50)) + 5.0
        _write(tmp_path, [Y])
        (_, _, back), = fileio.read_clients(fileio.resolve_data_paths([tmp_path]), _identity,
                                            center=True)
        assert np.max(np.abs(back.mean(axis=1))) < 1e-12


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

    @pytest.mark.parametrize("prefix", ["", "truth_"])
    @pytest.mark.parametrize("defect, message", [
        ("gap", r"V_2\.csv: no {}V_1 file before it$"),
        ("first", r"V_1\.csv: no {}V_0 file before it$"),
        ("twice", r"V_0\.mat64: a second file for client 0$"),
        ("shared-twice", r"{}U\.mat64: a second file for the shared frame$"),
    ], ids=["gap", "first", "twice", "shared-twice"])
    def test_local_frames_load_as_a_complete_client_sequence(self, tmp_path, prefix, defect,
                                                               message):
        frames = [np.eye(4)[:, i:i + 1] for i in range(3)]
        fileio.save_components(tmp_path, np.eye(4)[:, 3:], frames, prefix=prefix)
        if defect.endswith("twice"):
            name = "U" if defect == "shared-twice" else "V_0"
            fileio.save_matrix(tmp_path / f"{prefix}{name}.mat64", frames[0])
        else:
            (tmp_path / f"{prefix}V_{1 if defect == 'gap' else 0}.csv").unlink()
        with pytest.raises(ValueError, match=message.format(prefix)) as exc:
            fileio.load_components(tmp_path, prefix)
        assert str(tmp_path) in str(exc.value)


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
        tmp_path, "fit", {"rounds": 3}, inputs={data: fileio.file_digest(data)}, outputs=[data],
        metrics={"objective": 1.0}, wall_time_s=0.5,
    )
    payload = json.loads(path.read_text())
    assert set(payload) == {
        "version", "command", "flags", "timestamp", "input_digests",
        "outputs", "metrics", "wall_time_s",
    }
    assert payload["command"] == "fit"
    assert payload["input_digests"] == {str(data): fileio.file_digest(data)}


def test_manifest_refuses_a_non_finite_number(tmp_path):
    # NaN and Infinity are not JSON; nothing is written
    with pytest.raises(ValueError, match="not JSON compliant"):
        fileio.write_manifest(tmp_path, "synth", {"noise_std": float("nan")})
    assert not (tmp_path / "manifest.json").exists()


def _clients(n=5, d=4):
    rng = _rng()
    return [rng.standard_normal((d, 3 + 7 * i)) * np.logspace(-9, 9, d)[:, None]
            for i in range(n)]


def _write(out, Ys, **kwargs):
    return fileio.write_clients(out, Ys.__getitem__, [Y.shape for Y in Ys], **kwargs)


def _identity(i, Y):
    return Y


@pytest.mark.usefixtures("deadline")
class TestParallelFiles:
    def test_mat64_files_above_the_fork_threshold_stay_serial(self, tmp_path, monkeypatch):
        # the format comes from each path: three usable CPUs and a large payload
        # still give the serial loop for .mat64 files
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 3)

        def no_fork(process):
            raise AssertionError(f"started {process.name} for .mat64 files")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_fork)
        Ys = [np.full((8, 11000), float(i)) + np.arange(11000) for i in range(3)]
        assert 8 * sum(Y.size for Y in Ys) > parallel.MIN_BYTES["fork"]
        paths = _write(tmp_path, Ys, fmt="bin")
        assert [p.name for p in paths] == [f"client_{i}.mat64" for i in range(3)]
        back = [Y for _, _, Y in fileio.read_clients(paths, _identity)]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(back, Ys, strict=True))

    @pytest.mark.parametrize("header", [False, True])
    def test_writes_match_serial_bytes(self, tmp_path, header):
        Ys = _clients()

        def write(out):
            paths = _write(out, Ys, header=header)
            return [(p.name, p.read_bytes()) for p in paths]

        serial_files, parallel_files = each_mode(lambda mode: write(tmp_path / mode))
        assert len(serial_files) == 5
        assert serial_files == parallel_files

    @pytest.mark.parametrize("center", [False, True])
    def test_reads_match_serial_bits(self, tmp_path, center):
        _write(tmp_path / "data", _clients(), header=True)
        paths = fileio.resolve_data_paths([tmp_path / "data"])

        def read(mode):
            return [Y for _, _, Y in fileio.read_clients(paths, _identity, header=True,
                                                         center=center)]

        serial_ys, parallel_ys = each_mode(read)
        for a, b in zip(serial_ys, parallel_ys, strict=True):
            assert a.shape == b.shape and a.strides == b.strides
            assert a.tobytes() == b.tobytes()

    def test_save_returns_paths_in_client_order(self, tmp_path, monkeypatch):
        force(monkeypatch, "parallel")
        paths = _write(tmp_path, _clients())
        assert [p.name for p in paths] == [f"client_{i}.csv" for i in range(5)]

    def _errors(self, paths):
        def read(mode):
            with pytest.raises(ValueError) as info:
                fileio.read_clients(paths, _identity)
            return info.value

        return each_mode(read)

    def test_non_finite_cell_raises_serial_error(self, tmp_path):
        paths = _write(tmp_path, _clients())
        lines = paths[3].read_text().splitlines()
        lines[2] = "nan" + lines[2][lines[2].index(","):]
        paths[3].write_text("\n".join(lines) + "\n")
        serial_exc, parallel_exc = self._errors(paths)
        assert type(parallel_exc) is type(serial_exc) is ValueError
        assert str(parallel_exc) == str(serial_exc)
        assert str(paths[3]) in str(serial_exc) and "row 2, column 0" in str(serial_exc)

    def test_dimension_error_ahead_of_broken_file(self, tmp_path):
        # files larger than a pipe buffer leave the workers of the unread files
        # blocked in a send, which only terminating them ends
        Ys = [np.full((3, 5000), float(i)) for i in range(5)]
        paths = _write(tmp_path, Ys)
        fileio.save_matrix(paths[1], np.ones((6, 4)))
        paths[3].write_text("1.0,oops,2.0\n")
        serial_exc, parallel_exc = self._errors(paths)
        assert type(parallel_exc) is type(serial_exc) is DimensionError
        assert str(parallel_exc) == str(serial_exc)
        assert str(serial_exc).startswith(f"{paths[1]}: 4 features")

    def test_killed_read_worker_raises(self, tmp_path, monkeypatch):
        force(monkeypatch, "parallel")
        paths = _write(tmp_path, _clients())
        load = fileio.load_matrix

        def killed_on_client_2(path, **kwargs):
            if Path(path).name == "client_2.csv":
                os.kill(os.getpid(), signal.SIGKILL)
            return load(path, **kwargs)

        monkeypatch.setattr(fileio, "load_matrix", killed_on_client_2)
        with pytest.raises(RuntimeError, match=r"client_2\.csv: worker process exited"):
            fileio.read_clients(paths, _identity)

    def test_killed_write_worker_raises(self, tmp_path, monkeypatch):
        force(monkeypatch, "parallel")
        save = fileio.save_matrix

        def killed_on_client_4(path, *args):
            if Path(path).name == "client_4.csv":
                os.kill(os.getpid(), signal.SIGKILL)
            return save(path, *args)

        monkeypatch.setattr(fileio, "save_matrix", killed_on_client_4)
        with pytest.raises(RuntimeError, match=r"client_4\.csv: worker process exited"):
            _write(tmp_path, _clients())

    def test_write_error_names_first_failing_file(self, tmp_path, monkeypatch):
        force(monkeypatch, "parallel")
        out = tmp_path / "data"
        out.mkdir()
        (out / "client_2.csv").mkdir()  # a directory cannot be opened for writing
        (out / "client_4.csv").mkdir()
        with pytest.raises(IsADirectoryError, match=r"client_2\.csv"):
            _write(out, _clients())

    def test_cli_pipeline_matches_serial(self, tmp_path):
        def pipeline(out):
            data, fit = out / "data", out / "fit"
            argv = [["synth", "--d", "6", "--N", "3", "--r1", "1", "--r2", "1", "--n", "80",
                     "--noise-std", "0.2", "--seed", "5", "--out", data],
                    ["fit", data, "--r1", "1", "--r2", "1", "--rounds", "20",
                     "--truth", data, "--out", fit],
                    ["eval", data, "--components", fit, "--truth", data,
                     "--out", out / "eval.json"]]
            for args in argv:
                assert cli.main([str(a) for a in args]) == 0
            return {str(p.relative_to(out)): p.read_bytes()
                    for p in sorted(out.rglob("*"))
                    if p.is_file() and p.name != "manifest.json"}

        serial_out, parallel_out = each_mode(lambda mode: pipeline(tmp_path / mode))
        assert "data/client_2.csv" in serial_out and "fit/trace.csv" in serial_out
        assert serial_out == parallel_out


@pytest.fixture()
def fitted(tmp_path):
    """Three synth clients at d=6 and a fit of them: ``(data paths, fit directory)``."""
    data, fit = tmp_path / "data", tmp_path / "fit"
    for args in (["synth", "--d", "6", "--N", "3", "--r1", "1", "--r2", "1", "--n", "80",
                  "--noise-std", "0.2", "--seed", "5", "--out", data],
                 ["fit", data, "--r1", "1", "--r2", "1", "--rounds", "10", "--out", fit]):
        assert cli.main([str(a) for a in args]) == 0
    return fileio.resolve_data_paths([data]), fit


def _command(name, paths, fit, out):
    argv = {"fit": ["fit", *paths, "--rounds", "5"],
            "eval": ["eval", *paths, "--components", fit],
            **{f"baseline-{m}": ["baseline", *paths, "--method", m]
               for m in ("distpca", "indiv", "cpca")}}[name]
    if name != "eval":
        argv += ["--r1", "1", "--r2", "1"]
    return [str(a) for a in argv + ["--out", out]]


_READERS = ("fit", "baseline-distpca", "baseline-indiv", "baseline-cpca", "eval")


def _break(path, defect):
    if defect == "value":  # row 2, column 0 becomes nan
        lines = path.read_text().splitlines()
        lines[2] = "nan" + lines[2][lines[2].index(","):]
        path.write_text("\n".join(lines) + "\n")
    else:  # four features instead of six
        fileio.save_matrix(path, np.ones((5, 4)))


@pytest.mark.usefixtures("deadline")
class TestStreamedCommands:
    """``synth``, ``fit``, ``baseline`` and ``eval`` stream their client files."""

    # defects of client files 1 and 2, and the error of the first in file order
    @pytest.mark.parametrize("defects, kind, message", [
        (("value", None), ValueError, "{1}: non-finite value nan in row 2, column 0"),
        (("features", None), DimensionError, "{1}: 4 features, earlier files have 6"),
        (("features", "value"), DimensionError, "{1}: 4 features, earlier files have 6"),
        (("value", "features"), ValueError, "{1}: non-finite value nan in row 2, column 0"),
    ], ids=["value", "features", "features-then-value", "value-then-features"])
    @pytest.mark.parametrize("command", _READERS)
    @pytest.mark.parametrize("mode", MODES)
    def test_bad_file_raises_the_first_error_in_file_order(self, fitted, tmp_path, monkeypatch,
                                                           mode, command, defects, kind,
                                                           message):
        paths, fit = fitted
        for path, defect in zip(paths[1:], defects):
            if defect:
                _break(path, defect)
        force(monkeypatch, mode)
        with pytest.raises(kind, match=f"^{re.escape(message.format(*paths))}$") as exc:
            cli.main(_command(command, paths, fit, tmp_path / "out"))
        assert type(exc.value) is kind

    @pytest.mark.parametrize("mode", MODES)
    def test_eval_names_the_file_whose_features_disagree_with_the_components(
            self, fitted, tmp_path, monkeypatch, mode):
        _, fit = fitted  # d=6
        wide = tmp_path / "wide"
        assert cli.main([str(a) for a in ["synth", "--d", "7", "--N", "3", "--r1", "1", "--r2",
                                          "1", "--n", "80", "--out", wide]]) == 0
        paths = fileio.resolve_data_paths([wide])
        force(monkeypatch, mode)
        message = f"{paths[0]}: data (7, 80) and frame (6, 1) disagree on d"
        with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
            cli.main(_command("eval", paths, fit, tmp_path / "out"))

    @pytest.mark.parametrize("command", _READERS)
    def test_dead_worker_names_its_file(self, fitted, tmp_path, monkeypatch, command):
        paths, fit = fitted
        load = fileio.load_matrix

        def killed_on_client_1(path, **kwargs):
            if Path(path).name == "client_1.csv":
                os.kill(os.getpid(), signal.SIGKILL)
            return load(path, **kwargs)

        monkeypatch.setattr(fileio, "load_matrix", killed_on_client_1)
        force(monkeypatch, "parallel")
        with pytest.raises(RuntimeError,
                           match=f"^{re.escape(str(paths[1]))}: worker process exited"):
            cli.main(_command(command, paths, fit, tmp_path / "out"))

    @pytest.mark.parametrize("command", [c for c in _READERS if c != "eval"])
    @pytest.mark.parametrize("mode", MODES)
    def test_manifest_digests_are_the_inputs(self, fitted, tmp_path, monkeypatch, mode,
                                             command):
        paths, fit = fitted
        force(monkeypatch, mode)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(_command(command, paths, fit, tmp_path / "out")) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["input_digests"] == {str(p): fileio.file_digest(p) for p in paths}

    @pytest.mark.parametrize("command", ("synth",) + _READERS)
    @pytest.mark.parametrize("mode", MODES)
    def test_parent_holds_at_most_one_client_array(self, fitted, tmp_path, monkeypatch, mode,
                                                   command):
        # serially, each client's array is gone before the next one is made; forked,
        # the parent makes none
        paths, fit = fitted
        parent, alive = os.getpid(), []

        def one_at_a_time(make, of_client=lambda *args: True):
            def made(*args, **kwargs):
                M = make(*args, **kwargs)
                if of_client(*args):
                    assert mode == "serial" or os.getpid() != parent, "client array in the parent"
                    assert all(ref() is None for ref in alive), "two client arrays at once"
                    alive.append(weakref.ref(M))
                return M
            return made

        monkeypatch.setattr(fileio, "load_matrix", one_at_a_time(
            fileio.load_matrix, lambda path: Path(path).name.startswith("client_")))
        monkeypatch.setattr(synth, "client_observations", one_at_a_time(synth.client_observations))
        force(monkeypatch, mode)
        argv = (["synth", "--d", "6", "--N", "3", "--r1", "1", "--r2", "1", "--n", "80",
                 "--out", str(tmp_path / "out")] if command == "synth"
                else _command(command, paths, fit, tmp_path / "out"))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        assert len(alive) == (3 if mode == "serial" else 0)


_finite = hnp.from_dtype(np.dtype(float), allow_nan=False, allow_infinity=False,
                         allow_subnormal=True)
_values = _finite | st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                    1e308, -1e308, 1.7976931348623157e308])


@settings(max_examples=150, deadline=None)
@given(M=hnp.arrays(float, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                    elements=_values),
       ext=st.sampled_from(["csv", "mat64"]))
def test_fuzz_matrix_round_trip_is_bitwise(M, ext):
    with tempfile.TemporaryDirectory() as tmp:
        path = fileio.save_matrix(Path(tmp) / f"m.{ext}", M)
        back = fileio.load_matrix(path)
    assert back.shape == M.shape
    assert back.tobytes() == M.tobytes()


_csv_text = st.text(alphabet="0123456789.,-+eE \nnaif", max_size=40).map(str.encode)
_mat64 = st.builds(
    lambda rows, cols, payload: np.array([rows, cols], dtype="<u8").tobytes() + payload,
    st.integers(0, 2**64 - 1) | st.integers(0, 4), st.integers(0, 2**64 - 1) | st.integers(0, 4),
    st.binary(max_size=80),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=st.binary(max_size=60) | _csv_text | _mat64, ext=st.sampled_from(["csv", "mat64"]))
@example(raw=np.array([2**63, 0], dtype="<u8").tobytes(), ext="mat64")
@example(raw=np.array([0, 2**64 - 1], dtype="<u8").tobytes(), ext="mat64")
@example(raw=b"", ext="csv")
def test_fuzz_loader_raises_package_errors_naming_the_file(raw, ext):
    with tempfile.TemporaryDirectory() as tmp:
        good = fileio.save_matrix(Path(tmp) / "client_0.csv", np.ones((2, 2)))
        path = Path(tmp) / f"client_1.{ext}"
        path.write_bytes(raw)
        try:
            Y = fileio.read_clients([good, path], _identity)[1][2]
        except (ValueError, DimensionError) as exc:
            assert str(path) in str(exc)
        else:
            assert Y.shape[0] == 2 and np.isfinite(Y).all()


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(M=hnp.arrays(float, st.tuples(st.integers(1, 140), st.integers(1, 3)), elements=_values),
       header=st.none() | st.lists(st.text(alphabet="ax_0 ", max_size=3), max_size=3))
@example(M=np.array([[-0.0, 5e-324, 1e308, -1e308, -2.2250738585072014e-308]]),
         header=["a", "b", "c", "d", "e"])
@example(M=np.array([[-0.0], [-5e-324], [1e308], [-1e308]]), header=None)
@example(M=np.full((129, 1), -0.0), header=[""])
def test_fuzz_csv_bytes_equal_savetxt(M, header):
    with tempfile.TemporaryDirectory() as tmp:
        ours = fileio.save_matrix(Path(tmp) / "ours.csv", M, header).read_bytes()
        np.savetxt(Path(tmp) / "ref.csv", M, fmt="%.17g", delimiter=",",
                   header=",".join(header) if header else "", comments="")
        assert ours == (Path(tmp) / "ref.csv").read_bytes()


def _pipeline_outputs(out, fmt, header, center):
    """Every file that ``synth``, ``fit``, the three baselines and ``eval`` write, as
    bytes by path under ``out``; manifests without their time fields and ``out``."""
    data, ranks = out / "data", ["--r1", "1", "--r2", "1"]
    reading = ["--header"] * header + ["--center"] * center
    argv = [["synth", "--d", "6", "--N", "3", *ranks, "--n", "80", "--noise-std", "0.2",
             "--seed", "5", "--format", fmt, "--out", data, *["--header"] * header],
            ["fit", data, *ranks, *reading, "--rounds", "20", "--format", fmt,
             "--truth", data, "--out", out / "fit"],
            *(["baseline", data, *ranks, *reading, "--method", m, "--format", fmt,
               "--out", out / m] for m in ("distpca", "indiv", "cpca")),
            ["eval", data, *reading, "--components", out / "fit", "--truth", data,
             "--out", out / "eval.json"]]
    for args in argv:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([str(a) for a in args]) == 0
    files = {}
    for path in sorted(out.rglob("*")):
        if path.is_file():
            content = path.read_bytes()
            if path.name == "manifest.json":
                manifest = json.loads(content)
                del manifest["timestamp"], manifest["wall_time_s"]
                content = json.dumps(manifest, sort_keys=True).replace(str(out), "").encode()
            files[str(path.relative_to(out))] = content
    return files


def _compare_pipelines(root):
    """``(files compared, files that differ)`` between the serial loop and forked workers,
    over both formats, with and without ``--header`` and ``--center``."""
    compared, differ = 0, []
    for fmt, header, center in itertools.product(("csv", "bin"), (False, True), (False, True)):
        case = f"{fmt}-{header}-{center}"
        serial, forked = each_mode(lambda mode: _pipeline_outputs(root / f"{case}-{mode}", fmt,
                                                                  header, center))
        compared += len(serial)
        differ += [f"{case}/{name}" for name in sorted(serial | forked)
                   if serial.get(name) != forked.get(name)]
    return compared, differ


_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def json_in_interpreter(code, blas):
    """The JSON line that ``code`` prints last, run in a fresh interpreter with BLAS
    threads ``"pinned"`` to one or ``"unpinned"``; the tests directory is importable.

    BLAS threads are fixed when numpy loads, so each setting needs its own interpreter.
    """
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREADS}
    if blas == "pinned":
        env.update(dict.fromkeys(_BLAS_THREADS, "1"))
    here = Path(__file__).resolve().parent
    env["PYTHONPATH"] = os.pathsep.join([str(Path(fileio.__file__).parents[1]), str(here)])
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("blas", ["pinned", "unpinned"])
def test_every_command_writes_the_same_bytes_serial_and_forked(tmp_path, blas):
    code = ("import json, pathlib, test_fileio; "
            f"print(json.dumps(test_fileio._compare_pipelines(pathlib.Path({str(tmp_path)!r}))))")
    compared, differ = json_in_interpreter(code, blas)
    assert compared == 8 * 26 and differ == []  # 26 files per pipeline
