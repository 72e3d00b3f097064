import ast
import contextlib
import hashlib
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
import tracemalloc
import weakref
from fractions import Fraction
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


_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                -2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
                1e300, -1e300, 1e-300, -1e-300, 0.1 + 0.2, 1 / 3, -2 / 3,
                float(np.nextafter(1.0, 2.0)), 123456789.01234567]


def _edge_clients():
    """Two clients at d=3 holding every edge value, and random values at 17 digits."""
    values = np.array(_EDGE_VALUES)
    rng = _rng()
    return [values.reshape(3, -1),
            np.concatenate([values[::-1], rng.standard_normal(12) * 1e-7]).reshape(3, -1)]


def _sidecar_fields(path):
    """The sidecar of ``path`` as ``(csv sha256, header flag, payload sha256, matrix)``,
    decoded here from its documented layout."""
    raw = fileio._sidecar(path).read_bytes()
    assert raw[:8] == b"perpca\x00\x01"
    rows, cols = (int(n) for n in np.frombuffer(raw[80:96], dtype="<u8"))
    assert len(raw) == 96 + 8 * rows * cols
    M = np.frombuffer(raw, dtype="<f8", offset=96).reshape(rows, cols)
    return raw[8:40], int(np.frombuffer(raw[40:48], dtype="<u8")[0]), raw[48:80], M


def _client_parses(monkeypatch):
    """Names of the client files ``load_matrix`` parses from now on, in this process."""
    parsed, load = [], fileio.load_matrix

    def counted(path, **kwargs):
        parsed.append(Path(path).name)
        return load(path, **kwargs)

    monkeypatch.setattr(fileio, "load_matrix", counted)
    return parsed


def _flip(raw, at):
    return raw[:at] + bytes([raw[at] ^ 0x10]) + raw[at + 1:]


@pytest.mark.usefixtures("deadline")
class TestSidecars:
    """Each CSV client file that ``write_clients`` writes gets a verified binary sidecar."""

    @pytest.mark.parametrize("header", [False, True])
    def test_sidecar_holds_the_parse_bit_for_bit(self, tmp_path, monkeypatch, header):
        paths = _write(tmp_path, _edge_clients(), header=header)
        for path in paths:
            csv_sha, flag, payload_sha, M = _sidecar_fields(path)
            parsed = fileio.load_matrix(path, header=header)
            assert M.shape == parsed.shape and M.tobytes() == parsed.tobytes()
            assert csv_sha == bytes.fromhex(fileio.file_digest(path))
            assert flag == header
            assert payload_sha == hashlib.sha256(np.array(M.shape, dtype="<u8").tobytes()
                                                 + M.tobytes()).digest()
        assert np.signbit(_sidecar_fields(paths[0])[3][0, 1])  # -0.0 kept
        # the readers take the sidecar and parse nothing
        force(monkeypatch, "serial")
        parsed = _client_parses(monkeypatch)
        replies = fileio.read_clients(paths, _identity, header=header, digest=True)
        assert parsed == []
        for path, (digest, shape, Y) in zip(paths, replies, strict=True):
            assert digest == fileio.file_digest(path) and shape == Y.shape
            assert Y.tobytes() == fileio.load_matrix(path, header=header).T.tobytes()

    @pytest.mark.parametrize("header", [False, True])
    def test_the_recorded_csv_digest_is_the_files(self, tmp_path, header):
        # the writer hashes the bytes it writes, serially and in forked workers
        Ys = [_rng().standard_normal((8, 2500)) + i for i in range(3)]

        def digests(mode):
            paths = _write(tmp_path / mode, Ys, header=header)
            return [(_sidecar_fields(p)[0], hashlib.sha256(p.read_bytes()).digest())
                    for p in paths]

        for pairs in each_mode(digests):
            assert len(pairs) == 3 and all(recorded == actual for recorded, actual in pairs)

    def test_the_read_gate_counts_a_csv_file_with_a_sidecar_at_an_eighth(self, tmp_path,
                                                                         monkeypatch):
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 3)
        paths = _write(tmp_path, [_rng().standard_normal((8, 5000)) for _ in range(3)])
        sizes = [p.stat().st_size for p in paths]
        assert 8 * parallel.MIN_BYTES["fork"] > sum(sizes) > parallel.MIN_BYTES["fork"]
        assert fileio._read_payload(paths) == sum(n // 8 for n in sizes)
        assert parallel.workers(3, fileio._read_payload(paths), "fork") == 0
        fileio._sidecar(paths[1]).unlink()
        assert fileio._read_payload(paths) == sizes[0] // 8 + sizes[1] + sizes[2] // 8
        for path in paths:
            fileio._sidecar(path).unlink(missing_ok=True)
        assert fileio._read_payload(paths) == sum(sizes)
        assert parallel.workers(3, fileio._read_payload(paths), "fork") == 3

    def test_only_csv_client_files_get_a_sidecar(self, tmp_path):
        _write(tmp_path / "csv", _clients(2))
        _write(tmp_path / "bin", _clients(2), fmt="bin")
        fileio.save_components(tmp_path / "comp", np.eye(3)[:, :1], [np.eye(3)[:, 1:]])
        names = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")
                       if p.is_file())
        assert names == ["bin/client_0.mat64", "bin/client_1.mat64", "comp/U.csv",
                         "comp/V_0.csv", "csv/.client_0.csv.f64", "csv/.client_1.csv.f64",
                         "csv/client_0.csv", "csv/client_1.csv"]

    @pytest.mark.parametrize("defect", [
        "missing", "empty", "truncated-head", "truncated-payload", "longer", "magic",
        "csv-digest", "payload-digest", "payload-value", "shape", "header", "stale",
        "directory",
    ])
    @pytest.mark.parametrize("mode", MODES)
    def test_a_bad_sidecar_falls_back_to_the_parse(self, tmp_path, monkeypatch, mode, defect):
        paths = _write(tmp_path, _clients(3))
        side = fileio._sidecar(paths[1])
        raw = side.read_bytes()
        if defect == "stale":  # one digit changed after writing, same length
            text = paths[1].read_text()
            at = text.index(".") + 3
            digit = "1" if text[at] != "1" else "2"
            paths[1].write_text(text[:at] + digit + text[at + 1:])
            assert len(paths[1].read_bytes()) == len(text)
        elif defect == "directory":
            side.unlink()
            side.mkdir()
        elif defect == "missing":
            side.unlink()
        else:
            side.write_bytes({
                "empty": b"",
                "truncated-head": raw[:60],
                "truncated-payload": raw[:-8],
                "longer": raw + bytes(8),
                "magic": _flip(raw, 3),
                "csv-digest": _flip(raw, 20),
                "payload-digest": _flip(raw, 60),
                "payload-value": _flip(raw, 100),
                "shape": raw[:80] + np.array([3, 7], dtype="<u8").tobytes() + raw[96:],
                "header": raw[:40] + np.array([1], dtype="<u8").tobytes() + raw[48:],
            }[defect])
        before = sorted((p.name, p.is_file() and p.read_bytes()) for p in tmp_path.iterdir())
        force(monkeypatch, mode)
        parsed = _client_parses(monkeypatch)
        replies = fileio.read_clients(paths, _identity, digest=True)
        assert parsed == (["client_1.csv"] if mode == "serial" else [])  # forked: not seen
        digest, shape, Y = replies[1]
        parsed = fileio.load_matrix(paths[1]).T
        assert digest == fileio.file_digest(paths[1])
        assert shape == parsed.shape and Y.tobytes() == parsed.tobytes()
        if defect == "stale":
            assert Y.tobytes() != _sidecar_fields(paths[1])[3].T.tobytes()
        # the reader wrote nothing: no sidecar made, mended or removed
        assert sorted((p.name, p.is_file() and p.read_bytes())
                      for p in tmp_path.iterdir()) == before

    @pytest.mark.parametrize("header", [False, True])
    def test_a_header_flag_that_disagrees_with_the_reader_falls_back(self, tmp_path, header):
        # a file written without a header and read with one loses its first row in the
        # parse, as it always has; written with one and read without, the parse refuses it
        paths = _write(tmp_path, _clients(2), header=header)
        if header:
            with pytest.raises(ValueError, match=f"^{re.escape(str(paths[0]))}: "):
                fileio.read_clients(paths, _identity)
        else:
            (_, shape, Y), _ = fileio.read_clients(paths, _identity, header=True)
            assert Y.tobytes() == fileio.load_matrix(paths[0], header=True).T.tobytes()
            assert shape == (4, 2)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("same_length", [False, True])
    def test_a_nan_edit_raises_the_parse_error(self, tmp_path, monkeypatch, mode, same_length):
        paths = _write(tmp_path, [np.full((2, 6), 1.5), np.full((2, 6), 1.25)])
        text = paths[1].read_text()  # 1.25,1.25 per row: row 3, column 1 becomes nan
        lines = text.splitlines()
        lines[3] = "1.25," + (" nan" if same_length else "nan")
        paths[1].write_text("\n".join(lines) + "\n")
        assert (len(paths[1].read_text()) == len(text)) == same_length
        force(monkeypatch, mode)
        message = f"{paths[1]}: non-finite value nan in row 3, column 1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fileio.read_clients(paths, _identity)

    @pytest.mark.parametrize("mode", MODES)
    def test_a_non_finite_draw_is_refused_by_the_parse(self, tmp_path, monkeypatch, mode):
        # the sidecar holds the same NaN with consistent digests; its finiteness check
        # sends the reader to the parse, which names the file
        Y = np.ones((2, 4))
        Y[1, 2] = np.nan
        paths = _write(tmp_path, [np.ones((2, 4)), Y])
        assert np.isnan(_sidecar_fields(paths[1])[3][2, 1])
        force(monkeypatch, mode)
        with pytest.raises(ValueError, match=f"^{re.escape(str(paths[1]))}: non-finite value "
                                             "nan in row 2, column 1$"):
            fileio.read_clients(paths, _identity)

    def test_a_hit_never_holds_the_csv_bytes(self, tmp_path, monkeypatch):
        # ~4 MB of CSV text: from the sidecar the reader holds its matrix and one block of
        # the hashed file; the parse holds the whole text beside the matrix
        Y = _rng().standard_normal((8, 25000))
        path, = _write(tmp_path, [Y])
        size = path.stat().st_size
        force(monkeypatch, "serial")

        def peak():
            tracemalloc.start()
            try:
                fileio.read_clients([path], lambda i, Y: None, digest=True)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        hit = peak()
        fileio._sidecar(path).unlink()
        miss = peak()
        # the matrix, its finiteness mask and a block of the file, against text and matrix
        assert hit < Y.nbytes + Y.size + (1 << 19) < size + Y.nbytes < miss


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


@pytest.mark.parametrize("value", [float("inf"), -float("inf"), float("nan")])
def test_json_refuses_a_non_finite_number_before_making_anything(tmp_path, value):
    with pytest.raises(ValueError, match="not JSON compliant"):
        fileio.save_json(tmp_path / "new" / "report.json", {"errors": [1.0, value]})
    assert list(tmp_path.iterdir()) == []


def test_json_text_is_returned_and_written_when_a_path_is_given(tmp_path):
    payload = {"b": [1.5, 2], "a": {"c": None}}
    text = fileio.save_json(None, payload)
    assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert fileio.save_json(tmp_path / "report.json", payload) == text
    assert (tmp_path / "report.json").read_text() == text
    assert list(tmp_path.iterdir()) == [tmp_path / "report.json"]


def test_table_cells(tmp_path):
    # floats in the given format, a missing cell empty, any other value by str
    rows = [{"a": 0.1, "b": 2, "c": "x"}, {"a": np.float64(1 / 3), "c": None}]
    path = fileio.save_table(tmp_path / "t.csv", ["a", "b", "c"], rows, "%.3g")
    assert path.read_text() == "a,b,c\n0.1,2,x\n0.333,,None\n"
    assert fileio.save_table(tmp_path / "e.csv", ["a"], []).read_text() == "a\n"
    assert fileio.save_table(tmp_path / "f.csv", ["a"], [{"a": 0.1}]).read_text() == (
        "a\n0.10000000000000001\n")


@pytest.mark.parametrize("write", [
    lambda path: fileio.save_matrix(path.with_suffix(".csv"), np.eye(2)),
    lambda path: fileio.save_matrix(path.with_suffix(".mat64"), np.eye(2)),
    lambda path: fileio.save_table(path, ["a"], [{"a": 1}]),
    lambda path: fileio.save_json(path, {"a": 1}) and path,  # returns the text
    lambda path: fileio.save_trace(path, []),
    lambda path: fileio.write_manifest(path.parent, "synth", {}),
    lambda path: fileio.save_components(path.parent, np.eye(2)[:, :1])[0],
    lambda path: fileio.write_clients(path.parent, lambda i: np.eye(2), [(2, 2)])[0],
], ids=["csv", "mat64", "table", "json", "trace", "manifest", "components", "clients"])
def test_each_writer_makes_its_directory(tmp_path, write):
    path = tmp_path / "a" / "b" / "out"
    written = write(path)
    assert written.parent == path.parent and written.is_file()


def _writes(tree):
    """Line numbers of calls in ``tree`` that write a file or render JSON text."""
    found = []
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        name = getattr(call.func, "attr", getattr(call.func, "id", None))
        # open(path, mode) or path.open(mode); a mode that is not a read mode counts
        modes = [kw.value for kw in call.keywords if kw.arg == "mode"]
        modes += call.args[1:2] if isinstance(call.func, ast.Name) else call.args[:1]
        writes = any(not (isinstance(m, ast.Constant) and set(str(m.value)) <= set("rbt"))
                     for m in modes)
        if name in ("dump", "dumps", "write_text", "write_bytes", "mkdir") or (
                name == "open" and writes):
            found.append(f"{name} at line {call.lineno}")
    return found


def test_only_fileio_writes_files():
    # every file the package writes, and every CSV or JSON text it renders, is fileio's
    package = Path(fileio.__file__).parent
    found = {path.name: _writes(ast.parse(path.read_text())) for path in package.glob("*.py")}
    assert len(found["fileio.py"]) >= 5  # the detector sees fileio's own writes
    assert {name: calls for name, calls in found.items() if calls and name != "fileio.py"} == {}


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
            _write(out, Ys, header=header)
            return [(p.name, p.read_bytes()) for p in sorted(out.iterdir())]

        serial_files, parallel_files = each_mode(lambda mode: write(tmp_path / mode))
        assert len(serial_files) == 10  # five files and their sidecars
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
        load = fileio._load_client  # from the sidecar or the parse

        def killed_on_client_2(path, *args):
            if Path(path).name == "client_2.csv":
                os.kill(os.getpid(), signal.SIGKILL)
            return load(path, *args)

        monkeypatch.setattr(fileio, "_load_client", killed_on_client_2)
        with pytest.raises(RuntimeError, match=r"client_2\.csv: worker process exited"):
            fileio.read_clients(paths, _identity)

    def test_killed_write_worker_raises(self, tmp_path, monkeypatch):
        force(monkeypatch, "parallel")
        write = fileio._write_csv  # returns the digest that the sidecar records

        def killed_on_client_4(path, *args):
            if Path(path).name == "client_4.csv":
                os.kill(os.getpid(), signal.SIGKILL)
            return write(path, *args)

        monkeypatch.setattr(fileio, "_write_csv", killed_on_client_4)
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
        load = fileio._load_client

        def killed_on_client_1(path, *args):
            if Path(path).name == "client_1.csv":
                os.kill(os.getpid(), signal.SIGKILL)
            return load(path, *args)

        monkeypatch.setattr(fileio, "_load_client", killed_on_client_1)
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

        def one_at_a_time(make, array=lambda made: made):
            def made(*args, **kwargs):
                result = make(*args, **kwargs)
                assert mode == "serial" or os.getpid() != parent, "client array in the parent"
                assert all(ref() is None for ref in alive), "two client arrays at once"
                alive.append(weakref.ref(array(result)))
                return result
            return made

        # a client's matrix comes from its sidecar or its parse: (digest, matrix)
        monkeypatch.setattr(fileio, "_load_client", one_at_a_time(
            fileio._load_client, lambda loaded: loaded[1]))
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


def _percent(block):
    """The oracle: ``block``'s rows as ``%.17g`` CSV bytes, one ``%`` call per value."""
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in block.tolist()).encode()


def _ties(count):
    """Exact ties at 17 significant digits: odd multiples x of 2^-s in [2^40, 2^53) with
    10^E <= x < 10^(E+1), E = 17 - s, so that x 10^(16 - E) lies halfway between two
    integers."""
    rng = _rng()
    values = []
    for s in range(2, 6):
        low = max(10.0 ** (17 - s), 2.0**40)
        high = min(10.0 ** (18 - s), 2.0 ** (53 - s))
        m = rng.integers(int(low * 2**s) // 2, int(high * 2**s) // 2, count) * 2 + 1
        values.append(np.ldexp(m.astype(float), -s))
    return np.concatenate(values)


def _powers_of_ten():
    """10^k for k = -6..18 and both float64 neighbours of each, with both signs."""
    tens = 10.0 ** np.arange(-6, 19)
    near = np.concatenate([np.nextafter(tens, 0), tens, np.nextafter(tens, np.inf)])
    return np.concatenate([near, -near])


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -2.2250738585072014e-308,
            1.7976931348623157e308, -1.7976931348623157e308, np.nan, np.inf, -np.inf]


class TestCsvKernel:
    """``fileio._csv_kernel`` writes what ``%`` writes, value by value."""

    def test_exact_ties_round_half_to_even(self):
        x = _ties(5000)
        # x has E + 1 integer digits, and x 10^(16 - E) is an odd multiple of 1/2
        assert all((Fraction(v) * 10 ** (17 - len(str(int(v))))).denominator == 2
                   for v in x.tolist())
        block = np.concatenate([x, -x]).reshape(-1, 8)
        assert fileio._csv_kernel(block) == _percent(block)

    def test_powers_of_ten_and_their_neighbours(self):
        values = _powers_of_ten()
        for block in (values.reshape(-1, 6), values.reshape(1, -1), values.reshape(-1, 1)):
            assert fileio._csv_kernel(block) == _percent(block)

    @pytest.mark.parametrize("block", [np.array(_SPECIAL)[None], np.array(_SPECIAL)[:, None],
                                       np.array([[np.nan]]), np.zeros((3, 4)),
                                       np.full((2, 3), -9.9e-5), np.full((3, 2), 1e17)])
    def test_blocks_where_every_value_falls_back(self, block):
        assert fileio._csv_kernel(block) == _percent(block)

    def test_blocks_that_mix_both_paths(self):
        rng = _rng()
        values = np.concatenate([_SPECIAL, _EDGE_VALUES, _powers_of_ten(), _ties(20),
                                 rng.standard_normal(300)])
        for shape in [(1, -1), (-1, 1), (-1, values.size // 7)]:
            block = rng.permutation(values)[:values.size // 7 * 7].reshape(shape)
            assert fileio._csv_kernel(block) == _percent(block)

    def test_a_million_values_across_decades(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(1, 10, 10**6) * 10.0 ** rng.integers(-8, 20, 10**6)
        x *= rng.choice([-1.0, 1.0], 10**6)
        x[::7] = np.round(x[::7], 3)  # trailing zeros, and zeros
        for block in x.reshape(-1, 40, 50):
            assert fileio._csv_kernel(block) == _percent(block)

    @pytest.mark.parametrize("header", [None, ["a", "b"]])
    @pytest.mark.parametrize("size", [fileio._KERNEL_MIN_VALUES - 2, fileio._KERNEL_MIN_VALUES,
                                      2 * fileio._CSV_BLOCK_VALUES + 6])
    def test_save_matrix_on_both_sides_of_the_break_even(self, tmp_path, monkeypatch, size,
                                                         header):
        calls, kernel = [], fileio._csv_kernel

        def counted(block):
            calls.append(block.size)
            return kernel(block)

        monkeypatch.setattr(fileio, "_csv_kernel", counted)
        rng = _rng()
        M = rng.standard_normal((size // 2, 2)) * 10.0 ** rng.integers(-6, 19, (size // 2, 2))
        M[::17] = _SPECIAL[:2]
        ours = fileio.save_matrix(tmp_path / "ours.csv", M, header).read_bytes()
        np.savetxt(tmp_path / "ref.csv", M, fmt="%.17g", delimiter=",",
                   header=",".join(header) if header else "", comments="")
        assert ours == (tmp_path / "ref.csv").read_bytes()
        assert sum(calls) == (size if size >= fileio._KERNEL_MIN_VALUES else 0)
        assert max(calls, default=0) <= fileio._CSV_BLOCK_VALUES


def _pipeline_outputs(out, fmt, header, center, sidecars=True):
    """Every file that ``synth``, ``fit``, the three baselines and ``eval`` write, as
    bytes by path under ``out``; manifests without their time fields and ``out``.
    Without ``sidecars``, they are deleted after ``synth`` and not listed."""
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
        if not sidecars:
            for path in data.glob(".client_*.csv.f64"):
                path.unlink()
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
    # 26 files per pipeline, and three sidecars per CSV pipeline
    assert compared == 8 * 26 + 4 * 3 and differ == []


@pytest.mark.usefixtures("deadline")
@pytest.mark.parametrize("header, center", itertools.product((False, True), repeat=2))
def test_sidecars_change_no_output(tmp_path, header, center):
    # with sidecars no reader parses a client file; without them every reader does, and
    # every file and manifest is the same, serially and forked
    def refuse_client_parses(path, **kwargs):
        assert not Path(path).name.startswith("client_"), f"{path} was parsed"
        return load(path, **kwargs)

    def both(mode):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fileio, "load_matrix", refuse_client_parses)
            used = _pipeline_outputs(tmp_path / f"{mode}-used", "csv", header, center)
        return used, _pipeline_outputs(tmp_path / f"{mode}-deleted", "csv", header, center,
                                       sidecars=False)

    load = fileio.load_matrix
    for used, deleted in each_mode(both):
        sidecars = sorted(name for name in used if Path(name).name.startswith("."))
        assert sidecars == [f"data/.client_{i}.csv.f64" for i in range(3)]
        assert len(deleted) == 26
        assert {name: b for name, b in used.items() if name not in sidecars} == deleted
