"""Dataset, component, trace, and manifest files.

Data files store observations as rows (n x d); the loader transposes to
the internal features-x-observations layout. CSV numbers carry 17
significant digits, which round-trips float64 exactly. The binary
``.mat64`` format is two little-endian uint64 (rows, cols) followed by
row-major little-endian float64 payload.

Each client file is one task: :func:`write_clients` draws a client's
dataset in the process that writes it, and :func:`read_clients` parses a
file, optionally centres it and reduces it in the process that read it.
Only the task's result reaches the caller. Per file, ``perpca fit`` and
``baseline`` receive the sha256 of the parsed bytes, the dataset's shape
and its covariance; ``perpca eval`` receives the shape and the
reconstruction error; ``synth`` receives nothing. ``eval`` loads
and checks the components before it reads any data file, so when both
are bad the component error is the one raised.

When every file is CSV, the tasks run through :func:`parallel.ordered`
with the ``"fork"`` backend: in forked worker processes, one file per
task, when its gate lets them (the payload is the float64 bytes written
or the file bytes read). Otherwise, and always for ``.mat64``, a serial
loop runs the tasks one file at a time. Both paths write the same bytes
and give the same bits, and raise the error the serial loop would have
raised first.
"""

import hashlib
import io
import json
import os
import re
import time
import warnings
from pathlib import Path

import numpy as np

from . import parallel
from .errors import DimensionError
from .solver import RoundTrace

MANIFEST_VERSION = 1
_FMT = "%.17g"
# rows per ``%`` call of the CSV writer: one call per matrix is no faster,
# and its temporaries cost more memory than the file's own values
_CSV_BLOCK_ROWS = 64


def save_matrix(path, M, header=None):
    """Write a matrix file in the format its suffix selects, as :func:`load_matrix` reads it.

    CSV bytes equal those of ``np.savetxt(path, M, fmt="%.17g", delimiter=",",
    header=..., comments="")``, formatted one block of rows per ``%`` call.
    """
    path = Path(path)
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if _format_of(path) == "csv":
        row = ",".join([_FMT] * M.shape[1]) + "\n"
        head = ",".join(header) if header else ""
        with open(path, "w") as fh:  # as np.savetxt opens it
            if head:
                fh.write(head + "\n")
            for start in range(0, M.shape[0], _CSV_BLOCK_ROWS):
                block = M[start:start + _CSV_BLOCK_ROWS]
                fh.write(row * block.shape[0] % tuple(block.ravel().tolist()))
    else:
        with open(path, "wb") as fh:
            fh.write(np.array(M.shape, dtype="<u8").tobytes())
            fh.write(np.ascontiguousarray(M, dtype="<f8").tobytes())
    return path


def load_matrix(path, header=False, raw=None):
    """Read a matrix file; a ValueError names the file when it is malformed.

    The format follows the suffix: ``.mat64`` is binary, anything else CSV.
    A ``.mat64`` payload must hold exactly the rows x cols values its header
    announces; in either format there must be at least one value, and every
    value must be finite. ``raw`` is the file's bytes when the caller has
    read them already; they are parsed instead of reading ``path`` again.
    """
    path = Path(path)
    if raw is None:
        raw = path.read_bytes()
    if _format_of(path) == "csv":
        try:
            with warnings.catch_warnings():  # an empty file raises below instead
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                # decoded as open(path) would decode the file
                M = np.loadtxt(io.TextIOWrapper(io.BytesIO(raw)), delimiter=",",
                               skiprows=1 if header else 0, ndmin=2)
        except ValueError as exc:  # UnicodeDecodeError included
            raise ValueError(f"{path}: {exc}") from exc
    else:
        if len(raw) < 16:
            raise ValueError(f"{path}: {len(raw)} bytes, shorter than the 16-byte header")
        rows, cols = (int(n) for n in np.frombuffer(raw[:16], dtype="<u8"))
        if len(raw) - 16 != 8 * rows * cols:
            raise ValueError(f"{path}: header announces {rows} x {cols} values "
                             f"({8 * rows * cols} bytes), payload has {len(raw) - 16} bytes")
        if len(raw) == 16:  # checked before reshape, which overflows on a huge empty axis
            raise ValueError(f"{path}: header announces {rows} x {cols}, no values")
        M = np.frombuffer(raw, dtype="<f8", offset=16).reshape(rows, cols).copy()
    if M.size == 0:
        raise ValueError(f"{path}: no values")
    if not np.isfinite(M).all():
        row, col = np.argwhere(~np.isfinite(M))[0]
        raise ValueError(f"{path}: non-finite value {M[row, col]} in row {row}, column {col}")
    return M


def _ext(fmt):
    return "csv" if fmt == "csv" else "mat64"


def _format_of(path):
    return "bin" if Path(path).suffix == ".mat64" else "csv"


def _fork_if_csv(paths):  # CSV text holds the interpreter lock, so threads would not help
    return "fork" if all(_format_of(p) == "csv" for p in paths) else None


def write_clients(out_dir, draw, shapes, fmt="csv", header=False):
    """Write ``draw(i)``, client i's ``(d, n_i)`` dataset of ``shapes[i]``, as an
    observations-as-rows file per client; returns the paths.

    Each dataset is drawn in the process that writes it, one client at a
    time, so the caller never holds more than one.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / f"client_{i}.{_ext(fmt)}" for i in range(len(shapes))]

    def save(i):
        Y = draw(i)
        cols = [f"x{j}" for j in range(Y.shape[0])] if header and fmt == "csv" else None
        save_matrix(paths[i], Y.T, cols)

    payload = 8 * sum(d * n for d, n in shapes)
    with parallel.ordered(save, paths, payload, _fork_if_csv(paths)) as saved:
        for _ in saved:
            pass
    return paths


def _client_sequence(directory, stem):
    """The one client-file rule: the ``<stem><i>.csv`` or ``.mat64`` files of ``directory``,
    one per client i = 0, 1, ...; a second file for a client, or a gap, is a ValueError."""
    pattern = re.compile(re.escape(stem) + r"(\d+)\.(csv|mat64)$")
    found = sorted((int(m.group(1)), p) for p in Path(directory).iterdir()
                   if (m := pattern.match(p.name)))
    for i, (index, path) in enumerate(found):
        if index != i:
            raise ValueError(f"{path}: " + (f"a second file for client {index}" if index < i
                                            else f"no {stem}{i} file before it"))
    return [path for _, path in found]


def resolve_data_paths(sources):
    """Expand directories into their ``client_<i>`` files by :func:`_client_sequence`."""
    paths = []
    for src in map(Path, sources):
        found = _client_sequence(src, "client_") if src.is_dir() else [src]
        if not found:
            raise FileNotFoundError(f"no client_<i> data files in {src}")
        paths.extend(found)
    return paths


def _file_bytes(paths):
    try:
        return sum(os.path.getsize(p) for p in paths)
    except OSError:  # the serial loop raises it in file order
        return 0


def read_clients(paths, reduce, header=False, center=False, digest=False):
    """``(digest, shape, reduce(i, Y))`` of each client file, in file order.

    ``Y`` is file i's ``(d, n_i)`` dataset, mean-centred when ``center``, and
    ``shape`` is its shape. ``digest`` asks for the sha256 of the bytes that
    were parsed; otherwise the first entry is None. Each file is read once,
    and parsed and reduced in the process that read it. A file whose
    feature count differs from the first file's raises DimensionError.
    """
    paths = list(paths)

    def task(i):
        raw = Path(paths[i]).read_bytes()
        sha = hashlib.sha256(raw).hexdigest() if digest else None
        Y = load_matrix(paths[i], header=header, raw=raw).T
        del raw  # not held while reducing
        if center:
            Y = Y - Y.mean(axis=1, keepdims=True)
        return sha, Y.shape, reduce(i, Y)

    replies = []
    with parallel.ordered(task, paths, _file_bytes(paths), _fork_if_csv(paths)) as results:
        for path, reply in zip(paths, results):
            d = reply[1][0]
            if replies and d != replies[0][1][0]:
                raise DimensionError(f"{path}: {d} features, earlier files have {replies[0][1][0]}")
            replies.append(reply)
    return replies


def save_components(out_dir, U=None, V=None, fmt="csv", prefix=""):
    """Write shared/local frames as ``<prefix>U`` and ``<prefix>V_<i>`` files."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    if U is not None:
        paths.append(save_matrix(out_dir / f"{prefix}U.{_ext(fmt)}", U))
    for i, Vi in enumerate(V or []):
        paths.append(save_matrix(out_dir / f"{prefix}V_{i}.{_ext(fmt)}", Vi))
    return paths


def load_components(comp_dir, prefix=""):
    """Read ``<prefix>U`` and ``<prefix>V_<i>`` files; either may be absent.

    There must be at most one file for the shared frame, and the ``V_<i>`` files follow
    :func:`_client_sequence`; either defect raises a ValueError naming the file.
    """
    comp_dir = Path(comp_dir)
    shared = [path for ext in ("csv", "mat64") if (path := comp_dir / f"{prefix}U.{ext}").exists()]
    if len(shared) > 1:
        raise ValueError(f"{shared[1]}: a second file for the shared frame")
    U = load_matrix(shared[0]) if shared else None
    return U, [load_matrix(path) for path in _client_sequence(comp_dir, f"{prefix}V_")]


def save_trace(path, trace):
    """Trace CSV with one row per round; subspace_error column only when known."""
    fields = list(RoundTrace._fields)
    if not trace or trace[0].subspace_error is None:
        fields = fields[:-1]
    lines = [",".join(fields)]
    for rec in trace:
        vals = [getattr(rec, f) for f in fields]
        lines.append(",".join(_FMT % v if isinstance(v, float) else str(v) for v in vals))
    Path(path).write_text("\n".join(lines) + "\n")
    return Path(path)


def file_digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_manifest(out_dir, command, flags, inputs=None, outputs=(), metrics=None,
                   wall_time_s=None):
    """One manifest per command run; returns the manifest path.

    ``inputs`` maps each input file to the sha256 of the bytes the command
    read from it (see :func:`read_clients`).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "version": MANIFEST_VERSION,
        "command": command,
        "flags": flags,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "input_digests": {str(p): digest for p, digest in (inputs or {}).items()},
        "outputs": [str(p) for p in outputs],
        "metrics": metrics or {},
        "wall_time_s": wall_time_s,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return path
