"""Every file the package writes, and the dataset and component files it reads.

Data files store observations as rows (n x d); the loader transposes to
the internal features-x-observations layout. CSV numbers carry 17
significant digits, which round-trips float64 exactly. The binary
``.mat64`` format is two little-endian uint64 (rows, cols) followed by
row-major little-endian float64 payload.

Each client file is one task: :func:`write_clients` draws a client's
dataset in the process that writes it, and :func:`read_clients` loads a
file, optionally centres it and reduces it in the process that read it.
Only the task's result reaches the caller. Per file, ``perpca fit`` and
``baseline`` receive the sha256 of the file's bytes, the dataset's shape
and its covariance; ``perpca eval`` receives the shape and the
reconstruction error; ``synth`` receives nothing. ``fit`` and ``eval``
load and check the components and truth before they read any data file,
so when both are bad the component error is the one raised.

Beside each CSV client file, the task that writes it also writes a hidden
binary sidecar, ``.client_<i>.csv.f64``, from the float64 array it just
formatted: an 8-byte magic, the sha256 of the CSV bytes on disk, the
header flag (little-endian uint64), the sha256 of the payload, and the
payload in the ``.mat64`` layout. It is written under a temporary name and
then renamed into place, and costs 8 bytes per value, about 41 % of a
``%.17g`` CSV. :func:`read_clients` takes a CSV file's matrix from its
sidecar only when every recorded field verifies: the CSV digest, the
header flag, the payload size and digest, and the checks
:func:`load_matrix` applies (at least one value, all finite). Otherwise it
parses the CSV, so a missing, stale, truncated or corrupt sidecar changes
no result and raises nothing. Both give the same bits, because ``%.17g``
round-trips every finite float64 and the parser rounds correctly. Readers
never write a sidecar; ``.mat64`` files, components and truths have none.

When every file is CSV, the tasks run through :func:`parallel.ordered`
with the ``"fork"`` backend: in forked worker processes, one file per
task, when its gate lets them (the payload is the float64 bytes written
or the CSV bytes read). Otherwise, and always for ``.mat64``, a serial
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
# a client CSV's sidecar: magic (8 bytes), CSV sha256 (32), header flag (8), payload
# sha256 (32), then the payload as in a .mat64 file: rows and cols (16), the values
_SIDECAR_MAGIC = b"perpca\x00\x01"
_SIDECAR_HEAD = 96


def save_matrix(path, M, header=None):
    """Write a matrix file in the format its suffix selects, as :func:`load_matrix` reads it.

    CSV bytes equal those of ``np.savetxt(path, M, fmt="%.17g", delimiter=",",
    header=..., comments="")``, formatted one block of rows per ``%`` call.
    """
    path = _created(path)
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


def _created(path):
    """``path`` as a Path, after its directory is made: each writer opens its file here."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


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
    time, so the caller never holds more than one. A CSV file gets its
    sidecar from the same task; the returned paths do not include it.
    """
    paths = [Path(out_dir) / f"client_{i}.{_ext(fmt)}" for i in range(len(shapes))]

    def save(i):
        Y = draw(i)
        cols = [f"x{j}" for j in range(Y.shape[0])] if header and fmt == "csv" else None
        save_matrix(paths[i], Y.T, cols)
        if fmt == "csv":
            _save_sidecar(paths[i], Y.T, header)

    payload = 8 * sum(d * n for d, n in shapes)
    with parallel.ordered(save, paths, payload, _fork_if_csv(paths)) as saved:
        for _ in saved:
            pass
    return paths


def _sidecar(path):
    """The hidden binary sidecar of client CSV ``path``, beside it."""
    path = Path(path)
    return path.with_name(f".{path.name}.f64")


def _sha256(path):
    """The sha256 of the file's bytes, read in blocks so they are never all held."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 18):
            digest.update(block)
    return digest.digest()


def _header_flag(header):
    return np.array([bool(header)], dtype="<u8").tobytes()


def _save_sidecar(path, M, header):
    """Write the sidecar of CSV ``path`` from ``M``, the matrix just written there."""
    shape = np.array(M.shape, dtype="<u8").tobytes()
    values = np.ascontiguousarray(M, dtype="<f8")
    payload = hashlib.sha256(shape)
    payload.update(values)
    side = _sidecar(path)
    partial = side.with_name(side.name + ".tmp")
    with open(partial, "wb") as fh:
        fh.write(_SIDECAR_MAGIC + _sha256(path) + _header_flag(header) + payload.digest() + shape)
        fh.write(values)
    os.replace(partial, side)


def _from_sidecar(path, header):
    """``(sha256 of path's bytes, matrix)`` from the sidecar of CSV ``path`` when every
    field it records verifies (see the module docstring), else None; never raises."""
    try:
        with open(_sidecar(path), "rb") as fh:
            head = fh.read(_SIDECAR_HEAD)
            size = os.fstat(fh.fileno()).st_size
            if (len(head) < _SIDECAR_HEAD or head[:8] != _SIDECAR_MAGIC
                    or head[40:48] != _header_flag(header)):
                return None
            rows, cols = (int(n) for n in np.frombuffer(head[-16:], dtype="<u8"))
            if rows * cols == 0 or size != _SIDECAR_HEAD + 8 * rows * cols:
                return None
            M = np.empty((rows, cols))
            if fh.readinto(memoryview(M).cast("B")) != M.nbytes:
                return None
        payload = hashlib.sha256(head[-16:])
        payload.update(M)
        if payload.digest() != head[48:80] or not np.isfinite(M).all():
            return None
        digest = _sha256(path)
    except OSError:
        return None
    return (digest.hex(), M) if digest == head[8:40] else None


def _load_client(path, header, digest):
    """``(sha256 of the file's bytes or None, its matrix)``: from a CSV file's sidecar
    when it verifies, else parsed by :func:`load_matrix`. ``digest`` asks for the
    sha256; a sidecar's check computes it anyway."""
    found = _from_sidecar(path, header) if _format_of(path) == "csv" else None
    if found:
        return (found[0] if digest else None), found[1]
    raw = Path(path).read_bytes()
    sha = hashlib.sha256(raw).hexdigest() if digest else None
    return sha, load_matrix(path, header=header, raw=raw)


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
    ``shape`` is its shape. ``digest`` asks for the sha256 of the file's
    bytes; otherwise the first entry is None. Each file's matrix comes from
    its verified sidecar or from one read and parse, in the process that
    reduces it (:func:`_load_client`). A file whose feature count differs
    from the first file's raises DimensionError.
    """
    paths = list(paths)

    def task(i):
        sha, M = _load_client(paths[i], header, digest)
        Y = M.T
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
    named = [("U", U)] if U is not None else []
    named += [(f"V_{i}", Vi) for i, Vi in enumerate(V or [])]
    return [save_matrix(Path(out_dir) / f"{prefix}{name}.{_ext(fmt)}", F) for name, F in named]


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


def save_table(path, columns, rows, fmt=_FMT):
    """The one CSV table writer: a header of ``columns``, then one line per mapping of
    ``rows``. A float cell is written in ``fmt``, a missing one empty, any other ``str``."""
    lines = [",".join(columns)]
    for row in rows:
        cells = (row.get(column, "") for column in columns)
        lines.append(",".join(fmt % v if isinstance(v, float) else str(v) for v in cells))
    path = _created(path)
    path.write_text("\n".join(lines) + "\n")
    return path


def save_trace(path, trace):
    """Trace CSV with one row per round; subspace_error column only when known."""
    fields = list(RoundTrace._fields)
    if not trace or trace[0].subspace_error is None:
        fields = fields[:-1]
    return save_table(path, fields, [rec._asdict() for rec in trace])


def save_json(path, payload):
    """The one JSON writer: ``payload`` with sorted keys and a two-space indent, at ``path``
    if given; returns the text. A NaN or infinity raises ValueError, as strict JSON has none."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path:
        _created(path).write_text(text)
    return text


def file_digest(path):
    return _sha256(path).hex()


def write_manifest(out_dir, command, flags, inputs=None, outputs=(), metrics=None,
                   wall_time_s=None):
    """One manifest per command run; returns the manifest path.

    ``inputs`` maps each input file to the sha256 of the bytes the command
    read from it (see :func:`read_clients`).
    """
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
    path = Path(out_dir) / "manifest.json"
    save_json(path, payload)
    return path
