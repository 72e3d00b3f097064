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
reconstruction error; :func:`load_datasets` (the identity reduction)
receives the dataset itself; ``synth`` receives nothing. ``eval`` loads
and checks the components before it reads any data file, so when both
are bad the component error is the one raised.

The tasks run in forked worker processes, one file per task, when that
can pay off: every file is CSV, there are at least two files, at least
two CPUs are usable, the ``fork`` start method exists, the process has a
single thread and is not a daemon, and the payload (float64 bytes
written, file bytes read) is at least ``_FORK_MIN_BYTES``. Otherwise, and
always for ``.mat64``, a serial loop runs the tasks one file at a time.
Both paths write the same bytes and give the same bits, and raise the
error the serial loop would have raised first. Workers inherit what they
need by fork and pickle only their results back.
"""

import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import re
import threading
import time
import warnings
from pathlib import Path

import numpy as np

from .errors import DimensionError
from .solver import RoundTrace

MANIFEST_VERSION = 1
_FMT = "%.17g"
# rows per ``%`` call of the CSV writer: one call per matrix is no faster,
# and its temporaries cost more memory than the file's own values
_CSV_BLOCK_ROWS = 64

# Forking and joining two workers costs 6-9 ms on a 2-vCPU host; 2 MiB is
# about 0.13 s of serial CSV writing (2^18 values) or 50 ms of parsing.
_FORK_MIN_BYTES = 2 << 20


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


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        return os.cpu_count() or 1


def _worker_count(fmts, payload_bytes):
    """Forked workers for one file each of ``fmts``; 0 means the serial loop."""
    if (len(fmts) < 2 or any(f != "csv" for f in fmts)
            or payload_bytes < _FORK_MIN_BYTES
            or "fork" not in multiprocessing.get_all_start_methods()
            # forking beside another thread can copy a lock that thread holds;
            # a daemonic process may not have children
            or threading.active_count() > 1 or multiprocessing.current_process().daemon):
        return 0
    workers = min(len(fmts), _usable_cpus())
    return workers if workers > 1 else 0


def _serve(conn, task, indices):
    """Worker body: ``task(i)`` for each index, one reply each, in order.

    A reply is ``(True, result)`` for a task that returned and ``(False,
    exception)`` for one that raised; the worker stops after the first
    exception.
    """
    for i in indices:
        try:
            conn.send((True, task(i)))
        except Exception as exc:
            conn.send((False, exc))
            return


def _reply(conn, path):
    """A worker's result for ``path``.

    Re-raises the worker's exception; a worker that exited without
    replying raises RuntimeError naming ``path``.
    """
    try:
        ok, value = conn.recv()
    except EOFError:
        raise RuntimeError(f"{path}: worker process exited without replying") from None
    if not ok:
        raise value
    return value


@contextlib.contextmanager
def _each_file(task, paths, fmts, payload_bytes):
    """Yield the results of ``task(i)`` for every file, in file order.

    Runs the serial loop, or forks workers when :func:`_worker_count` says
    so; worker ``w`` of ``W`` then takes files ``w, w + W, ...``. Workers
    inherit ``task`` and its data by fork, so nothing is pickled on the way
    in. On exit every worker is terminated and joined, whether the caller
    finished or raised.
    """
    workers = _worker_count(fmts, payload_bytes)
    if not workers:
        yield (task(i) for i in range(len(paths)))
        return
    ctx = multiprocessing.get_context("fork")
    procs, conns = [], []
    try:
        for w in range(workers):
            recv_end, send_end = ctx.Pipe(duplex=False)
            conns.append(recv_end)
            proc = ctx.Process(target=_serve, args=(send_end, task, range(w, len(paths), workers)))
            proc.start()
            procs.append(proc)
            # with the worker's copy the only one open, its exit reads as EOF
            send_end.close()
        yield (_reply(conns[i % workers], path) for i, path in enumerate(paths))
    finally:
        for proc in procs:  # a worker that sent its last reply has nothing left to do
            proc.terminate()
        for proc in procs:
            proc.join()
        for conn in conns:
            conn.close()


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
    with _each_file(save, paths, [fmt] * len(paths), payload) as saved:
        for _ in saved:
            pass
    return paths


def save_datasets(out_dir, datasets, fmt="csv", header=False):
    """Write one observations-as-rows file per client; returns the paths."""
    return write_clients(out_dir, datasets.__getitem__, [np.shape(Y) for Y in datasets],
                         fmt, header)


_CLIENT_FILE = re.compile(r"client_(\d+)\.(csv|mat64)$")


def resolve_data_paths(sources):
    """Expand directories into their client files, sorted by client index."""
    paths = []
    for src in sources:
        src = Path(src)
        if src.is_dir():
            found = [(int(m.group(1)), p) for p in src.iterdir()
                     if (m := _CLIENT_FILE.match(p.name))]
            if not found:
                raise FileNotFoundError(f"no client_<i> data files in {src}")
            paths.extend(p for _, p in sorted(found))
        else:
            paths.append(src)
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
    fmts = [_format_of(p) for p in paths]
    with _each_file(task, paths, fmts, _file_bytes(paths)) as results:
        for path, reply in zip(paths, results):
            d = reply[1][0]
            if replies and d != replies[0][1][0]:
                raise DimensionError(f"{path}: {d} features, earlier files have {replies[0][1][0]}")
            replies.append(reply)
    return replies


def load_datasets(paths, header=False, center=False):
    """Load client data files into (d, n_i) arrays, optionally mean-centering."""
    return [Y for _, _, Y in read_clients(paths, lambda i, Y: Y, header, center)]


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

    There must be at most one file per frame and the ``V_<i>`` files must be
    one per client ``i = 0, 1, ...``: a second file for one frame, or a gap,
    raises a ValueError naming the first such file.
    """
    comp_dir = Path(comp_dir)
    shared = [path for ext in ("csv", "mat64") if (path := comp_dir / f"{prefix}U.{ext}").exists()]
    if len(shared) > 1:
        raise ValueError(f"{shared[1]}: a second file for the shared frame")
    U = load_matrix(shared[0]) if shared else None
    pattern = re.compile(re.escape(prefix) + r"V_(\d+)\.(csv|mat64)$")
    found = sorted((int(m.group(1)), p) for p in comp_dir.iterdir()
                   if (m := pattern.match(p.name)))
    for i, (index, path) in enumerate(found):
        if index != i:
            raise ValueError(f"{path}: " + (f"a second file for client {index}" if index < i
                                            else f"no {prefix}V_{i} file before it"))
    return U, [load_matrix(path) for _, path in found]


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
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
