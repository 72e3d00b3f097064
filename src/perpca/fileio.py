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

The tasks run in forked worker processes, one file per task, when that
can pay off: every file is CSV, there are at least two files, at least
two CPUs are usable, the ``fork`` start method exists, the process has a
single thread and is not a daemon, and the payload (float64 bytes
written, file bytes read) is at least ``_FORK_MIN_BYTES``. Otherwise, and
always for ``.mat64``, a serial loop runs the tasks one file at a time.
Both paths write the same bytes and give the same bits, and raise the
error the serial loop would have raised first. Workers inherit what they
need by fork and pickle only their results back.

Per-client work that stays in memory, such as drawing planted clients,
runs through :func:`map_clients` on threads of this process instead. It
reads the same count of usable CPUs as the fork path.
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
# Starting and joining a thread pool costs well under a millisecond; 1 MiB is
# about 7 ms of serial planted draws (2^17 values) on a 2.1 GHz Xeon core.
_THREAD_MIN_BYTES = 1 << 20


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


def _worker_count(paths, payload_bytes):
    """Forked workers for one file each of ``paths``; 0 means the serial loop."""
    if (len(paths) < 2 or any(_format_of(p) != "csv" for p in paths)
            or payload_bytes < _FORK_MIN_BYTES
            or "fork" not in multiprocessing.get_all_start_methods()
            # forking beside another thread can copy a lock that thread holds;
            # a daemonic process may not have children
            or threading.active_count() > 1 or multiprocessing.current_process().daemon):
        return 0
    workers = min(len(paths), _usable_cpus())
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
def _each_file(task, paths, payload_bytes):
    """Yield the results of ``task(i)`` for every file, in file order.

    Runs the serial loop, or forks workers when :func:`_worker_count` says
    so; worker ``w`` of ``W`` then takes files ``w, w + W, ...``. Workers
    inherit ``task`` and its data by fork, so nothing is pickled on the way
    in. On exit every worker is terminated and joined, whether the caller
    finished or raised.
    """
    workers = _worker_count(paths, payload_bytes)
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


def map_clients(task, count, payload_bytes):
    """``[task(i) for i in range(count)]``, on threads when that can pay off.

    Threads run when there are at least two tasks, at least two CPUs are
    usable and ``payload_bytes``, the float64 bytes the tasks make, is at
    least ``_THREAD_MIN_BYTES``; there are ``min(count, usable CPUs)`` of
    them. Otherwise the loop runs in this thread. The results come in task
    order, a task that raises is re-raised for the lowest index that
    raised, as the loop would raise it, and every thread is joined before
    this returns. A task gains only while it runs outside the interpreter
    lock, as numpy's random draws, BLAS and ufuncs on large arrays do.
    """
    # perfbench's tracer assumes one thread, so a task should call no function it
    # wraps (tracer.WRAPPED): its spans would interleave. bench._drive's task calls
    # model.covariance, which is wrapped; no workload traces bench.
    threads = min(count, _usable_cpus()) if payload_bytes >= _THREAD_MIN_BYTES else 1
    if threads < 2:
        return [task(i) for i in range(count)]
    # imported on first use: it loads logging (0.4 MB), which the file commands never need
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(threads) as pool:
        return list(pool.map(task, range(count)))


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
    with _each_file(save, paths, payload) as saved:
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
    with _each_file(task, paths, _file_bytes(paths)) as results:
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
