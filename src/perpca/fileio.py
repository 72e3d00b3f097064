"""Every file the package writes, and the dataset and component files it reads.

Data files store observations as rows (n x d); the loader transposes to
the internal features-x-observations layout. CSV numbers carry 17
significant digits, which round-trips float64 exactly. The binary
``.mat64`` format is two little-endian uint64 (rows, cols) followed by
row-major little-endian float64 payload.

CSV bytes are those of ``np.savetxt(fmt="%.17g", delimiter=",")``. A matrix
of fewer than 330 values, the measured break-even, is formatted by one
``%`` call. A larger one goes through a numpy kernel, 16384 values at a
time, in about a third of the time ``%`` takes (one 5000 x 50 client: 37
ms against 105 ms on a 2-vCPU Xeon host). The kernel writes a value x
with 1e-4 <= |x| < 1e17 (decimal exponent E in [-4, 16], fixed point)
from the exact integer N = round-half-even(|x| 10^(16-E)), formed from a
Dekker product of the exact factors |x| 2^(16-E) and 5^(16-E). It hands
every other value to ``%``: +-0, |x| < 1e-4, |x| >= 1e17, nan, +-inf, and
any value whose E does not settle, which none does.

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
formatted: an 8-byte magic, the sha256 of the CSV bytes, hashed as they
were written, the header flag (little-endian uint64), the sha256 of the
payload, and the payload in the ``.mat64`` layout. It is written under a
temporary name and then renamed into place, and costs 8 bytes per value,
about 41 % of a ``%.17g`` CSV. :func:`read_clients` takes a CSV file's
matrix from its sidecar only when every recorded field verifies: the CSV
digest, the header flag, the payload size and digest, and the checks
:func:`load_matrix` applies (at least one value, all finite). Otherwise it
parses the CSV, so a missing, stale, truncated or corrupt sidecar changes
no result and raises nothing. Both give the same bits, because ``%.17g``
round-trips every finite float64 and the parser rounds correctly. Readers
never write a sidecar; ``.mat64`` files, components and truths have none.

When every file is CSV, the tasks run through :func:`parallel.ordered`
with the ``"fork"`` backend: in forked worker processes, one file per
task, when its gate lets them. The payload is the float64 bytes written,
or the CSV bytes read, a file with a sidecar beside it counted at an
eighth of its bytes, as such a read costs about an eighth of a parse.
Otherwise, and always for ``.mat64``, a serial loop runs the tasks one
file at a time. Both paths write the same bytes
and give the same bits, and raise the error the serial loop would have
raised first.
"""

import functools
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
# CSV text (:func:`_csv_blocks`). A matrix of fewer than _KERNEL_MIN_VALUES values is
# one ``%`` call: there, the kernel's fixed cost of about 0.1 ms outweighs its lower cost
# per value (medians of 9 interleaved runs on a 2-vCPU Xeon host: 250 values took 103 us
# by ``%`` and 131 us by the kernel, 350 values 145 and 136 us, 1000 values 411 and 202 us)
_KERNEL_MIN_VALUES = 330
# the kernel formats whole rows of about _CSV_BLOCK_VALUES values at a time, so its
# temporaries stay near 4 MB; each value takes a _CSV_WIDTH-byte row there, room for the
# longest ``%.17g`` text of a float64 (24 bytes) and its separator
_CSV_BLOCK_VALUES = 1 << 14
_CSV_WIDTH = 25
_SPLIT = 2.0**27 + 1  # Veltkamp's constant: splits a float64 into two 26-bit halves
# a client CSV's sidecar: magic (8 bytes), CSV sha256 (32), header flag (8), payload
# sha256 (32), then the payload as in a .mat64 file: rows and cols (16), the values
_SIDECAR_MAGIC = b"perpca\x00\x01"
_SIDECAR_HEAD = 96
# reading a CSV file from its verified sidecar costs about 1.5 ms per MiB of CSV, an
# eighth of the 13 ms per MiB of a parse (2-vCPU Xeon host)
_SIDECAR_READ_SHARE = 8


def save_matrix(path, M, header=None):
    """Write a matrix file in the format its suffix selects, as :func:`load_matrix` reads it.

    CSV bytes equal those of ``np.savetxt(path, M, fmt="%.17g", delimiter=",",
    header=..., comments="")`` (see :func:`_csv_blocks`).
    """
    path = _created(path)
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if _format_of(path) == "csv":
        _write_csv(path, M, header)
    else:
        with open(path, "wb") as fh:
            fh.write(np.array(M.shape, dtype="<u8").tobytes())
            fh.write(np.ascontiguousarray(M, dtype="<f8").tobytes())
    return path


def _write_csv(path, M, header):
    """Write 2-D float ``M`` as CSV at ``path``; returns the sha256 of the bytes written."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for block in _csv_blocks(M, header):
            digest.update(block)
            fh.write(block)
    return digest.digest()


def _csv_blocks(M, header):
    """The CSV bytes of 2-D float ``M`` in blocks: the header line when ``header`` joins
    to a non-empty line, then every row, each value in ``%.17g``. A matrix of fewer than
    ``_KERNEL_MIN_VALUES`` values is one ``%`` call; a larger one is formatted by
    :func:`_csv_kernel`, whole rows of about ``_CSV_BLOCK_VALUES`` values at a time."""
    head = ",".join(header or ())
    if head:
        yield (head + "\n").encode()
    rows, cols = M.shape
    if M.size < _KERNEL_MIN_VALUES:
        yield ((",".join([_FMT] * cols) + "\n") * rows % tuple(M.ravel().tolist())).encode()
        return
    step = max(1, _CSV_BLOCK_VALUES // cols)
    for start in range(0, rows, step):
        yield _csv_kernel(M[start:start + step])


@functools.cache
def _powers():
    """``(2^k, 5^k, 5^k's high and low 26-bit halves)`` for k in [0, 20], as float64 arrays:
    exact, as 5^k is up to k = 22, and split by Veltkamp's constant for Dekker's product.
    Built on first use, as is :func:`_digit_table`, so that a process that formats no
    large CSV matrix spends no memory on them."""
    pow5 = 5.0 ** np.arange(21)
    high = pow5 * _SPLIT - (pow5 * _SPLIT - pow5)
    return 2.0 ** np.arange(21), pow5, high, pow5 - high


@functools.cache
def _digit_table():
    """The four ASCII digits of 0..9999 as little-endian uint32; from index 10000 on, the
    same with trailing zeros as NUL, and 0 as four NULs."""
    four = np.arange(10000)[:, None] // 10 ** np.arange(3, -1, -1) % 10 + ord("0")
    four = four.astype(np.uint8)
    trailing = np.cumprod(four[:, ::-1] == ord("0"), axis=1)[:, ::-1] > 0
    return np.concatenate([four, four * ~trailing]).view("<u4").ravel()


def _rounded(a, k):
    """round-half-even(a 10^k) as int64 for positive ``a`` and k in [0, 20]: exact when
    a 10^k is at least 2^53, and below 10^16 whenever a 10^k is below 2^53."""
    pow2, pow5, pow5_hi, pow5_lo = _powers()
    s = a * pow2[k]  # exact, as is 5^k
    hi = s * pow5[k]
    c = s * _SPLIT
    s_hi = c - (c - s)
    s_lo = s - s_hi
    p_hi, p_lo = pow5_hi[k], pow5_lo[k]
    # Dekker's product: hi + lo = s 5^k exactly
    lo = ((s_hi * p_hi - hi) + s_hi * p_lo + s_lo * p_hi) + s_lo * p_lo
    # from 2^53 on hi is an even integer, so rounding lo half to even rounds hi + lo so;
    # below, hi is at most 2^53 and |lo| at most 1/2
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _significands(a):
    """``(N, E)`` for values ``a`` in [1e-4, 1e17): E is the decimal exponent of ``a``
    rounded to 17 significant digits, in [-4, 16], and N = round-half-even(a 10^(16-E))
    is those digits as an int64 in [10^16, 10^17). An N outside that range marks a value
    whose E did not settle, which no float64 in [1e-4, 1e17) does."""
    E = np.clip(np.floor(np.log10(a)).astype(np.int64), -4, 16)
    N = _rounded(a, 16 - E)
    for _ in range(2):  # log10 may miss by one, and rounding up may add one
        low, high = N < 10**16, N >= 10**17
        redo = np.flatnonzero(low | high)
        if not redo.size:
            break
        E[redo] = np.clip(E[redo] + high[redo] - low[redo], -4, 16)
        N[redo] = _rounded(a[redo], 16 - E[redo])
    return N, E


def _ascii_digits(N):
    """The 17 ASCII digits of each of ``N`` in [10^16, 10^17), trailing zeros as NUL."""
    top = N // 10**8  # the first nine digits, then the last eight
    first = top // 10**8
    groups = []
    for eight in (top - first * 10**8, N - top * 10**8):
        high = eight // 10**4
        groups += [high, eight - high * 10**4]
    words = np.empty((N.size, 5), dtype="<u4")
    words[:, 0] = (first + ord("0")) << 24  # the first digit is the word's last byte
    table = _digit_table()
    stripped = np.ones(N.size, dtype=bool)  # every group to the right is zero
    for j in (3, 2, 1, 0):
        words[:, j + 1] = table[groups[j] + 10000 * stripped]
        stripped &= groups[j] == 0
    return words.view(np.uint8)[:, 3:]


def _lay_out(text, digits, negative, E):
    """Write into ``text``'s rows the ``%.17g`` text of values of sign ``negative`` and
    exponent E in [-4, 16] from their :func:`_ascii_digits`, NUL after it."""
    if negative:
        text[:, 0] = ord("-")
        text = text[:, 1:]
    if E < 0:  # "0.", -E - 1 zeros, then the significant digits
        text[:, :1 - E] = np.frombuffer(b"0.000"[:1 - E], dtype=np.uint8)
        text[:, 1 - E:18 - E] = digits
    else:  # E + 1 integer digits, zeros kept, then the point when a digit follows it
        np.maximum(digits[:, :E + 1], ord("0"), out=text[:, :E + 1])
        if E < 16:
            text[:, E + 1] = (digits[:, E + 1] != 0) * np.uint8(ord("."))
            text[:, E + 2:18] = digits[:, E + 1:]


def _csv_kernel(block):
    """The ``%.17g`` CSV bytes of ``block``'s rows, byte for byte those of ``%``.

    A value x with 1e-4 <= |x| < 1e17 prints in fixed point with an exponent E in
    [-4, 16]; its text is laid out from N, its 17 significant digits, which
    :func:`_significands` forms exactly. Each value takes a ``_CSV_WIDTH``-byte row,
    NUL after its text and its separator in the last byte, and the NULs are then
    deleted. Every other value (+-0, |x| < 1e-4, |x| >= 1e17, nan, +-inf) is
    formatted by ``%``, so no digit is printed that was not computed exactly.
    """
    x = block.ravel()
    a = np.abs(x)
    fast = np.flatnonzero((a >= 1e-4) & (a < 1e17))  # nan compares False
    N, E = _significands(a[fast])
    settled = (N >= 10**16) & (N < 10**17)
    if not settled.all():
        fast, N, E = fast[settled], N[settled], E[settled]
    # sorted by (sign, E), each group of rows shares one layout
    key = (E + 4 + 21 * np.signbit(x[fast])).astype(np.uint8)
    order = np.argsort(key, kind="stable")
    first = np.concatenate(([0], np.cumsum(np.bincount(key, minlength=42))))
    digits = _ascii_digits(N[order])
    text = np.zeros((fast.size, _CSV_WIDTH), dtype=np.uint8)
    for g in np.flatnonzero(np.diff(first)):
        rows = slice(first[g], first[g + 1])
        negative, E = divmod(int(g), 21)
        _lay_out(text[rows], digits[rows], negative, E - 4)
    out = np.zeros((x.size, _CSV_WIDTH), dtype=np.uint8)
    out.view(f"V{_CSV_WIDTH}").ravel()[fast[order]] = text.view(f"V{_CSV_WIDTH}").ravel()
    rest = np.ones(x.size, dtype=bool)
    rest[fast] = False
    rest = np.flatnonzero(rest)
    if rest.size:
        strings = np.array([_FMT % v for v in x[rest].tolist()], dtype=f"S{_CSV_WIDTH}")
        out[rest] = strings.view(np.uint8).reshape(-1, _CSV_WIDTH)
    out[:, -1] = ord(",")
    out[block.shape[1] - 1::block.shape[1], -1] = ord("\n")
    return out.tobytes().translate(None, b"\0")


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
        if fmt == "csv":
            cols = [f"x{j}" for j in range(Y.shape[0])] if header else None
            _save_sidecar(paths[i], Y.T, header, _write_csv(_created(paths[i]), Y.T, cols))
        else:
            save_matrix(paths[i], Y.T)

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


def _save_sidecar(path, M, header, csv_digest):
    """Write the sidecar of CSV ``path`` from ``M``, the matrix just written there, and
    ``csv_digest``, the sha256 of the bytes written."""
    shape = np.array(M.shape, dtype="<u8").tobytes()
    values = np.ascontiguousarray(M, dtype="<f8")
    payload = hashlib.sha256(shape)
    payload.update(values)
    side = _sidecar(path)
    partial = side.with_name(side.name + ".tmp")
    with open(partial, "wb") as fh:
        fh.write(_SIDECAR_MAGIC + csv_digest + _header_flag(header) + payload.digest() + shape)
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


def _read_payload(paths):
    """The payload that gates :func:`read_clients`: each file's bytes, and a CSV file with a
    sidecar beside it at ``1 / _SIDECAR_READ_SHARE`` of them, that read's share of a parse."""
    try:
        return sum(os.path.getsize(p) // (_SIDECAR_READ_SHARE if _sidecar(p).exists() else 1)
                   for p in paths)
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
    with parallel.ordered(task, paths, _read_payload(paths), _fork_if_csv(paths)) as results:
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
