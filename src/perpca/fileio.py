"""Dataset, component, trace, and manifest files.

Data files store observations as rows (n x d); the loader transposes to
the internal features-x-observations layout. CSV numbers carry 17
significant digits, which round-trips float64 exactly. The binary
``.mat64`` format is two little-endian uint64 (rows, cols) followed by
row-major little-endian float64 payload.
"""

import hashlib
import json
import re
import time
from pathlib import Path

import numpy as np

from .errors import DimensionError

MANIFEST_VERSION = 1
_FMT = "%.17g"


def save_matrix(path, M, fmt="csv", header=None):
    path = Path(path)
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if fmt == "csv":
        np.savetxt(path, M, fmt=_FMT, delimiter=",",
                   header=",".join(header) if header else "", comments="")
    elif fmt == "bin":
        with open(path, "wb") as fh:
            fh.write(np.array(M.shape, dtype="<u8").tobytes())
            fh.write(np.ascontiguousarray(M, dtype="<f8").tobytes())
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return path


def load_matrix(path, fmt=None, header=False):
    """Read a matrix file; a ValueError names the file when it is malformed.

    A ``.mat64`` payload must hold exactly the rows x cols values its header
    announces, and every value, in either format, must be finite.
    """
    path = Path(path)
    if fmt is None:
        fmt = "bin" if path.suffix == ".mat64" else "csv"
    if fmt == "csv":
        M = np.loadtxt(path, delimiter=",", skiprows=1 if header else 0, ndmin=2)
    elif fmt == "bin":
        raw = path.read_bytes()
        if len(raw) < 16:
            raise ValueError(f"{path}: {len(raw)} bytes, shorter than the 16-byte header")
        rows, cols = (int(n) for n in np.frombuffer(raw[:16], dtype="<u8"))
        if len(raw) - 16 != 8 * rows * cols:
            raise ValueError(f"{path}: header announces {rows} x {cols} values "
                             f"({8 * rows * cols} bytes), payload has {len(raw) - 16} bytes")
        M = np.frombuffer(raw[16:], dtype="<f8").reshape(rows, cols).copy()
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if not np.isfinite(M).all():
        row, col = np.argwhere(~np.isfinite(M))[0]
        raise ValueError(f"{path}: non-finite value {M[row, col]} in row {row}, column {col}")
    return M


def _ext(fmt):
    return "csv" if fmt == "csv" else "mat64"


def save_datasets(out_dir, datasets, fmt="csv", header=False):
    """Write one observations-as-rows file per client; returns the paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, Y in enumerate(datasets):
        cols = [f"x{j}" for j in range(Y.shape[0])] if header and fmt == "csv" else None
        paths.append(save_matrix(out_dir / f"client_{i}.{_ext(fmt)}", Y.T, fmt, cols))
    return paths


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


def load_datasets(paths, fmt=None, header=False, center=False):
    """Load client data files into (d, n_i) arrays, optionally mean-centering."""
    datasets = []
    d = None
    for path in paths:
        Y = load_matrix(path, fmt=fmt, header=header).T
        if d is None:
            d = Y.shape[0]
        elif Y.shape[0] != d:
            raise DimensionError(
                f"{path}: {Y.shape[0]} features, earlier files have {d}"
            )
        if center:
            Y = Y - Y.mean(axis=1, keepdims=True)
        datasets.append(Y)
    return datasets


def save_components(out_dir, U=None, V=None, fmt="csv", prefix=""):
    """Write shared/local frames as ``<prefix>U`` and ``<prefix>V_<i>`` files."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    if U is not None:
        paths.append(save_matrix(out_dir / f"{prefix}U.{_ext(fmt)}", U, fmt))
    for i, Vi in enumerate(V or []):
        paths.append(save_matrix(out_dir / f"{prefix}V_{i}.{_ext(fmt)}", Vi, fmt))
    return paths


def load_components(comp_dir, fmt=None, prefix=""):
    """Read ``<prefix>U`` and ``<prefix>V_<i>`` files; either may be absent."""
    comp_dir = Path(comp_dir)
    U = None
    for ext in ("csv", "mat64"):
        path = comp_dir / f"{prefix}U.{ext}"
        if path.exists():
            U = load_matrix(path, fmt=fmt)
            break
    pattern = re.compile(re.escape(prefix) + r"V_(\d+)\.(csv|mat64)$")
    found = [(int(m.group(1)), p) for p in comp_dir.iterdir()
             if (m := pattern.match(p.name))]
    V = [load_matrix(p, fmt=fmt) for _, p in sorted(found)]
    return U, V


def save_trace(path, trace):
    """Trace CSV with one row per round; subspace_error column only when known."""
    from .solver import RoundTrace

    fields = list(RoundTrace.FIELDS)
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


def write_manifest(out_dir, command, flags, inputs=(), outputs=(), metrics=None,
                   wall_time_s=None):
    """One manifest per command run; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "version": MANIFEST_VERSION,
        "command": command,
        "flags": flags,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "input_digests": {str(p): file_digest(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "metrics": metrics or {},
        "wall_time_s": wall_time_s,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
