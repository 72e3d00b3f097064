"""Spans around calls into perpca's public functions, recorded from outside.

While a :class:`Tracer` is active, every function named in :data:`WRAPPED`
is replaced by a wrapper that records one span (name, start, end, parent)
per call; leaving the ``with`` block puts the original objects back. The
package itself is not modified: callers inside perpca reach the wrappers
because they look functions up as module attributes (``stiefel.RETRACTIONS``
is a dict, so its entries are wrapped separately).

Spans are appended to flat arrays and stay in memory until :meth:`save`.
A span's self time is its duration minus the durations of its direct
children; calls are strictly nested (one thread), so children never overlap.
"""

import functools
import importlib
import os
import time
from array import array

import numpy as np

# module -> public functions whose calls become spans, named "<module>.<fn>"
WRAPPED = {
    "solver": ("run_perpca", "client_update_choice1", "client_update_choice2",
               "server_aggregate", "correction_step", "auto_stepsize",
               "init_distpca", "init_random"),
    "stiefel": ("polar_retract", "qr_retract"),
    "model": ("objective", "kkt_residual", "mean_reconstruction_error", "covariance",
              "reconstruction_error"),
    "metrics": ("subspace_error",),
    "baselines": ("distpca", "distpca_global"),
    "synth": ("generate_components", "generate_observations"),
    "fileio": ("load_matrix", "save_matrix", "file_digest", "save_trace", "write_manifest"),
    "cli": ("cmd_synth", "cmd_fit", "cmd_eval"),
}

SOLVE = "solver.run_perpca"
CLIENT_UPDATES = ("solver.client_update_choice1", "solver.client_update_choice2")
RETRACTIONS = ("stiefel.polar_retract", "stiefel.qr_retract")
DIAGNOSTICS = ("model.objective", "model.kkt_residual", "model.mean_reconstruction_error")
SUBSPACE_ERROR = "metrics.subspace_error"
BYTE_COUNTED = ("fileio.load_matrix", "fileio.save_matrix", "fileio.file_digest")


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _consumes_subspace_error(result, args, kwargs):
    # run_perpca computes a subspace error every round when given truth; the
    # caller only sees it through the trace or the early stop
    config = _arg(args, kwargs, 1, "config")
    truth = _arg(args, kwargs, 2, "truth")
    return truth is not None and (config.record_trace or config.stop_subspace_tol is not None)


def _size_of_path_arg(result, args, kwargs):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


# per-span annotations, computed after the call from (result, args, kwargs)
NOTES = {
    SOLVE: _consumes_subspace_error,
    "fileio.load_matrix": _size_of_path_arg,
    "fileio.save_matrix": lambda result, args, kwargs: os.path.getsize(result),
    "fileio.file_digest": _size_of_path_arg,
}


def wrapped_names():
    """Every span name, in :data:`WRAPPED` order."""
    return [f"{module}.{fn}" for module, fns in WRAPPED.items() for fn in fns]


class Tracer:
    """Context manager that wraps the functions in :data:`WRAPPED` and records spans."""

    def __init__(self):
        self.names = wrapped_names()
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.notes = {}  # span index -> NOTES value
        self._stack = []
        self._restore = []  # (container, key, original); dict containers are indexed

    def _wrap(self, fn, name):
        nid = self._ids[name]
        note = NOTES.get(name)
        stack, ids, parents, starts, ends = (
            self._stack, self.name_id, self.parent, self.start, self.end)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(ids)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if note is not None:
                self.notes[idx] = note(result, args, kwargs)
            return result

        return wrapper

    def __enter__(self):
        try:
            for module_name, fns in WRAPPED.items():
                module = importlib.import_module(f"perpca.{module_name}")
                for fn in fns:
                    original = getattr(module, fn)
                    self._restore.append((module, fn, original))
                    setattr(module, fn, self._wrap(original, f"{module_name}.{fn}"))
            table = importlib.import_module("perpca.stiefel").RETRACTIONS
            for key, original in list(table.items()):
                self._restore.append((table, key, original))
                table[key] = self._wrap(original, f"stiefel.{original.__name__}")
        except BaseException:
            self._undo()
            raise
        return self

    def __exit__(self, *exc):
        self._undo()
        return False

    def _undo(self):
        while self._restore:
            container, key, original = self._restore.pop()
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)

    # -- analysis ---------------------------------------------------------

    def arrays(self):
        """``(name_id, parent, duration, self_time)`` as numpy arrays, one entry per span."""
        ids = np.frombuffer(self.name_id, dtype=np.intc).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.intc).astype(np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        return ids, parent, dur, dur - child

    def enclosing_solve(self, parent, ids):
        """Index of the ``run_perpca`` span around each span (itself included), or -1."""
        solve = self._ids[SOLVE]
        top = [-1] * ids.size
        for i, (nid, up) in enumerate(zip(ids.tolist(), parent.tolist())):
            if nid == solve:
                top[i] = i
            elif up >= 0:  # parents precede children
                top[i] = top[up]
        return np.array(top, dtype=np.int64)

    def save(self, path):
        """Write the spans as an ``.npz`` of names, name ids, parents, starts and ends."""
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, np.intc),
            parent=np.frombuffer(self.parent, np.intc), start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def layer_metrics(tracer, traced_s, untraced_s, failed_by_module):
    """Per-layer metric values of one traced pass, keyed by metric name.

    ``traced_s`` and ``untraced_s`` are the wall times of the same operations
    with and without the tracer; ``failed_by_module`` counts failures by
    perpca module name.
    """
    ids, parent, dur, self_t = tracer.arrays()
    k = len(tracer.names)
    calls = np.bincount(ids, minlength=k)
    incl = np.bincount(ids, weights=dur, minlength=k)
    selfs = np.bincount(ids, weights=self_t, minlength=k)
    index = {name: i for i, name in enumerate(tracer.names)}

    out = {}
    for module, fns in WRAPPED.items():
        for fn in fns:
            i = index[f"{module}.{fn}"]
            out[f"{module}.{fn}.calls"] = int(calls[i])
            out[f"{module}.{fn}.self_s"] = float(selfs[i])
            out[f"{module}.{fn}.us_per_call"] = (
                float(incl[i] / calls[i] * 1e6) if calls[i] else 0.0)
    for module in WRAPPED:
        out[f"{module}.failed"] = int(failed_by_module.get(module, 0))

    def ids_of(names):
        return np.isin(ids, [index[n] for n in names])

    solve_s = incl[index[SOLVE]]
    top = tracer.enclosing_solve(parent, ids)
    in_solve = top >= 0
    client_rounds = int(np.count_nonzero(ids_of(CLIENT_UPDATES) & in_solve))
    out["solver.us_per_client_round"] = (
        float(solve_s / client_rounds * 1e6) if client_rounds else 0.0)

    direct = np.zeros(ids.size, dtype=bool)
    direct[parent >= 0] = ids[parent[parent >= 0]] == index[SOLVE]
    per_round_errors = np.nonzero((ids == index[SUBSPACE_ERROR]) & direct)[0]
    useful = sum(1 for i in per_round_errors if tracer.notes.get(int(parent[i])))
    out["solver.subspace_error_useful_ratio"] = (
        useful / per_round_errors.size if per_round_errors.size else 0.0)
    diag_s = float(dur[ids_of(DIAGNOSTICS) & direct].sum())
    out["solver.diagnostics_share"] = diag_s / solve_s if solve_s else 0.0
    retractions = int(np.count_nonzero(ids_of(RETRACTIONS) & in_solve))
    out["stiefel.retractions_per_client_round"] = (
        retractions / client_rounds if client_rounds else 0.0)

    for name in BYTE_COUNTED:
        spans = np.nonzero(ids == index[name])[0]
        nbytes = sum(tracer.notes.get(int(i), 0) for i in spans)
        seconds = float(dur[spans].sum())
        out[f"{name}.mb_per_s"] = nbytes / seconds / 1e6 if seconds else 0.0

    out["bench.trace_overhead_ratio"] = traced_s / untraced_s
    out["bench.span_coverage"] = float(dur[parent < 0].sum()) / traced_s
    return out
