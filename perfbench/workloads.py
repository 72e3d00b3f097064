"""The benchmark's workloads and the end-to-end metrics they report.

A workload turns the workload seed into inputs (:meth:`setup`) and into a
fixed list of operations (:meth:`operations`); a timed run repeats the
list until its time is up. Every operation records what it measured into a
:class:`Run` and checks its own outputs there; a failed check or an
exception marks the operation failed and the run goes on.
"""

import collections
import contextlib
import functools
import io
import json
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perpca import baselines, cli, fileio, metrics, model, solver, synth

clock = time.perf_counter


def _module_of(exc):
    """perpca module in which an exception was raised, or ``bench``."""
    module = "bench"
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        path = Path(frame.f_code.co_filename)
        if path.parent.name == "perpca":
            module = path.stem
    return module


def _frame_bytes(U, V):
    """Exact bytes of a shared frame and its local frames, for bitwise comparison."""
    return b"".join(np.ascontiguousarray(M).tobytes() for M in [U, *V])


@dataclass
class Run:
    """What one run measured and checked."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)  # (module, message)
    solves: list = field(default_factory=list)  # (seconds, client rounds)
    stages: dict = field(default_factory=lambda: {"synth": [], "fit": [], "eval": []})
    errors: dict = field(default_factory=dict)  # key -> final subspace error
    rounds: dict = field(default_factory=dict)  # key -> rounds run
    frames: dict = field(default_factory=dict)  # key -> _frame_bytes of the first result

    def attempt(self, operation):
        """Run one operation; an exception or failed check marks it failed."""
        self.attempted += 1
        before = len(self.failures)
        try:
            operation(self)
        except Exception as exc:
            self.failures.append((_module_of(exc), f"{type(exc).__name__}: {exc}"))
        if len(self.failures) > before:
            self.failed += 1

    def check(self, ok, module, message):
        if not ok:
            self.failures.append((module, message))
        return ok

    def valid(self, state, module, key):
        """Check ``ComponentState.validate()``; attribute a failure to ``module``."""
        try:
            state.validate()
        except ValueError as exc:
            return self.check(False, module, f"{key}: invalid final state: {exc}")
        return True

    def result(self, key, state, seconds, n_clients, rounds, error):
        """Record a solve's time and outcome; repeats must match the first bitwise."""
        self.solves.append((seconds, n_clients * rounds))
        data = _frame_bytes(state.U, state.V)
        first = self.frames.setdefault(key, data)
        self.check(first == data, "solver", f"{key}: final frames differ from the first run")
        self.errors.setdefault(key, error)
        self.rounds.setdefault(key, rounds)

    def failed_by_module(self):
        return collections.Counter(module for module, _ in self.failures)


def _rounds_run(config, trace):
    return len(trace) if config.record_trace else config.rounds


def tail(values):
    """Tail of a timing: the highest percentile with ten samples beyond it, at least p90.

    Returns ``(value, percentile, count)``. From 100 samples on, this is
    the sample with exactly ten above it. Fewer samples cannot put ten
    beyond p90, so p90 itself is returned, interpolated between the two
    nearest samples; it varies smoothly with the sample count, so a run
    that fits one more pass does not jump to another order statistic.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n >= 100:
        return ordered[n - 11], 100.0 * (n - 10) / n, n
    if n == 1:
        return ordered[0], 90.0, n
    return statistics.quantiles(ordered, n=10, method="inclusive")[8], 90.0, n


def end_to_end(run, setup_seconds):
    """End-to-end metric values of a timed run, plus the figures reported beside them."""
    solve_s = [s for s, _ in run.solves]
    tail_s, tail_pct, n_solves = tail(solve_s)
    values = {
        "setup_s": statistics.median(setup_seconds),
        "client_rounds_per_s": sum(c for _, c in run.solves) / sum(solve_s),
        "solve_s_p50": statistics.median(solve_s),
        "solve_s_tail": tail_s,
        "subspace_error_max": max(run.errors.values()),
        "rounds_to_tol_p50": float(statistics.median(run.rounds.values())),
        "synth_s": statistics.median(run.stages["synth"]),
        "fit_s": statistics.median(run.stages["fit"]),
        "eval_s": statistics.median(run.stages["eval"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "solve_s_tail": {"percentile": tail_pct, "solves": n_solves},
        "error_rate": {"value": run.failed / run.attempted, "attempted": run.attempted,
                       "failed": run.failed},
        "rounds_max": max(run.rounds.values()),
        "seconds": {"setup": setup_seconds, "solve": solve_s, **run.stages},
    }
    return values, extra


def _generate(spec):
    t0 = clock()
    truth = synth.generate_components(spec)
    datasets = synth.generate_observations(truth, spec)
    t1 = clock()
    covs = [model.covariance(Y) for Y in datasets]
    return truth, covs, t1 - t0


class GridManyClients:
    """``bench.error_vs_n`` at 300 of its 1500 rounds, one repeat per grid point.

    One operation is one grid point: the federated solve with ``truth=``
    and no trace, the one-shot ``distpca`` baseline, and the subspace
    errors of both.
    """

    name = "grid-many-clients"
    setup_repeats = 3

    def __init__(self, tiny=False):
        self.ns = (20, 40) if tiny else (200, 800, 3200, 12800)
        self.n_clients = 4 if tiny else 100
        self.rounds = 5 if tiny else 300
        self.d, self.r1, self.r2 = 15, 2, 3

    def setup(self, seed, run):
        points, synth_s = [], 0.0
        for n in self.ns:
            spec = synth.GenerativeSpec(
                d=self.d, N=self.n_clients, r1=self.r1, r2=self.r2, n_per_client=n,
                global_score_std=1.0, local_score_std=10.0, noise_std=7.0, seed=seed,
            )
            truth, covs, seconds = _generate(spec)
            synth_s += seconds
            config = solver.SolverConfig(r1=self.r1, r2=self.r2, rounds=self.rounds,
                                         seed=seed, record_trace=False, stepsize_scale=2.0)
            points.append((n, truth, covs, config))
        run.stages["synth"].append(synth_s)
        return points

    def operations(self, points):
        return [functools.partial(self._point, *p) for p in points]

    def _point(self, n, truth, covs, config, run):
        key = f"n={n}"
        t0 = clock()
        state, trace = solver.run_perpca(covs, config, truth=truth)
        t1 = clock()
        base = baselines.distpca(covs, self.r1, [self.r2] * len(covs))
        t2 = clock()
        error = metrics.subspace_error(state, truth)
        base_error = metrics.subspace_error(base, truth)
        t3 = clock()
        run.stages["fit"].append(t2 - t0)
        run.stages["eval"].append(t3 - t2)
        run.valid(state, "solver", key)
        run.valid(base, "baselines", key)
        run.check(np.isfinite(base_error), "metrics", f"{key}: distpca error {base_error}")
        run.result(key, state, t1 - t0, len(covs), _rounds_run(config, trace), error)


class RecoveryEarlyStop:
    """Criterion 01's noiseless instances, solved until the subspace error is below 1e-8.

    Instance ``k`` of workload seed ``s`` uses data and solver seed
    ``10 s + k``, so seed 0 gives criterion 01's ten instances. Each
    instance is solved with (choice 1, polar), (choice 1, qr) and
    (choice 2, polar); one operation is one solve with the trace on.
    """

    name = "recovery-early-stop"
    setup_repeats = 5
    tol = 1e-8
    round_cap = 1000
    variants = ((1, "polar"), (1, "qr"), (2, "polar"))

    def __init__(self, tiny=False):
        self.instances = 1 if tiny else 10

    def setup(self, seed, run):
        out, synth_s = [], 0.0
        for k in range(self.instances):
            spec = synth.GenerativeSpec(
                d=15, N=5, r1=2, r2=3, n_per_client=100, global_score_std=1.0,
                local_score_std=1.0, noise_std=0.0, seed=10 * seed + k,
            )
            truth, covs, seconds = _generate(spec)
            synth_s += seconds
            out.append((spec.seed, truth, covs))
        run.stages["synth"].append(synth_s)
        return out

    def operations(self, instances):
        ops = []
        for seed, truth, covs in instances:
            for choice, retraction in self.variants:
                config = solver.SolverConfig(
                    r1=2, r2=3, rounds=self.round_cap, seed=seed, choice=choice,
                    retraction=retraction, stepsize_scale=0.15, stop_subspace_tol=self.tol,
                )
                ops.append(functools.partial(self._solve, seed, truth, covs, config))
        return ops

    def _solve(self, seed, truth, covs, config, run):
        key = f"instance={seed},choice={config.choice},{config.retraction}"
        t0 = clock()
        state, trace = solver.run_perpca(covs, config, truth=truth)
        t1 = clock()
        error = metrics.subspace_error(state, truth)
        t2 = clock()
        run.stages["fit"].append(t1 - t0)
        run.stages["eval"].append(t2 - t1)
        run.valid(state, "solver", key)
        run.check(error < self.tol, "solver",
                  f"{key}: subspace error {error:.3e} not below {self.tol:g} "
                  f"after {len(trace)} rounds")
        run.check(trace[-1].subspace_error == error, "solver",
                  f"{key}: traced error {trace[-1].subspace_error!r} != {error!r}")
        run.result(key, state, t1 - t0, len(covs), len(trace), error)


class CliPipelineCsv:
    """``perpca synth``, ``fit --truth`` and ``eval --truth`` through ``cli.main``.

    One operation is one pipeline in a fresh directory under ``workdir``;
    the directory is removed once its outputs are checked. Pipeline ``k``
    after a set-up synthesizes with seed ``10 s + k mod 10``, so a run's
    worst subspace error is taken over several datasets, not one.
    """

    name = "cli-pipeline-csv"
    setup_repeats = 5

    def __init__(self, workdir, tiny=False):
        self.workdir = Path(workdir)
        self.ranks = ["--r1", "2", "--r2", "2"] if tiny else ["--r1", "3", "--r2", "5"]
        self.sizes = ["--d", "10", "--N", "3", "--n", "200"] if tiny else [
            "--d", "50", "--N", "20", "--n", "5000"]
        self.rounds = 20 if tiny else 300
        self._count = 0  # directories made
        self._pipelines = 0  # pipelines since the last set-up

    def _fresh(self):
        self._count += 1
        path = self.workdir / f"pipeline-{self._count}"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def setup(self, seed, run):
        # a fresh directory plus one pipeline on a tiny spec, so lazy imports
        # and first-call costs are paid before the timed pipelines
        path = self._fresh()
        _quiet(["synth", "--d", "4", "--N", "2", "--r1", "1", "--r2", "1", "--n", "20",
                "--seed", str(seed), "--out", str(path / "data")])
        _quiet(["fit", str(path / "data"), "--r1", "1", "--r2", "1", "--rounds", "2",
                "--truth", str(path / "data"), "--out", str(path / "fit")])
        _quiet(["eval", str(path / "data"), "--components", str(path / "fit"),
                "--truth", str(path / "data"), "--out", str(path / "eval.json")])
        shutil.rmtree(path)
        self._pipelines = 0
        return seed

    def operations(self, seed):
        return [functools.partial(self._pipeline, seed)]

    def _pipeline(self, seed, run):
        seed = 10 * seed + self._pipelines % 10
        self._pipelines += 1
        key = f"seed={seed}"
        path = self._fresh()
        data, fit = path / "data", path / "fit"
        solves = []
        t0 = clock()
        code = _quiet(["synth", *self.sizes, *self.ranks, "--noise-std", "0.5",
                       "--seed", str(seed), "--out", str(data)])
        t1 = clock()
        with _timed_solver(solves):
            code |= _quiet(["fit", str(data), *self.ranks, "--rounds", str(self.rounds),
                            "--truth", str(data), "--seed", str(seed), "--out", str(fit)])
        t2 = clock()
        code |= _quiet(["eval", str(data), "--components", str(fit), "--truth", str(data),
                        "--out", str(path / "eval.json")])
        t3 = clock()
        run.stages["synth"].append(t1 - t0)
        run.stages["fit"].append(t2 - t1)
        run.stages["eval"].append(t3 - t2)
        run.check(code == 0, "cli", f"pipeline exit code {code}")
        if not run.check(len(solves) == 1, "cli", f"fit made {len(solves)} solver calls"):
            return
        U, V = fileio.load_components(fit)
        state = model.ComponentState(U, V)
        truth = fileio.load_components(data, prefix="truth_")
        reported = json.loads((path / "eval.json").read_text())["subspace_error"]
        error = metrics.subspace_error(state, truth)
        run.valid(state, "cli", key)
        run.check(reported == error, "cli",
                  f"eval subspace_error {reported!r} != recomputed {error!r}")
        seconds, n_clients, rounds = solves[0]
        run.result(key, state, seconds, n_clients, rounds, error)
        shutil.rmtree(path)


def _quiet(argv):
    """``cli.main(argv)`` with its standard output discarded; returns the exit code."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except SystemExit as exc:  # the CLI reports bad input by exiting
        return exc.code if isinstance(exc.code, int) else 1


@contextlib.contextmanager
def _timed_solver(samples):
    """Time each ``solver.run_perpca`` call the CLI makes, as (seconds, clients, rounds)."""
    original = solver.run_perpca

    def timed(covs, config, truth=None):
        t0 = clock()
        state, trace = original(covs, config, truth=truth)
        samples.append((clock() - t0, len(covs), _rounds_run(config, trace)))
        return state, trace

    solver.run_perpca = timed
    try:
        yield
    finally:
        solver.run_perpca = original


def make(name, workdir, tiny=False):
    """The workload called ``name``."""
    if name == GridManyClients.name:
        return GridManyClients(tiny)
    if name == RecoveryEarlyStop.name:
        return RecoveryEarlyStop(tiny)
    if name == CliPipelineCsv.name:
        return CliPipelineCsv(workdir, tiny)
    raise ValueError(f"unknown workload {name!r}")


# BENCHMARK.json gates grid and cli only; recovery runs by name (see README.md)
NAMES = (GridManyClients.name, RecoveryEarlyStop.name, CliPipelineCsv.name)
