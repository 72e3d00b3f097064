"""Benchmark scenarios at desk scale.

Each scenario returns a list of row dicts (one per grid point and method)
with mean and standard deviation over seed repeats; the command-line
``bench`` writes them as CSV, in :func:`report_columns` order. Every
scenario is a list of grid points and a measure, run by one driver
(:func:`_drive`) that builds the planted instances. Scenario parameters are
chosen so the qualitative contrasts are reproducible in minutes on a laptop.
"""

import dataclasses

import numpy as np

from . import baselines, metrics, model, solver, stiefel, synth

SCENARIOS = {}
GAP_FLOOR_REL = 1e-12
REPORT_FMT = "%.10g"  # the report's float cells


def _scenario(fn):
    SCENARIOS[fn.__name__.replace("_", "-")] = fn
    return fn


def _rich_sparse_counts(n, n_clients):
    half = n_clients // 2
    return [n] * half + [max(n // 10, 1)] * (n_clients - half)


def fit_convergence_slope(gaps):
    """Slope (per round) of log10 optimality gap over its decaying stretch.

    Rounds after the gap falls below ``GAP_FLOOR_REL`` of its start are
    excluded so the floating-point floor does not flatten the fit.
    """
    gaps = np.asarray(gaps, dtype=float)
    floor = max(gaps[0], 1e-300) * GAP_FLOOR_REL
    keep = np.nonzero(gaps > floor)[0]
    if keep.size < 10:
        keep = np.arange(min(10, gaps.size))
    rounds = keep + 1
    return float(np.polyfit(rounds, np.log10(np.maximum(gaps[keep], 1e-300)), 1)[0])


def _drive(scenario, points, repeats, seed0, measure, **kwargs):
    """Rows of one scenario: each grid point measured at seeds ``seed0 .. seed0+repeats-1``.

    ``points`` holds ``(columns, fields)`` pairs: a point's leading row
    columns and its ``GenerativeSpec`` fields other than the seed. For each
    seed the driver builds the planted instance and its client covariances,
    each client drawn and reduced in one task of
    :func:`synth.generate_observations`, and calls
    ``measure(spec, truth, covs, **kwargs)``, which returns named
    values ``{(method, metric[, group]): value}``. Each name becomes one row
    per point, in the order the measure returns it: the values' mean, std,
    median and count, then the point's columns and its d, N, r1 and r2.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    rows = []
    for columns, fields in points:
        named = {}
        for k in range(repeats):
            spec = synth.GenerativeSpec(**fields, seed=seed0 + k)
            truth = synth.generate_components(spec)
            covs = synth.generate_observations(truth, spec,
                                               reduce=lambda i, Y: model.covariance(Y))
            for name, value in measure(spec, truth, covs, **kwargs).items():
                named.setdefault(name, []).append(value)
        columns = {**columns, **{key: fields[key] for key in ("d", "N", "r1", "r2")}}
        for (method, metric, *group), values in named.items():
            values = np.asarray(values, dtype=float)
            rows.append({
                "scenario": scenario, "method": method, "metric": metric,
                "mean": float(values.mean()),
                "std": float(values.std(ddof=1)) if values.size > 1 else 0.0,
                "median": float(np.median(values)), "repeats": int(values.size),
                **({"group": group[0]} if group else {}), **columns})
    return rows


def _solve(spec, covs, rounds, **config):
    """The federated solve of a planted instance, at its ranks and seed.

    No scenario reads the per-round subspace error, so the truth is not passed.
    """
    return solver.run_perpca(covs, solver.SolverConfig(
        r1=spec.r1, r2=spec.r2, rounds=rounds, seed=spec.seed, **config))


def _distpca(spec, covs):
    return baselines.distpca(covs, spec.r1, [spec.r2] * spec.N)


def _against_distpca(spec, truth, covs, rounds, **config):
    state, _ = _solve(spec, covs, rounds, record_trace=False, **config)
    return {("perpca", "subspace_error"): metrics.subspace_error(state, truth),
            ("distpca", "subspace_error"): metrics.subspace_error(_distpca(spec, covs), truth)}


@_scenario
def error_vs_n(repeats=5, seed0=0, ns=(200, 800, 3200, 12800), n_clients=100,
               rounds=1500):
    """Subspace error against observations per client, shared vs one-shot.

    The noise level hides the weak shared directions from any single
    client's top-(r1+r2) compression, which is what makes the one-shot
    baseline inconsistent; the federated solver aggregates all clients and
    keeps improving like 1/n.
    """
    points = [({"n": n}, dict(d=15, N=n_clients, r1=2, r2=3, n_per_client=int(n),
                              local_score_std=10.0, noise_std=7.0))
              for n in ns]
    return _drive("error-vs-n", points, repeats, seed0, _against_distpca, rounds=rounds,
                  stepsize_scale=2.0)


@_scenario
def error_vs_d(repeats=3, seed0=0, ds=(10, 20, 40, 80), n=10_000, n_clients=20,
               rounds=300):
    """Subspace error against ambient dimension at fixed n.

    Local frames keep two thirds of the space (their rank grows with d)
    and sit close to the noise floor, so the number of marginally
    separated eigen-pairs grows like d^2 and the error follows.
    """
    points = [({"n": n}, dict(d=d, N=n_clients, r1=2, r2=round(2 * d / 3) - 2,
                              n_per_client=_rich_sparse_counts(n, n_clients),
                              local_score_std=1.5, noise_std=0.8))
              for d in ds]
    return _drive("error-vs-d", points, repeats, seed0, _against_distpca, rounds=rounds)


def _average_and_shared_error(spec, truth, covs, rounds):
    state, _ = _solve(spec, covs, rounds, record_trace=False)
    return {("perpca", "subspace_error"): metrics.subspace_error(state, truth),
            ("perpca", "shared_subspace_error"):
                stiefel.subspace_distance(state.U, truth.U_true)}


@_scenario
def error_vs_N(repeats=3, seed0=0, Ns=(10, 30, 100), n=2000, rounds=300):
    """Average and shared-only subspace error against the number of clients."""
    points = [({"n": n}, dict(d=15, N=N, r1=2, r2=3, n_per_client=n,
                              local_score_std=10.0, noise_std=0.7))
              for N in Ns]
    return _drive("error-vs-N", points, repeats, seed0, _average_and_shared_error,
                  rounds=rounds)


def _convergence(spec, truth, covs, rounds):
    # noiseless and identifiable: the optimum is half the summed traces
    f_star = 0.5 * sum(float(np.trace(S)) for S in covs)
    _, trace = _solve(spec, covs, rounds, init="random")
    gaps = np.array([max(f_star - t.objective, 0.0) for t in trace])
    return {("perpca", "convergence_slope"): fit_convergence_slope(gaps),
            ("perpca", "final_log10_gap"): np.log10(max(gaps[-1], 1e-300))}


@_scenario
def theta_sweep(repeats=10, seed0=0, thetas=(0.05, 0.1, 0.2, 0.3), rounds=150):
    """Linear-convergence slope against heterogeneity on the planted toy.

    Two clients, one shared and one local direction each in three
    dimensions, noiseless scores with matched spectra; the local
    directions are rotated to hit each target heterogeneity exactly. The
    optimal objective value of a noiseless identifiable instance is half
    the summed covariance traces, so the per-round optimality gap is
    available in closed form.
    """
    points = [({"theta": theta, "n": 500}, dict(d=3, N=2, r1=1, r2=1, n_per_client=500,
                                                local_score_std=1.0, theta_target=theta))
              for theta in thetas]
    return _drive("theta-sweep", points, repeats, seed0, _convergence, rounds=rounds)


def _held_out_errors(spec, truth, covs, rounds, n_test):
    state, _ = _solve(spec, covs, rounds, record_trace=False)
    d_state = _distpca(spec, covs)
    t_state = model.ComponentState(truth.U_true, truth.V_true)
    indiv = baselines.indiv_pca(covs, spec.r1 + spec.r2)
    pooled = baselines.central_pca(covs, spec.n_per_client, spec.r1 + spec.r2)
    # _reconstruction_error trusts its frames: run_perpca and distpca return validated
    # states, and the other frame sets are checked here, so each is checked once
    for checked in (t_state, model.ComponentState(pooled), *map(model.ComponentState, indiv)):
        checked.validate()
    frames = {"perpca": [[state.U, V] for V in state.V], "indivpca": [[F] for F in indiv],
              "cpca": [[pooled]] * spec.N, "distpca": [[d_state.U, V] for V in d_state.V],
              "truth": [[t_state.U, V] for V in t_state.V]}
    test_spec = dataclasses.replace(spec, n_per_client=n_test)

    def errors(i, Y):  # one held-out client in memory per task
        return [model._reconstruction_error(Y, frame_sets[i]) for frame_sets in frames.values()]

    rows = synth.generate_observations(truth, test_spec, test_split=1, reduce=errors)
    per_client = dict(zip(frames, zip(*rows)))  # method -> its errors in client order
    half = spec.N // 2
    return {(method, "test_reconstruction_error", group): float(np.mean(errs[clients]))
            for group, clients in (("rich", slice(half)), ("sparse", slice(half, None)))
            for method, errs in per_client.items()}


@_scenario
def knowledge_sharing(repeats=5, seed0=0, n_clients=100, rounds=600, n_test=2000):
    """Held-out reconstruction error per client group for all four methods.

    Half the clients are data rich (100 observations), half data sparse
    (10). The shared directions sit near each single client's sampling
    noise floor, so pooling them across clients is what pays off.
    Baselines retain r1+r2 components per client for fairness; the
    analytic floor of the planted components is reported alongside.
    """
    point = ({"n": 100}, dict(d=15, N=n_clients, r1=2, r2=2,
                              n_per_client=_rich_sparse_counts(100, n_clients),
                              global_score_std=0.8, local_score_std=2.5, noise_std=1.2))
    return _drive("knowledge-sharing", [point], repeats, seed0, _held_out_errors,
                  rounds=rounds, n_test=n_test)


def report_columns(rows):
    """The report's columns: the fixed ones, then every other key of ``rows``, sorted."""
    fixed = ["scenario", "method", "metric", "mean", "std", "repeats"]
    return fixed + sorted({key for row in rows for key in row} - set(fixed))
