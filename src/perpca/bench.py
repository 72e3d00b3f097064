"""Benchmark scenarios at desk scale.

Each scenario returns a list of row dicts (one per grid point and method)
with mean and standard deviation over seed repeats; the command-line
``bench`` writes them as CSV. Scenario parameters are chosen so the
qualitative contrasts are reproducible in minutes on a laptop; score and
noise scales are exposed for experimentation.
"""

import numpy as np

from . import baselines, metrics, model, solver, stiefel, synth

SCENARIOS = {}


def _scenario(fn):
    SCENARIOS[fn.__name__.replace("_", "-")] = fn
    return fn


def _row(scenario, method, metric, values, **params):
    values = np.asarray(values, dtype=float)
    out = {
        "scenario": scenario,
        "method": method,
        "metric": metric,
        "mean": float(values.mean()),
        "std": float(values.std(ddof=1)) if values.size > 1 else 0.0,
        "median": float(np.median(values)),
        "repeats": int(values.size),
    }
    out.update(params)
    return out


def _rich_sparse_counts(n, n_clients):
    half = n_clients // 2
    return [n] * half + [max(n // 10, 1)] * (n_clients - half)


def log_slope(xs, ys):
    """Least-squares slope of log(y) against log(x)."""
    return float(np.polyfit(np.log(np.asarray(xs, float)),
                            np.log(np.asarray(ys, float)), 1)[0])


def fit_convergence_slope(gaps, floor_rel=1e-12):
    """Slope (per round) of log10 optimality gap over its decaying stretch.

    Rounds after the gap falls below ``floor_rel`` of its start are
    excluded so the floating-point floor does not flatten the fit.
    """
    gaps = np.asarray(gaps, dtype=float)
    floor = max(gaps[0], 1e-300) * floor_rel
    keep = np.nonzero(gaps > floor)[0]
    if keep.size < 10:
        keep = np.arange(min(10, gaps.size))
    rounds = keep + 1
    return float(np.polyfit(rounds, np.log10(np.maximum(gaps[keep], 1e-300)), 1)[0])


@_scenario
def error_vs_n(repeats=5, seed0=0, ns=(200, 800, 3200, 12800), d=15, n_clients=100,
               r1=2, r2=3, local_std=10.0, noise_std=7.0, rounds=1500,
               stepsize_scale=2.0):
    """Subspace error against observations per client, shared vs one-shot.

    The noise level hides the weak shared directions from any single
    client's top-(r1+r2) compression, which is what makes the one-shot
    baseline inconsistent; the federated solver aggregates all clients and
    keeps improving like 1/n.
    """
    rows = []
    for n in ns:
        per_seed = {"perpca": [], "distpca": []}
        for k in range(repeats):
            seed = seed0 + k
            spec = synth.GenerativeSpec(
                d=d, N=n_clients, r1=r1, r2=r2, n_per_client=int(n),
                global_score_std=1.0, local_score_std=local_std,
                noise_std=noise_std, seed=seed,
            )
            truth = synth.generate_components(spec)
            covs = [model.covariance(Y) for Y in synth.generate_observations(truth, spec)]
            config = solver.SolverConfig(
                r1=r1, r2=r2, rounds=rounds, seed=seed, record_trace=False,
                stepsize_scale=stepsize_scale,
            )
            state, _ = solver.run_perpca(covs, config, truth=truth)
            per_seed["perpca"].append(metrics.subspace_error(state, truth))
            d_state = baselines.distpca(covs, r1, [r2] * n_clients)
            per_seed["distpca"].append(metrics.subspace_error(d_state, truth))
        for method, vals in per_seed.items():
            rows.append(_row("error-vs-n", method, "subspace_error", vals,
                             n=n, d=d, N=n_clients, r1=r1, r2=r2))
    return rows


@_scenario
def error_vs_d(repeats=3, seed0=0, ds=(10, 20, 40, 80), n=10_000, n_clients=20,
               r1=2, local_std=1.5, noise_std=0.8, rounds=300):
    """Subspace error against ambient dimension at fixed n.

    Local frames keep two thirds of the space (their rank grows with d)
    and sit close to the noise floor, so the number of marginally
    separated eigen-pairs grows like d^2 and the error follows.
    """
    rows = []
    for d in ds:
        r2 = round(2 * d / 3) - r1
        per_seed = {"perpca": [], "distpca": []}
        for k in range(repeats):
            seed = seed0 + k
            spec = synth.GenerativeSpec(
                d=d, N=n_clients, r1=r1, r2=r2,
                n_per_client=_rich_sparse_counts(n, n_clients),
                global_score_std=1.0, local_score_std=local_std,
                noise_std=noise_std, seed=seed,
            )
            truth = synth.generate_components(spec)
            covs = [model.covariance(Y) for Y in synth.generate_observations(truth, spec)]
            config = solver.SolverConfig(r1=r1, r2=r2, rounds=rounds, seed=seed,
                                         record_trace=False)
            state, _ = solver.run_perpca(covs, config, truth=truth)
            per_seed["perpca"].append(metrics.subspace_error(state, truth))
            d_state = baselines.distpca(covs, r1, [r2] * n_clients)
            per_seed["distpca"].append(metrics.subspace_error(d_state, truth))
        for method, vals in per_seed.items():
            rows.append(_row("error-vs-d", method, "subspace_error", vals,
                             n=n, d=d, N=n_clients, r1=r1, r2=r2))
    return rows


@_scenario
def error_vs_N(repeats=3, seed0=0, Ns=(10, 30, 100), d=15, n=2000, r1=2, r2=3,
               local_std=10.0, noise_std=0.7, rounds=300):
    """Average and shared-only subspace error against the number of clients."""
    rows = []
    for N in Ns:
        avg_err, shared_err = [], []
        for k in range(repeats):
            seed = seed0 + k
            spec = synth.GenerativeSpec(
                d=d, N=N, r1=r1, r2=r2, n_per_client=n,
                global_score_std=1.0, local_score_std=local_std,
                noise_std=noise_std, seed=seed,
            )
            truth = synth.generate_components(spec)
            covs = [model.covariance(Y) for Y in synth.generate_observations(truth, spec)]
            config = solver.SolverConfig(r1=r1, r2=r2, rounds=rounds, seed=seed,
                                         record_trace=False)
            state, _ = solver.run_perpca(covs, config, truth=truth)
            avg_err.append(metrics.subspace_error(state, truth))
            shared_err.append(stiefel.subspace_distance(state.U, truth.U_true))
        rows.append(_row("error-vs-N", "perpca", "subspace_error", avg_err,
                         n=n, d=d, N=N, r1=r1, r2=r2))
        rows.append(_row("error-vs-N", "perpca", "shared_subspace_error", shared_err,
                         n=n, d=d, N=N, r1=r1, r2=r2))
    return rows


@_scenario
def theta_sweep(repeats=10, seed0=0, thetas=(0.05, 0.1, 0.2, 0.3), n=500,
                rounds=150):
    """Linear-convergence slope against heterogeneity on the planted toy.

    Two clients, one shared and one local direction each in three
    dimensions, noiseless scores with matched spectra; the local
    directions are rotated to hit each target heterogeneity exactly. The
    optimal objective value of a noiseless identifiable instance is half
    the summed covariance traces, so the per-round optimality gap is
    available in closed form.
    """
    rows = []
    for theta in thetas:
        slopes, final_gaps = [], []
        for k in range(repeats):
            seed = seed0 + k
            spec = synth.GenerativeSpec(
                d=3, N=2, r1=1, r2=1, n_per_client=n,
                global_score_std=1.0, local_score_std=1.0, noise_std=0.0,
                theta_target=theta, seed=seed,
            )
            truth = synth.generate_components(spec)
            covs = [model.covariance(Y) for Y in synth.generate_observations(truth, spec)]
            f_star = 0.5 * sum(float(np.trace(S)) for S in covs)
            config = solver.SolverConfig(r1=1, r2=1, rounds=rounds, seed=seed,
                                         init="random")
            _, trace = solver.run_perpca(covs, config, truth=truth)
            gaps = np.array([max(f_star - t.objective, 0.0) for t in trace])
            slopes.append(fit_convergence_slope(gaps))
            final_gaps.append(max(gaps[-1], 1e-300))
        rows.append(_row("theta-sweep", "perpca", "convergence_slope", slopes,
                         theta=theta, n=n, d=3, N=2, r1=1, r2=1))
        rows.append(_row("theta-sweep", "perpca", "final_log10_gap",
                         np.log10(final_gaps), theta=theta, n=n, d=3, N=2, r1=1, r2=1))
    return rows


def _test_recon(datasets, U, V_list):
    errs = []
    for i, Y in enumerate(datasets):
        Vi = V_list[i] if V_list is not None else None
        errs.append(model.reconstruction_error(Y, U, Vi))
    return errs


@_scenario
def knowledge_sharing(repeats=5, seed0=0, n=100, n_clients=100, d=15, r1=2, r2=2,
                      global_std=0.8, local_std=2.5, noise_std=1.2,
                      rounds=600, n_test=2000):
    """Held-out reconstruction error per client group for all four methods.

    Half the clients are data rich (n observations), half data sparse
    (n/10). The shared directions sit near each single client's sampling
    noise floor, so pooling them across clients is what pays off.
    Baselines retain r1+r2 components per client for fairness; the
    analytic floor of the planted components is reported alongside.
    """
    groups = {"rich": range(n_clients // 2), "sparse": range(n_clients // 2, n_clients)}
    acc = {g: {m: [] for m in ("perpca", "indivpca", "cpca", "distpca", "truth")}
           for g in groups}
    for k in range(repeats):
        seed = seed0 + k
        counts = _rich_sparse_counts(n, n_clients)
        spec = synth.GenerativeSpec(
            d=d, N=n_clients, r1=r1, r2=r2, n_per_client=counts,
            global_score_std=global_std, local_score_std=local_std,
            noise_std=noise_std, seed=seed,
        )
        truth = synth.generate_components(spec)
        train = synth.generate_observations(truth, spec)
        test_spec = synth.GenerativeSpec(
            d=d, N=n_clients, r1=r1, r2=r2, n_per_client=[n_test] * n_clients,
            global_score_std=global_std, local_score_std=local_std,
            noise_std=noise_std, seed=seed,
        )
        test = synth.generate_observations(truth, test_spec, test_split=1)
        covs = [model.covariance(Y) for Y in train]

        config = solver.SolverConfig(r1=r1, r2=r2, rounds=rounds, seed=seed,
                                     record_trace=False)
        state, _ = solver.run_perpca(covs, config)
        per_client = {
            "perpca": _test_recon(test, state.U, state.V),
            "truth": _test_recon(test, truth.U_true, truth.V_true),
        }
        d_state = baselines.distpca(covs, r1, [r2] * n_clients)
        per_client["distpca"] = _test_recon(test, d_state.U, d_state.V)
        indiv = baselines.indiv_pca(covs, r1 + r2)
        per_client["indivpca"] = [
            model.reconstruction_error(Y, F) for Y, F in zip(test, indiv)
        ]
        pooled = baselines.central_pca(covs, counts, r1 + r2)
        per_client["cpca"] = [model.reconstruction_error(Y, pooled) for Y in test]

        for g, idx in groups.items():
            for method, errs in per_client.items():
                acc[g][method].append(float(np.mean([errs[i] for i in idx])))
    rows = []
    for g, by_method in acc.items():
        for method, vals in by_method.items():
            rows.append(_row("knowledge-sharing", method, "test_reconstruction_error",
                             vals, group=g, n=n, d=d, N=n_clients, r1=r1, r2=r2))
    return rows


def format_csv(rows):
    """Render scenario rows as CSV with a union-of-keys header."""
    fixed = ["scenario", "method", "metric", "mean", "std", "repeats"]
    extra = sorted({k for row in rows for k in row} - set(fixed))
    cols = fixed + extra
    lines = [",".join(cols)]
    for row in rows:
        cells = []
        for c in cols:
            v = row.get(c, "")
            cells.append(f"{v:.10g}" if isinstance(v, float) else str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
