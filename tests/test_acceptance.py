"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line. The slow grids (criteria 3 and 4)
dominate the runtime; the whole module finishes in a few minutes on a
laptop. All instances are seeded, so reruns are bitwise reproducible.
"""

import time

import numpy as np
import pytest

from perpca import bench, checks, metrics, model, solver, synth


def _report(num, name, ok, detail):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _affine_fit(rounds, log_gaps):
    coef = np.polyfit(rounds, log_gaps, 1)
    pred = np.polyval(coef, rounds)
    ss_res = float(np.sum((log_gaps - pred) ** 2))
    ss_tot = float(np.sum((log_gaps - log_gaps.mean()) ** 2))
    return coef[0], 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0


def log_slope(xs, ys):
    """Least-squares slope of log(y) against log(x)."""
    return float(np.polyfit(np.log(np.asarray(xs, float)),
                            np.log(np.asarray(ys, float)), 1)[0])


def test_log_slope_exact_powers():
    xs = [1, 2, 4, 8]
    assert log_slope(xs, [x**-1.0 for x in xs]) == pytest.approx(-1.0, abs=1e-12)
    assert log_slope(xs, [x**2.0 for x in xs]) == pytest.approx(2.0, abs=1e-12)


def _recovery_instance(seed):
    spec = synth.GenerativeSpec(
        d=15, N=5, r1=2, r2=3, n_per_client=100,
        global_score_std=1.0, local_score_std=1.0, noise_std=0.0, seed=seed,
    )
    truth = synth.generate_components(spec)
    covs = [model.covariance(Y) for Y in synth.generate_observations(truth, spec)]
    return truth, covs


def test_criterion_01_exact_recovery():
    results = []
    for seed in range(10):
        truth, covs = _recovery_instance(seed)
        assert truth.theta_actual >= 0.1
        f_star = 0.5 * sum(float(np.trace(S)) for S in covs)
        t0 = time.time()
        config = solver.SolverConfig(
            r1=2, r2=3, rounds=500, seed=seed,
            stop_subspace_tol=1e-8, stepsize_scale=0.15,
        )
        _, trace = solver.run_perpca(covs, config, truth=truth)
        elapsed = time.time() - t0
        R = len(trace)
        gaps = np.array([max(f_star - t.objective, 1e-300) for t in trace])
        lo = max(0, R - 200)
        _, r2 = _affine_fit(np.arange(lo, R) + 1.0, np.log10(gaps[lo:]))
        results.append((trace[-1].subspace_error, R, r2, elapsed))
    ok = all(
        err < 1e-8 and R <= 500 and r2 > 0.98 and elapsed < 30.0
        for err, R, r2, elapsed in results
    )
    worst_err = max(r[0] for r in results)
    worst_r2 = min(r[2] for r in results)
    _report(
        1, "exact recovery", ok,
        f"10 noiseless instances: worst final error {worst_err:.2e} (< 1e-8), "
        f"max rounds {max(r[1] for r in results)} (<= 500), worst affine R^2 "
        f"{worst_r2:.4f} (> 0.98), max time {max(r[3] for r in results):.1f}s (< 30s)",
    )


def test_criterion_02_theta_speed_monotonicity():
    rows = bench.theta_sweep(repeats=10)
    medians = {
        row["theta"]: row["median"]
        for row in rows
        if row["metric"] == "convergence_slope"
    }
    thetas = sorted(medians)
    slopes = [medians[t] for t in thetas]
    ok = all(b < a for a, b in zip(slopes, slopes[1:]))
    _report(
        2, "heterogeneity speeds convergence", ok,
        "10-seed median slopes per round "
        + ", ".join(f"theta={t}: {s:+.4f}" for t, s in zip(thetas, slopes))
        + " (strictly decreasing)",
    )


def test_criterion_03_consistency_slope():
    t0 = time.time()
    rows = bench.error_vs_n(repeats=5, seed0=0)
    elapsed = time.time() - t0
    slopes = {}
    for method in ("perpca", "distpca"):
        pts = sorted((r["n"], r["mean"]) for r in rows if r["method"] == method)
        slopes[method] = log_slope([p[0] for p in pts], [p[1] for p in pts])
    ok = (
        -1.25 <= slopes["perpca"] <= -0.75
        and -0.15 <= slopes["distpca"] <= 0.15
        and elapsed < 300.0
    )
    _report(
        3, "error-vs-n consistency", ok,
        f"perpca slope {slopes['perpca']:.3f} (in [-1.25, -0.75]), "
        f"distpca slope {slopes['distpca']:.3f} (in [-0.15, 0.15]), "
        f"runtime {elapsed:.0f}s (< 300s)",
    )


def test_criterion_04_dimension_scaling():
    rows = bench.error_vs_d(repeats=3, seed0=0)
    pts = sorted((r["d"], r["mean"]) for r in rows if r["method"] == "perpca")
    slope = log_slope([p[0] for p in pts], [p[1] for p in pts])
    ok = 1.5 <= slope <= 2.5
    _report(
        4, "error-vs-d scaling", ok,
        f"perpca log-log slope {slope:.3f} over d in {{10, 20, 40, 80}} (in [1.5, 2.5])",
    )


def test_criterion_05_knowledge_sharing_ordering():
    rows = bench.knowledge_sharing(repeats=5, seed0=0)
    mean = {(r["group"], r["method"]): r["mean"] for r in rows}
    ok = True
    lines = []
    for group in ("rich", "sparse"):
        p = mean[(group, "perpca")]
        others = {m: mean[(group, m)] for m in ("indivpca", "distpca", "cpca")}
        ok &= all(p < v for v in others.values())
        lines.append(
            f"{group}: perpca {p:.3f} vs "
            + ", ".join(f"{m} {v:.3f}" for m, v in others.items())
        )
    cpca_worst_rich = mean[("rich", "cpca")] == max(
        mean[("rich", m)] for m in ("perpca", "indivpca", "distpca", "cpca")
    )
    ok &= cpca_worst_rich
    _report(
        5, "knowledge sharing", ok,
        "; ".join(lines) + f"; cpca worst on rich: {cpca_worst_rich}",
    )


def test_criterion_06_stationarity_decay():
    mins = []
    for seed in range(10):
        spec = synth.GenerativeSpec(
            d=12, N=6, r1=1, r2=3, n_per_client=60,
            global_score_std=1.0, local_score_std=1.0, noise_std=1.5,
            seed=seed, groups=[0] * 6,
        )
        truth = synth.generate_components(spec)
        covs = [model.covariance(Y) for Y in synth.generate_observations(truth, spec)]
        config = solver.SolverConfig(r1=1, r2=3, rounds=400, seed=seed, init="random")
        _, trace = solver.run_perpca(covs, config)
        residual = np.array([t.kkt_global + t.kkt_local for t in trace])
        mins.append([np.min(residual[:R]) for R in (50, 100, 200, 400)])
    med = np.median(np.array(mins), axis=0)
    ratios = med[1:] / med[:-1]
    ok = bool(np.all(ratios <= 0.7))
    _report(
        6, "stationarity decay", ok,
        "10-seed median min-KKT at R=50,100,200,400: "
        + ", ".join(f"{m:.3e}" for m in med)
        + "; per-doubling ratios "
        + ", ".join(f"{r:.3f}" for r in ratios)
        + " (all <= 0.7)",
    )


def test_criterion_07_monotone_ascent():
    worst = np.inf
    for seed in range(20):
        spec = synth.GenerativeSpec(
            d=10, N=4, r1=2, r2=2, n_per_client=150,
            global_score_std=1.0, local_score_std=2.0, noise_std=0.5, seed=seed,
        )
        truth = synth.generate_components(spec)
        covs = [model.covariance(Y) for Y in synth.generate_observations(truth, spec)]
        config = solver.SolverConfig(r1=2, r2=2, rounds=200, seed=seed, init="random")
        _, trace = solver.run_perpca(covs, config)
        objs = np.array([t.objective for t in trace])
        worst = min(worst, float(np.min(np.diff(objs))))
    ok = worst >= -1e-12
    _report(
        7, "monotone ascent", ok,
        f"20 seeds x 200 rounds, worst per-round objective change {worst:.3e} (>= -1e-12)",
    )


def test_criterion_08_retraction_axioms():
    t0 = time.time()
    report = checks.retraction_suite(trials=1000, seed=0)
    elapsed = time.time() - t0
    ok = report.passed and elapsed < 10.0
    _report(8, "retraction axioms", ok, f"{report.detail}, runtime {elapsed:.1f}s (< 10s)")


def test_criterion_09_arrowhead_oracle():
    assert (checks.ARROWHEAD_MAX_BLOCK, checks.ARROWHEAD_MAX_CLIENTS) == (12, 6)
    report = checks.arrowhead_suite(trials=1000, seed=0)
    _report(9, "arrowhead eigenvalue floor", report.passed, report.detail)


def test_criterion_10_direct_sum_oracle():
    report = checks.direct_sum_suite(trials=500, seed=0)
    _report(10, "direct-sum bracketing", report.passed, report.detail)


def test_criterion_11_client_clustering():
    groups = [i // 10 for i in range(30)]
    perfect = 0
    for seed in range(10):
        spec = synth.GenerativeSpec(
            d=15, N=30, r1=2, r2=3, n_per_client=100,
            global_score_std=1.0, local_score_std=3.0, noise_std=0.5,
            seed=seed, groups=groups,
        )
        truth = synth.generate_components(spec)
        covs = [model.covariance(Y) for Y in synth.generate_observations(truth, spec)]
        config = solver.SolverConfig(r1=2, r2=3, rounds=30, seed=seed,
                                     record_trace=False)
        state, _ = solver.run_perpca(covs, config)
        labels = metrics.spectral_cluster(metrics.rho_matrix(state.V), 3, seed=seed)
        if metrics.adjusted_rand_index(labels, groups) == pytest.approx(1.0):
            perfect += 1
    ok = perfect >= 9
    _report(
        11, "client clustering", ok,
        f"3 planted groups x 10 clients, 30 rounds: perfect ARI on {perfect}/10 seeds (>= 9)",
    )


def test_criterion_12_choice_equivalence():
    worst = 0.0
    for seed in range(10):
        truth, covs = _recovery_instance(seed)
        states = {}
        for choice in (1, 2):
            config = solver.SolverConfig(
                r1=2, r2=3, rounds=500, seed=seed, choice=choice,
                stop_subspace_tol=1e-8, stepsize_scale=0.15,
            )
            states[choice], trace = solver.run_perpca(covs, config, truth=truth)
            assert trace[-1].subspace_error < 1e-8
        mutual = metrics.subspace_error(states[1], (states[2].U, states[2].V))
        worst = max(worst, mutual)
    ok = worst < 1e-6
    _report(
        12, "choice equivalence", ok,
        f"10 instances, worst mutual subspace error {worst:.2e} (< 1e-6)",
    )
