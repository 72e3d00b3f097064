import numpy as np
import pytest

from forcing import each_mode
from perpca import bench, fileio, model


def test_scenario_registry():
    assert set(bench.SCENARIOS) == {
        "error-vs-n", "error-vs-d", "error-vs-N", "theta-sweep", "knowledge-sharing",
    }


def test_error_vs_n_smoke():
    rows = bench.error_vs_n(repeats=1, ns=(100, 300), n_clients=10, rounds=40)
    methods = {r["method"] for r in rows}
    assert methods == {"perpca", "distpca"}
    assert len(rows) == 4
    assert all(r["mean"] >= 0 for r in rows)


def test_error_vs_d_smoke():
    rows = bench.error_vs_d(repeats=1, ds=(6, 9), n=400, n_clients=6, rounds=40)
    assert {r["d"] for r in rows} == {6, 9}


def test_error_vs_N_reports_both_metrics():
    rows = bench.error_vs_N(repeats=2, Ns=(4, 8), n=300, rounds=60)
    metrics_seen = {r["metric"] for r in rows}
    assert metrics_seen == {"subspace_error", "shared_subspace_error"}
    # the shared-frame error improves with more participating clients
    shared = {r["N"]: r["mean"] for r in rows if r["metric"] == "shared_subspace_error"}
    assert shared[8] <= shared[4] * 1.5


def test_theta_sweep_gap_shrinks_with_theta():
    rows = bench.theta_sweep(repeats=3, thetas=(0.05, 0.3), rounds=120)
    gaps = {r["theta"]: r["mean"] for r in rows if r["metric"] == "final_log10_gap"}
    assert gaps[0.3] < gaps[0.05]


def test_knowledge_sharing_smoke():
    rows = bench.knowledge_sharing(repeats=1, n_clients=10, rounds=60, n_test=200)
    groups = {r["group"] for r in rows}
    assert groups == {"rich", "sparse"}
    truth_rich = [r for r in rows if r["method"] == "truth" and r["group"] == "rich"]
    assert truth_rich[0]["mean"] > 0


def test_held_out_errors_check_each_frame_set_once(monkeypatch):
    # the checks of the solver's and distpca's returned states, then one each of the truth,
    # the pooled frame and every indivpca frame, not one per client and method
    calls = []
    validate = model.ComponentState.validate
    monkeypatch.setattr(model.ComponentState, "validate",
                        lambda state: calls.append(state.n_clients) or validate(state))
    bench.knowledge_sharing(repeats=1, n_clients=10, rounds=60, n_test=200)
    assert calls == [10] * 3 + [0] * 11


def test_report_csv_union_header(tmp_path):
    rows = [
        {"scenario": "s", "method": "m", "metric": "x", "mean": 1.0, "std": 0.0,
         "median": 1.0, "repeats": 1, "n": 10},
        {"scenario": "s", "method": "m", "metric": "x", "mean": 2.0, "std": 0.0,
         "median": 2.0, "repeats": 1, "d": 5},
    ]
    path = fileio.save_table(tmp_path / "report.csv", bench.report_columns(rows), rows,
                             bench.REPORT_FMT)
    lines = path.read_text().splitlines()
    assert lines[0] == "scenario,method,metric,mean,std,repeats,d,median,n"
    assert len(lines) == 3
    assert lines[1].endswith(",10") and ",,," not in lines[0]


def test_fit_convergence_slope_ignores_floor():
    # geometric decay followed by a flat numerical floor
    gaps = np.concatenate([10.0 ** -(0.1 * np.arange(100)), np.full(100, 1e-16)])
    slope = bench.fit_convergence_slope(gaps)
    assert slope == pytest.approx(-0.1, abs=1e-3)


_METHODS = ("perpca", "indivpca", "cpca", "distpca", "truth")


@pytest.mark.parametrize("scenario, kwargs, grid, layout, extra", [
    ("error-vs-n", dict(repeats=1, ns=(100, 300), n_clients=10, rounds=40), "n",
     [(m, "subspace_error", n) for n in (100, 300) for m in ("perpca", "distpca")],
     ["N", "d", "median", "n", "r1", "r2"]),
    ("error-vs-d", dict(repeats=1, ds=(6, 9), n=400, n_clients=6, rounds=40), "d",
     [(m, "subspace_error", d) for d in (6, 9) for m in ("perpca", "distpca")],
     ["N", "d", "median", "n", "r1", "r2"]),
    ("error-vs-N", dict(repeats=2, Ns=(4, 8), n=300, rounds=60), "N",
     [("perpca", m, N) for N in (4, 8) for m in ("subspace_error", "shared_subspace_error")],
     ["N", "d", "median", "n", "r1", "r2"]),
    ("theta-sweep", dict(repeats=3, thetas=(0.05, 0.3), rounds=120), "theta",
     [("perpca", m, t) for t in (0.05, 0.3) for m in ("convergence_slope", "final_log10_gap")],
     ["N", "d", "median", "n", "r1", "r2", "theta"]),
    ("knowledge-sharing", dict(repeats=1, n_clients=10, rounds=60, n_test=200), "n",
     [(m, "test_reconstruction_error", 100, g) for g in ("rich", "sparse") for m in _METHODS],
     ["N", "d", "group", "median", "n", "r1", "r2"]),
])
def test_row_layout(scenario, kwargs, grid, layout, extra):
    rows = bench.SCENARIOS[scenario](**kwargs)
    got = [(r["method"], r["metric"], r[grid], *([r["group"]] if "group" in r else []))
           for r in rows]
    assert got == layout
    assert bench.report_columns(rows) == [
        "scenario", "method", "metric", "mean", "std", "repeats", *extra]
    assert {r["scenario"] for r in rows} == {scenario}
    assert {r["repeats"] for r in rows} == {kwargs["repeats"]}
    # the planted instance's shape, as passed or implied by the arguments
    if scenario == "error-vs-d":
        assert [(r["d"], r["r2"]) for r in rows] == [(6, 2), (6, 2), (9, 4), (9, 4)]
    if scenario == "theta-sweep":
        assert {(r["n"], r["d"], r["N"], r["r1"], r["r2"]) for r in rows} == {(500, 3, 2, 1, 1)}


def test_zero_repeats_rejected():
    with pytest.raises(ValueError, match="repeats must be >= 1"):
        bench.error_vs_n(repeats=0, ns=(100,), n_clients=4, rounds=5)


_SMALL = {"error-vs-n": dict(ns=(100, 300), n_clients=10, rounds=40),
          "error-vs-d": dict(ds=(6, 9), n=400, n_clients=6, rounds=40),
          "error-vs-N": dict(Ns=(4, 8), n=300, rounds=60),
          "theta-sweep": dict(thetas=(0.05, 0.3), rounds=120),
          "knowledge-sharing": dict(n_clients=10, rounds=60, n_test=200)}


@pytest.mark.parametrize("scenario", sorted(bench.SCENARIOS))
def test_rows_equal_with_clients_drawn_on_threads(scenario):
    # the serial loop against three threads at any size, even on one CPU
    serial, threaded = each_mode(lambda mode: bench.SCENARIOS[scenario](repeats=2,
                                                                        **_SMALL[scenario]))
    assert serial == threaded
