import numpy as np
import pytest

from perpca import checks, metrics, stiefel


def test_retraction_suite_quick():
    report = checks.retraction_suite(trials=100, seed=1)
    assert report.passed, report.detail


def test_retraction_suite_checks_every_registered_retraction(monkeypatch):
    # a registered retraction that ignores its update is not second-order accurate
    monkeypatch.setitem(stiefel.RETRACTIONS, "frozen", lambda U, xi: U.copy())
    report = checks.retraction_suite(trials=20, seed=1)
    assert not report.passed
    assert report.detail.endswith(", 20 slope violations")


def test_arrowhead_suite_quick():
    report = checks.arrowhead_suite(trials=150, seed=1)
    assert report.passed, report.detail


def test_direct_sum_suite_quick():
    report = checks.direct_sum_suite(trials=100, seed=1)
    assert report.passed, report.detail


def test_run_suites_all_named():
    reports = checks.run_suites(seed=2)
    assert [r.name for r in reports] == ["retraction", "arrowhead", "direct-sum"]


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        checks.run_suites(["nonsense"])


def test_injected_bound_violation_detected(monkeypatch):
    # a wrong closed-form floor must make the arrowhead suite fail by name
    monkeypatch.setattr(
        metrics, "arrowhead_min_eig_bound", lambda theta: np.minimum(1.0, np.asarray(theta) * 3.0)
    )
    report = checks.arrowhead_suite(trials=60, seed=3)
    assert not report.passed
    assert report.name == "arrowhead"


def test_suite_reports_are_deterministic():
    a = checks.direct_sum_suite(trials=50, seed=9)
    b = checks.direct_sum_suite(trials=50, seed=9)
    assert a == b
