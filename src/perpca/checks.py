"""Randomized verification suites for the numerical foundations.

Each suite draws seeded random instances, tests a claim that the library
relies on (retraction axioms, the arrowhead eigenvalue floor, the
direct-sum bracketing inequalities), and reports violations. The suites
are what the command-line ``check`` runs; they are oracles, not unit
tests, so their claims are verified rather than assumed.
"""

from dataclasses import dataclass

import numpy as np

from . import metrics, stiefel
from .rng import substream

ARROWHEAD_MAX_BLOCK = 12  # largest block size m drawn by the arrowhead suite
ARROWHEAD_MAX_CLIENTS = 6  # largest client count N drawn by the arrowhead suite


@dataclass
class SuiteReport:
    name: str
    passed: bool
    detail: str

    def line(self):
        mark = "PASS" if self.passed else "FAIL"
        return f"{mark} {self.name}: {self.detail}"


def retraction_suite(trials=1000, seed=0):
    """Column-space preservation and second-order accuracy of every registered retraction.

    Per trial: a random frame and an update with Frobenius norm <= 0.25.
    Each retraction in ``stiefel.RETRACTIONS``, in table order, is checked:
    (a) the retracted frame spans col(U + xi) within 1e-8 projector
    distance, and (b) for tangent updates the residual against U + xi
    shrinks quadratically (log-log slope in [1.9, 2.1] over four decades).
    """
    rng = substream(seed, "trials", 1)
    span_fail = 0
    slope_fail = 0
    scales = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    worst_dist = 0.0
    for _ in range(trials):
        d = int(rng.integers(2, 14))
        r = int(rng.integers(1, min(d, 5) + 1))
        U = stiefel.random_frame(d, r, rng)
        xi = rng.standard_normal((d, r))
        xi *= rng.uniform(0.0, 0.25) / max(np.linalg.norm(xi), 1e-300)
        ref = stiefel.orthonormalize(U + xi)
        tangent = stiefel.project_tangent(U, rng.standard_normal((d, r)))
        tangent /= np.linalg.norm(tangent)
        for retract in stiefel.RETRACTIONS.values():
            dist = np.sqrt(stiefel.subspace_distance(retract(U, xi), ref))
            worst_dist = max(worst_dist, dist)
            if dist >= 1e-8:
                span_fail += 1
            resid = [np.linalg.norm(retract(U, s * tangent) - (U + s * tangent)) for s in scales]
            slope = np.polyfit(np.log(scales), np.log(resid), 1)[0]
            if not 1.9 <= slope <= 2.1:
                slope_fail += 1
    return SuiteReport(
        name="retraction",
        passed=span_fail + slope_fail == 0,
        detail=(
            f"{trials} trials, {span_fail} span violations "
            f"(worst projector distance {worst_dist:.2e}), {slope_fail} slope violations"
        ),
    )


def arrowhead_suite(trials=1000, seed=0):
    """Eigenvalue floor of the conjugated block-arrowhead form.

    Random blocks are rescaled so the heterogeneity parameter sweeps
    (0, 1); the suite counts floor violations beyond 1e-10 slack and also
    checks the scalar configuration where the floor is attained exactly.
    """
    rng = substream(seed, "trials", 2)
    violations = 0
    worst_slack = np.inf
    for _ in range(trials):
        m = int(rng.integers(1, ARROWHEAD_MAX_BLOCK + 1))
        N = int(rng.integers(1, ARROWHEAD_MAX_CLIENTS + 1))
        theta = rng.uniform(0.02, 0.98)
        B = rng.standard_normal((m, N * m))
        lam = np.linalg.eigvalsh(N * (B @ B.T))[-1]
        B *= np.sqrt((1.0 - theta) / lam)
        lam_min, floor = metrics.arrowhead_min_eig(B, N)
        slack = lam_min - floor
        worst_slack = min(worst_slack, slack)
        if slack < -1e-10:
            violations += 1
    tight_gap = 0.0
    for theta in np.linspace(0.05, 0.95, 19):
        b = np.array([[np.sqrt(1.0 - theta)]])
        lam_min, floor = metrics.arrowhead_min_eig(b, 1)
        tight_gap = max(tight_gap, abs(lam_min - floor))
    return SuiteReport(
        name="arrowhead",
        passed=violations == 0 and tight_gap < 1e-9,
        detail=(
            f"{trials} trials, {violations} floor violations "
            f"(worst slack {worst_slack:.2e}), scalar tight-case gap {tight_gap:.2e}"
        ),
    )


def direct_sum_suite(trials=500, seed=0):
    """Bracketing of the direct-sum gap by the individual-subspace gaps.

    Random cross-orthogonal projector families with positive reference
    heterogeneity; counts violations of lower <= gap <= upper at 1e-10
    slack.
    """
    rng = substream(seed, "trials", 3)
    violations = 0

    def family(d, r1, r2, n):
        U = stiefel.random_frame(d, r1, rng)
        return stiefel.projector(U), [
            stiefel.projector(stiefel.random_frame(d, r2, rng, against=U)) for _ in range(n)]

    for _ in range(trials):
        d = int(rng.integers(4, 12))
        r1 = int(rng.integers(1, 3))
        r2 = int(rng.integers(1, min(3, d - r1) + 1))
        n = int(rng.integers(2, 6))
        P_u, P_v = family(d, r1, r2, n)
        Q_u, Q_v = family(d, r1, r2, n)
        lhs, upper, lower = metrics.direct_sum_closeness_bounds(P_u, P_v, Q_u, Q_v)
        if not (lower - 1e-10 <= lhs <= upper + 1e-10):
            violations += 1
    return SuiteReport(
        name="direct-sum",
        passed=violations == 0,
        detail=f"{trials} trials, {violations} bracketing violations",
    )


ALL_SUITES = {
    "retraction": retraction_suite,
    "arrowhead": arrowhead_suite,
    "direct-sum": direct_sum_suite,
}


def run_suites(names=None, seed=0):
    """Run the named suites (all by default) and return their reports."""
    selected = list(ALL_SUITES) if names is None else list(names)
    reports = []
    for name in selected:
        if name not in ALL_SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(ALL_SUITES)}")
        reports.append(ALL_SUITES[name](seed=seed))
    return reports
