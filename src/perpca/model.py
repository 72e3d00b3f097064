"""Datasets, covariance statistics, the shared/local objective, and
stationarity diagnostics.

Datasets are ``(d, n_i)`` ndarrays (features x observations). A client's
covariance ``S_i = Y_i Y_i^T / n_i`` is the only statistic the solver ever
touches; raw observations are needed only for reconstruction errors.

Reductions over clients always run in ascending client order, so results
are deterministic.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import stacks, stiefel
from .errors import DimensionError, InvariantError

CROSS_TOL = 1e-8
SCALE_RANGE = (1e-100, 1e100)  # for a nonzero covariance's largest entry: squares stay normal


@dataclass(frozen=True, eq=False)
class ComponentState:
    """Shared frame U (d x r1) plus one local frame per client (d x r2_i).

    Invariants: all frames orthonormal, and U^T V_i = 0 for every client. Making a
    state checks every frame's shape and groups the local frames once: it keeps the
    ``groups`` and ``stacks`` of :func:`stacks.by_rank`, and ``V``, the tuple of
    client-ordered views into ``stacks``. It is frozen, so they cannot disagree.
    """

    U: np.ndarray
    V: tuple = ()
    groups: list = field(init=False, repr=False)
    stacks: list = field(init=False, repr=False)

    def __post_init__(self):
        U = np.asarray(self.U, dtype=float)
        stacks.require_shape(U, U.shape[0] if U.ndim else 0, "shared frame")
        groups, V = stacks.by_rank(self.V, U.shape[0])
        for name, value in [("U", U), ("V", tuple(stacks.client_order(groups, V))),
                            ("groups", groups), ("stacks", V)]:
            object.__setattr__(self, name, value)

    @property
    def d(self):
        return self.U.shape[0]

    @property
    def r2(self):
        return [Vi.shape[1] for Vi in self.V]

    @property
    def n_clients(self):
        return len(self.V)

    def validate(self):
        """Raise unless all orthonormality and cross-orthogonality invariants hold (NaN
        fails), checking the local frames as one stack per rank group. An error names
        the lowest-numbered failing client, orthonormality before cross-orthogonality."""
        U = stiefel.require_frame(self.U, name="shared frame")
        failing = {}  # the cross product of each failing client
        for clients, Vg in zip(self.groups, self.stacks):
            cross = np.max(np.abs(U.T @ Vg), axis=(1, 2))
            ok = (stiefel.orthonormality_deviation(Vg) <= stiefel.ORTH_TOL) & (cross <= CROSS_TOL)
            failing.update(zip(clients[~ok].tolist(), cross[~ok]))
        if failing:
            i = min(failing)
            stiefel.require_frame(self.V[i], name=f"local frame {i}")  # raises when not orthonormal
            raise InvariantError(
                f"client {i}: shared/local cross product {failing[i]:.3e} exceeds {CROSS_TOL:.1e}")
        return self


def local_ranks(r1, r2, n_clients, d):
    """The one rank rule: the clients' local ranks from an int or a per-client list ``r2``.

    Raises ``DimensionError`` for a list of other length than ``n_clients`` and
    ``ValueError`` for ``r1 < 1``, no clients, a local rank below 1 (naming the first such
    client) or ``r1 + max(r2) > d``."""
    if r1 < 1:
        raise ValueError("r1 must be >= 1")
    if n_clients < 1:
        raise ValueError("need at least one client")
    r2 = [int(r2)] * n_clients if np.ndim(r2) == 0 else [int(v) for v in r2]
    if len(r2) != n_clients:
        raise DimensionError(f"{len(r2)} local ranks for {n_clients} clients")
    low = [i for i, r in enumerate(r2) if r < 1]
    if low:
        raise ValueError(f"client {low[0]}: local rank must be >= 1, got {r2[low[0]]}")
    if r1 + max(r2) > d:
        raise ValueError(f"r1 + max(r2) = {r1 + max(r2)} exceeds dimension {d}")
    return r2


def covariance(Y):
    """Covariance S = Y Y^T / n of a (d, n) dataset; symmetric PSD by construction."""
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[1] < 1:
        raise ValueError(f"dataset must be (d, n) with n >= 1, got shape {Y.shape}")
    S = Y @ Y.T / Y.shape[1]
    return (S + S.T) / 2.0


def covariance_stack(covs):
    """Client covariances as one checked, C-contiguous ``(N, d, d)`` float stack.

    Raises ``DimensionError`` for a shape other than the first one's
    ``(d, d)`` and ``ValueError`` for no covariances, non-finite entries, a
    nonzero largest entry outside :data:`SCALE_RANGE` or asymmetry beyond
    1e-8 of the largest entry, naming the first bad client.
    """
    if len(covs) == 0:
        raise ValueError("need at least one client covariance")
    shapes = [np.shape(S) for S in covs]
    d = shapes[0][0] if shapes[0] else 0
    for i, shape in enumerate(shapes):
        if shape != (d, d):
            raise DimensionError(f"covariance {i} has shape {shape}, expected ({d}, {d})")
    stack = np.ascontiguousarray(covs, dtype=float)
    peak = np.max(np.abs(stack), axis=(1, 2))  # not finite where an entry is not
    if not np.isfinite(peak).all():
        raise ValueError(f"covariance {int(np.argmin(np.isfinite(peak)))} has non-finite entries")
    bad = np.flatnonzero((peak > SCALE_RANGE[1]) | ((peak > 0) & (peak < SCALE_RANGE[0])))
    if bad.size:
        raise ValueError(f"covariance {bad[0]} has largest entry {peak[bad[0]]:.1e}, "
                         f"outside {SCALE_RANGE}")
    asym = np.max(np.abs(stack - np.swapaxes(stack, 1, 2)), axis=(1, 2))
    bad = np.flatnonzero(asym > 1e-8 * np.maximum(1.0, peak))
    if bad.size:
        raise ValueError(f"covariance {bad[0]} is not symmetric")
    return stack


class Diagnostics(NamedTuple):
    """Per-round stationarity and fit quantities of a feasible state."""

    objective: float
    kkt_global: float
    kkt_local: float
    recon_error_mean: float


def diagnostics(U, V, covs, groups):
    """Objective, KKT residuals and mean reconstruction error in one pass.

    ``groups`` lists the clients of each local-rank group (see
    :mod:`perpca.stacks`); ``V[g]`` is the ``(n_g, d, r2)`` stack of their
    local frames and ``covs[g]`` the ``(n_g, d, d)`` stack of their
    covariances. ``S_i U`` and ``S_i V_i`` are formed once per client and
    feed every quantity. The objective, ``kkt_local`` and the ``kkt_global`` sum
    are :func:`stacks.client_sum` of per-client terms and the reconstruction
    errors go through ``np.mean``, so each equals a client-by-client loop bitwise.
    """
    parts = []
    for S, Vg in zip(covs, V):
        SU = S @ U
        SV = S @ Vg
        Vt = np.swapaxes(Vg, -1, -2)
        global_terms = SU - U @ (U.T @ SU) - Vg @ (Vt @ SU)
        local_terms = SV - U @ (U.T @ SV) - Vg @ (Vt @ SV)
        parts.append((
            np.sum(U * SU, axis=(1, 2)),
            np.sum(Vg * SV, axis=(1, 2)),
            np.trace(S, axis1=1, axis2=2),
            global_terms,
            np.sum(local_terms * local_terms, axis=(1, 2)),
        ))
    captured_u, captured_v, traces, global_terms, local_res = (
        stacks.client_stack(groups, column) for column in zip(*parts))
    global_sum = stacks.client_sum(global_terms)
    return Diagnostics(
        objective=float(stacks.client_sum(0.5 * (captured_u + captured_v))),
        kkt_global=float(np.sum(global_sum * global_sum)),
        kkt_local=float(stacks.client_sum(local_res)),
        recon_error_mean=float(np.mean(traces - captured_u - captured_v)),
    )


def _diagnostics_of(state, covs):
    covs = covariance_stack(covs)
    if covs.shape[:2] != (state.n_clients, state.d):
        raise DimensionError(f"{len(covs)} covariances of shape {covs.shape[1:]} for "
                             f"{state.n_clients} clients at d={state.d}")
    return diagnostics(state.U, state.stacks, stacks.by_group(state.groups, covs), state.groups)


def objective(state, covs):
    """Total explained variance (1/2) sum_i [tr(U^T S_i U) + tr(V_i^T S_i V_i)].

    Depends on the frames only through their column spaces; nonnegative for
    PSD covariances.
    """
    return _diagnostics_of(state, covs).objective


def reconstruction_error(Y, U, V=None):
    """Mean squared residual (1/n) ||Y - (P_U + P_V) Y||_F^2.

    ``V`` may be None when a single frame captures everything retained. The frames
    must pass :meth:`ComponentState.validate`: U^T V = 0 makes P_U + P_V a projector.
    """
    Y = np.asarray(Y, dtype=float)
    state = ComponentState(U, [] if V is None else [V]).validate()
    if Y.ndim != 2 or state.d != Y.shape[0]:
        raise DimensionError(f"data {Y.shape} and frame {state.U.shape} disagree on d")
    return _reconstruction_error(Y, [state.U, *state.V])


def _reconstruction_error(Y, frames):
    """:func:`reconstruction_error` of a float ``(d, n)`` dataset and its validated
    frames ``[U]`` or ``[U, V]`` of the same d."""
    resid = Y - sum(F @ (F.T @ Y) for F in frames)
    return float(np.sum(resid * resid)) / Y.shape[1]


def mean_reconstruction_error(state, covs):
    """Mean over clients of tr(S_i) - tr(U^T S_i U) - tr(V_i^T S_i V_i).

    Identical to the raw-data reconstruction error, but computable from the
    covariances alone.
    """
    return _diagnostics_of(state, covs).recon_error_mean


def kkt_residual(state, covs):
    """Squared norms of the first-order stationarity conditions.

    Returns ``(global_res, local_res)`` with
    global_res = ||sum_i (I - P_U - P_Vi) S_i U||_F^2 and
    local_res  = sum_i ||(I - P_U - P_Vi) S_i V_i||_F^2.
    Both vanish exactly at stationary points of the objective.
    """
    diag = _diagnostics_of(state, covs)
    return diag.kkt_global, diag.kkt_local
