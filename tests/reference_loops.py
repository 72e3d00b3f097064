"""Client-by-client reference implementations of the stacked diagnostics.

The package computes these quantities over stacks of clients; the loops
below compute them one client at a time, in ascending client order, and
the tests require the package to match them bitwise.
"""

import numpy as np

from perpca import metrics, model
from perpca.errors import DimensionError


def _captured(F, S):
    # tr(F^T S F) without forming the d x d projector
    return float(np.sum(F * (S @ F)))


def objective(state, covs):
    model._require_covs(state, covs)
    total = 0.0
    for S, Vi in zip(covs, state.V):
        total += 0.5 * (_captured(state.U, S) + _captured(Vi, S))
    return total


def mean_reconstruction_error(state, covs):
    model._require_covs(state, covs)
    errs = [
        float(np.trace(S)) - _captured(state.U, S) - _captured(Vi, S)
        for S, Vi in zip(covs, state.V)
    ]
    return float(np.mean(errs))


def kkt_residual(state, covs):
    model._require_covs(state, covs)
    U = state.U
    global_sum = np.zeros_like(U)
    local_res = 0.0
    for S, Vi in zip(covs, state.V):
        SU = S @ U
        global_sum += SU - U @ (U.T @ SU) - Vi @ (Vi.T @ SU)
        SV = S @ Vi
        res_v = SV - U @ (U.T @ SV) - Vi @ (Vi.T @ SV)
        local_res += float(np.sum(res_v * res_v))
    return float(np.sum(global_sum * global_sum)), local_res


def subspace_distance(A, B):
    if A.ndim != 2 or B.ndim != 2 or A.shape[0] != B.shape[0]:
        raise DimensionError(f"frames need equal ambient dimension: {A.shape}, {B.shape}")
    diff = A @ A.T - B @ B.T
    return float(np.sum(diff * diff))


def subspace_error(state, truth):
    U_true, V_true = metrics.as_truth_pair(truth)
    err = subspace_distance(state.U, U_true)
    local = [subspace_distance(Vi, Wi) for Vi, Wi in zip(state.V, V_true)]
    return err + float(np.mean(local))


def operator_norm(S, rel_tol=1e-6, max_iter=10000):
    """Largest eigenvalue of one symmetric PSD matrix by power iteration."""
    d = S.shape[0]
    v = 1.0 + 1e-3 * np.arange(d)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        w = S @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            k = int(np.argmax(np.diagonal(S)))
            if S[k, k] <= 0.0:
                return 0.0
            v = np.zeros(d)
            v[k] = 1.0
            continue
        v = w / norm
        lam_new = float(v @ (S @ v))
        if abs(lam_new - lam) <= rel_tol * abs(lam_new):
            return lam_new
        lam = lam_new
    return lam


def diagnostics(state, covs):
    """``model.Diagnostics`` of a state, computed client by client."""
    kkt_g, kkt_l = kkt_residual(state, covs)
    return model.Diagnostics(objective(state, covs), kkt_g, kkt_l,
                             mean_reconstruction_error(state, covs))
