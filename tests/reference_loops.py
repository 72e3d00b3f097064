"""Client-by-client reference implementations of the stacked diagnostics,
baselines and state validation.

The package computes these quantities over stacks of clients; the loops
below compute them one client at a time, in ascending client order, and
the tests require the package to match them bitwise.
"""

import numpy as np

from perpca import baselines, model, stacks, stiefel
from perpca.errors import DimensionError, InvariantError, SingularityError


def _checked(state, covs):
    covs = model.covariance_stack(covs)
    if covs.shape[:2] != (state.n_clients, state.d):
        raise DimensionError(f"covariances {covs.shape} for state {state.n_clients} x {state.d}")
    return covs


def _captured(F, S):
    # tr(F^T S F) without forming the d x d projector
    return float(np.sum(F * (S @ F)))


def objective(state, covs):
    covs = _checked(state, covs)
    total = 0.0
    for S, Vi in zip(covs, state.V):
        total += 0.5 * (_captured(state.U, S) + _captured(Vi, S))
    return total


def mean_reconstruction_error(state, covs):
    covs = _checked(state, covs)
    errs = [
        float(np.trace(S)) - _captured(state.U, S) - _captured(Vi, S)
        for S, Vi in zip(covs, state.V)
    ]
    return float(np.mean(errs))


def kkt_residual(state, covs):
    covs = _checked(state, covs)
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
    U_true, V_true = (truth.U_true, truth.V_true) if hasattr(truth, "U_true") else truth
    err = subspace_distance(state.U, U_true)
    local = [subspace_distance(Vi, Wi) for Vi, Wi in zip(state.V, V_true)]
    return err + float(np.mean(local))


def rho_matrix(V_list):
    # both projectors and one shape check per pair, normalized by the larger rank
    n = len(V_list)
    rho = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            norm = max(V_list[i].shape[1], V_list[j].shape[1])
            rho[i, j] = rho[j, i] = subspace_distance(V_list[i], V_list[j]) / norm
    return rho


def _require_orthonormal(F, name):
    dev = np.max(np.abs(F.T @ F - np.eye(F.shape[1])))
    if not dev <= stiefel.ORTH_TOL:  # NaN fails too
        raise InvariantError(
            f"{name} columns not orthonormal: deviation {dev:.3e} exceeds {stiefel.ORTH_TOL:.1e}"
        )


def validate(U, V):
    """``ComponentState(U, V).validate()`` one client at a time: each local frame's
    shape, orthonormality and cross product with the shared frame, in that order."""
    stacks.require_shape(U, U.shape[0], "shared frame")
    _require_orthonormal(U, "shared frame")
    for i, Vi in enumerate(V):
        stacks.require_shape(Vi, U.shape[0], f"local frame {i}")
        _require_orthonormal(Vi, f"local frame {i}")
        dev = np.max(np.abs(U.T @ Vi))
        if not dev <= model.CROSS_TOL:
            raise InvariantError(
                f"client {i}: shared/local cross product {dev:.3e} exceeds {model.CROSS_TOL:.1e}"
            )


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


def fix_signs(vectors):
    """Largest-magnitude entry of each column made positive, column by column."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            out[:, j] = -col
    return out


def top_eigvecs(S, k):
    """Top-k eigenvectors of one symmetric matrix, descending, signs fixed."""
    values, vectors = np.linalg.eigh(S)
    order = np.argsort(values)[::-1][:k]
    return fix_signs(vectors[:, order])


def indiv_pca(covs, r_total):
    return [top_eigvecs(S, r_total) for S in covs]


def distpca_global(covs, r1, r2_list):
    frames = []
    for S, r2 in zip(covs, r2_list):
        F = top_eigvecs(S, r1 + r2)
        frames.append(F * (1.0 - baselines._TIE_BREAK * np.arange(r1 + r2)))
    stacked = np.concatenate(frames, axis=1)
    gram = stacked @ stacked.T
    values = np.linalg.eigvalsh(gram)
    if values[-r1] < 1e-12 * max(values[-1], 1.0):
        raise SingularityError(f"stacked client components have rank < {r1}")
    return top_eigvecs(gram, r1)


def distpca(covs, r1, r2_list):
    U = distpca_global(covs, r1, r2_list)
    V = []
    for S, r2 in zip(covs, r2_list):
        deflated = S - U @ (U.T @ S)
        deflated = deflated - (deflated @ U) @ U.T
        V.append(top_eigvecs((deflated + deflated.T) / 2.0, r2))
    return model.ComponentState(U, V).validate()
