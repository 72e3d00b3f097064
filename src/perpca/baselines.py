"""One-shot comparison methods: stacked distributed PCA with deflation,
per-client PCA, and pooled (centralized) PCA."""

import numpy as np

from .errors import DimensionError, SingularityError
from .model import ComponentState


def _fix_signs(vectors):
    # deterministic orientation: largest-magnitude entry of each column positive
    # (argmax takes the lowest index on ties)
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            out[:, j] = -col
    return out


def top_eigvecs(S, k):
    """Top-k eigenvectors of a symmetric matrix as a d x k frame, in descending
    eigenvalue order, signs fixed."""
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise DimensionError(f"matrix must be square, got {S.shape}")
    if not 1 <= k <= S.shape[0]:
        raise ValueError(f"need 1 <= k <= {S.shape[0]}, got k={k}")
    values, vectors = np.linalg.eigh(S)
    order = np.argsort(values)[::-1][:k]
    return _fix_signs(vectors[:, order])


def _as_r2_list(r2, n_clients):
    if np.ndim(r2) == 0:
        return [int(r2)] * n_clients
    r2 = [int(v) for v in r2]
    if len(r2) != n_clients:
        raise DimensionError(f"{len(r2)} local ranks for {n_clients} clients")
    return r2


_TIE_BREAK = 1e-6


def distpca_global(covs, r1, r2_list, rank_tol=1e-12):
    """Server stage of one-shot distributed PCA.

    Each client contributes its top (r1 + r2_i) eigenvectors; the stacked
    d x sum(r1 + r2_i) matrix is reduced to its top-r1 principal directions.
    Columns keep unit magnitude up to an infinitesimal within-client rank
    ramp: without it the stacked gram of orthonormal frames has exactly
    degenerate eigenvalues and the retained subspace would be
    eigensolver-arbitrary (a single client must reduce to spectral
    truncation).
    """
    frames = []
    for S, r2 in zip(covs, r2_list):
        F = top_eigvecs(S, r1 + r2)
        frames.append(F * (1.0 - _TIE_BREAK * np.arange(r1 + r2)))
    stacked = np.concatenate(frames, axis=1)
    gram = stacked @ stacked.T
    values = np.linalg.eigvalsh(gram)
    if values[-r1] < rank_tol * max(values[-1], 1.0):
        raise SingularityError(
            f"stacked client components have rank < {r1}"
        )
    return top_eigvecs(gram, r1)


def distpca(covs, r1, r2_list):
    """One-shot distributed PCA with per-client deflation.

    The shared frame comes from :func:`distpca_global`; each client then
    deflates S_i to (I - P_U) S_i (I - P_U) and keeps its top r2_i
    eigenvectors as the local frame, which are orthogonal to U by
    construction.
    """
    r2_list = _as_r2_list(r2_list, len(covs))
    d = covs[0].shape[0]
    for r2 in r2_list:
        if r1 + r2 > d:
            raise ValueError(f"r1 + r2 = {r1 + r2} exceeds dimension {d}")
    U = distpca_global(covs, r1, r2_list)
    V = []
    for S, r2 in zip(covs, r2_list):
        deflated = S - U @ (U.T @ S)
        deflated = deflated - (deflated @ U) @ U.T
        V.append(top_eigvecs((deflated + deflated.T) / 2.0, r2))
    return ComponentState(U, V).validate()


def indiv_pca(covs, r_total):
    """Per-client top-``r_total`` eigenvectors; no sharing between clients."""
    return [top_eigvecs(S, r_total) for S in covs]


def central_pca(covs, counts, r_total):
    """Top-``r_total`` eigenvectors of the observation-weighted pooled covariance."""
    if len(counts) != len(covs):
        raise DimensionError(f"{len(counts)} counts for {len(covs)} covariances")
    total = float(sum(counts))
    if total <= 0:
        raise ValueError("pooled dataset is empty")
    pooled = sum(n * S for n, S in zip(counts, covs)) / total
    return top_eigvecs(pooled, r_total)
