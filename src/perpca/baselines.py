"""One-shot comparison methods: stacked distributed PCA with deflation,
per-client PCA, and pooled (centralized) PCA. The clients' covariances are
one checked stack, eigendecomposed by one batched ``eigh`` call."""

import numpy as np

from . import model
from .errors import DimensionError, SingularityError


def _fix_signs(vectors):
    # deterministic orientation: largest-magnitude entry of each column positive
    # (argmax takes the lowest index on ties); slice by slice for a stack
    peak = np.argmax(np.abs(vectors), axis=-2)[..., None, :]
    flip = np.take_along_axis(vectors, peak, axis=-2) < 0
    return np.where(flip, -vectors, vectors)


def top_eigvecs(S, k):
    """Top-k eigenvectors of a symmetric matrix as a d x k frame, in descending
    eigenvalue order, signs fixed. A stack ``(N, d, d)`` gives the
    ``(N, d, k)`` stack of the slices' frames."""
    S = np.asarray(S, dtype=float)
    if S.ndim not in (2, 3) or S.shape[-1] != S.shape[-2]:
        raise DimensionError(f"matrix must be square, got {S.shape}")
    if not 1 <= k <= S.shape[-1]:
        raise ValueError(f"need 1 <= k <= {S.shape[-1]}, got k={k}")
    values, vectors = np.linalg.eigh(S)
    order = np.argsort(values, axis=-1)[..., ::-1][..., :k]
    return _fix_signs(np.take_along_axis(vectors, order[..., None, :], axis=-1))


_TIE_BREAK = 1e-6
_RANK_TOL = 1e-12  # relative eigenvalue floor of the stacked gram's top r1


def distpca_global(covs, r1, r2_list):
    """Server stage of one-shot distributed PCA.

    Each client contributes its top (r1 + r2_i) eigenvectors; the stacked
    d x sum(r1 + r2_i) matrix is reduced to its top-r1 principal directions.
    Columns keep unit magnitude up to an infinitesimal within-client rank
    ramp: without it the stacked gram of orthonormal frames has exactly
    degenerate eigenvalues and the retained subspace would be
    eigensolver-arbitrary (a single client must reduce to spectral
    truncation). Client i keeps the first r1 + r2_i columns of a batched
    eigendecomposition at rank r1 + max(r2_i). The ranks follow
    :func:`model.local_ranks`.
    """
    covs = model.covariance_stack(covs)
    return _distpca_global(covs, r1, model.local_ranks(r1, r2_list, len(covs), covs.shape[1]))


def _distpca_global(covs, r1, r2_list):
    # distpca_global over a checked stack and rank list
    width = r1 + max(r2_list)
    frames = top_eigvecs(covs, width) * (1.0 - _TIE_BREAK * np.arange(width))
    stacked = np.concatenate([F[:, :r1 + r2] for F, r2 in zip(frames, r2_list)], axis=1)
    gram = stacked @ stacked.T
    values = np.linalg.eigvalsh(gram)
    if values[-r1] < _RANK_TOL * max(values[-1], 1.0):
        raise SingularityError(
            f"stacked client components have rank < {r1}"
        )
    return top_eigvecs(gram, r1)


def distpca(covs, r1, r2_list):
    """One-shot distributed PCA with per-client deflation.

    The shared frame comes from :func:`distpca_global`; each client then
    deflates S_i to (I - P_U) S_i (I - P_U) and keeps its top r2_i
    eigenvectors as the local frame, which are orthogonal to U by
    construction. The clients deflate and decompose as one stack.
    """
    covs = model.covariance_stack(covs)
    r2_list = model.local_ranks(r1, r2_list, len(covs), covs.shape[1])
    U = _distpca_global(covs, r1, r2_list)
    deflated = covs - U @ (U.T @ covs)
    deflated = deflated - (deflated @ U) @ U.T
    frames = top_eigvecs((deflated + np.swapaxes(deflated, 1, 2)) / 2.0, max(r2_list))
    V = [F[:, :r2].copy() for F, r2 in zip(frames, r2_list)]
    return model.ComponentState(U, V).validate()


def indiv_pca(covs, r_total):
    """Per-client top-``r_total`` eigenvectors; no sharing between clients."""
    return list(top_eigvecs(model.covariance_stack(covs), r_total))


def central_pca(covs, counts, r_total):
    """Top-``r_total`` eigenvectors of the observation-weighted pooled covariance."""
    covs = model.covariance_stack(covs)
    if len(counts) != len(covs):
        raise DimensionError(f"{len(counts)} counts for {len(covs)} covariances")
    for i, n in enumerate(counts):
        if not 0 <= n < np.inf:  # NaN fails too
            raise ValueError(f"client {i}: observation count {n} must be finite and >= 0")
    total = float(sum(counts))
    if total <= 0:
        raise ValueError("pooled dataset is empty")
    pooled = sum(n * S for n, S in zip(counts, covs)) / total
    return top_eigvecs(pooled, r_total)
