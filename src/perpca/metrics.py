"""Evaluation quantities and numerical oracles for the supporting theory:
subspace error against a planted truth, pairwise local-subspace distances,
spectral clustering of clients, and executable checks of the arrowhead
eigenvalue bound and the direct-sum bracketing inequalities.
"""

import numpy as np

from . import model, stacks, stiefel
from .errors import DimensionError, InvariantError
from .rng import substream

KMEANS_ITERS = 100
KMEANS_RESTARTS = 20
ARROWHEAD_SLACK = 1e-10  # rounding allowance on lambda_max(N B B^T) <= 1


def truth_projectors(truth, groups, d):
    """A ``(U_true, V_true_list)`` pair, or an object with ``U_true`` and ``V_true``,
    prepared for :func:`stacked_subspace_error` over the clients ``groups[g]`` (see
    :mod:`perpca.stacks`): ``P_U*``, the ``(n_g, d, d)`` stack of each group's ``P_V*``,
    and one scratch stack of that shape per group, which every call overwrites so that
    it allocates no ``(n_g, d, d)`` array. A frame count other than the number of
    clients, or a frame that breaks :func:`stacks.require_shape`, raises
    ``DimensionError`` naming it."""
    U, V = (truth.U_true, truth.V_true) if hasattr(truth, "U_true") else truth
    n_clients = sum(len(clients) for clients in groups)
    if len(V) != n_clients:
        raise DimensionError(f"{len(V)} true local frames for {n_clients} clients")
    stacks.require_shape(U, d, "true shared frame")
    true_groups, W = stacks.by_rank(V, d, "true local frame")
    P_V = stacks.client_stack(true_groups, [stiefel.projector(Wg) for Wg in W])
    grouped = stacks.by_group(groups, P_V)
    return stiefel.projector(U), grouped, [np.empty_like(P) for P in grouped]


def stacked_subspace_error(U, V, groups, projectors):
    """:func:`subspace_error` of ``U`` and the stacks ``V[g]`` of the clients ``groups[g]``,
    given :func:`truth_projectors` of the same groups; equal to it bitwise."""
    P_U, P_V, scratch = projectors
    diff = stiefel.projector(U) - P_U
    local = []
    for Vg, P, D in zip(V, P_V, scratch):
        stiefel.projector(Vg, out=D)
        D -= P
        D *= D
        local.append(np.sum(D, axis=(1, 2)))
    return float(np.sum(diff * diff)) + float(np.mean(stacks.client_stack(groups, local)))


def subspace_error(state, truth):
    """||P_U - P_U*||_F^2 plus the client average of ||P_Vi - P_Vi*||_F^2.

    Zero iff every estimated subspace matches its planted counterpart. A true
    frame that breaks :func:`stacks.require_shape` raises ``DimensionError`` naming it.
    """
    return stacked_subspace_error(state.U, state.stacks, state.groups,
                                  truth_projectors(truth, state.groups, state.d))


def rho_matrix(V_list):
    """Pairwise normalized projector distances between clients' local frames.

    rho_ij = ||P_Vi - P_Vj||_F^2 / r2 for equal local ranks; pairs with
    unequal ranks are normalized by the larger rank. Symmetric, zero
    diagonal, entries in [0, 2]. :func:`stacks.by_rank` checks the frames against
    the first one's ``d``; each row is one stacked difference of projectors.
    """
    n = len(V_list)
    rho = np.zeros((n, n))
    if n == 0:
        return rho
    groups, frames = stacks.by_rank(V_list, np.shape(V_list[0])[0] if np.ndim(V_list[0]) else 0)
    P = stacks.client_stack(groups, [stiefel.projector(F) for F in frames])
    ranks = np.array([np.shape(F)[1] for F in V_list])
    for i in range(n - 1):
        diff = P[i] - P[i + 1:]
        row = np.sum(diff * diff, axis=(1, 2)) / np.maximum(ranks[i], ranks[i + 1:])
        rho[i, i + 1:] = rho[i + 1:, i] = row
    return rho


def _kmeans_once(X, k, rng):
    n = X.shape[0]
    # k-means++ seeding
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    dist2 = np.sum((X - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = dist2.sum()
        if total <= 0:
            centers[j] = X[rng.integers(n)]
        else:
            centers[j] = X[rng.choice(n, p=dist2 / total)]
        dist2 = np.minimum(dist2, np.sum((X - centers[j]) ** 2, axis=1))
    labels = np.zeros(n, dtype=int)
    for _ in range(KMEANS_ITERS):
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(d2, axis=1)
        for j in range(k):
            mask = new_labels == j
            if mask.any():
                centers[j] = X[mask].mean(axis=0)
            else:  # re-seed an empty cluster on the farthest point
                far = np.argmax(d2[np.arange(n), new_labels])
                centers[j] = X[far]
                new_labels[far] = j
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    inertia = float(((X - centers[labels]) ** 2).sum())
    return labels, inertia


def _canonical_labels(labels):
    # relabel clusters in order of first appearance
    mapping = {}
    out = np.empty_like(labels)
    for idx, lab in enumerate(labels):
        if lab not in mapping:
            mapping[lab] = len(mapping)
        out[idx] = mapping[lab]
    return out


def spectral_cluster(rho, k, seed=0):
    """Cluster clients from their pairwise local-subspace distances.

    Gaussian affinity with the median off-diagonal distance as bandwidth,
    symmetric normalized Laplacian, bottom-k eigenvectors, seeded k-means
    with ``KMEANS_RESTARTS`` restarts keeping the best inertia. Labels are
    relabeled in order of first appearance, so the output is deterministic
    given (rho, k, seed).
    """
    rho = np.asarray(rho, dtype=float)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionError(f"distance matrix must be square, got {rho.shape}")
    n = rho.shape[0]
    bad = np.argwhere(~((rho >= 0) & (rho < np.inf)))  # NaN fails both
    if bad.size:
        row, col = bad[0]
        raise ValueError(f"distance {rho[row, col]} in row {row}, column {col} "
                         "must be finite and >= 0")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n} clusters, got k={k}")
    off = rho[~np.eye(n, dtype=bool)]
    bandwidth = float(np.median(off)) if off.size else 1.0
    A = np.exp(-rho / bandwidth) if bandwidth > 0 else np.ones_like(rho)
    deg = A.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(deg)
    L = np.eye(n) - inv_sqrt[:, None] * A * inv_sqrt[None, :]
    _, vecs = np.linalg.eigh(L)
    emb = vecs[:, :k]
    norms = np.linalg.norm(emb, axis=1, keepdims=True)
    emb = emb / np.where(norms > 0, norms, 1.0)
    best_labels, best_inertia = None, np.inf
    for trial in range(KMEANS_RESTARTS):
        labels, inertia = _kmeans_once(emb, k, substream(seed, "kmeans", trial))
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return _canonical_labels(best_labels)


def adjusted_rand_index(labels_a, labels_b):
    """Chance-corrected agreement between two partitions (1.0 = identical)."""
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape:
        raise DimensionError("label vectors differ in length")
    n = a.size
    cats_a, a_idx = np.unique(a, return_inverse=True)
    cats_b, b_idx = np.unique(b, return_inverse=True)
    table = np.zeros((cats_a.size, cats_b.size), dtype=np.int64)
    np.add.at(table, (a_idx, b_idx), 1)

    def comb2(x):
        return x * (x - 1) // 2

    sum_cells = comb2(table).sum()
    sum_rows = comb2(table.sum(axis=1)).sum()
    sum_cols = comb2(table.sum(axis=0)).sum()
    total = comb2(np.int64(n))
    expected = sum_rows * sum_cols / total if total else 0.0
    max_index = (sum_rows + sum_cols) / 2.0
    if max_index == expected:
        return 1.0
    return float((sum_cells - expected) / (max_index - expected))


def arrowhead_min_eig_bound(theta):
    """Closed-form floor theta^2 / (2 - theta + sqrt((2-theta)^2 - theta^2)).

    Zero at theta = 0, one at theta = 1, monotone increasing in between,
    and never above theta.
    """
    theta = np.asarray(theta, dtype=float)
    if np.any(theta < 0) or np.any(theta > 1):
        raise ValueError("theta must lie in [0, 1]")
    denom = 2.0 - theta + np.sqrt((2.0 - theta) ** 2 - theta**2)
    out = theta**2 / denom
    return float(out) if out.ndim == 0 else out


def arrowhead_min_eig(B, N):
    """Minimum eigenvalue of the conjugated block-arrowhead quadratic form.

    For a block B (m x N*m) with N B B^T <= (1 - theta) I, builds

        Q = [[I + N B B^T,  2 sqrt(N) B ],
             [2 sqrt(N) B^T, I + N B^T B]]

    and returns ``(lambda_min(Q), floor)`` where the floor is the
    closed-form bound at theta = 1 - lambda_max(N B B^T). The bound is
    checked by callers, not assumed here.
    """
    B = np.asarray(B, dtype=float)
    if B.ndim != 2:
        raise DimensionError(f"block must be 2-d, got shape {B.shape}")
    m, cols = B.shape
    if cols != N * m:
        raise DimensionError(f"block must be m x N*m, got {B.shape} with N={N}")
    C = N * (B @ B.T)
    lam_max = float(np.linalg.eigvalsh(C)[-1])
    if lam_max > 1.0 + ARROWHEAD_SLACK:
        raise ValueError(f"N B B^T exceeds the identity: lambda_max = {lam_max:.6f}")
    theta = min(1.0, max(0.0, 1.0 - lam_max))
    root_n = np.sqrt(N)
    Q = np.block(
        [
            [np.eye(m) + C, 2.0 * root_n * B],
            [2.0 * root_n * B.T, np.eye(cols) + N * (B.T @ B)],
        ]
    )
    lam_min = float(np.linalg.eigvalsh(Q)[0])
    return lam_min, arrowhead_min_eig_bound(theta)


def heterogeneity(projectors):
    """The one rule for theta: max(0, 1 - lambda_max) of the mean of the local subspaces'
    ``(d, d)`` projectors, summed in client order. Zero when all the subspaces coincide;
    1 - 1/N for N mutually orthogonal ones. Projectors must share one square shape."""
    if len(projectors) == 0:
        raise ValueError("need at least one local subspace")
    d = np.shape(projectors[0])[0] if np.ndim(projectors[0]) else 0
    for i, P in enumerate(projectors):
        if np.shape(P) != (d, d):
            raise DimensionError(f"projector {i} has shape {np.shape(P)}, expected ({d}, {d})")
    mean = sum(np.asarray(P, dtype=float) for P in projectors) / len(projectors)
    if not np.isfinite(mean).all():
        bad = [i for i, P in enumerate(projectors) if not np.isfinite(P).all()]
        raise ValueError(f"projector {bad[0]} has a non-finite entry" if bad
                         else "the mean of the projectors overflows")
    lam_max = float(np.linalg.eigvalsh(mean)[-1])
    return max(0.0, 1.0 - lam_max)


def _require_projector_pair(P_u, P_v, who):
    if P_u.shape != P_v.shape or P_u.shape[0] != P_u.shape[1]:
        raise DimensionError(f"{who}: projectors must be square and equal-shaped")
    if np.max(np.abs(P_u @ P_v)) > model.CROSS_TOL:
        raise InvariantError(f"{who}: projectors are not cross-orthogonal")


def direct_sum_closeness_bounds(P_u, P_v_list, P_u_star, P_v_star_list):
    """Bracket the direct-sum subspace gap by the individual-subspace gaps.

    For cross-orthogonal projector families (P_u, P_vi) and a reference
    family (P_u*, P_vi*) with heterogeneity theta, returns ``(lhs, upper,
    lower)`` where

        lhs   = sum_i [rank_u + rank_vi - <P_u + P_vi, P_u* + P_vi*>]
        upper = N (rank_u - <P_u*, P_u>) + sum_i (rank_vi - <P_vi*, P_vi>)
        lower = (theta / 2) * upper

    and the bracketing lower <= lhs <= upper is the claim to verify.
    """
    n = len(P_v_list)
    if len(P_v_star_list) != n:
        raise DimensionError(f"{len(P_v_star_list)} reference local projectors for {n} clients")
    P_u = np.asarray(P_u, dtype=float)
    P_u_star = np.asarray(P_u_star, dtype=float)
    r1 = round(float(np.trace(P_u)))
    lhs = 0.0
    upper = float(n) * (r1 - float(np.sum(P_u_star * P_u)))
    for i in range(n):
        P_v = np.asarray(P_v_list[i], dtype=float)
        P_v_star = np.asarray(P_v_star_list[i], dtype=float)
        _require_projector_pair(P_u, P_v, f"client {i}")
        _require_projector_pair(P_u_star, P_v_star, f"client {i} reference")
        r2 = round(float(np.trace(P_v)))
        joint = float(np.sum((P_u + P_v) * (P_u_star + P_v_star)))
        lhs += r1 + r2 - joint
        upper += r2 - float(np.sum(P_v_star * P_v))
    return lhs, upper, 0.5 * heterogeneity(P_v_star_list) * upper
