"""Primitives on the manifold of d x r matrices with orthonormal columns.

A *frame* is a ``(d, r)`` ndarray ``U`` with ``U.T @ U = I`` up to
``ORTH_TOL``. Update directions ``xi`` are arbitrary ``(d, r)`` matrices.
The projections, retractions and :func:`projector`, the package's one
``F F^T``, treat each slice of a stack ``(N, d, r)`` exactly as a single
frame; :func:`random_frame` is its one random frame. Inputs are never mutated.
"""

import numpy as np

from . import stacks
from .errors import DimensionError, InvariantError, SingularityError

ORTH_TOL = 1e-10
RANK_TOL = 1e-12


def orthonormality_deviation(F):
    """The one orthonormality measure: max|F^T F - I| of a frame, or of each frame of
    an ``(n, d, r)`` stack; NaN where ``F`` holds NaN."""
    F = np.asarray(F, dtype=float)
    gram = np.swapaxes(F, -1, -2) @ F
    return np.max(np.abs(gram - np.eye(F.shape[-1])), axis=(-2, -1))


def require_frame(F, name="frame"):
    """``F`` as a float frame: ``DimensionError`` unless it passes :func:`stacks.require_shape`,
    ``InvariantError`` unless orthonormal within ``ORTH_TOL``, both naming ``name``."""
    F = np.asarray(F, dtype=float)
    stacks.require_shape(F, F.shape[0] if F.ndim else 0, name)
    dev = orthonormality_deviation(F)
    if not dev <= ORTH_TOL:  # NaN fails too
        raise InvariantError(
            f"{name} columns not orthonormal: deviation {dev:.3e} exceeds {ORTH_TOL:.1e}"
        )
    return F


def _check_pair(U, xi):
    U = np.asarray(U, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if U.ndim not in (2, 3) or xi.shape != U.shape:
        raise DimensionError(f"shape mismatch: frame {U.shape}, update {xi.shape}")
    if U.shape[-1] > U.shape[-2]:
        raise DimensionError(f"frame {U.shape} has more columns than rows")
    return U, xi


def project_normal(U, xi):
    """Component of xi normal to the manifold at U: (1/2) U (U^T xi + xi^T U)."""
    U, xi = _check_pair(U, xi)
    sym = np.swapaxes(U, -1, -2) @ xi
    return U @ ((sym + np.swapaxes(sym, -1, -2)) / 2.0)


def project_tangent(U, xi):
    """Component of xi tangent at U: xi minus its normal component.

    The result rho satisfies rho^T U + U^T rho = 0.
    """
    return xi - project_normal(U, xi)


def _retract(U, xi, factor, margin_name):
    # per slice: a zero update returns U, any other is factor(U + xi), which
    # also gives the slice's rank margin
    U, xi = _check_pair(U, xi)
    if not np.isfinite(xi).all():  # one flat pass; the failing slice is found only here
        finite = np.isfinite(xi).all(axis=(-2, -1))
        raise SingularityError("non-finite update: the stepsize or the covariances are too large",
                               index=None if U.ndim == 2 else int(np.argmin(finite)))
    moving = np.flatnonzero(xi.any(axis=(-2, -1)))
    if moving.size == 0:
        return U.copy()
    if U.ndim == 2 or moving.size == len(U):
        out, margin = factor(U + xi)
    else:  # stacked input with some zero updates
        out = U.copy()
        out[moving], margin = factor(U[moving] + xi[moving])
    margin = np.atleast_1d(margin)
    bad = np.flatnonzero(margin < RANK_TOL)
    if bad.size:
        raise SingularityError(
            f"rank-deficient update: {margin_name} {margin[bad[0]]:.3e} < {RANK_TOL:.1e}",
            index=None if U.ndim == 2 else int(moving[bad[0]]),
        )
    return out


def _polar_factor(A):
    left, sing, right = np.linalg.svd(A, full_matrices=False)
    return left @ right, sing[..., -1]


def _qr_factor(A):
    Q, R = np.linalg.qr(A)
    diag = np.diagonal(R, axis1=-2, axis2=-1)
    signs = np.where(diag < 0, -1.0, 1.0)
    return Q * signs[..., None, :], np.min(np.abs(diag), axis=-1)


def polar_retract(U, xi):
    """Map U + xi to the nearest frame in Frobenius norm.

    Computed through the thin SVD of U + xi (product of its left and right
    singular vectors), which is numerically stabler than the inverse square
    root of I + xi^T U + U^T xi + xi^T xi it is equivalent to. Preserves
    col(U + xi). A zero update returns U unchanged; a non-finite one or a
    rank-deficient U + xi raises ``SingularityError``. A stack ``(N, d, r)``
    is retracted slice by slice in one batched SVD; a failing slice raises
    with its position as the error's ``index``.
    """
    return _retract(U, xi, _polar_factor, "smallest singular value")


def qr_retract(U, xi):
    """Map U + xi to the Q factor of its QR decomposition.

    The diagonal of R is forced nonnegative so the result is unique and a
    zero update returns U unchanged. Preserves col(U + xi). Stacks are
    handled as in :func:`polar_retract`.
    """
    return _retract(U, xi, _qr_factor, "|R| diagonal minimum")


RETRACTIONS = {"polar": polar_retract, "qr": qr_retract}


def projector(F, out=None):
    """Projector F F^T onto col(F) of a frame, or of each slice of a stack, into ``out``."""
    F = np.asarray(F, dtype=float)
    return np.matmul(F, np.swapaxes(F, -1, -2), out=out)


def subspace_distance(A, B):
    """Squared Frobenius distance ||A A^T - B B^T||_F^2 between column spaces.

    Equals rank(A) + rank(B) - 2 ||A^T B||_F^2, but is computed from the
    explicit projector difference, which stays accurate down to ~1e-30 for
    nearly equal subspaces where the Gram identity cancels catastrophically.
    Zero iff col(A) = col(B). Both inputs must be orthonormal frames, and
    :func:`stacks.require_shape` checks both against A's row count.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    d = A.shape[0] if A.ndim else 0
    stacks.require_shape(A, d, "frame A")
    stacks.require_shape(B, d, "frame B")
    diff = projector(A) - projector(B)
    return float(np.sum(diff * diff))


def random_frame(d, r, rng, against=None):
    """Haar-ish random frame: QR of a Gaussian draw, R diagonal positive. A draw deflated
    against the ``(d, k)`` frame ``against`` needs ``r + k <= d`` and can still lose
    rank, so it goes through :func:`qr_retract`."""
    if not 1 <= r <= d:
        raise DimensionError(f"need 1 <= r <= d, got d={d}, r={r}")
    if against is not None and (np.ndim(against) != 2 or np.shape(against)[0] != d
                                or r + np.shape(against)[1] > d):
        raise DimensionError(f"no room for d={d}, r={r} beside a frame of shape "
                             f"{np.shape(against)}: need ({d}, k) with r + k <= {d}")
    raw = rng.standard_normal((d, r))
    if against is None:
        return _qr_factor(raw)[0]
    return qr_retract(np.zeros_like(raw), raw - against @ (against.T @ raw))


def orthonormalize(M):
    """Orthonormal basis of col(M) via SVD, independent of any retraction.

    Singular values below ``RANK_TOL`` relative to the largest are dropped.
    """
    M = np.asarray(M, dtype=float)
    left, sing, _ = np.linalg.svd(M, full_matrices=False)
    if sing[0] <= 0.0:
        raise SingularityError("matrix has no numerically nonzero singular values")
    keep = sing > RANK_TOL * sing[0]
    return left[:, keep]
