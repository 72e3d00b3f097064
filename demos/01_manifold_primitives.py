"""Tangent/normal projections and the two retractions, step by step.

Run: python demos/01_manifold_primitives.py
"""

import numpy as np

from perpca import stiefel

rng = np.random.default_rng(0)

# A frame is a d x r matrix with orthonormal columns.
d, r = 8, 3
U = stiefel.random_frame(d, r, rng)
print("U^T U deviation from identity:", stiefel.orthonormality_deviation(U))

# Any update direction splits into a tangent and a normal part.
xi = rng.standard_normal((d, r))
tangent = stiefel.project_tangent(U, xi)
normal = stiefel.project_normal(U, xi)
print("split reassembles xi:        ", np.max(np.abs(tangent + normal - xi)))
print("tangent antisymmetry residual:", np.max(np.abs(tangent.T @ U + U.T @ tangent)))

# Retractions map U + xi back onto the manifold while preserving its span.
for name, retract in (("polar", stiefel.polar_retract), ("qr", stiefel.qr_retract)):
    W = stiefel.require_frame(retract(U, 0.2 * xi))  # raises unless orthonormal
    ref = stiefel.orthonormalize(U + 0.2 * xi)
    print(f"{name:5s}: U^T U deviation {stiefel.orthonormality_deviation(W):.1e}, "
          f"span distance to U+xi = {np.sqrt(stiefel.subspace_distance(W, ref)):.2e}")

# The polar retraction is the Frobenius-nearest frame; QR is close but not
# nearest. Both agree with U + xi to second order along tangent directions.
step = tangent / np.linalg.norm(tangent)
print("\nsecond-order residual ||GR(U; s*xi_t) - (U + s*xi_t)||:")
print(f"{'scale':>8s} {'polar':>12s} {'qr':>12s}")
for s in (1e-1, 1e-2, 1e-3, 1e-4):
    res_polar = np.linalg.norm(stiefel.polar_retract(U, s * step) - (U + s * step))
    res_qr = np.linalg.norm(stiefel.qr_retract(U, s * step) - (U + s * step))
    print(f"{s:8.0e} {res_polar:12.3e} {res_qr:12.3e}")
print("each tenfold scale drop cuts the residual a hundredfold: O(||xi||^2).")
