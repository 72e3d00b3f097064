import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perpca import stiefel
from perpca.errors import DimensionError, InvariantError, SingularityError


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestProjections:
    def test_tangent_of_zero_is_zero(self):
        U = stiefel.random_frame(4, 2, _rng())
        assert np.array_equal(stiefel.project_tangent(U, np.zeros((4, 2))), np.zeros((4, 2)))

    def test_tangent_direction_passes_through(self):
        # xi orthogonal to U with xi^T U = 0 is already tangent
        U = np.array([[1.0], [0.0]])
        xi = np.array([[0.0], [1.0]])
        assert np.allclose(stiefel.project_tangent(U, xi), xi, atol=1e-15)

    def test_normal_of_frame_is_frame(self):
        U = stiefel.random_frame(5, 2, _rng(1))
        assert np.allclose(stiefel.project_normal(U, U), U, atol=1e-12)

    def test_normal_of_tangent_vanishes(self):
        rng = _rng(2)
        U = stiefel.random_frame(6, 3, rng)
        xi = stiefel.project_tangent(U, rng.standard_normal((6, 3)))
        assert np.max(np.abs(stiefel.project_normal(U, xi))) < 1e-12

    @given(st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_split_reconstructs_and_is_orthogonal(self, seed):
        # compute both projections independently from their formulas and
        # verify they reassemble xi
        rng = _rng(seed)
        U = stiefel.random_frame(5, 2, rng)
        xi = rng.standard_normal((5, 2))
        sym = (U.T @ xi + xi.T @ U) / 2.0
        normal = U @ sym
        tangent = xi - normal
        assert np.allclose(stiefel.project_tangent(U, xi), tangent, atol=1e-13)
        assert np.allclose(stiefel.project_normal(U, xi), normal, atol=1e-13)
        assert np.allclose(tangent + normal, xi, atol=1e-13)
        assert abs(float(np.sum(tangent * normal))) < 1e-12

    @given(st.integers(0, 500), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_tangent_is_xi_minus_normal_bitwise(self, seed, integer):
        # the tangent projection reuses project_normal; it must give the bits of
        # the formula it replaced, for float and integer updates alike
        rng = _rng(seed)
        U = stiefel.random_frame(6, 3, rng)
        xi = rng.integers(-5, 6, (6, 3)) if integer else rng.standard_normal((6, 3))
        xf = xi.astype(float)
        sym = U.T @ xf
        np.testing.assert_array_equal(stiefel.project_tangent(U, xi),
                                      xf - U @ ((sym + sym.T) / 2.0))

    @given(st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_pythagoras(self, seed):
        rng = _rng(seed)
        U = stiefel.random_frame(7, 3, rng)
        xi = rng.standard_normal((7, 3))
        nt = np.linalg.norm(stiefel.project_tangent(U, xi)) ** 2
        nn = np.linalg.norm(stiefel.project_normal(U, xi)) ** 2
        assert nt + nn == pytest.approx(np.linalg.norm(xi) ** 2, abs=1e-11)

    def test_tangent_result_antisymmetric(self):
        rng = _rng(3)
        U = stiefel.random_frame(6, 2, rng)
        rho = stiefel.project_tangent(U, rng.standard_normal((6, 2)))
        assert np.max(np.abs(rho.T @ U + U.T @ rho)) < 1e-10

    def test_tangent_idempotent(self):
        rng = _rng(4)
        U = stiefel.random_frame(6, 3, rng)
        xi = rng.standard_normal((6, 3))
        once = stiefel.project_tangent(U, xi)
        twice = stiefel.project_tangent(U, once)
        assert np.allclose(once, twice, atol=1e-12)

    def test_shape_mismatch(self):
        U = stiefel.random_frame(4, 2, _rng())
        with pytest.raises(DimensionError):
            stiefel.project_tangent(U, np.zeros((4, 3)))

    @pytest.mark.parametrize("project", [stiefel.project_normal, stiefel.project_tangent])
    def test_stack_is_projected_slice_by_slice_bitwise(self, project):
        rng = _rng(6)
        U = np.stack([stiefel.random_frame(7, 3, rng) for _ in range(5)])
        xi = rng.standard_normal((5, 7, 3))
        stacked = project(U, xi)
        assert stacked.shape == xi.shape
        for Ui, xii, out in zip(U, xi, stacked, strict=True):
            assert out.tobytes() == project(Ui, xii).tobytes()


class TestPolarRetract:
    def test_zero_update_identity(self):
        U = stiefel.random_frame(5, 2, _rng(5))
        W = stiefel.polar_retract(U, np.zeros((5, 2)))
        assert np.array_equal(W, U)

    def test_closed_form_rank_one(self):
        # U = e1 in R^2, xi = (0, t): result is (1, t)/sqrt(1 + t^2)
        t = 0.7
        U = np.array([[1.0], [0.0]])
        xi = np.array([[0.0], [t]])
        expected = np.array([[1.0], [t]]) / np.sqrt(1.0 + t * t)
        assert np.allclose(stiefel.polar_retract(U, xi), expected, atol=1e-14)

    def test_orthonormal_and_column_space(self):
        rng = _rng(6)
        for _ in range(25):
            U = stiefel.random_frame(8, 3, rng)
            xi = 0.2 * rng.standard_normal((8, 3))
            W = stiefel.polar_retract(U, xi)
            stiefel.require_frame(W)
            ref = stiefel.orthonormalize(U + xi)
            assert np.sqrt(stiefel.subspace_distance(W, ref)) < 1e-8

    def test_tangent_residual_quarters_when_halved(self):
        rng = _rng(7)
        U = stiefel.random_frame(10, 3, rng)
        xi = stiefel.project_tangent(U, rng.standard_normal((10, 3)))
        xi /= np.linalg.norm(xi)
        res = []
        for s in (1e-2, 5e-3):
            step = s * xi
            res.append(np.linalg.norm(stiefel.polar_retract(U, step) - (U + step)))
        assert res[0] / res[1] == pytest.approx(4.0, rel=0.15)

    def test_nearest_frame(self):
        # polar beats qr output and random rotations of the same column space
        rng = _rng(8)
        for _ in range(20):
            U = stiefel.random_frame(7, 3, rng)
            xi = 0.5 * rng.standard_normal((7, 3))
            A = U + xi
            best = np.linalg.norm(A - stiefel.polar_retract(U, xi))
            assert best <= np.linalg.norm(A - stiefel.qr_retract(U, xi)) + 1e-10
            basis = stiefel.orthonormalize(A)
            rot = stiefel.random_frame(3, 3, rng)
            assert best <= np.linalg.norm(A - basis @ rot) + 1e-10

    def test_rank_deficient_raises(self):
        U = np.array([[1.0], [0.0]])
        with pytest.raises(SingularityError):
            stiefel.polar_retract(U, -U)


class TestQrRetract:
    def test_zero_update_identity(self):
        U = stiefel.random_frame(6, 2, _rng(9))
        assert np.array_equal(stiefel.qr_retract(U, np.zeros((6, 2))), U)

    def test_axis_aligned(self):
        A = np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
        Q = stiefel.qr_retract(np.zeros_like(A), A)
        assert np.allclose(Q, np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]), atol=1e-15)

    def test_qr_factorization_and_column_space(self):
        rng = _rng(10)
        for _ in range(25):
            U = stiefel.random_frame(9, 4, rng)
            xi = 0.3 * rng.standard_normal((9, 4))
            Q = stiefel.qr_retract(U, xi)
            stiefel.require_frame(Q)
            R = Q.T @ (U + xi)
            assert np.allclose(Q @ R, U + xi, atol=1e-12)
            assert np.allclose(R, np.triu(R), atol=1e-12)
            assert np.all(np.diagonal(R) >= 0)
            ref = stiefel.orthonormalize(U + xi)
            assert np.sqrt(stiefel.subspace_distance(Q, ref)) < 1e-8

    def test_rank_deficient_raises(self):
        U = stiefel.random_frame(4, 2, _rng(11))
        xi = np.zeros((4, 2))
        xi[:, 1] = U[:, 0] - U[:, 1]  # second column collapses onto the first
        with pytest.raises(SingularityError):
            stiefel.qr_retract(U, xi)


@pytest.mark.parametrize("shape", [(3, 4), (2, 3, 4)])
@pytest.mark.parametrize("retract", list(stiefel.RETRACTIONS.values()))
def test_wide_frame_is_rejected(retract, shape):
    # more columns than rows cannot be orthonormal; the QR factor would drop
    # a column and the polar factor would not be a frame
    with pytest.raises(DimensionError, match=r"has more columns than rows$"):
        retract(np.zeros(shape), np.ones(shape))


@pytest.mark.parametrize("retract", [stiefel.polar_retract, stiefel.qr_retract])
def test_second_order_residual_slope(retract):
    # residual ||GR(U; xi) - (U + xi)|| = O(||xi||^2) for tangent xi
    rng = _rng(12)
    scales = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    for _ in range(10):
        U = stiefel.random_frame(8, 3, rng)
        xi = stiefel.project_tangent(U, rng.standard_normal((8, 3)))
        xi /= np.linalg.norm(xi)
        resid = [np.linalg.norm(retract(U, s * xi) - (U + s * xi)) for s in scales]
        slope = np.polyfit(np.log(scales), np.log(resid), 1)[0]
        assert 1.9 <= slope <= 2.1


class TestProjector:
    def test_identity_slice(self):
        U = np.eye(4)[:, :2]
        P = stiefel.projector(U)
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[1, 1] = 1.0
        assert np.array_equal(P, expected)

    def test_rank_one_hand_value(self):
        U = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
        assert np.allclose(stiefel.projector(U), np.full((2, 2), 0.5), atol=1e-15)

    def test_projector_laws(self):
        rng = _rng(13)
        U = stiefel.random_frame(9, 4, rng)
        P = stiefel.projector(U)
        assert np.allclose(P @ P, P, atol=1e-10)
        assert np.allclose(P, P.T, atol=1e-12)
        assert np.trace(P) == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("d, r", [(7, 3), (40, 1), (100, 5)])
    def test_stack_matches_slices_bitwise(self, d, r):
        rng = _rng(18)
        stack = np.stack([stiefel.random_frame(d, r, rng) for _ in range(5)])
        expected = [stiefel.projector(F).tobytes() for F in stack]
        P = stiefel.projector(stack)
        assert P.shape == (5, d, d)
        assert [Pk.tobytes() for Pk in P] == expected
        out = np.full((5, d, d), np.nan)
        assert stiefel.projector(stack, out=out) is out
        assert out.tobytes() == P.tobytes()


class TestRandomFrame:
    @pytest.mark.parametrize("seed", range(20))
    def test_against_equals_inline_draw_deflate_retract(self, seed):
        rng = _rng(seed)
        d = int(rng.integers(3, 30))
        r1 = int(rng.integers(1, d - 1))
        r2 = int(rng.integers(1, d - r1 + 1))
        U = stiefel.random_frame(d, r1, rng)
        raw = _rng(seed + 100).standard_normal((d, r2))
        inline = stiefel.qr_retract(np.zeros_like(raw), raw - U @ (U.T @ raw))
        V = stiefel.random_frame(d, r2, _rng(seed + 100), against=U)
        assert V.tobytes() == inline.tobytes()
        assert np.max(np.abs(U.T @ V)) < 1e-10

    @pytest.mark.parametrize("seed", range(20))
    def test_plain_draw_equals_qr_retract_from_zero(self, seed):
        # the plain draw skips qr_retract's checks, not its bits
        raw = _rng(seed).standard_normal((9, 4))
        expected = stiefel.qr_retract(np.zeros_like(raw), raw)
        assert stiefel.random_frame(9, 4, _rng(seed)).tobytes() == expected.tobytes()

    def test_no_room_beside_against_raises(self):
        U = stiefel.random_frame(3, 2, _rng(19))
        with pytest.raises(SingularityError, match="rank-deficient"):
            stiefel.random_frame(3, 2, _rng(20), against=U)

    @pytest.mark.parametrize("d, r", [(3, 0), (3, 4)])
    def test_rank_out_of_range(self, d, r):
        with pytest.raises(DimensionError, match="need 1 <= r <= d"):
            stiefel.random_frame(d, r, _rng())


class TestSubspaceDistance:
    def test_same_frame_zero(self):
        U = stiefel.random_frame(6, 3, _rng(14))
        assert stiefel.subspace_distance(U, U) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_lines(self):
        e1 = np.array([[1.0], [0.0]])
        e2 = np.array([[0.0], [1.0]])
        assert stiefel.subspace_distance(e1, e2) == pytest.approx(2.0, abs=1e-15)

    def test_trace_identity(self):
        rng = _rng(15)
        A = stiefel.random_frame(7, 3, rng)
        B = stiefel.random_frame(7, 3, rng)
        PA, PB = stiefel.projector(A), stiefel.projector(B)
        direct = np.linalg.norm(PA - PB) ** 2
        via_trace = 2 * 3 - 2 * np.trace(PA @ PB)
        assert stiefel.subspace_distance(A, B) == pytest.approx(direct, abs=1e-10)
        assert stiefel.subspace_distance(A, B) == pytest.approx(via_trace, abs=1e-10)

    def test_rotation_invariant(self):
        rng = _rng(16)
        A = stiefel.random_frame(6, 2, rng)
        B = stiefel.random_frame(6, 2, rng)
        rot = stiefel.random_frame(2, 2, rng)
        assert stiefel.subspace_distance(A @ rot, B) == pytest.approx(
            stiefel.subspace_distance(A, B), abs=1e-10
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            stiefel.subspace_distance(np.eye(3)[:, :1], np.eye(4)[:, :1])
        with pytest.raises(DimensionError):  # frames only; stacks go through metrics
            stiefel.subspace_distance(np.zeros((2, 4, 1)), np.zeros((2, 4, 1)))


def test_column_space_preservation_sweep():
    # retraction axiom: 1000 random (U, xi) with ||xi||_F <= 0.25
    rng = _rng(17)
    for _ in range(1000):
        d = int(rng.integers(2, 12))
        r = int(rng.integers(1, min(d, 4) + 1))
        U = stiefel.random_frame(d, r, rng)
        xi = rng.standard_normal((d, r))
        xi *= rng.uniform(0, 0.25) / max(np.linalg.norm(xi), 1e-300)
        ref = stiefel.orthonormalize(U + xi)
        for retract in (stiefel.polar_retract, stiefel.qr_retract):
            W = retract(U, xi)
            assert np.sqrt(stiefel.subspace_distance(W, ref)) < 1e-8


def test_require_frame_rejects_skew():
    M = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(InvariantError):
        stiefel.require_frame(M)
