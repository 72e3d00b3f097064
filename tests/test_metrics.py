import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loops as ref
from test_synth import population_covariance
from perpca import metrics, model, stiefel, synth
from perpca.errors import DimensionError, InvariantError
from perpca.model import ComponentState


def _rng(seed=0):
    return np.random.default_rng(seed)


def _feasible_family(d, r1, r2, n_clients, rng):
    U = stiefel.random_frame(d, r1, rng)
    return U, [stiefel.random_frame(d, r2, rng, against=U) for _ in range(n_clients)]


class TestSubspaceError:
    def test_zero_at_truth(self):
        rng = _rng(1)
        U, V = _feasible_family(6, 2, 1, 3, rng)
        state = ComponentState(U, V)
        assert metrics.subspace_error(state, (U, V)) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_shared_frames(self):
        # U orthogonal to U_true of rank r1, locals exact: error = 2 r1
        eye = np.eye(6)
        state = ComponentState(eye[:, :2], [eye[:, 4:5]])
        truth = (eye[:, 2:4], [eye[:, 4:5]])
        assert metrics.subspace_error(state, truth) == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("r2, r2_true", [([3] * 5, [3] * 5),
                                             ([1, 3, 2, 3, 1], [1, 3, 2, 3, 1]),
                                             ([2, 2, 1, 2, 1], [2, 1, 1, 2, 2])])
    def test_matches_client_loop_bitwise(self, r2, r2_true):
        rng = _rng(3)
        U = stiefel.random_frame(40, 2, rng)
        state = ComponentState(U, [stiefel.random_frame(40, r, rng) for r in r2])
        truth = (stiefel.random_frame(40, 2, rng),
                 [stiefel.random_frame(40, r, rng) for r in r2_true])
        assert metrics.subspace_error(state, truth) == ref.subspace_error(state, truth)

    @pytest.mark.parametrize("d, r, s", [(6, 2, 2), (9, 3, 1), (100, 5, 4)])
    def test_stacked_matches_slices_bitwise(self, d, r, s):
        # d = 100 puts 10^4 entries in each projector difference; the clients
        # come as one stack and as two interleaved groups
        rng = _rng(17)
        U, U_true = stiefel.random_frame(d, 2, rng), stiefel.random_frame(d, 2, rng)
        A = np.stack([stiefel.random_frame(d, r, rng) for _ in range(4)])
        B = [stiefel.random_frame(d, s, rng) for _ in range(4)]
        local = []
        for k in range(4):
            diff = A[k] @ A[k].T - B[k] @ B[k].T
            local.append(float(np.sum(diff * diff)))
            assert local[k] == stiefel.subspace_distance(A[k], B[k])
        expected = stiefel.subspace_distance(U, U_true) + float(np.mean(local))
        for groups in ([np.arange(4)], [np.array([0, 2]), np.array([1, 3])]):
            projectors = metrics.truth_projectors((U_true, B), groups, d)
            for _ in range(2):  # the second call overwrites the first one's scratch
                stacked = metrics.stacked_subspace_error(U, [A[g] for g in groups], groups,
                                                         projectors)
                assert stacked == expected

    def test_stacked_allocates_no_projector_stack(self):
        # each round's error works in the scratch of truth_projectors; fresh
        # (N, d, d) temporaries cost page faults whenever malloc maps them
        rng = _rng(3)
        d, groups = 100, [np.arange(8)]
        U, V = _feasible_family(d, 2, 3, 8, rng)
        projectors = metrics.truth_projectors(_feasible_family(d, 2, 3, 8, rng), groups, d)
        stacked = [np.stack(V)]
        metrics.stacked_subspace_error(U, stacked, groups, projectors)
        tracemalloc.start()
        try:
            metrics.stacked_subspace_error(U, stacked, groups, projectors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * d * d * 8 / 2  # the shared frame's (d, d) temporaries only

    def test_bad_state_frame_is_named(self):
        rng = _rng(4)
        U, V = _feasible_family(6, 2, 1, 3, rng)
        for frames, message in [([V[0], V[1][:5], V[2]], r"^local frame 1 "),
                                ([V[0], V[1], V[2][:, 0]], r"^local frame 2 ")]:
            with pytest.raises(DimensionError, match=message):
                metrics.subspace_error(ComponentState(U, frames), (U, V))  # raises when made

    def test_rotation_invariance(self):
        rng = _rng(2)
        U, V = _feasible_family(7, 2, 2, 2, rng)
        rot1 = stiefel.random_frame(2, 2, rng)
        state = ComponentState(U @ rot1, [Vi @ rot1 for Vi in V])
        assert metrics.subspace_error(state, (U, V)) == pytest.approx(0.0, abs=1e-10)

    def test_perturbation_bound_direction(self):
        # error of the solved optimum is controlled by 4/(theta delta^2)
        # times the mean squared covariance perturbation
        from perpca import solver

        failures = 0
        for seed in range(20):
            spec = synth.GenerativeSpec(
                d=8, N=3, r1=1, r2=1, n_per_client=600,
                global_score_std=1.0, local_score_std=1.3, noise_std=0.05, seed=seed,
            )
            truth = synth.generate_components(spec)
            if truth.theta_actual < 0.05:
                continue
            obs = synth.generate_observations(truth, spec)
            covs = [model.covariance(Y) for Y in obs]
            config = solver.SolverConfig(r1=1, r2=1, rounds=400, seed=seed)
            state, _ = solver.run_perpca(covs, config, truth=truth)
            err = metrics.subspace_error(state, truth)
            pert = np.mean(
                [
                    np.linalg.norm(population_covariance(truth, spec, i) - S) ** 2
                    for i, S in enumerate(covs)
                ]
            )
            delta = min(1.0, 1.3**2) - spec.noise_std**2
            bound = 4.0 / (truth.theta_actual * delta**2) * pert
            if err > bound:
                failures += 1
        assert failures == 0


class TestRhoMatrix:
    def test_identical_locals(self):
        V = stiefel.random_frame(6, 2, _rng(3))
        rho = metrics.rho_matrix([V, V.copy(), V.copy()])
        assert np.allclose(rho, 0.0, atol=1e-12)

    def test_two_orthogonal_groups(self):
        eye = np.eye(4)
        V = [eye[:, 0:1], eye[:, 0:1], eye[:, 1:2], eye[:, 1:2]]
        rho = metrics.rho_matrix(V)
        assert rho[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert rho[2, 3] == pytest.approx(0.0, abs=1e-12)
        assert rho[0, 2] == pytest.approx(2.0, abs=1e-12)  # orthogonal rank-1, norm by r2=1

    def test_matches_pairwise_subspace_distance(self):
        rng = _rng(4)
        V = [stiefel.random_frame(5, 2, rng) for _ in range(4)]
        rho = metrics.rho_matrix(V)
        for i in range(4):
            for j in range(4):
                expected = stiefel.subspace_distance(V[i], V[j]) / 2.0
                assert rho[i, j] == pytest.approx(expected, abs=1e-12)
        assert np.allclose(rho, rho.T)
        assert np.all(np.diag(rho) == 0)
        assert np.all(rho <= 2.0 + 1e-12)

    def test_heterogeneous_ranks_normalized_by_larger(self):
        rng = _rng(5)
        V1 = stiefel.random_frame(6, 1, rng)
        V2 = stiefel.random_frame(6, 3, rng)
        rho = metrics.rho_matrix([V1, V2])
        assert rho[0, 1] == pytest.approx(stiefel.subspace_distance(V1, V2) / 3.0, abs=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 2, 20, 100])
    @pytest.mark.parametrize("ranks", [[2], [1, 3, 2, 3]])
    def test_matches_per_pair_reference_bitwise(self, n, ranks):
        # one projector stack per rank group and one stacked row of differences
        # against both projectors of every pair; views keep their strides
        rng = _rng(n)
        V = [stiefel.random_frame(15, ranks[i % len(ranks)] + 1, rng)[:, 1:] for i in range(n)]
        rho = metrics.rho_matrix(V)
        assert rho.shape == (n, n)
        assert rho.tobytes() == ref.rho_matrix(V).tobytes()

    @pytest.mark.parametrize("bad, first_bad", [(np.zeros((6, 2, 1)), 0), (np.zeros(6), 0),
                                                (np.zeros((7, 2)), 1)])
    def test_bad_frame_is_named(self, bad, first_bad):
        # frames are checked against the first frame's d: a 7-row frame first
        # makes its 6-row successor the bad one
        V = [stiefel.random_frame(6, 2, _rng(i)) for i in range(4)]
        with pytest.raises(DimensionError, match=r"^local frame 2 "):
            metrics.rho_matrix(V[:2] + [bad] + V[2:])
        with pytest.raises(DimensionError, match=rf"^local frame {first_bad} "):
            metrics.rho_matrix([bad] + V)


class TestSpectralCluster:
    def _grouped_rho(self, groups, rng, spread=0.02, gap=1.5):
        n = len(groups)
        rho = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                base = spread if groups[i] == groups[j] else gap
                rho[i, j] = rho[j, i] = base * (1 + 0.1 * rng.uniform())
        return rho

    def test_recovers_planted_groups(self):
        rng = _rng(6)
        groups = [0] * 5 + [1] * 5 + [2] * 5
        rho = self._grouped_rho(groups, rng)
        labels = metrics.spectral_cluster(rho, 3, seed=0)
        assert metrics.adjusted_rand_index(labels, groups) == pytest.approx(1.0)

    def test_each_client_own_cluster(self):
        rng = _rng(7)
        rho = self._grouped_rho(list(range(4)), rng, gap=1.0)
        labels = metrics.spectral_cluster(rho, 4, seed=1)
        assert len(set(labels.tolist())) == 4

    def test_deterministic_given_seed(self):
        rng = _rng(8)
        rho = self._grouped_rho([0, 0, 1, 1, 2, 2], rng)
        a = metrics.spectral_cluster(rho, 3, seed=5)
        b = metrics.spectral_cluster(rho, 3, seed=5)
        assert np.array_equal(a, b)

    def test_permutation_consistency(self):
        rng = _rng(9)
        groups = [0] * 4 + [1] * 4
        rho = self._grouped_rho(groups, rng)
        perm = rng.permutation(8)
        labels = metrics.spectral_cluster(rho, 2, seed=3)
        permuted = metrics.spectral_cluster(rho[np.ix_(perm, perm)], 2, seed=3)
        assert metrics.adjusted_rand_index(permuted, labels[perm]) == pytest.approx(1.0)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            metrics.spectral_cluster(np.zeros((3, 3)), 4)

    @pytest.mark.parametrize("rho", [np.zeros((3, 2)), 5.0, np.zeros(3), np.zeros((2, 2, 2))])
    def test_distance_matrix_must_be_square(self, rho):
        with pytest.raises(DimensionError, match="distance matrix must be square"):
            metrics.spectral_cluster(rho, 1)

    @pytest.mark.parametrize("bad", [np.nan, -0.5, np.inf])
    def test_bad_distance_named_by_row_and_column(self, bad):
        rho = 1.0 - np.eye(3)
        rho[1, 2] = rho[2, 1] = bad
        with pytest.raises(ValueError, match=r"distance .* in row 1, column 2 must be finite"):
            metrics.spectral_cluster(rho, 2)


@pytest.mark.parametrize("bad, message", [(np.nan, "projector 1 has a non-finite entry"),
                                          (np.inf, "projector 1 has a non-finite entry"),
                                          (1e308, "the mean of the projectors overflows")])
def test_heterogeneity_rejects_a_non_finite_mean(bad, message):
    P = [stiefel.projector(np.eye(4)[:, [i]]) for i in range(3)]
    P[1][2, 3] = P[2][2, 3] = bad
    with pytest.raises(ValueError, match=message), np.errstate(over="ignore"):
        metrics.heterogeneity(P)


@pytest.mark.parametrize("projectors, message", [
    ([np.eye(3), np.eye(4)], r"^projector 1 has shape \(4, 4\), expected \(3, 3\)"),
    ([np.eye(3), np.eye(3), np.eye(3)[:2]], r"^projector 2 has shape \(2, 3\)"),
    ([np.eye(3)[:, :2], np.eye(3)], r"^projector 0 has shape \(3, 2\)"),
    ([np.float64(1.0), np.eye(1)], r"^projector 0 has shape \(\)"),
    ([np.eye(2), np.ones(2)], r"^projector 1 has shape \(2,\)"),
    ([np.zeros((0, 0))], r"^projector 0 has shape \(0, 0\), expected \(d, d\) with d >= 1$"),
    ([np.zeros((0, 0)), np.eye(2)], r"^projector 0 has shape \(0, 0\)")])
def test_heterogeneity_rejects_projectors_of_another_shape(projectors, message):
    with pytest.raises(DimensionError, match=message):
        metrics.heterogeneity(projectors)


class TestAdjustedRandIndex:
    def test_identical_partitions(self):
        assert metrics.adjusted_rand_index([0, 0, 1, 1], [5, 5, 9, 9]) == pytest.approx(1.0)

    def test_known_value(self):
        # hand-computed contingency example
        a = [0, 0, 0, 1, 1, 1]
        b = [0, 0, 1, 1, 1, 1]
        # table [[2,1],[0,3]]: cells comb2 sum to 4, rows to 6, cols to 7,
        # total comb2(6) = 15; ari = (4 - 42/15) / (6.5 - 42/15)
        expected = (4 - 42 / 15) / (6.5 - 42 / 15)
        assert metrics.adjusted_rand_index(a, b) == pytest.approx(expected, abs=1e-12)

    def test_independent_partitions_near_zero(self):
        rng = _rng(10)
        a = rng.integers(0, 3, size=600)
        b = rng.integers(0, 3, size=600)
        assert abs(metrics.adjusted_rand_index(a, b)) < 0.05


class TestArrowheadBound:
    def test_endpoints(self):
        assert metrics.arrowhead_min_eig_bound(0.0) == pytest.approx(0.0, abs=1e-15)
        assert metrics.arrowhead_min_eig_bound(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_half_value(self):
        assert metrics.arrowhead_min_eig_bound(0.5) == pytest.approx(
            0.25 / (1.5 + np.sqrt(2.0)), abs=1e-12
        )

    def test_monotone_and_below_identity(self):
        grid = np.linspace(0.0, 1.0, 1000)
        vals = metrics.arrowhead_min_eig_bound(grid)
        assert np.all(np.diff(vals) > 0)
        assert np.all(vals <= grid + 1e-15)

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_range(self, theta):
        val = metrics.arrowhead_min_eig_bound(theta)
        assert 0.0 <= val <= 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            metrics.arrowhead_min_eig_bound(1.5)


class TestArrowheadMinEig:
    def test_zero_block(self):
        lam, bound = metrics.arrowhead_min_eig(np.zeros((2, 6)), 3)
        assert lam == pytest.approx(1.0, abs=1e-12)
        assert bound == pytest.approx(1.0, abs=1e-12)

    def test_scalar_tight_case(self):
        # m=1, N=1, b^2 = 1-theta: the minimum eigenvalue is exactly the bound
        for theta in (0.1, 0.3, 0.5, 0.7, 0.9):
            b = np.sqrt(1.0 - theta)
            lam, bound = metrics.arrowhead_min_eig(np.array([[b]]), 1)
            assert lam >= bound - 1e-12
            assert lam - bound < 1e-9  # tight

    def test_randomized_no_violations(self):
        rng = _rng(11)
        for _ in range(200):
            m = int(rng.integers(1, 5))
            N = int(rng.integers(1, 5))
            theta = rng.uniform(0.05, 0.95)
            B = rng.standard_normal((m, N * m))
            lam_max = np.linalg.eigvalsh(N * B @ B.T)[-1]
            B *= np.sqrt((1.0 - theta) / lam_max)
            lam, bound = metrics.arrowhead_min_eig(B, N)
            assert lam >= bound - 1e-10

    def test_precondition_enforced(self):
        B = np.full((1, 2), 10.0)
        with pytest.raises(ValueError):
            metrics.arrowhead_min_eig(B, 2)

    def test_shape_check(self):
        with pytest.raises(DimensionError):
            metrics.arrowhead_min_eig(np.zeros((2, 5)), 2)


class TestDirectSumBounds:
    def _family(self, d, r1, r2, n, rng):
        U, V = _feasible_family(d, r1, r2, n, rng)
        return stiefel.projector(U), [stiefel.projector(Vi) for Vi in V]

    def test_zero_at_reference(self):
        rng = _rng(12)
        P_u, P_v = self._family(7, 2, 2, 3, rng)
        lhs, upper, lower = metrics.direct_sum_closeness_bounds(P_u, P_v, P_u, P_v)
        assert lhs == pytest.approx(0.0, abs=1e-10)
        assert upper == pytest.approx(0.0, abs=1e-10)
        assert lower == pytest.approx(0.0, abs=1e-10)

    def test_bracketing_on_random_families(self):
        rng = _rng(13)
        for _ in range(100):
            d = int(rng.integers(5, 10))
            r1 = int(rng.integers(1, 3))
            r2 = int(rng.integers(1, 3))
            n = int(rng.integers(2, 5))
            P_u, P_v = self._family(d, r1, r2, n, rng)
            Q_u, Q_v = self._family(d, r1, r2, n, rng)
            lhs, upper, lower = metrics.direct_sum_closeness_bounds(P_u, P_v, Q_u, Q_v)
            assert lower - 1e-10 <= lhs <= upper + 1e-10

    def test_degenerate_reference_locals(self):
        # identical starred locals make theta zero: the lower bound collapses
        # while the gap itself stays positive
        rng = _rng(14)
        P_u, P_v = self._family(6, 1, 2, 3, rng)
        Q_u, Q_v_one = self._family(6, 1, 2, 1, rng)
        Q_v = [Q_v_one[0]] * 3
        lhs, upper, lower = metrics.direct_sum_closeness_bounds(P_u, P_v, Q_u, Q_v)
        assert lower == pytest.approx(0.0, abs=1e-10)
        assert lhs > 1e-3

    def test_theta_is_the_heterogeneity_of_the_reference_frames_bitwise(self):
        rng = _rng(16)
        P_u, P_v = self._family(7, 2, 2, 4, rng)
        W_u, W_v = _feasible_family(7, 2, 2, 4, rng)
        _, upper, lower = metrics.direct_sum_closeness_bounds(
            P_u, P_v, stiefel.projector(W_u), [stiefel.projector(W) for W in W_v])
        theta = synth.theta_of(W_v)
        assert upper > 0 and theta > 0
        assert lower == 0.5 * theta * upper

    def test_cross_orthogonality_required(self):
        rng = _rng(15)
        P_u, P_v = self._family(5, 1, 1, 2, rng)
        with pytest.raises(InvariantError):
            metrics.direct_sum_closeness_bounds(P_u, [P_u] * 2, P_u, P_v)
