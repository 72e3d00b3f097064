import numpy as np
import pytest

import reference_loops as ref
from perpca import baselines, model, stiefel, synth
from perpca.errors import DimensionError


def _rng(seed=0):
    return np.random.default_rng(seed)


def _psd(d, rng, scale=1.0):
    M = rng.standard_normal((d, d + 2))
    return scale * (M @ M.T) / (d + 2)


def _rayleigh(S, F):
    """Rayleigh quotients diag(F^T S F): the eigenvalues of eigenvector columns."""
    return np.diag(F.T @ S @ F)


class TestTopEigvecs:
    def test_diagonal(self):
        S = np.diag([3.0, 2.0, 1.0])
        F = baselines.top_eigvecs(S, 2)
        assert np.allclose(_rayleigh(S, F), [3.0, 2.0], atol=1e-12)
        assert np.allclose(np.abs(F), np.eye(3)[:, :2], atol=1e-12)
        assert np.all(F[[0, 1], [0, 1]] > 0)  # sign convention

    def test_identity_degenerate(self):
        F = baselines.top_eigvecs(np.eye(4), 3)
        assert np.allclose(_rayleigh(np.eye(4), F), 1.0, atol=1e-12)
        stiefel.require_frame(F)

    def test_residual_oracle(self):
        S = _psd(6, _rng(1))
        F = baselines.top_eigvecs(S, 4)
        values = _rayleigh(S, F)
        for j in range(4):
            v = F[:, j]
            assert np.linalg.norm(S @ v - values[j] * v) < 1e-8
        assert np.all(np.diff(values) <= 1e-12)
        assert np.allclose(values, np.linalg.eigvalsh(S)[::-1][:4], atol=1e-12)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            baselines.top_eigvecs(np.eye(3), 4)

    def test_deterministic_signs(self):
        S = _psd(5, _rng(2))
        a = baselines.top_eigvecs(S, 3)
        b = baselines.top_eigvecs(S.copy(), 3)
        assert np.array_equal(a, b)


class TestDistpca:
    def test_single_client_equals_spectral_truncation(self):
        S = _psd(7, _rng(3))
        state = baselines.distpca([S], r1=2, r2_list=[3])
        full = baselines.top_eigvecs(S, 5)
        assert stiefel.subspace_distance(state.U, full[:, :2]) < 1e-16
        assert stiefel.subspace_distance(state.V[0], full[:, 2:]) < 1e-16

    def test_identical_clients_match_single(self):
        S = _psd(6, _rng(4))
        single = baselines.distpca([S], 1, [2])
        trio = baselines.distpca([S, S.copy(), S.copy()], 1, [2, 2, 2])
        assert stiefel.subspace_distance(single.U, trio.U) < 1e-16
        assert stiefel.subspace_distance(single.V[0], trio.V[1]) < 1e-16

    def test_valid_component_state(self):
        rng = _rng(5)
        covs = [_psd(8, rng) for _ in range(4)]
        baselines.distpca(covs, 2, [2, 2, 2, 2]).validate()

    def test_inconsistent_under_dominant_heterogeneity(self):
        # local variance 100x the global one and noise above the global
        # signal: the per-client top-(r1+r2) compression never sees the
        # shared directions, so growing n does not help
        from perpca.metrics import subspace_error

        def spec_for(n, seed):
            return synth.GenerativeSpec(
                d=15, N=20, r1=2, r2=10, n_per_client=n,
                global_score_std=1.0, local_score_std=10.0, noise_std=6.0, seed=seed,
            )

        errs = []
        for n in (500, 5000):
            per_seed = []
            for seed in range(3):
                spec = spec_for(n, seed)
                truth = synth.generate_components(spec)
                covs = [model.covariance(Y) for Y in synth.generate_observations(truth, spec)]
                state = baselines.distpca(covs, 2, [10] * 20)
                per_seed.append(subspace_error(state, truth))
            errs.append(np.mean(per_seed))
        assert errs[1] > 0.5 * errs[0]  # no 1/n decay

    def test_rank_bound(self):
        with pytest.raises(ValueError):
            baselines.distpca([np.eye(3)], 2, [2])


class TestIndivAndCentral:
    def test_indiv_single_client(self):
        S = _psd(5, _rng(6))
        frames = baselines.indiv_pca([S], 3)
        assert np.array_equal(frames[0], baselines.top_eigvecs(S, 3))

    def test_indiv_disjoint_spectra(self):
        S1 = np.diag([5.0, 1.0, 0.0, 0.0])
        S2 = np.diag([0.0, 0.0, 5.0, 1.0])
        f1, f2 = baselines.indiv_pca([S1, S2], 2)
        assert stiefel.subspace_distance(f1, np.eye(4)[:, :2]) < 1e-12
        assert stiefel.subspace_distance(f2, np.eye(4)[:, 2:]) < 1e-12

    def test_central_equal_clients(self):
        S = _psd(6, _rng(7))
        pooled = baselines.central_pca([S, S.copy()], [10, 10], 3)
        own = baselines.top_eigvecs(S, 3)
        assert stiefel.subspace_distance(pooled, own) < 1e-12

    def test_central_dominant_client_limit(self):
        rng = _rng(8)
        S1, S2 = _psd(5, rng), _psd(5, rng)
        pooled = baselines.central_pca([S1, S2], [10**6, 1], 2)
        own = baselines.top_eigvecs(S1, 2)
        assert stiefel.subspace_distance(pooled, own) < 1e-8

    def test_central_residual_oracle(self):
        rng = _rng(9)
        covs = [_psd(6, rng) for _ in range(3)]
        counts = [5, 10, 15]
        pooled_cov = sum(n * S for n, S in zip(counts, covs)) / 30
        frame = baselines.central_pca(covs, counts, 2)
        vals = _rayleigh(pooled_cov, baselines.top_eigvecs(pooled_cov, 2))
        for j in range(2):
            v = frame[:, j]
            assert np.linalg.norm(pooled_cov @ v - vals[j] * v) < 1e-8

    def test_count_mismatch(self):
        with pytest.raises(DimensionError):
            baselines.central_pca([np.eye(3)], [1, 2], 1)


def _bitwise_equal(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert a.flags.c_contiguous


def _parity_case(name):
    # (covs, r1, r2_list): planted data, random PSD with mixed ranks, and ties
    rng = _rng(11)
    if name == "grid":
        spec = synth.GenerativeSpec(d=15, N=100, r1=2, r2=3, n_per_client=200, seed=1)
        truth = synth.generate_components(spec)
        return [model.covariance(Y) for Y in synth.generate_observations(truth, spec)], 2, [3] * 100
    if name == "wide":
        return [_psd(50, rng) for _ in range(20)], 3, [5] * 20
    if name == "mixed":
        return [_psd(9, rng) for _ in range(6)], 2, [1, 3, 2, 3, 1, 2]
    if name == "identity":
        return [np.eye(6) for _ in range(4)], 1, [2, 2, 3, 1]
    return [np.diag([3.0, 3.0, 2.0, 2.0, 1.0, 1.0, 1.0]) for _ in range(3)], 2, [2, 1, 3]


class TestStackedBaselines:
    """The batched baselines against the client-by-client loops, bit for bit."""

    cases = ["grid", "wide", "mixed", "identity", "repeated-diagonal"]

    @pytest.mark.parametrize("name", cases)
    def test_top_eigvecs_stack_matches_slices(self, name):
        covs, r1, r2 = _parity_case(name)
        k = r1 + max(r2)
        frames = baselines.top_eigvecs(np.stack(covs), k)
        assert frames.shape == (len(covs), covs[0].shape[0], k)
        for S, F in zip(covs, frames):
            _bitwise_equal(F, ref.top_eigvecs(S, k))
            _bitwise_equal(baselines.top_eigvecs(S, k), ref.top_eigvecs(S, k))

    @pytest.mark.parametrize("name", cases)
    def test_indiv_and_central_match_loops(self, name):
        covs, r1, r2 = _parity_case(name)
        k = r1 + max(r2)
        frames = baselines.indiv_pca(covs, k)
        assert isinstance(frames, list) and len(frames) == len(covs)
        for F, G in zip(frames, ref.indiv_pca(covs, k)):
            _bitwise_equal(F, G)
        counts = list(range(1, len(covs) + 1))
        pooled = sum(n * S for n, S in zip(counts, covs)) / float(sum(counts))
        _bitwise_equal(baselines.central_pca(covs, counts, k), ref.top_eigvecs(pooled, k))

    @pytest.mark.parametrize("name", cases)
    def test_distpca_matches_loops(self, name):
        covs, r1, r2 = _parity_case(name)
        _bitwise_equal(baselines.distpca_global(covs, r1, r2), ref.distpca_global(covs, r1, r2))
        state, expected = baselines.distpca(covs, r1, r2), ref.distpca(covs, r1, r2)
        _bitwise_equal(state.U, expected.U)
        assert len(state.V) == len(expected.V)
        for V, W in zip(state.V, expected.V):
            _bitwise_equal(V, W)

    def test_fix_signs_matches_column_loop(self):
        # ties in magnitude keep the first index; zero columns stay; stacks go slice by slice
        vectors = np.array([[-1.0, 1.0, 0.0, -0.5],
                            [1.0, -1.0, 0.0, 2.0],
                            [0.5, 0.0, 0.0, -2.0]])
        _bitwise_equal(baselines._fix_signs(vectors), ref.fix_signs(vectors))
        stack = np.stack([vectors, -vectors, _rng(12).standard_normal((3, 4))])
        for out, V in zip(baselines._fix_signs(stack), stack):
            _bitwise_equal(out, ref.fix_signs(V))
