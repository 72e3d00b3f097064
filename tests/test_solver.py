import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_loops as ref
from perpca import baselines, metrics, model, solver, stiefel, synth
from perpca.errors import DimensionError, InvariantError, SingularityError


def _rng(seed=0):
    return np.random.default_rng(seed)


def _feasible_pair(d, r1, r2, rng):
    U = stiefel.random_frame(d, r1, rng)
    return U, stiefel.random_frame(d, r2, rng, against=U)


def _psd(d, rng, scale=1.0):
    M = rng.standard_normal((d, d + 3))
    return scale * (M @ M.T) / (d + 3)


class TestCorrectionStep:
    def test_orthogonal_input_passes_through(self):
        U = np.eye(4)[:, :2]
        V = np.eye(4)[:, 2:3]
        out = solver.correction_step(V, U)
        assert out is V  # exact zero update short-circuits

    def test_hand_gram_schmidt(self):
        U = np.eye(3)[:, :1]
        V_half = np.array([[1.0], [1.0], [0.0]]) / np.sqrt(2.0)
        out = solver.correction_step(V_half, U)
        assert np.allclose(out, np.eye(3)[:, 1:2], atol=1e-12)

    @pytest.mark.parametrize("retraction", ["polar", "qr"])
    def test_random_feasible_instances(self, retraction):
        rng = _rng(1)
        for _ in range(20):
            U_new = stiefel.random_frame(7, 2, rng)
            V_half = stiefel.random_frame(7, 3, rng)
            out = solver.correction_step(V_half, U_new, retraction)
            assert np.max(np.abs(U_new.T @ out)) < 1e-10
            stiefel.require_frame(out)

    def test_rank_collapse(self):
        U = np.eye(3)[:, :2]
        V_half = np.eye(3)[:, 0:1]  # entirely inside col(U)
        with pytest.raises(SingularityError):
            solver.correction_step(V_half, U)


class TestClientUpdates:
    @pytest.mark.parametrize("choice", [1, 2])
    def test_zero_covariance_is_fixed_point(self, choice):
        U, V = _feasible_pair(5, 2, 1, _rng(2))
        S = np.zeros((5, 5))
        if choice == 1:
            cand, half = solver.client_update_choice1(U, V, S, 0.1)
        else:
            cand, half = solver.client_update_choice2(U, V, S, 0.1)
        assert np.allclose(cand, U, atol=1e-13)
        assert np.allclose(half, V, atol=1e-13)

    @pytest.mark.parametrize("choice", [1, 2])
    def test_zero_stepsize_is_fixed_point(self, choice):
        rng = _rng(3)
        U, V = _feasible_pair(5, 1, 2, rng)
        S = _psd(5, rng)
        if choice == 1:
            cand, half = solver.client_update_choice1(U, V, S, 0.0)
        else:
            cand, half = solver.client_update_choice2(U, V, S, 0.0)
        assert np.allclose(cand, U, atol=1e-13)
        assert np.allclose(half, V, atol=1e-13)

    def test_choice1_candidate_not_orthonormalized(self):
        rng = _rng(4)
        U, V = _feasible_pair(6, 2, 2, rng)
        S = _psd(6, rng, 5.0)
        cand, half = solver.client_update_choice1(U, V, S, 0.3)
        stiefel.require_frame(half)
        assert stiefel.orthonormality_deviation(cand) > 1e-6

    @pytest.mark.parametrize("choice", [1, 2])
    def test_single_client_recovers_top_eigenspace(self, choice):
        # oracle: dense eigendecomposition of an 8 x 8 covariance
        rng = _rng(5)
        basis = stiefel.random_frame(8, 8, rng)
        S = basis @ np.diag([9.0, 7.0, 5.0, 4.0, 0.8, 0.4, 0.2, 0.1]) @ basis.T
        S = (S + S.T) / 2
        config = solver.SolverConfig(
            r1=2, r2=2, rounds=400, choice=choice, seed=11, record_trace=False
        )
        state, _ = solver.run_perpca([S], config)
        top4 = baselines.top_eigvecs(S, 4)
        joint = np.concatenate([state.U, state.V[0]], axis=1)
        assert stiefel.subspace_distance(joint, top4) < 1e-10


class TestServerAggregate:
    def test_consensus_is_fixed_point(self):
        U = stiefel.random_frame(6, 2, _rng(6))
        out = solver.server_aggregate(np.array([U, U, U]), U)
        assert np.allclose(out, U, atol=1e-12)

    def test_column_space_of_mean(self):
        rng = _rng(7)
        U_prev = stiefel.random_frame(6, 2, rng)
        c1 = U_prev + 0.1 * rng.standard_normal((6, 2))
        c2 = 2 * U_prev - c1  # symmetric about U_prev
        out = solver.server_aggregate(np.array([c1, c2]), U_prev)
        mean_basis = stiefel.orthonormalize((c1 + c2) / 2)
        assert np.sqrt(stiefel.subspace_distance(out, mean_basis)) < 1e-8

    def test_fixed_order_determinism(self):
        rng = _rng(8)
        U_prev = stiefel.random_frame(5, 2, rng)
        cands = np.array([U_prev + 0.05 * rng.standard_normal((5, 2)) for _ in range(4)])
        a = solver.server_aggregate(cands, U_prev)
        assert np.array_equal(a, solver.server_aggregate(cands, U_prev))
        permuted = solver.server_aggregate(cands[::-1], U_prev)
        assert np.max(np.abs(permuted - a)) < 1e-13


class TestAutoStepsize:
    def test_identity(self):
        assert solver.auto_stepsize([np.eye(3)], 1) == pytest.approx(0.5, abs=1e-9)

    def test_diagonal(self):
        assert solver.auto_stepsize([np.diag([4.0, 1.0])], 1) == pytest.approx(0.125, rel=1e-6)

    def test_rank_scaling(self):
        rng = _rng(9)
        covs = [_psd(5, rng)]
        assert solver.auto_stepsize(covs, 2) == pytest.approx(
            solver.auto_stepsize(covs, 1) / np.sqrt(2), rel=1e-9
        )

    def test_zero_covariances_rejected(self):
        with pytest.raises(ValueError):
            solver.auto_stepsize([np.zeros((3, 3))], 1)

    def test_power_iteration_matches_eigh(self):
        rng = _rng(10)
        for _ in range(10):
            S = _psd(7, rng, 3.0)
            assert solver.operator_norm(S) == pytest.approx(
                np.linalg.eigvalsh(S)[-1], rel=1e-5
            )

    def test_power_iteration_start_in_null_space(self):
        # rank-1 matrix whose range is orthogonal to the default start
        d = 4
        start = 1.0 + 1e-3 * np.arange(d)
        u = np.zeros(d)
        u[0], u[1] = start[1], -start[0]  # orthogonal to the ramp
        u /= np.linalg.norm(u)
        S = 2.5 * np.outer(u, u)
        assert solver.operator_norm(S) == pytest.approx(2.5, rel=1e-5)

    def test_stacked_power_iteration_matches_slices_bitwise(self, monkeypatch):
        # slices that stop after different numbers of steps, one whose start
        # vector lies in its null space, a zero matrix, and one that takes
        # more than 500 steps
        rng = _rng(25)
        d = 6
        start = 1.0 + 1e-3 * np.arange(d)
        u = np.zeros(d)
        u[0], u[1] = start[1], -start[0]
        u /= np.linalg.norm(u)
        slow = np.diag([1.0, 0.998, 0.996, 0.1, 0.0, 0.0])
        covs = np.stack([_psd(d, rng, 3.0), 2.5 * np.outer(u, u), _psd(d, rng, 1e-3),
                         np.zeros((d, d)), np.diag([1.0, 0.999, 0.5, 0.1, 0.0, 0.0]),
                         _psd(d, rng), slow])
        stacked = solver.operator_norm(covs)
        loop = np.array([ref.operator_norm(S) for S in covs])
        assert np.array_equal(stacked, loop)
        assert stacked[3] == 0.0 and stacked[1] == pytest.approx(2.5, rel=1e-5)
        assert all(solver.operator_norm(S) == x for S, x in zip(covs, loop))
        monkeypatch.setattr(solver, "POWER_MAX_ITER", 500)
        assert solver.operator_norm(slow) == ref.operator_norm(slow, max_iter=500) != loop[-1]


class TestInit:
    def test_random_init_valid_and_seeded(self):
        a = solver.init_random(7, 2, [2, 3, 2], seed=42)
        b = solver.init_random(7, 2, [2, 3, 2], seed=42)
        a.validate()
        assert np.array_equal(a.U, b.U)
        assert all(np.array_equal(x, y) for x, y in zip(a.V, b.V))
        c = solver.init_random(7, 2, [2, 3, 2], seed=43)
        assert stiefel.subspace_distance(a.U, c.U) > 1e-6

    def test_distpca_init_valid(self):
        rng = _rng(11)
        covs = [_psd(6, rng) for _ in range(3)]
        state = solver.init_distpca(covs, 2, [1, 1, 1], seed=0)
        state.validate()


class TestRunPerpca:
    def test_zero_rounds_echoes_init(self):
        rng = _rng(12)
        covs = [_psd(5, rng) for _ in range(2)]
        config = solver.SolverConfig(r1=1, r2=1, rounds=0, init="random", seed=3)
        state, trace = solver.run_perpca(covs, config)
        assert trace == []
        ref = solver.init_random(5, 1, [1, 1], seed=3)
        assert np.array_equal(state.U, ref.U)

    def test_noiseless_identifiable_recovery(self):
        spec = synth.GenerativeSpec(
            d=10, N=4, r1=2, r2=2, n_per_client=60,
            global_score_std=1.0, local_score_std=1.5, noise_std=0.0, seed=5,
        )
        truth = synth.generate_components(spec)
        assert truth.theta_actual > 0.05
        covs = [model.covariance(Y) for Y in synth.generate_observations(truth, spec)]
        config = solver.SolverConfig(r1=2, r2=2, rounds=300, seed=5)
        state, trace = solver.run_perpca(covs, config, truth=truth)
        assert trace[-1].subspace_error < 1e-8

    def test_bitwise_reproducibility(self):
        rng = _rng(13)
        covs = [_psd(6, rng) for _ in range(3)]
        config = solver.SolverConfig(r1=1, r2=2, rounds=25, seed=9, init="random")
        s1, t1 = solver.run_perpca(covs, config)
        s2, t2 = solver.run_perpca(covs, config)
        assert np.array_equal(s1.U, s2.U)
        assert all(np.array_equal(a, b) for a, b in zip(s1.V, s2.V))
        assert t1 == t2

    def test_feasibility_every_round(self):
        rng = _rng(14)
        covs = [_psd(8, rng, 2.0) for _ in range(4)]
        config = solver.SolverConfig(r1=2, r2=2, rounds=40, seed=1, init="random")
        state, _ = solver.run_perpca(covs, config)
        state.validate()
        assert max(np.max(np.abs(state.U.T @ Vi)) for Vi in state.V) < 1e-8

    def test_correction_restores_feasibility_within_round(self):
        # after server aggregation the local frames are off-orthogonal by
        # O(eta); the correction brings them back below 1e-8
        rng = _rng(16)
        covs = [_psd(8, rng, 2.0) for _ in range(4)]
        state = solver.init_random(8, 2, [2] * 4, seed=3)
        eta = solver.auto_stepsize(covs, 2)
        cands, halves = [], []
        for i, S in enumerate(covs):
            c, h = solver.client_update_choice1(state.U, state.V[i], S, eta)
            cands.append(c)
            halves.append(h)
        U_next = solver.server_aggregate(np.array(cands), state.U)
        mid = max(np.linalg.norm(U_next.T @ h) for h in halves)
        assert 1e-6 < mid < 10 * eta  # infeasible by roughly one step
        corrected = [solver.correction_step(h, U_next) for h in halves]
        assert max(np.max(np.abs(U_next.T @ V)) for V in corrected) < 1e-8

    def test_monotone_ascent_choice1(self):
        for seed in range(6):
            rng = _rng(100 + seed)
            covs = [_psd(7, rng, 3.0) for _ in range(3)]
            config = solver.SolverConfig(r1=1, r2=2, rounds=80, seed=seed, init="random")
            _, trace = solver.run_perpca(covs, config)
            objs = [t.objective for t in trace]
            assert all(b >= a - 1e-12 for a, b in zip(objs, objs[1:]))

    def test_choice_agreement_on_identifiable_instance(self):
        spec = synth.GenerativeSpec(
            d=8, N=3, r1=1, r2=2, n_per_client=50,
            global_score_std=1.0, local_score_std=1.2, noise_std=0.0, seed=21,
        )
        truth = synth.generate_components(spec)
        covs = [model.covariance(Y) for Y in synth.generate_observations(truth, spec)]
        states = {}
        for choice in (1, 2):
            config = solver.SolverConfig(r1=1, r2=2, rounds=400, choice=choice, seed=2)
            states[choice], _ = solver.run_perpca(covs, config)
        mutual = metrics.subspace_error(states[1], (states[2].U, states[2].V))
        assert mutual < 1e-6

    def test_sublinear_stationarity_scaling(self):
        # R * min-over-rounds KKT stays bounded as R doubles; single
        # trajectories traverse saddle plateaus, so the scaling is read off
        # seed medians
        mins = []
        for seed in range(10):
            spec = synth.GenerativeSpec(
                d=12, N=6, r1=1, r2=3, n_per_client=60,
                local_score_std=1.0, noise_std=1.5, seed=seed,
                groups=[0] * 6,  # identical locals: non-identifiable optimum
            )
            truth = synth.generate_components(spec)
            covs = [model.covariance(Y) for Y in synth.generate_observations(truth, spec)]
            config = solver.SolverConfig(r1=1, r2=3, rounds=400, seed=seed, init="random")
            _, trace = solver.run_perpca(covs, config)
            residual = np.array([t.kkt_global + t.kkt_local for t in trace])
            mins.append([np.min(residual[:R]) for R in (50, 100, 200, 400)])
        med = np.median(np.array(mins), axis=0)
        scaled = med * np.array([50, 100, 200, 400])
        ratios = scaled[1:] / scaled[:-1]
        assert all(0.3 <= r <= 1.2 for r in ratios), ratios

    def test_heterogeneous_local_ranks(self):
        rng = _rng(15)
        covs = [_psd(9, rng, 2.0) for _ in range(3)]
        config = solver.SolverConfig(r1=2, r2=[1, 3, 2], rounds=60, seed=6,
                                     init="random")
        state, trace = solver.run_perpca(covs, config)
        state.validate()
        assert state.r2 == [1, 3, 2]
        objs = [t.objective for t in trace]
        assert all(b >= a - 1e-12 for a, b in zip(objs, objs[1:]))

    def test_kkt_vanishes_at_convergence(self):
        spec = synth.GenerativeSpec(
            d=15, N=5, r1=2, r2=3, n_per_client=100,
            global_score_std=1.0, local_score_std=1.0, noise_std=0.0, seed=0,
        )
        truth = synth.generate_components(spec)
        covs = [model.covariance(Y) for Y in synth.generate_observations(truth, spec)]
        config = solver.SolverConfig(
            r1=2, r2=3, rounds=800, seed=0, stop_subspace_tol=1e-12,
            stepsize_scale=0.15, record_trace=False,
        )
        state, _ = solver.run_perpca(covs, config, truth=truth)
        g, l = model.kkt_residual(state, covs)
        assert g + l < 1e-8

    def test_early_stop_on_subspace_error(self):
        spec = synth.GenerativeSpec(
            d=10, N=4, r1=2, r2=2, n_per_client=60,
            local_score_std=1.5, noise_std=0.0, seed=5,
        )
        truth = synth.generate_components(spec)
        covs = [model.covariance(Y) for Y in synth.generate_observations(truth, spec)]
        config = solver.SolverConfig(r1=2, r2=2, rounds=500, seed=5, stop_subspace_tol=1e-8)
        _, trace = solver.run_perpca(covs, config, truth=truth)
        assert len(trace) < 500
        assert trace[-1].subspace_error < 1e-8

    @pytest.mark.parametrize("r2, group_sizes", [(2, [4]), ([2, 1, 2, 1], [2, 2])])
    def test_early_stop_computes_no_further_round(self, r2, group_sizes, monkeypatch):
        spec = synth.GenerativeSpec(d=10, N=4, r1=2, r2=2, n_per_client=60,
                                    local_score_std=1.5, noise_std=0.3, seed=5)
        truth = synth.generate_components(spec)
        covs = [model.covariance(Y) for Y in synth.generate_observations(truth, spec)]
        V_true = [V[:, :r] for V, r in zip(truth.V_true, model.local_ranks(2, r2, 4, 10))]
        _, full = solver.run_perpca(covs, solver.SolverConfig(r1=2, r2=r2, rounds=40, seed=5),
                                    truth=(truth.U_true, V_true))
        # half the rounds end below the median error, so the first of them comes before round 40
        tol = float(np.median([row.subspace_error for row in full]))
        stop = next(row.round for row in full if row.subspace_error < tol)
        sizes = []
        update = solver.client_update_choice1
        monkeypatch.setattr(solver, "client_update_choice1",
                            lambda U, V, *rest: sizes.append(len(V)) or update(U, V, *rest))
        config = solver.SolverConfig(r1=2, r2=r2, rounds=40, seed=5, stop_subspace_tol=tol)
        _, trace = solver.run_perpca(covs, config, truth=(truth.U_true, V_true))
        assert trace == full[:stop] and stop < 40
        assert sizes == group_sizes * stop  # one update per rank group and recorded round

    def test_singularity_reports_context(self):
        # a "covariance" of -I / eta sends the joint step [U, V] + eta S [U, V]
        # of the only client to zero, so its retraction collapses in round 1
        eta = 0.25
        config = solver.SolverConfig(r1=2, r2=1, rounds=5, choice=2, init="random",
                                     stepsize=eta)
        with pytest.raises(SingularityError,
                           match=r"^round 1, client 0: rank-deficient update"):
            solver.run_perpca([-np.eye(4) / eta], config)


def _reference_run(covs, config, truth=None):
    """Client-by-client loop that the stacked solver must match bitwise."""
    covs = [np.asarray(S, dtype=float) for S in covs]
    d = covs[0].shape[0]
    r2_list = model.local_ranks(config.r1, config.r2, len(covs), d)
    if config.init == "random":
        state = solver.init_random(d, config.r1, r2_list, config.seed)
    else:
        state = solver.init_distpca(covs, config.r1, r2_list, config.seed)
    g_max = max(ref.operator_norm(S) for S in covs)
    eta = config.stepsize_scale / (g_max * np.sqrt(max([config.r1] + r2_list)))
    retract = stiefel.RETRACTIONS[config.retraction]
    trace = []
    for rnd in range(1, config.rounds + 1):
        candidates, halves = [], []
        for i, S in enumerate(covs):
            if config.choice == 1:
                cand, half = solver.client_update_choice1(
                    state.U, state.V[i], S, eta, config.retraction)
            else:
                cand, half = solver.client_update_choice2(state.U, state.V[i], S, eta)
            candidates.append(cand)
            halves.append(half)
        mean = candidates[0].copy()
        for C in candidates[1:]:
            mean += C
        mean /= len(candidates)
        U_next = retract(state.U, mean - state.U)
        V_next = [solver.correction_step(h, U_next, config.retraction) for h in halves]
        state = model.ComponentState(U_next, V_next)
        trace.append(solver.RoundTrace(rnd, *ref.diagnostics(state, covs),
                                       subspace_error=ref.subspace_error(state, truth)))
        stop = config.stop_subspace_tol
        if stop is not None and trace[-1].subspace_error < stop:
            break
    return state, trace if config.record_trace else []


class TestStackedClients:
    # a stop at 5.65 comes at round 9-11 from a random init and at round 1 from distpca;
    # at 0.5 it comes at round 15 from distpca at r2=3
    @pytest.mark.parametrize("stop, record_trace", [
        (None, True), (None, False), (5.65, True), (0.5, True), (5.65, False)])
    @pytest.mark.parametrize("init", ["random", "distpca"])
    @pytest.mark.parametrize("r2", [3, [1, 3, 2, 3]])
    @pytest.mark.parametrize("retraction", ["polar", "qr"])
    @pytest.mark.parametrize("choice", [1, 2])
    def test_matches_client_loop_bitwise(self, choice, retraction, r2, init, stop, record_trace):
        spec = synth.GenerativeSpec(d=9, N=4, r1=2, r2=3, n_per_client=80,
                                    noise_std=0.3, seed=3)
        truth = synth.generate_components(spec)
        covs = [model.covariance(Y) for Y in synth.generate_observations(truth, spec)]
        config = solver.SolverConfig(r1=2, r2=r2, rounds=30, choice=choice,
                                     retraction=retraction, init=init, seed=4,
                                     stop_subspace_tol=stop, record_trace=record_trace)
        state, trace = solver.run_perpca(covs, config, truth=truth)
        ref_state, ref_trace = _reference_run(covs, config, truth)
        assert np.array_equal(state.U, ref_state.U)
        assert len(state.V) == 4
        assert all(np.array_equal(a, b) for a, b in zip(state.V, ref_state.V))
        assert trace == ref_trace

    def test_stacked_retractions_match_slices(self):
        rng = _rng(20)
        U = np.stack([stiefel.random_frame(6, 2, rng) for _ in range(5)])
        xi = 0.3 * rng.standard_normal(U.shape)
        xi[3] = 0.0  # zero update: slice passes through unchanged
        for retract in stiefel.RETRACTIONS.values():
            out = retract(U, xi)
            for k in range(5):
                assert np.array_equal(out[k], retract(U[k], xi[k]))
            assert np.array_equal(out[3], U[3])

    @pytest.mark.parametrize("retract", [stiefel.polar_retract, stiefel.qr_retract])
    def test_stacked_singularity_names_first_slice(self, retract):
        U = np.stack([np.eye(3)[:, :2]] * 4)
        xi = np.zeros_like(U)
        xi[1:, :, 1] = U[1:, :, 0] - U[1:, :, 1]  # slices 1-3 lose a column
        with pytest.raises(SingularityError) as info:
            retract(U, xi)
        assert info.value.index == 1
        with pytest.raises(SingularityError) as info:
            retract(U[0], U[0] * -1.0)
        assert info.value.index is None

    @pytest.mark.parametrize("retract", [stiefel.polar_retract, stiefel.qr_retract])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_update_names_first_slice(self, retract, bad):
        U = np.stack([np.eye(3)[:, :2]] * 4)
        xi = np.zeros_like(U)
        xi[1:] = 0.1
        xi[2, 0, 0] = xi[3, 1, 1] = bad  # slice 0 does not move
        with pytest.raises(SingularityError, match="non-finite update") as info:
            retract(U, xi)
        assert info.value.index == 2
        with pytest.raises(SingularityError, match="non-finite update") as info:
            retract(U[0], xi[2])
        assert info.value.index is None

    def test_stacked_correction_step(self):
        rng = _rng(21)
        U_new = np.eye(7)[:, :2]
        halves = np.stack([stiefel.random_frame(7, 3, rng) for _ in range(3)])
        halves[1] = np.eye(7)[:, 2:5]  # exactly orthogonal: passes through
        out = solver.correction_step(halves, U_new)
        for k in range(3):
            assert np.array_equal(out[k], solver.correction_step(halves[k], U_new))
        assert np.array_equal(out[1], halves[1])

    def test_server_sum_is_ascending_client_order(self):
        # candidates spanning twelve orders of magnitude, so that summing in
        # another order changes the last bits of the mean and of the frame
        rng = _rng(22)
        U_prev = stiefel.random_frame(5, 2, rng)
        scales = 10.0 ** np.linspace(-6, 6, 9)
        cands = U_prev + scales[:, None, None] * rng.standard_normal((9, 5, 2))

        def sequential(order):
            mean = cands[order[0]].copy()
            for k in order[1:]:
                mean += cands[k]
            mean /= len(order)
            return stiefel.polar_retract(U_prev, mean - U_prev)

        ascending = sequential(range(9))
        assert not np.array_equal(ascending, sequential(range(8, -1, -1)))
        assert np.array_equal(solver.server_aggregate(cands, U_prev), ascending)

    @pytest.mark.parametrize("r2", [1, [1, 2, 2, 1]])
    def test_singularity_names_first_failing_client(self, r2):
        # a "covariance" of -I / eta makes [U, V] + eta S [U, V] exactly zero;
        # with mixed ranks client 3 sits in the first rank group and client 2
        # in the second, and the error must still name client 2
        eta = 0.1
        healthy = np.diag([3.0, 2.0, 1.0, 0.5, 0.2])
        covs = [healthy, healthy, -np.eye(5) / eta, healthy]
        if r2 != 1:
            covs[3] = covs[2]
        config = solver.SolverConfig(r1=2, r2=r2, rounds=5, choice=2, init="random",
                                     stepsize=eta)
        with pytest.raises(SingularityError, match=r"^round 1, client 2: "):
            solver.run_perpca(covs, config)


class TestInputChecks:
    @pytest.mark.parametrize("field, value", [
        ("stepsize", np.nan), ("stepsize", np.inf), ("stepsize_scale", np.nan),
        ("stepsize_scale", np.inf), ("stop_subspace_tol", np.nan), ("stop_subspace_tol", -1e-3)])
    def test_bad_number_fails_at_the_config(self, field, value):
        # not as a round-1 SingularityError, nor as a stop rule that never stops
        with pytest.raises(ValueError, match=rf"\b{field} must .*, got {value}$"):
            solver.SolverConfig(r1=1, r2=1, **{field: value})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_covariance_names_client(self, bad):
        rng = _rng(23)
        covs = [_psd(5, rng) for _ in range(3)]
        covs[1][2, 3] = covs[1][3, 2] = bad
        config = solver.SolverConfig(r1=1, r2=1, rounds=3)
        with pytest.raises(ValueError, match="covariance 1 has non-finite entries"):
            solver.run_perpca(covs, config)

    def test_asymmetric_covariance_names_client(self):
        rng = _rng(24)
        covs = [_psd(4, rng) for _ in range(3)]
        covs[2][0, 1] += 1e-3
        with pytest.raises(ValueError, match="covariance 2 is not symmetric"):
            solver.run_perpca(covs, solver.SolverConfig(r1=1, r2=1, rounds=3))

    def test_unread_subspace_error_is_not_computed(self, monkeypatch):
        spec = synth.GenerativeSpec(d=8, N=3, r1=1, r2=2, n_per_client=50, seed=6)
        truth = synth.generate_components(spec)
        covs = [model.covariance(Y) for Y in synth.generate_observations(truth, spec)]
        calls = []

        def count_calls(name):
            original = getattr(metrics, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            monkeypatch.setattr(metrics, name, wrapper)

        for name in ("truth_projectors", "stacked_subspace_error", "subspace_error"):
            count_calls(name)
        config = solver.SolverConfig(r1=1, r2=2, rounds=20, seed=6, record_trace=False)
        with_truth, _ = solver.run_perpca(covs, config, truth=truth)
        assert calls == []
        without, _ = solver.run_perpca(covs, config)
        assert np.array_equal(with_truth.U, without.U)
        assert all(np.array_equal(a, b) for a, b in zip(with_truth.V, without.V))
        traced = solver.SolverConfig(r1=1, r2=2, rounds=20, seed=6)
        solver.run_perpca(covs, traced, truth=truth)
        assert calls == ["truth_projectors"] + ["stacked_subspace_error"] * 20

    @pytest.mark.parametrize("case, message", [
        ("count", r"^2 true local frames for 3 clients$"),
        ("shared 1-d", r"^true shared frame has shape \(8,\), expected \(8, r\)$"),
        ("local 3-d", r"^true local frame 1 has shape \(1, 8, 2\), expected \(8, r\)$"),
        ("local d", r"^true local frame 2 has shape \(9, 2\), expected \(8, r\)$"),
    ], ids=["count", "shared-1d", "local-3d", "local-d"])
    def test_bad_truth_fails_before_round_one(self, case, message, monkeypatch):
        spec = synth.GenerativeSpec(d=8, N=3, r1=1, r2=2, n_per_client=50, seed=6)
        truth = synth.generate_components(spec)
        covs = [model.covariance(Y) for Y in synth.generate_observations(truth, spec)]
        U, V = truth.U_true, list(truth.V_true)
        if case == "count":
            V = V[:2]
        elif case == "shared 1-d":
            U = U[:, 0]
        elif case == "local 3-d":
            V[1] = V[1][None]
        else:
            V[2] = np.vstack([V[2], np.zeros((1, 2))])
        # a truth that the solver never reads is not checked
        unread = solver.SolverConfig(r1=1, r2=2, rounds=5, record_trace=False)
        solver.run_perpca(covs, unread, truth=(U, V))
        updates = []
        monkeypatch.setattr(solver, "client_update_choice1", lambda *a: updates.append(a))
        for config in (solver.SolverConfig(r1=1, r2=2, rounds=5),
                       solver.SolverConfig(r1=1, r2=2, rounds=5, record_trace=False,
                                           stop_subspace_tol=1e-8)):
            with pytest.raises(DimensionError, match=message):
                solver.run_perpca(covs, config, truth=(U, V))
        assert updates == []
        with pytest.raises(DimensionError, match=message):
            metrics.subspace_error(model.ComponentState(truth.U_true, truth.V_true), (U, V))

    @pytest.mark.parametrize("retraction", ["polar", "qr"])
    @pytest.mark.parametrize("choice", [1, 2])
    def test_huge_stepsize_names_round_and_client(self, choice, retraction):
        rng = _rng(25)
        covs = [_psd(5, rng, scale=100.0) for _ in range(3)]
        config = solver.SolverConfig(r1=1, r2=2, rounds=3, stepsize=1e308, choice=choice,
                                     retraction=retraction)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                SingularityError, match=r"^round 1, client 0: non-finite update"):
            solver.run_perpca(covs, config)

    @pytest.mark.parametrize("init", ["distpca", "random"])
    @pytest.mark.parametrize("r2, client", [(-1, 0), (0, 0), ([2, 1, 0], 2)])
    def test_local_rank_below_one_names_client(self, r2, client, init):
        covs = [np.diag([5.0, 4.0, 3.0, 2.0, 1.0])] * 3
        message = rf"^client {client}: local rank must be >= 1, got "
        with pytest.raises(ValueError, match=message):
            solver.run_perpca(covs, solver.SolverConfig(r1=1, r2=r2, rounds=3, init=init))
        with pytest.raises(ValueError, match=message):
            baselines.distpca(covs, 1, r2)


_PACKAGE_VALUE_ERRORS = re.compile(r"^(covariance \d+ has largest entry|all covariances are zero)")


@st.composite
def _solver_inputs(draw):
    # up to four clients; ranks up to r1 + r2 = d, equal or mixed r2;
    # covariances of any rank, zero included, at scales 1e-200 to 1e200;
    # "auto" or an explicit stepsize from 1e-300 to 1e308
    d = draw(st.integers(2, 6))
    n = draw(st.integers(1, 4))
    r1 = draw(st.integers(1, d - 1))
    ranks = st.integers(1, d - r1)
    r2 = draw(ranks) if draw(st.booleans()) else draw(st.lists(ranks, min_size=n, max_size=n))
    covs = []
    for _ in range(n):
        M = _rng(draw(st.integers(0, 2**32 - 1))).standard_normal((d, draw(st.integers(0, d))))
        covs.append(10.0 ** draw(st.floats(-200, 200)) * (M @ M.T))
    eta = draw(st.just("auto") | st.floats(-300, 308).map(lambda e: 10.0 ** e))
    return covs, solver.SolverConfig(
        r1=r1, r2=r2, rounds=3, stepsize=eta, choice=draw(st.sampled_from([1, 2])),
        retraction=draw(st.sampled_from(list(stiefel.RETRACTIONS))),
        init=draw(st.sampled_from(solver.INITS)))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(inputs=_solver_inputs())
def test_fuzz_run_perpca_ends_valid_or_in_package_error(inputs):
    # never numpy's LinAlgError (a ValueError subclass), a NaN frame or an invalid state
    covs, config = inputs
    try:
        with np.errstate(all="ignore"):
            state, trace = solver.run_perpca(covs, config)
    except (DimensionError, InvariantError, SingularityError):
        return
    except ValueError as exc:
        assert type(exc) is ValueError and _PACKAGE_VALUE_ERRORS.match(str(exc)), repr(exc)
        return
    state.validate()
    assert np.isfinite(state.U).all() and all(np.isfinite(V).all() for V in state.V)
    assert np.isfinite([row[1:5] for row in trace]).all()
