import ast
import collections
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

import reference_loops as ref
from perpca import baselines, cli, fileio, metrics, model, solver, stacks, stiefel, synth
from perpca.errors import DimensionError, InvariantError


def _rng(seed=0):
    return np.random.default_rng(seed)


def _random_state(d, r1, r2, n_clients, rng):
    U = stiefel.random_frame(d, r1, rng)
    V = [stiefel.random_frame(d, r2, rng, against=U) for _ in range(n_clients)]
    return model.ComponentState(U, V).validate()


def _random_cov(d, rng):
    M = rng.standard_normal((d, d + 2))
    return model.covariance(M)


class TestCovariance:
    def test_single_observation(self):
        Y = np.array([[1.0], [0.0]])
        assert np.array_equal(model.covariance(Y), np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_identity_data(self):
        assert np.allclose(model.covariance(np.eye(2)), 0.5 * np.eye(2), atol=1e-15)

    def test_trace_identity(self):
        Y = _rng(1).standard_normal((3, 5))
        S = model.covariance(Y)
        assert np.trace(S) == pytest.approx(np.linalg.norm(Y) ** 2 / 5, abs=1e-12)
        assert np.array_equal(S, S.T)
        assert np.min(np.linalg.eigvalsh(S)) >= -1e-10

    def test_empty_dataset(self):
        with pytest.raises(ValueError):
            model.covariance(np.zeros((3, 0)))


def _client_one_bad(case):
    covs = [_random_cov(3, _rng(i)) for i in range(3)]
    if case == "nan":
        covs[1][0, 0] = np.nan
    elif case == "inf":
        covs[1][1, 2] = covs[1][2, 1] = np.inf
    elif case == "asymmetric":
        covs[1][0, 1] += 1.0
    elif case == "ragged":
        covs[1] = np.eye(4)
    elif case.startswith("scale"):  # largest entry outside model.SCALE_RANGE
        covs[1] *= float(case[5:])
    else:
        covs = []
    return covs


_STATE = _random_state(3, 1, 1, 3, _rng(9))


@pytest.fixture()
def checks_run(monkeypatch):
    """Calls of each boundary rule, and of ``stacks.by_rank``, while a test runs."""
    counts = collections.Counter()
    for owner, name in [(model, "covariance_stack"), (model, "local_ranks"),
                        (model.ComponentState, "validate"), (stacks, "by_rank")]:
        def counted(*args, _rule=getattr(owner, name), _name=name, **kwargs):
            counts[_name] += 1
            return _rule(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    return counts


def _solve(rounds=2, **config):
    return lambda c: solver.run_perpca(c, solver.SolverConfig(r1=1, r2=1, rounds=rounds, **config))


# every public function that takes client covariances; run_perpca at zero and
# more rounds, with both inits and both kinds of stepsize
_TAKES_COVS = {
    "run_perpca": _solve(),
    "run_perpca-random": _solve(init="random"),
    "run_perpca-eta": _solve(stepsize=0.1),
    "run_perpca-random-eta": _solve(init="random", stepsize=0.1),
    "run_perpca-rounds0": _solve(rounds=0),
    "run_perpca-random-rounds0": _solve(init="random", rounds=0),
    "auto_stepsize": lambda c: solver.auto_stepsize(c, 2),
    "init_distpca": lambda c: solver.init_distpca(c, 1, 1, 0),
    "objective": lambda c: model.objective(_STATE, c),
    "kkt_residual": lambda c: model.kkt_residual(_STATE, c),
    "mean_reconstruction_error": lambda c: model.mean_reconstruction_error(_STATE, c),
    "distpca_global": lambda c: baselines.distpca_global(c, 1, [1, 1, 1]),
    "distpca": lambda c: baselines.distpca(c, 1, 1),
    "indiv_pca": lambda c: baselines.indiv_pca(c, 2),
    "central_pca": lambda c: baselines.central_pca(c, [5, 5, 5], 2),
}


class TestCovarianceStack:
    def test_stack_is_contiguous_float(self):
        covs = [np.eye(3, dtype=int), 2 * np.eye(3, dtype=int)]
        stack = model.covariance_stack(covs)
        assert stack.dtype == float and stack.flags.c_contiguous
        assert np.array_equal(stack, np.stack(covs))

    @pytest.mark.parametrize("case", ["nan", "inf", "asymmetric", "ragged", "empty", "scale1e308",
                                      "scale1e160", "scale1e-160", "scale1e-200"])
    @pytest.mark.parametrize("name", sorted(_TAKES_COVS))
    def test_bad_covariances_fail_at_the_boundary(self, name, case):
        # a package error naming the client, never numpy's LinAlgError or a NaN
        message = "need at least one client covariance" if case == "empty" else "covariance 1 "
        with pytest.raises(ValueError, match=message) as info:
            _TAKES_COVS[name](_client_one_bad(case))
        assert info.type in (ValueError, DimensionError)
        assert (info.type is DimensionError) == (case == "ragged")

    @pytest.mark.parametrize("name", sorted(_TAKES_COVS))
    def test_each_public_call_checks_the_covariances_once(self, name, checks_run):
        result = _TAKES_COVS[name]([_random_cov(3, _rng(i)) for i in range(3)])
        state = result[0] if isinstance(result, tuple) else result
        assert checks_run["covariance_stack"] == 1
        assert checks_run["local_ranks"] <= 1
        # a returned state passed the frame rule exactly once
        assert checks_run["validate"] == isinstance(state, model.ComponentState)
        if name.startswith("run_perpca"):
            # by_rank: one grouping for the rounds, if any, and one in the final validate
            assert (checks_run["local_ranks"], checks_run["by_rank"]) == (1, 1 + bool(result[1]))
        else:
            assert checks_run["by_rank"] <= 1

    def test_scale_range_is_inclusive_and_allows_zero(self):
        low, high = model.SCALE_RANGE
        covs = [low * np.eye(3), high * np.eye(3), np.zeros((3, 3))]
        assert np.array_equal(model.covariance_stack(covs), np.stack(covs))


class TestObjective:
    def test_zero_covariances(self):
        state = _random_state(4, 1, 1, 2, _rng(2))
        covs = [np.zeros((4, 4))] * 2
        assert model.objective(state, covs) == 0.0

    def test_hand_value(self):
        S = np.diag([3.0, 2.0, 1.0])
        state = model.ComponentState(np.eye(3)[:, :1], [np.eye(3)[:, 1:2]])
        assert model.objective(state, [S]) == pytest.approx(2.5, abs=1e-15)

    def test_rotation_invariance(self):
        rng = _rng(3)
        state = _random_state(6, 2, 2, 3, rng)
        covs = [_random_cov(6, rng) for _ in range(3)]
        rot = stiefel.random_frame(2, 2, rng)
        rotated = model.ComponentState(state.U @ rot, [Vi @ rot for Vi in state.V])
        assert model.objective(rotated, covs) == pytest.approx(
            model.objective(state, covs), abs=1e-12
        )

    def test_length_mismatch(self):
        state = _random_state(4, 1, 1, 2, _rng(4))
        with pytest.raises(DimensionError):
            model.objective(state, [np.zeros((4, 4))])


class TestReconstructionError:
    def test_data_inside_retained_span(self):
        rng = _rng(5)
        state = _random_state(5, 2, 1, 1, rng)
        W = np.concatenate([state.U, state.V[0]], axis=1)
        Y = W @ rng.standard_normal((3, 7))
        assert model.reconstruction_error(Y, state.U, state.V[0]) < 1e-12

    def test_unit_residual(self):
        Y = np.eye(3)[:, 2:3]  # e3, one observation
        err = model.reconstruction_error(Y, np.eye(3)[:, :1], np.eye(3)[:, 1:2])
        assert err == pytest.approx(1.0, abs=1e-15)

    def test_matches_trace_identity(self):
        rng = _rng(6)
        state = _random_state(6, 2, 2, 1, rng)
        Y = rng.standard_normal((6, 11))
        S = model.covariance(Y)
        direct = model.reconstruction_error(Y, state.U, state.V[0])
        via_traces = (
            np.linalg.norm(Y) ** 2 / 11
            - np.trace(state.U.T @ S @ state.U)
            - np.trace(state.V[0].T @ S @ state.V[0])
        )
        assert direct == pytest.approx(via_traces, abs=1e-10)

    def test_cross_orthogonality_enforced(self):
        U = np.eye(3)[:, :1]
        V = np.array([[1.0], [1.0], [0.0]]) / np.sqrt(2)
        with pytest.raises(InvariantError):
            model.reconstruction_error(np.eye(3), U, V)

    def test_single_frame(self):
        rng = _rng(7)
        U = stiefel.random_frame(4, 2, rng)
        Y = U @ rng.standard_normal((2, 5))
        assert model.reconstruction_error(Y, U) < 1e-12


class TestKktResidual:
    def test_zero_at_eigvec_state(self):
        rng = _rng(8)
        S = _random_cov(6, rng)
        w, vecs = np.linalg.eigh(S)
        order = np.argsort(w)[::-1]
        top = vecs[:, order[:4]]
        state = model.ComponentState(top[:, :2], [top[:, 2:]])
        g, l = model.kkt_residual(state, [S])
        assert g < 1e-9 and l < 1e-9

    def test_positive_off_stationarity(self):
        rng = _rng(9)
        state = _random_state(6, 2, 2, 2, rng)
        covs = [_random_cov(6, rng) for _ in range(2)]
        g, l = model.kkt_residual(state, covs)
        assert g > 1e-6 and l > 1e-6

    def test_rotation_invariance(self):
        rng = _rng(10)
        state = _random_state(5, 1, 2, 2, rng)
        covs = [_random_cov(5, rng) for _ in range(2)]
        rot = stiefel.random_frame(2, 2, rng)
        rotated = model.ComponentState(state.U, [Vi @ rot for Vi in state.V])
        assert model.kkt_residual(rotated, covs) == pytest.approx(
            model.kkt_residual(state, covs), abs=1e-10
        )


class TestFusedDiagnostics:
    @pytest.mark.parametrize("d, r1, r2", [(6, 2, [2] * 3), (30, 3, [5, 3, 4, 5] * 3),
                                           (50, 3, [5] * 20)])
    def test_matches_client_loops_bitwise(self, d, r1, r2):
        rng = _rng(14)
        U = stiefel.random_frame(d, r1, rng)
        V = [stiefel.random_frame(d, r, rng, against=U) for r in r2]
        state = model.ComponentState(U, V)
        covs = [_random_cov(d, rng) * 10.0 ** (i % 5 - 2) for i in range(len(r2))]
        expected = ref.diagnostics(state, covs)
        groups, V_stacks = stacks.by_rank(V, d)
        fused = model.diagnostics(U, V_stacks, stacks.by_group(groups, np.stack(covs)), groups)
        assert fused == expected
        assert model.objective(state, covs) == expected.objective
        assert model.kkt_residual(state, covs) == (expected.kkt_global, expected.kkt_local)
        assert model.mean_reconstruction_error(state, covs) == expected.recon_error_mean

    def test_kkt_global_sums_in_ascending_client_order(self):
        # per-client terms spanning twelve orders of magnitude, so that the
        # reversed sum differs in the last bits
        rng = _rng(15)
        d, n = 6, 9
        state = _random_state(d, 2, 1, n, rng)
        U = state.U
        covs = [_random_cov(d, rng) * 10.0 ** (12 * k / (n - 1) - 6) for k in range(n)]
        terms = []
        for S, Vi in zip(covs, state.V):
            SU = S @ U
            terms.append(SU - U @ (U.T @ SU) - Vi @ (Vi.T @ SU))

        def sequential(order):
            total = np.zeros_like(U)
            for k in order:
                total += terms[k]
            return float(np.sum(total * total))

        ascending = sequential(range(n))
        assert ascending != sequential(range(n - 1, -1, -1))
        assert model.kkt_residual(state, covs)[0] == ascending


def test_total_variance_split():
    # sum_i recon_i + 2 * objective equals sum_i ||Y_i||_F^2 / n_i
    rng = _rng(11)
    state = _random_state(7, 2, 2, 3, rng)
    datasets = [rng.standard_normal((7, 9 + i)) for i in range(3)]
    covs = [model.covariance(Y) for Y in datasets]
    recon = sum(model.reconstruction_error(Y, state.U, Vi) for Y, Vi in zip(datasets, state.V))
    total = sum(np.linalg.norm(Y) ** 2 / Y.shape[1] for Y in datasets)
    assert recon + 2 * model.objective(state, covs) == pytest.approx(total, abs=1e-9)


def test_mean_reconstruction_matches_raw():
    rng = _rng(12)
    state = _random_state(5, 1, 2, 2, rng)
    datasets = [rng.standard_normal((5, 20)), rng.standard_normal((5, 30))]
    covs = [model.covariance(Y) for Y in datasets]
    raw = np.mean(
        [model.reconstruction_error(Y, state.U, Vi) for Y, Vi in zip(datasets, state.V)]
    )
    assert model.mean_reconstruction_error(state, covs) == pytest.approx(raw, abs=1e-10)


def test_state_validation():
    rng = _rng(13)
    good = _random_state(5, 2, 1, 2, rng)
    good.validate()
    bad = model.ComponentState(good.U, [good.U[:, :1]])  # local equals shared column
    with pytest.raises(InvariantError):
        bad.validate()
    nan_local = good.V[0].copy()
    nan_local[0, 0] = np.nan
    for bad in (model.ComponentState(good.U, [nan_local]),
                model.ComponentState(np.full_like(good.U, np.nan), good.V)):
        with pytest.raises(InvariantError):
            bad.validate()


# One-defect states for ComponentState.validate at d=8, r1=2 and seven clients;
# the stacked pass must raise what the client-by-client reference raises.
_R2_MIXED = [1, 3, 2, 3, 1, 2, 3]


def _with_defect(state, defect, k):
    # the frames (U, V) of ``state`` with one defect
    U, V = state.U.copy(), [Vi.copy() for Vi in state.V]
    if defect == "nan-U":
        U[3, 1] = np.nan
    elif defect == "nan-V":
        V[k][2, 0] = np.nan
    elif defect == "not-orthonormal":
        V[k] = 1.5 * V[k]
    elif defect == "not-orthogonal":  # still orthonormal: the shared column is orthogonal to V_k
        V[k][:, 0] = U[:, 0]
    else:  # "shape"
        V[k] = np.vstack([V[k], np.zeros((1, V[k].shape[1]))])
    return U, V


@pytest.mark.parametrize("r2", [2, _R2_MIXED], ids=["equal", "mixed"])
@pytest.mark.parametrize("defect, k", [("nan-U", 0)] + [
    (defect, k) for defect in ("not-orthonormal", "not-orthogonal", "nan-V", "shape")
    for k in (0, 3, 6)])
def test_stacked_validate_raises_what_the_client_loop_raises(r2, defect, k):
    rng = _rng(30)
    U = stiefel.random_frame(8, 2, rng)
    V = [stiefel.random_frame(8, r, rng, against=U)
         for r in (r2 if isinstance(r2, list) else [r2] * 7)]
    good = model.ComponentState(U, V)
    assert good.validate() is good
    ref.validate(U, V)
    U, V = _with_defect(good, defect, k)
    with pytest.raises((DimensionError, InvariantError)) as expected:
        ref.validate(U, V)
    # a bad shape raises when the state is made, any other defect in validate
    with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
        model.ComponentState(U, V).validate()


def test_orthonormality_deviation_of_a_stack_is_that_of_each_frame():
    rng = _rng(31)
    for r in (1, 2, 5):
        F = rng.standard_normal((6, 9, r)) * 1e-3 + np.eye(9, r)
        F[4, 0, 0] = np.nan
        dev = stiefel.orthonormality_deviation(F)
        for i in range(len(F)):
            np.testing.assert_array_equal(dev[i], stiefel.orthonormality_deviation(F[i]))


# The rank rule (model.local_ranks) at every entry point that takes ranks, at
# d=5 with three clients: each case raises the same type and message everywhere.
# "no-clients" applies where the rank list alone sets the client count.
_RANK_CASES = {
    "r1-zero": (0, [1, 1, 1], ValueError, "r1 must be >= 1"),
    "client-2-zero": (1, [1, 1, 0], ValueError, "client 2: local rank must be >= 1, got 0"),
    "wrong-length": (1, [1, 1], DimensionError, "2 local ranks for 3 clients"),
    "over-d": (2, [1, 4, 1], ValueError, "r1 + max(r2) = 6 exceeds dimension 5"),
    "no-clients": (1, [], ValueError, "need at least one client"),
}
_THREE_CLIENTS = ("r1-zero", "client-2-zero", "wrong-length", "over-d")
_COVS = [np.diag([5.0, 4.0, 3.0, 2.0, 1.0]) + 0.1 * i * np.eye(5) for i in range(3)]


def _baseline_cli(method):
    def run(r1, r2, tmp_path):
        data = tmp_path / "data"
        fileio.write_clients(data, lambda i: _rng(i).standard_normal((5, 20)), [(5, 20)] * 3)
        cli.main(["baseline", str(data), "--method", method, "--r1", str(r1),
                  "--r2", ",".join(map(str, r2)), "--out", str(tmp_path / "out")])
    return run


_RANK_ENTRIES = {
    "run_perpca-distpca": (lambda r1, r2, _: solver.run_perpca(
        _COVS, solver.SolverConfig(r1=r1, r2=r2, rounds=2)), _THREE_CLIENTS),
    "run_perpca-random": (lambda r1, r2, _: solver.run_perpca(
        _COVS, solver.SolverConfig(r1=r1, r2=r2, rounds=2, init="random")), _THREE_CLIENTS),
    "init_random": (lambda r1, r2, _: solver.init_random(5, r1, r2, 0),  # the list sets the count
                    ("r1-zero", "client-2-zero", "over-d", "no-clients")),
    "init_distpca": (lambda r1, r2, _: solver.init_distpca(_COVS, r1, r2, 0), _THREE_CLIENTS),
    "distpca_global": (lambda r1, r2, _: baselines.distpca_global(_COVS, r1, r2), _THREE_CLIENTS),
    "distpca": (lambda r1, r2, _: baselines.distpca(_COVS, r1, r2), _THREE_CLIENTS),
    **{f"cli-baseline-{m}": (_baseline_cli(m), _THREE_CLIENTS)
       for m in ("distpca", "indiv", "cpca")},
    "GenerativeSpec": (lambda r1, r2, _: synth.GenerativeSpec(
        d=5, N=len(r2), r1=r1, r2=max(r2, default=1), n_per_client=10),
        ("r1-zero", "over-d", "no-clients")),  # one int r2
}


@pytest.mark.parametrize("entry, case", [(entry, case) for entry, (_, cases) in
                                         _RANK_ENTRIES.items() for case in cases])
def test_rank_rule_at_every_entry_point(entry, case, tmp_path):
    r1, r2, kind, message = _RANK_CASES[case]
    with pytest.raises(kind, match=f"^{re.escape(message)}$") as exc:
        _RANK_ENTRIES[entry][0](r1, r2, tmp_path)
    assert type(exc.value) is kind


@pytest.mark.parametrize("entry", sorted(_RANK_ENTRIES))
def test_each_entry_point_checks_the_ranks_once(entry, tmp_path, checks_run):
    _RANK_ENTRIES[entry][0](1, [1, 1, 1], tmp_path)
    assert checks_run["local_ranks"] == 1
    assert checks_run["covariance_stack"] <= 1 and checks_run["validate"] <= 1


@pytest.mark.parametrize("bad", ["rows", "1-d", "wide"])
@pytest.mark.parametrize("call", [model.objective, model.kkt_residual,
                                  model.mean_reconstruction_error, "subspace_error"])
def test_bad_local_frame_is_named(call, bad):
    state = _random_state(5, 1, 2, 3, _rng(21))
    truth = (state.U, list(state.V))
    V = list(state.V)
    V[1] = {"rows": np.vstack([V[1], np.zeros((1, 2))]), "1-d": V[1][:, 0],
            "wide": np.eye(5, 6)}[bad]
    with pytest.raises(DimensionError, match=r"^local frame 1 has shape "):
        state = model.ComponentState(state.U, V)  # raises here, before the call
        if call == "subspace_error":
            metrics.subspace_error(state, truth)
        else:
            call(state, _COVS)


def test_a_state_is_grouped_once_when_it_is_made(checks_run):
    state = _random_state(5, 1, 2, 3, _rng(25))
    assert checks_run["by_rank"] == 1
    state.validate()
    for call in (model.objective, model.kkt_residual, model.mean_reconstruction_error):
        call(state, _COVS)
    assert checks_run["by_rank"] == 1
    metrics.subspace_error(state, (state.U, list(state.V)))
    assert checks_run["by_rank"] == 2  # the truth's frames only


def test_a_grid_operation_groups_frames_at_most_five_times(checks_run):
    # as perfbench's grid-many-clients operation: a solve given (unread) truth,
    # distpca, and the validation and subspace error of both states
    rng = _rng(26)
    planted = _random_state(15, 2, 3, 6, rng)
    truth = (planted.U, list(planted.V))
    covs = [_random_cov(15, rng) for _ in range(6)]
    checks_run.clear()
    state, _ = solver.run_perpca(covs, solver.SolverConfig(r1=2, r2=3, rounds=3,
                                                           record_trace=False), truth=truth)
    base = baselines.distpca(covs, 2, 3)
    for checked in (state, base):
        checked.validate()
        metrics.subspace_error(checked, truth)
    assert checks_run["by_rank"] <= 5


def test_local_frames_cannot_go_stale():
    rng = _rng(27)
    state = model.ComponentState(stiefel.random_frame(6, 2, rng),
                                 [stiefel.random_frame(6, r, rng) for r in (1, 2, 1)])
    with pytest.raises(TypeError):
        state.V[1] = state.V[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.V = state.V[::-1]
    state.V[2][0, 0] = 7.0  # each local frame is a view into its group's stack
    assert [clients.tolist() for clients in state.groups] == [[0, 2], [1]]
    assert state.stacks[0][1, 0, 0] == 7.0


def test_by_rank_checks_each_group_once_and_names_the_lowest_bad_frame(monkeypatch):
    rng = _rng(22)
    frames = [stiefel.random_frame(5, 1 + i % 2, rng) for i in range(40)]
    checked = []
    original = stacks.require_shape
    monkeypatch.setattr(stacks, "require_shape",
                        lambda F, d, name: checked.append(name) or original(F, d, name))
    groups, V = stacks.by_rank(frames, 5)
    assert checked == ["local frame 0", "local frame 1"]
    assert [len(g) for g in groups] == [20, 20] and [W.shape for W in V] == [(20, 5, 1),
                                                                             (20, 5, 2)]
    # groups come in order of first appearance: (5, 1), (4, 2), (5, 6)
    frames[3], frames[1] = np.eye(5, 6), np.zeros((4, 2))
    with pytest.raises(DimensionError, match=r"^true local frame 1 has shape \(4, 2\), "
                                             r"expected \(5, r\)$"):
        stacks.by_rank(frames, 5, "true local frame")


def test_by_group_of_one_group_is_the_stack_itself():
    stack = _rng(23).standard_normal((6, 4, 4))
    (part,) = stacks.by_group([np.arange(6)], stack)
    assert part is stack and np.shares_memory(part, stack)


def test_by_group_equals_fancy_indexing_in_group_order():
    rng = _rng(24)
    frames = [stiefel.random_frame(6, 1 + (5 * i) % 3, rng) for i in range(12)]
    groups, _ = stacks.by_rank(frames, 6)
    stack = rng.standard_normal((12, 6, 6))
    parts = stacks.by_group(groups, stack)
    assert [len(clients) for clients in groups] == [4, 4, 4]
    assert len(parts) == 3
    for clients, part in zip(groups, parts, strict=True):
        assert part.tobytes() == stack[clients].tobytes()
    assert stacks.client_stack(groups, parts).tobytes() == stack.tobytes()


def _spread_stack(shape, rng):
    # a client stack whose entries span twelve orders of magnitude, in shuffled order
    n = shape[0]
    scale = rng.permutation(10.0 ** np.linspace(-6, 6, n)).reshape((n,) + (1,) * (len(shape) - 1))
    return rng.standard_normal(shape) * scale


@pytest.mark.parametrize("shape", [(1,), (16,), (1, 3, 2), (9, 6, 2)])
def test_client_sum_equals_a_left_to_right_loop_bitwise(shape):
    stack = _spread_stack(shape, _rng(25))
    total = stack[0].copy()
    for term in stack[1:]:
        total = total + term
    assert stacks.client_sum(stack).tobytes() == total.tobytes()
    if len(shape) == 1:  # the Python float loop the diagnostics used to run
        assert float(stacks.client_sum(stack)) == sum(stack.tolist(), 0.0)


def test_client_sum_is_pinned_against_other_orders():
    rng = _rng(27)
    values, frames = _spread_stack((16,), rng), _spread_stack((9, 6, 2), rng)
    assert stacks.client_sum(values) != stacks.client_sum(values[::-1])
    assert stacks.client_sum(values) != np.sum(values, axis=0)
    assert not np.array_equal(stacks.client_sum(frames), stacks.client_sum(frames[::-1]))


def _attribute_uses(tree, attr):
    """The top-level def holding each use of ``.attr`` in ``tree``; None outside one."""
    owners = []
    for node in tree.body:
        owner = node.name if isinstance(node, ast.FunctionDef) else None
        owners += [owner for use in ast.walk(node)
                   if isinstance(use, ast.Attribute) and use.attr == attr]
    return owners


def test_sums_over_clients_have_one_owner():
    # the one running sum is stacks.client_sum, and every client sum reported goes through it
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(stacks.__file__).parent.glob("*.py"))}
    uses = {attr: collections.Counter((name, owner) for name, tree in trees.items()
                                      for owner in _attribute_uses(tree, attr))
            for attr in ("accumulate", "client_sum")}
    assert uses["accumulate"] == {("stacks.py", "client_sum"): 1}
    callers = {("solver.py", "server_aggregate"): 1, ("model.py", "diagnostics"): 3,
               ("bench.py", "_convergence"): 1}
    assert {caller: uses["client_sum"][caller] for caller in callers} == callers
    names = {getattr(node, key, None) for tree in trees.values() for node in ast.walk(tree)
             for key in ("id", "attr", "name")}
    assert "_sequential_sum" not in names


def test_equal_rank_solve_rounds_over_the_checked_covariance_stack(monkeypatch):
    checked, received = [], []
    covariance_stack, rounds = model.covariance_stack, solver._rounds
    monkeypatch.setattr(model, "covariance_stack",
                        lambda covs: checked.append(covariance_stack(covs)) or checked[-1])
    monkeypatch.setattr(solver, "_rounds", lambda U, V, covs, groups, config:
                        received.append(covs) or rounds(U, V, covs, groups, config))
    solver.run_perpca(_COVS, solver.SolverConfig(r1=1, r2=2, rounds=3))
    (group_covs,) = received
    assert len(checked) == 1 and len(group_covs) == 1
    assert np.shares_memory(group_covs[0], checked[0])


def test_equal_rank_truth_projectors_are_one_client_ordered_stack(monkeypatch):
    made = []
    client_stack = stacks.client_stack
    monkeypatch.setattr(stacks, "client_stack",
                        lambda groups, parts: made.append(client_stack(groups, parts)) or made[-1])
    truth = synth.generate_components(synth.GenerativeSpec(d=6, N=4, r1=1, r2=2,
                                                           n_per_client=5))
    _, (P_V,), _ = metrics.truth_projectors(truth, [np.arange(4)], 6)
    (full,) = [M for M in made if M.shape == (4, 6, 6)]
    assert np.shares_memory(P_V, full)
    assert all(np.array_equal(P, V @ V.T) for P, V in zip(P_V, truth.V_true, strict=True))
