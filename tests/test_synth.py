import itertools
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_fileio import json_in_interpreter
from perpca import fileio, stiefel, synth
from perpca.model import ComponentState, covariance


def population_covariance(truth, spec, client):
    """Analytic covariance sg^2 P_U + sl^2 P_Vi + se^2 I of one client."""
    d = spec.d
    return (
        spec.global_score_std**2 * truth.U_true @ truth.U_true.T
        + spec.local_score_std**2 * truth.V_true[client] @ truth.V_true[client].T
        + spec.noise_std**2 * np.eye(d)
    )


def population_covariance_parts(truth, spec):
    """Per-client ``(Sigma_g, Sigma_l)`` split of the analytic covariance.

    The isotropic noise is attributed to the discarded directions of the
    local part, so the eigengap of the pair shrinks by the noise variance.
    """
    d = spec.d
    parts = []
    for i in range(spec.N):
        P_u = truth.U_true @ truth.U_true.T
        P_v = truth.V_true[i] @ truth.V_true[i].T
        Sigma_g = spec.global_score_std**2 * P_u
        Sigma_l = spec.local_score_std**2 * P_v + spec.noise_std**2 * (
            np.eye(d) - P_u - P_v
        )
        parts.append((Sigma_g, Sigma_l))
    return parts


def eigengap_of(pop_cov_parts, r1, r2):
    """Spectral margin between retained and discarded population eigenvalues.

    ``pop_cov_parts`` is one ``(Sigma_g, Sigma_l)`` pair per client; the gap
    for a client is

        min(lambda_r1(Sigma_g), lambda_r2(Sigma_l))
          - max(lambda_{r1+1}(Sigma_g), lambda_{r2+1}(Sigma_l))

    and the minimum over clients is returned. A nonpositive gap means the
    retained components are not spectrally separated and raises ValueError.
    """
    gaps = []
    for Sigma_g, Sigma_l in pop_cov_parts:
        wg = np.sort(np.linalg.eigvalsh(Sigma_g))[::-1]
        wl = np.sort(np.linalg.eigvalsh(Sigma_l))[::-1]
        d = wg.shape[0]
        kept = min(wg[r1 - 1], wl[r2 - 1])
        dropped = max(
            wg[r1] if r1 < d else 0.0,
            wl[r2] if r2 < d else 0.0,
        )
        gaps.append(kept - dropped)
    gap = float(min(gaps))
    if gap < 0:
        raise ValueError(f"negative eigengap {gap:.3e}: retained spectrum not separated")
    return gap


def _as_state(truth):
    return ComponentState(truth.U_true, list(truth.V_true))


def _spec(**kw):
    base = dict(d=6, N=3, r1=2, r2=1, n_per_client=50, seed=7)
    base.update(kw)
    return synth.GenerativeSpec(**base)


class TestThetaOf:
    def test_identical_frames(self):
        V = stiefel.random_frame(5, 2, np.random.default_rng(0))
        assert synth.theta_of([V, V, V]) == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_frames(self):
        eye = np.eye(6)
        V = [eye[:, 0:2], eye[:, 2:4], eye[:, 4:6]]
        assert synth.theta_of(V) == pytest.approx(1.0 - 1.0 / 3.0, abs=1e-12)

    @given(st.floats(min_value=0.05, max_value=3.09))
    @settings(max_examples=30, deadline=None)
    def test_two_lines_closed_form(self, angle):
        # lambda_max of the mean of two rank-1 projectors at angle a is
        # (1 + |cos a|) / 2, so theta = (1 - |cos a|) / 2
        v1 = np.array([[1.0], [0.0], [0.0]])
        v2 = np.array([[np.cos(angle)], [np.sin(angle)], [0.0]])
        expected = (1 - abs(np.cos(angle))) / 2
        assert synth.theta_of([v1, v2]) == pytest.approx(expected, abs=1e-10)


class TestGenerateComponents:
    def test_invariants_and_theta_consistency(self):
        truth = synth.generate_components(_spec())
        _as_state(truth).validate()
        assert truth.theta_actual == synth.theta_of(truth.V_true)

    def test_theta_target_hit_exactly(self):
        spec = _spec(d=3, N=2, r1=1, r2=1, theta_target=0.127)
        truth = synth.generate_components(spec)
        assert truth.theta_actual == pytest.approx(0.127, abs=1e-10)
        _as_state(truth).validate()

    def test_grouped_clients_share_local_frames(self):
        spec = _spec(N=4, groups=[0, 0, 1, 1])
        truth = synth.generate_components(spec)
        assert np.array_equal(truth.V_true[0], truth.V_true[1])
        assert np.array_equal(truth.V_true[2], truth.V_true[3])
        assert stiefel.subspace_distance(truth.V_true[0], truth.V_true[2]) > 1e-3

    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
    @pytest.mark.parametrize("field", ["global_score_std", "local_score_std", "noise_std"])
    def test_bad_standard_deviation_is_named(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite and >= 0, got {value}$"):
            _spec(**{field: value})

    def test_rank_overflow_rejected(self):
        with pytest.raises(ValueError):
            _spec(d=3, r1=2, r2=2)

    def test_theta_target_needs_room_beyond_shared_frame(self):
        with pytest.raises(ValueError):
            _spec(d=3, N=2, r1=2, r2=1, theta_target=0.2)

    def test_seed_determinism(self):
        a = synth.generate_components(_spec())
        b = synth.generate_components(_spec())
        assert np.array_equal(a.U_true, b.U_true)
        assert all(np.array_equal(x, y) for x, y in zip(a.V_true, b.V_true))


class TestGenerateObservations:
    def test_noiseless_columns_in_span(self):
        spec = _spec(noise_std=0.0)
        truth = synth.generate_components(spec)
        for i, Y in enumerate(synth.generate_observations(truth, spec)):
            W = np.concatenate([truth.U_true, truth.V_true[i]], axis=1)
            resid = Y - W @ (W.T @ Y)
            assert np.max(np.abs(resid)) < 1e-10

    def test_local_free_data_lives_in_shared_span(self):
        spec = _spec(local_score_std=0.0, noise_std=0.0)
        truth = synth.generate_components(spec)
        for Y in synth.generate_observations(truth, spec):
            U = truth.U_true
            assert np.max(np.abs(Y - U @ (U.T @ Y))) < 1e-12

    def test_bitwise_determinism(self):
        spec = _spec(noise_std=0.3)
        truth = synth.generate_components(spec)
        a = synth.generate_observations(truth, spec)
        b = synth.generate_observations(truth, spec)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_generate_is_the_list_of_client_draws(self):
        spec = _spec(noise_std=0.3)
        truth = synth.generate_components(spec)
        for split in (0, 1):
            every = synth.generate_observations(truth, spec, test_split=split)
            assert len(every) == spec.N
            for i, Y in enumerate(every):
                assert synth.client_observations(truth, spec, i, split).tobytes() == Y.tobytes()

    def test_client_count_extension_preserves_prefix(self):
        spec3 = _spec(noise_std=0.2)
        spec4 = _spec(N=4, noise_std=0.2)
        t3 = synth.generate_components(spec3)
        t4 = synth.generate_components(spec4)
        obs3 = synth.generate_observations(t3, spec3)
        obs4 = synth.generate_observations(t4, spec4)
        # per-client substreams: client 0..2 identical even though N changed
        for i in range(3):
            assert np.array_equal(obs3[i], obs4[i])

    def test_test_split_is_independent_draw(self):
        spec = _spec(noise_std=0.2)
        truth = synth.generate_components(spec)
        train = synth.generate_observations(truth, spec)
        test = synth.generate_observations(truth, spec, test_split=1)
        assert not np.array_equal(train[0], test[0])

    def test_empirical_covariance_approaches_population(self):
        spec = _spec(d=5, N=1, r1=1, r2=1, n_per_client=100_000,
                     local_score_std=2.0, noise_std=0.5, seed=3)
        truth = synth.generate_components(spec)
        Y = synth.generate_observations(truth, spec)[0]
        S = covariance(Y)
        Sigma = population_covariance(truth, spec, 0)
        gap = np.linalg.norm(S - Sigma, ord=2)
        # operator-norm deviation decays like 1 / sqrt(n); generous constant
        assert gap < 20.0 / np.sqrt(spec.n_per_client[0])

    def test_rademacher_scores(self):
        spec = _spec(score_dist="rademacher", noise_std=0.0, local_score_std=1.0)
        truth = synth.generate_components(spec)
        Y = synth.generate_observations(truth, spec)[0]
        # scores are +-1 so each column has squared norm r1 + r2 exactly
        norms = np.sum(Y * Y, axis=0)
        assert np.allclose(norms, spec.r1 + spec.r2, atol=1e-10)


class TestEigengap:
    def test_hand_value(self):
        rng = np.random.default_rng(4)
        U = stiefel.random_frame(5, 1, rng)
        V = stiefel.random_frame(5, 1, rng, against=U)
        parts = [(3.0 * U @ U.T, 2.0 * V @ V.T)]
        assert eigengap_of(parts, 1, 1) == pytest.approx(2.0, abs=1e-10)

    def test_noise_shrinks_gap(self):
        spec = _spec(global_score_std=np.sqrt(3.0), local_score_std=np.sqrt(2.0),
                     noise_std=np.sqrt(0.5))
        truth = synth.generate_components(spec)
        parts = population_covariance_parts(truth, spec)
        assert eigengap_of(parts, spec.r1, spec.r2) == pytest.approx(1.5, abs=1e-9)
        assert truth.eigengap == pytest.approx(1.5, abs=1e-12)

    def test_negative_gap_raises(self):
        spec = _spec(global_score_std=0.5, local_score_std=2.0, noise_std=1.0)
        truth = synth.generate_components(spec)
        parts = population_covariance_parts(truth, spec)
        with pytest.raises(ValueError):
            eigengap_of(parts, spec.r1, spec.r2)


def _draw_cases():
    mixed = dict(d=6, N=5, r1=2, r2=1, n_per_client=[3, 50, 7, 120, 1], seed=4)
    return {"gaussian": dict(mixed, noise_std=0.3),
            "rademacher": dict(mixed, score_dist="rademacher", noise_std=0.2),
            "noiseless": dict(mixed, noise_std=0.0),
            "no-local-scores": dict(mixed, local_score_std=0.0, noise_std=0.1),
            "groups": dict(mixed, groups=[0, 1, 0, 1, 1], noise_std=0.5),
            "theta": dict(d=3, N=2, r1=1, r2=1, n_per_client=500, local_score_std=1.0,
                          theta_target=0.2),
            # 1.15 MB, above fileio._THREAD_MIN_BYTES
            "above-threshold": dict(d=15, N=8, r1=2, r2=3, n_per_client=1200,
                                    noise_std=7.0, seed=1)}


def _draw_modes_differ():
    """``(draws compared, draws made off the calling thread, draws that differ)`` between
    the serial loop and three threads, at any size and even on one CPU.

    Every case of :func:`_draw_cases` is drawn at ``test_split`` 0 and 1, as
    arrays and reduced to covariances.
    """
    saved = fileio._THREAD_MIN_BYTES, fileio._usable_cpus, synth.client_observations
    off_main = []

    def spy(*args):
        off_main.append(threading.get_ident() != threading.main_thread().ident)
        return saved[2](*args)

    compared, differ = 0, []
    synth.client_observations = spy
    try:
        for name, fields in _draw_cases().items():
            spec = synth.GenerativeSpec(**fields)
            truth = synth.generate_components(spec)
            for split, reduce in itertools.product((0, 1), (None, lambda i, Y: covariance(Y))):
                outputs = []
                for min_bytes, cpus in ((1 << 62, 1), (0, 3)):
                    fileio._THREAD_MIN_BYTES, fileio._usable_cpus = min_bytes, lambda n=cpus: n
                    outputs.append([M.tobytes() for M in synth.generate_observations(
                        truth, spec, test_split=split, reduce=reduce)])
                compared += len(outputs[0])
                if outputs[0] != outputs[1]:
                    differ.append(f"{name}/{split}/{'covariances' if reduce else 'arrays'}")
    finally:
        fileio._THREAD_MIN_BYTES, fileio._usable_cpus, synth.client_observations = saved
    return compared, sum(off_main), differ


@pytest.mark.parametrize("blas", ["pinned", "unpinned"])
def test_threaded_and_serial_draws_are_bitwise_equal(blas):
    big = _draw_cases()["above-threshold"]
    assert 8 * big["d"] * big["N"] * big["n_per_client"] >= fileio._THREAD_MIN_BYTES
    code = "import json, test_synth; print(json.dumps(test_synth._draw_modes_differ()))"
    compared, off_main, differ = json_in_interpreter(code, blas)
    clients = sum(fields["N"] for fields in _draw_cases().values())
    assert compared == 4 * clients and differ == []
    assert off_main == compared  # every draw of the threaded runs, none of the serial ones
