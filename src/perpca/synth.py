"""Planted-truth synthetic data.

Observations on client i follow

    y = U phi + V_i psi + eps

with orthonormal shared frame U (d x r1), per-client local frames V_i
(d x r2) orthogonal to U, i.i.d. score vectors phi, psi, and isotropic
Gaussian noise eps. Heterogeneity of the local frames is summarized by
theta = 1 - lambda_max(mean of local projectors); theta > 0 makes the
shared/local split identifiable.

Each client draws from its own substreams of the seed, so the clients'
draws are independent of each other and of the order they run in.
:func:`generate_observations` runs them through :func:`fileio.map_clients`:
on ``min(N, usable CPUs)`` threads when the draw is at least
``fileio._THREAD_MIN_BYTES`` of float64 values, serially below it, with the
results in client order and the same bits either way. BLAS thread settings
such as ``OPENBLAS_NUM_THREADS`` do not limit these threads.
"""

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from . import fileio, metrics, model, stiefel
from .rng import substream

SCORE_DISTS = ("gaussian", "rademacher")


@dataclass
class GenerativeSpec:
    d: int
    N: int
    r1: int
    r2: int
    n_per_client: Union[int, Sequence[int]]
    global_score_std: float = 1.0
    local_score_std: float = 10.0
    noise_std: float = 0.0
    theta_target: Optional[float] = None  # exact control only for N=2, r2=1, d>=3
    seed: int = 0
    score_dist: str = "gaussian"  # one of SCORE_DISTS
    groups: Optional[Sequence[int]] = None  # clients with equal labels share V

    def __post_init__(self):
        model.local_ranks(self.r1, int(self.r2), self.N, self.d)  # one rank for all clients
        if np.ndim(self.n_per_client) == 0:
            self.n_per_client = [int(self.n_per_client)] * self.N
        else:
            self.n_per_client = [int(n) for n in self.n_per_client]
        if len(self.n_per_client) != self.N:
            raise ValueError(f"{len(self.n_per_client)} sample counts for {self.N} clients")
        if min(self.n_per_client) < 1:
            raise ValueError("every client needs at least one observation")
        for name in ("global_score_std", "local_score_std", "noise_std"):
            if not 0 <= getattr(self, name) < np.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if self.score_dist not in SCORE_DISTS:
            raise ValueError(f"unknown score distribution {self.score_dist!r}")
        if self.theta_target is not None:
            if not 0.0 < self.theta_target <= 0.5:
                raise ValueError(
                    "theta_target must lie in (0, 0.5]; two rank-1 local frames "
                    "cannot realize a larger heterogeneity"
                )
            if not (self.N == 2 and self.r2 == 1 and self.d >= 3):
                raise ValueError("theta_target control needs N=2, r2=1, d>=3")
            if self.d < self.r1 + 2:
                raise ValueError(
                    "theta_target control needs two directions beyond the shared "
                    f"frame: d >= r1 + 2, got d={self.d}, r1={self.r1}"
                )
        if self.groups is not None:
            self.groups = [int(g) for g in self.groups]
            if len(self.groups) != self.N:
                raise ValueError(f"{len(self.groups)} group labels for {self.N} clients")


@dataclass
class PlantedTruth:
    U_true: np.ndarray
    V_true: List[np.ndarray]
    theta_actual: float
    eigengap: float
    groups: Optional[List[int]] = None


def theta_of(V_list):
    """:func:`metrics.heterogeneity` of the local frames' projectors."""
    return metrics.heterogeneity([stiefel.projector(Vi) for Vi in V_list])


def _raw_eigengap(spec):
    # margin between the retained score variances and the noise variance of
    # the discarded directions; may be negative, so noisy or degenerate specs
    # can still be described
    sg2 = spec.global_score_std**2
    sl2 = spec.local_score_std**2
    se2 = spec.noise_std**2
    if spec.d > spec.r1 + spec.r2:
        return min(sg2, sl2) - se2
    return min(sg2, sl2)


def generate_components(spec):
    """Draw the planted shared and local frames for a generative spec.

    Local frames are orthonormalized against the shared frame client by
    client; with ``theta_target`` (N=2, r2=1 geometry) the two local
    directions are rotated so the realized heterogeneity hits the target
    exactly.
    """
    rng = substream(spec.seed, "components")
    if spec.theta_target is not None:
        base = stiefel.random_frame(spec.d, spec.r1 + 2, rng)
        U = base[:, : spec.r1]
        w1, w2 = base[:, spec.r1], base[:, spec.r1 + 1]
        # theta = (1 - cos(angle between the locals)) / 2, inverted for the angle
        half = 0.5 * np.arccos(1.0 - 2.0 * spec.theta_target)
        v1 = np.cos(half) * w1 + np.sin(half) * w2
        v2 = np.cos(half) * w1 - np.sin(half) * w2
        V = [v1[:, None], v2[:, None]]
    else:
        U = stiefel.random_frame(spec.d, spec.r1, rng)
        labels = list(spec.groups) if spec.groups is not None else list(range(spec.N))
        frames = {label: stiefel.random_frame(spec.d, spec.r2, rng, against=U)
                  for label in sorted(set(labels))}
        V = [frames[label] for label in labels]
    return PlantedTruth(
        U_true=U,
        V_true=V,
        theta_actual=theta_of(V),
        eigengap=_raw_eigengap(spec),
        groups=list(spec.groups) if spec.groups is not None else None,
    )


def _scores(rng, shape, std, dist):
    if std == 0.0:
        return np.zeros(shape)
    if dist == "rademacher":
        x = rng.choice([-1.0, 1.0], size=shape)
    else:
        x = rng.standard_normal(shape)
    x *= std  # IEEE products commute: the bits of std * x
    return x


def client_observations(truth, spec, i, test_split=0):
    """Client i's ``(d, n_i)`` dataset for a planted truth.

    Each client draws from its own substream of ``spec.seed``, so one
    client's data does not depend on N or on the other clients' draws.
    ``test_split`` selects an independent replicate (0 is the training
    draw).
    """
    rng_s = substream(spec.seed, "scores", i, test_split)
    rng_n = substream(spec.seed, "noise", i, test_split)
    n = spec.n_per_client[i]
    phi = _scores(rng_s, (spec.r1, n), spec.global_score_std, spec.score_dist)
    psi = _scores(rng_s, (spec.r2, n), spec.local_score_std, spec.score_dist)
    # in place, with the bits of U @ phi + V_i @ psi + noise_std * noise
    Y = truth.U_true @ phi
    Y += truth.V_true[i] @ psi
    if spec.noise_std > 0:
        noise = rng_n.standard_normal((spec.d, n))
        noise *= spec.noise_std
        Y += noise
    return Y


def generate_observations(truth, spec, test_split=0, reduce=None):
    """Every client's :func:`client_observations`, one ``(d, n_i)`` array per client,
    or ``reduce(i, Y)`` of client i's array ``Y`` when ``reduce`` is given.

    A reduced client's array is dropped once it is reduced, so at most one
    per thread is held. Clients run through :func:`fileio.map_clients`.
    """
    def task(i):
        Y = client_observations(truth, spec, i, test_split)
        return Y if reduce is None else reduce(i, Y)

    return fileio.map_clients(task, spec.N, 8 * spec.d * sum(spec.n_per_client))
