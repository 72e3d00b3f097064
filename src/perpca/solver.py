"""Round-based federated Stiefel gradient ascent for shared/local components.

One communication round: every client updates its copy of the shared frame
and its local frame from the client covariance; the server averages the
shared-frame candidates and retracts the average; local frames are then
re-orthogonalized against the fresh shared frame (deflation + retraction),
so the state handed to the next round always satisfies U^T V_i = 0.

The rounds are one generator, :func:`_rounds`, that yields the state after
each round; :func:`run_perpca` checks, initialises, and reads the yielded
state for the trace and the early stop, so a stopped run computes no
further round. The client axis is an array dimension: covariances and local
frames are stacks, one per distinct local rank (see :mod:`perpca.stacks`),
and each round is a few stacked matmuls and one batched SVD or QR per
retraction, acting on every slice exactly as on a single client. The server
sums the candidates in ascending client order. So a run is bitwise
reproducible given (config, inputs) and equals a client-by-client loop, and
a singular retraction is reported with the round and the lowest-numbered
failing client. The trace reads the same stacks: :func:`model.diagnostics`
and :func:`metrics.stacked_subspace_error` reduce over clients in ascending
client order, as does the ``"auto"`` stepsize's stacked power iteration.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from . import baselines, metrics, model, stacks, stiefel
from .errors import DimensionError, SingularityError
from .rng import substream

CHOICES = (1, 2)  # 1: tangent step per block, 2: joint polar step
INITS = ("distpca", "random")


@dataclass
class SolverConfig:
    r1: int
    r2: Union[int, Sequence[int]]
    rounds: int = 200
    stepsize: Union[float, str] = "auto"  # positive float or "auto"
    choice: int = 1  # one of CHOICES; choice 2's joint step always uses the polar retraction
    retraction: str = "polar"  # stiefel.RETRACTIONS key: choice 1's step, aggregation, correction
    init: str = "distpca"  # one of INITS
    seed: int = 0
    record_trace: bool = True
    stepsize_scale: float = 0.5  # multiplier c in c / (G_max * sqrt(r)) for "auto"
    stop_subspace_tol: Optional[float] = None  # early stop; needs ground truth

    def __post_init__(self):
        if self.rounds < 0:
            raise ValueError("rounds must be >= 0")
        if self.choice not in CHOICES:
            raise ValueError(f"choice must be 1 or 2, got {self.choice}")
        if self.retraction not in stiefel.RETRACTIONS:
            raise ValueError(f"unknown retraction {self.retraction!r}")
        if self.init not in INITS:
            raise ValueError(f"unknown init {self.init!r}")
        if isinstance(self.stepsize, str):
            if self.stepsize != "auto":
                raise ValueError(f"stepsize must be positive or 'auto', got {self.stepsize!r}")
        elif not 0 < self.stepsize < np.inf:  # NaN fails too
            raise ValueError(f"stepsize must be finite and > 0, got {self.stepsize}")
        if not 0 < self.stepsize_scale < np.inf:
            raise ValueError(f"stepsize_scale must be finite and > 0, got {self.stepsize_scale}")
        if self.stop_subspace_tol is not None and not self.stop_subspace_tol >= 0:
            raise ValueError(f"stop_subspace_tol must be >= 0, got {self.stop_subspace_tol}")


class RoundTrace(NamedTuple):
    """Metrics of the feasible state at the end of one communication round."""

    round: int
    objective: float
    kkt_global: float
    kkt_local: float
    recon_error_mean: float
    subspace_error: Optional[float] = None


POWER_REL_TOL = 1e-6  # relative eigenvalue change at which a power iteration stops
POWER_MAX_ITER = 10000


def operator_norm(S):
    """Largest eigenvalue of a symmetric PSD matrix by power iteration.

    A stack ``(N, d, d)`` gives the ``(N,)`` array of per-slice values. The
    slices iterate together, but each stops at its own tolerance and takes
    its own null-space fallback, so every value equals that of the slice
    on its own.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim == 2:
        return float(operator_norm(S[None])[0])
    n, d = S.shape[:2]
    start = 1.0 + 1e-3 * np.arange(d)  # deterministic start, unlikely to miss the top space
    start /= np.linalg.norm(start)
    out = np.zeros(n)
    active = np.arange(n)  # slices still iterating, ascending
    S_active = S
    v = np.tile(start, (n, 1))
    Sv = S @ v[..., None]  # of each active slice; the Rayleigh quotient's Sv is the next w
    lam = np.zeros(n)
    for _ in range(POWER_MAX_ITER):
        w = Sv[..., 0]
        norm = np.sqrt((w[:, None, :] @ w[..., None])[:, 0, 0])
        stepped = norm != 0.0
        finished = np.zeros(len(active), dtype=bool)
        for j in np.flatnonzero(~stepped):
            # start vector hit the null space; a PSD matrix with a nonzero
            # diagonal entry cannot annihilate that basis vector
            k = int(np.argmax(np.diagonal(S_active[j])))
            finished[j] = S_active[j, k, k] <= 0.0
            v[j] = 0.0
            v[j, k] = 1.0
        v[stepped] = w[stepped] / norm[stepped, None]
        Sv = S_active @ v[..., None]
        lam_new = (v[:, None, :] @ Sv)[:, 0, 0]
        converged = stepped & (np.abs(lam_new - lam) <= POWER_REL_TOL * np.abs(lam_new))
        out[active[converged]] = lam_new[converged]
        lam[stepped] = lam_new[stepped]
        keep = ~(converged | finished)
        if not keep.all():
            active, S_active, v, Sv, lam = (active[keep], S_active[keep], v[keep], Sv[keep],
                                            lam[keep])
            if not active.size:
                return out
    out[active] = lam
    return out


def auto_stepsize(covs, r, scale=0.5):
    """Constant stepsize scale / (G_max * sqrt(r)), G_max the largest operator norm."""
    return _auto_stepsize([model.covariance_stack(covs)], r, scale)


def _auto_stepsize(covs, r, scale):
    # auto_stepsize over checked stacks, such as one per rank group
    g_max = max(float(np.max(operator_norm(S))) for S in covs)
    if g_max <= 0.0:
        raise ValueError("all covariances are zero; no scale to derive a stepsize from")
    return scale / (g_max * np.sqrt(r))


def init_random(d, r1, r2_list, seed):
    """Per-client joint orthonormalization of Gaussian blocks.

    The shared block is drawn once, so the split concatenation gives every
    client the same U; each V_i is orthonormal and orthogonal to U. The ranks
    follow :func:`model.local_ranks`.
    """
    r2_list = model.local_ranks(r1, r2_list, len(r2_list), d)
    return model.ComponentState(*_init_random(d, r1, r2_list, seed)).validate()


def _init_random(d, r1, r2_list, seed):
    # init_random's (U, V) for checked ranks
    shared_raw = substream(seed, "init").standard_normal((d, r1))
    U = None
    V = []
    for i, r2 in enumerate(r2_list):
        raw = np.concatenate(
            [shared_raw, substream(seed, "init", i + 1).standard_normal((d, r2))], axis=1
        )
        Q = stiefel.qr_retract(np.zeros_like(raw), raw)
        if U is None:
            U = Q[:, :r1]
        V.append(Q[:, r1:])
    return U, V


def init_distpca(covs, r1, r2_list, seed):
    """Shared frame from one-shot distributed PCA, local frames random-then-corrected."""
    covs = model.covariance_stack(covs)
    r2_list = model.local_ranks(r1, r2_list, len(covs), covs.shape[1])
    return model.ComponentState(*_init_distpca(covs, r1, r2_list, seed)).validate()


def _init_distpca(covs, r1, r2_list, seed):
    # init_distpca's (U, V) for a checked stack and rank list
    U = baselines._distpca_global(covs, r1, r2_list)
    return U, [stiefel.random_frame(U.shape[0], r2, substream(seed, "init", i + 1), against=U)
               for i, r2 in enumerate(r2_list)]


def correction_step(V_half, U_next, retraction="polar"):
    """Restore cross-orthogonality of a local frame against a fresh shared frame.

    Deflates V_half by the projection onto col(U_next) and retracts, i.e.
    GR(V_half; -U_next U_next^T V_half). Because the retraction preserves
    column spaces, the result stays orthogonal to U_next. A frame that is
    already exactly orthogonal passes through unchanged. ``V_half`` may be
    a stack ``(N, d, r2)`` of local frames, corrected slice by slice.
    """
    retract = stiefel.RETRACTIONS[retraction]
    cross = U_next.T @ V_half
    if not cross.any():
        return V_half
    return retract(V_half, -U_next @ cross)


def _joint_frame(U, V):
    # [U, V]; a shared U is repeated along the client axis of a stacked V
    return np.concatenate([np.broadcast_to(U, V.shape[:-1] + U.shape[-1:]), V], axis=-1)


def client_update_choice1(U, V, S, eta, retraction="polar"):
    """Tangent-gradient step: raw shared candidate, retracted local frame.

    Returns ``(U_candidate, V_half)``. The shared candidate U + eta * g_U is
    deliberately not orthonormalized; the server retracts after averaging.
    With stacks ``V`` (N, d, r2) and ``S`` (N, d, d) and one shared ``U``,
    every client steps at once and both outputs are stacks.
    """
    r1 = U.shape[-1]
    W = _joint_frame(U, V)
    g = stiefel.project_tangent(W, S @ W)  # the tangent gradient at [U, V]
    U_candidate = U + eta * g[..., :r1]
    V_half = stiefel.RETRACTIONS[retraction](V, eta * g[..., r1:])
    return U_candidate, V_half


def client_update_choice2(U, V, S, eta):
    """Joint polar step: retract [U, V] + eta * S [U, V] and split.

    Takes stacks like :func:`client_update_choice1`.
    """
    r1 = U.shape[-1]
    W = _joint_frame(U, V)
    W_next = stiefel.polar_retract(W, eta * (S @ W))
    return W_next[..., :r1], W_next[..., r1:]


def server_aggregate(U_candidates, U_prev, retraction="polar"):
    """Average the ``(N, d, r1)`` stack of the clients' shared-frame candidates, as
    :func:`stacks.client_sum` over N, and retract at U_prev."""
    if len(U_candidates) == 0:
        raise ValueError("no candidates to aggregate")
    stack = np.asarray(U_candidates, dtype=float)
    if stack.shape[1:] != U_prev.shape:
        raise DimensionError(
            f"candidates have shape {stack.shape}, expected (N, {U_prev.shape[0]}, "
            f"{U_prev.shape[1]})")
    mean = stacks.client_sum(stack) / len(stack)
    return stiefel.RETRACTIONS[retraction](U_prev, mean - U_prev)


def _each_group(groups, step, message):
    """``[step(g) for g in range(len(groups))]``; a SingularityError names its client.

    Every group runs before anything is raised, so the error names the
    lowest-numbered failing client, as a client-by-client loop would.
    ``message`` is formatted with that client and the slice's error.
    """
    out, failed = [], []
    for g, clients in enumerate(groups):
        try:
            out.append(step(g))
        except SingularityError as exc:
            failed.append((int(clients[exc.index]), exc))
    if failed:
        client, exc = min(failed, key=lambda f: f[0])
        raise SingularityError(message.format(client, exc)) from exc
    return out


def _rounds(U, V, covs, groups, config):
    """Yield ``(round, U, V)`` after each of ``config.rounds`` rounds from the state ``U, V``.

    ``V`` and ``covs`` hold one stack per rank group of ``groups``, as in
    :func:`model.diagnostics`. A singular step raises naming the round and the
    lowest-numbered failing client, or the server aggregation.
    """
    if config.stepsize == "auto":
        r_max = max(config.r1, *(Vg.shape[2] for Vg in V))
        eta = _auto_stepsize(covs, r_max, config.stepsize_scale)
    else:
        eta = float(config.stepsize)
    retraction = config.retraction
    if config.choice == 1:
        update, extra = client_update_choice1, (retraction,)
    else:
        update, extra = client_update_choice2, ()
    for rnd in range(1, config.rounds + 1):
        updates = _each_group(
            groups, lambda g: update(U, V[g], covs[g], eta, *extra),
            f"round {rnd}, client {{}}: {{}}")
        try:
            U_next = server_aggregate(
                stacks.client_stack(groups, [cand for cand, _ in updates]), U, retraction)
        except SingularityError as exc:
            raise SingularityError(f"round {rnd}, server aggregation: {exc}") from exc
        V = _each_group(
            groups, lambda g: correction_step(updates[g][1], U_next, retraction),
            f"round {rnd}, client {{}}: local frame collapsed onto the shared frame ({{}})")
        U = U_next
        yield rnd, U, V


def run_perpca(covs, config, truth=None):
    """Run the federated solver on client covariances.

    Parameters
    ----------
    covs : list of (d, d) ndarray, or one (N, d, d) ndarray
        Per-client covariance matrices, ascending client order, checked by
        :func:`model.covariance_stack`.
    config : SolverConfig
    truth : optional
        Ground-truth components, either a ``(U_true, V_true_list)`` pair or
        an object with ``U_true`` / ``V_true`` attributes. Only adds a
        subspace-error column to the trace (and enables early stopping);
        never influences the iteration. The error is computed only when it
        is read: with ``record_trace`` on or ``stop_subspace_tol`` set.

    Returns
    -------
    (ComponentState, list of RoundTrace)
        The final feasible state and one trace record per completed round
        (empty when ``config.record_trace`` is off).
    """
    covs = model.covariance_stack(covs)
    d = covs.shape[1]
    r2_list = model.local_ranks(config.r1, config.r2, len(covs), d)
    if config.init == "random":
        state = model.ComponentState(*_init_random(d, config.r1, r2_list, config.seed))
    else:
        state = model.ComponentState(*_init_distpca(covs, config.r1, r2_list, config.seed))
    if config.stop_subspace_tol is not None and truth is None:
        raise ValueError("early stopping on subspace error needs ground truth")
    if config.rounds == 0:
        return state.validate(), []
    groups = state.groups
    projectors = None
    if truth is not None and (config.record_trace or config.stop_subspace_tol is not None):
        projectors = metrics.truth_projectors(truth, groups, d)
    group_covs = stacks.by_group(groups, covs)
    trace = []
    for rnd, U, V in _rounds(state.U, state.stacks, group_covs, groups, config):
        sub_err = None
        if projectors is not None:
            sub_err = metrics.stacked_subspace_error(U, V, groups, projectors)
        if config.record_trace:
            diag = model.diagnostics(U, V, group_covs, groups)
            trace.append(RoundTrace(round=rnd, subspace_error=sub_err, **diag._asdict()))
        if config.stop_subspace_tol is not None and sub_err < config.stop_subspace_tol:
            break
    return model.ComponentState(U, stacks.client_order(groups, V)).validate(), trace
