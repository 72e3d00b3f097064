"""Clients grouped by local rank, so that each group's frames stack.

Local frames of equal rank stack into one ``(n_g, d, r2)`` array and their
covariances into one ``(n_g, d, d)`` array, so per-client work becomes one
stacked operation per group. A group is the ascending array of the client
indices it holds; groups are listed in order of first appearance.
:func:`by_group` splits a client-ordered stack into per-group stacks, and
the other helpers put per-group results back into client order.
"""

import numpy as np

from .errors import DimensionError


def require_shape(F, d, name):
    """The one frame-shape rule: ``DimensionError`` naming ``name`` unless ``F`` is
    ``(d, r)`` with ``1 <= r <= d``."""
    shape = np.shape(F)
    if len(shape) != 2 or shape[0] != d or not 1 <= shape[1] <= d:
        raise DimensionError(f"{name} has shape {shape}, expected ({d}, r)")


def by_rank(frames, d, name="local frame"):
    """``(groups, stacks)``: the clients grouped by frame shape, which for ``(d, r)``
    frames is their rank, and the float stack ``(n_g, d, r)`` of each group's frames.
    :func:`require_shape` checks the first frame of each group, so an error names the
    lowest-numbered bad frame, as ``"<name> <i>"``."""
    groups = {}
    for i, F in enumerate(frames):
        groups.setdefault(np.shape(F), []).append(i)
    for clients in groups.values():
        require_shape(frames[clients[0]], d, f"{name} {clients[0]}")
    groups = [np.array(clients) for clients in groups.values()]
    return groups, [np.array([frames[i] for i in clients], dtype=float) for clients in groups]


def by_group(groups, stack):
    """One stack per group from a client-ordered ``stack``, the inverse of
    :func:`client_stack`: ``[stack]`` itself, not a copy, when there is one group."""
    if len(groups) == 1:
        return [stack]
    return [stack[clients] for clients in groups]


def client_order(groups, stacks):
    """Per-client list of the slices of per-group stacks."""
    out = [None] * sum(len(clients) for clients in groups)
    for clients, stack in zip(groups, stacks):
        for i, M in zip(clients, stack):
            out[i] = M
    return out


def client_stack(groups, stacks):
    """One array in client order from per-group arrays of equal trailing shape."""
    if len(groups) == 1:
        return stacks[0]
    out = np.empty((sum(len(clients) for clients in groups),) + stacks[0].shape[1:])
    for clients, stack in zip(groups, stacks):
        out[clients] = stack
    return out


def client_sum(stack):
    """The one sum over clients: ``stack[0] + stack[1] + ...`` along the first axis, as a
    running sum in ascending client order, so it equals a client-by-client loop bitwise.
    Per-client ``(d, d)`` matrices that are made one at a time are summed as they stream in
    instead (``metrics.heterogeneity``, ``baselines.central_pca``): a stack would hold all N."""
    return np.add.accumulate(stack, axis=0)[-1]
