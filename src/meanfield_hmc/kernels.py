"""HMC transition kernels for the particle system and the chain loop.

Kernels act on raw position arrays with optional leading batch axes.  Both
kernels refresh the full velocity vector from N(0, I) each step and
transport positions with a Hamiltonian flow for a fixed duration T: the
unadjusted kernel runs the randomized time integrator in T/h steps of size
h, the exact kernel (1-d quadratic model only) the closed-form flow.
:func:`draw_initial_positions` draws each chain's cold, normal or exactly
stationary start, and :func:`run_chain` iterates any kernel step, single,
batched or coupled, and records what an experiment measures along it.
"""

from __future__ import annotations

import numpy as np

from .integrators import (IntegrationDivergedError, exact_gaussian_flow_arrays,
                          lockstep_flow_arrays)
from .models import MeanFieldModel
from .rng import RngStream


def uhmc_step_arrays(model: MeanFieldModel, q, T: float, h: float,
                     stream: RngStream) -> np.ndarray:
    """One unadjusted step of duration T in T/h inner steps on raw (..., N, d)
    position arrays; the flow checks T and h."""
    p = stream.normal_vector(q.shape)
    (q_out, _), = lockstep_flow_arrays(model, [(q, p)], T, h, stream)
    return q_out


def xhmc_step_gaussian_arrays(epsilon: float, q, T: float, stream: RngStream) -> np.ndarray:
    """One exact step on raw (..., N) position arrays of the 1-d quadratic model."""
    p = stream.normal_vector(q.shape)
    return exact_gaussian_flow_arrays(epsilon, q, p, T)


def draw_initial_positions(model: MeanFieldModel, shape, init: str,
                           stream: RngStream) -> np.ndarray:
    """Start positions (..., N, d) for the batch ``shape`` (..., N): ``cold``
    zeros, ``normal`` the product standard normal, or ``stationary`` (gaussian
    model only) an exact draw from the N-particle stationary measure
    N(0, M^{-1}), M = I - (eps/N) 11^T: z ~ N(0, I) with its particle mean
    stretched by 1/sqrt(1 - eps)."""
    shape = (*shape, model.dim)
    if init == "cold":
        return np.zeros(shape)
    if init == "normal":
        return stream.normal_vector(shape)
    if init == "stationary":
        if model.name != "gaussian":
            raise ValueError("stationary start is available only for the gaussian model")
        z = stream.normal_vector(shape)
        scale = 1.0 / np.sqrt(1.0 - model.epsilon) - 1.0
        return z + scale * z.mean(axis=-2, keepdims=True)
    raise ValueError(f"unknown init {init!r}; expected cold, normal, or stationary")


def run_chain(step, state, m: int, record, thin: int = 1) -> np.ndarray:
    """Apply the kernel ``step`` to ``state`` ``m`` times and return the
    records of the start and of every ``thin``-th state.

    ``step(state)`` returns the next state: an array, or a tuple of arrays
    for a coupled pair.  ``record(state)`` returns an array, or a tuple of
    equal-shape arrays, of the same shape at every call; it is copied into
    row k // thin of the result, of shape (1 + m // thin, ...), when it is
    taken, so a record that views the state keeps no state alive and sees
    no later in-place update.  A divergence in kernel step k (counted from
    0) is re-raised naming k, the inner step and the first replica at
    fault.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    if thin < 1:
        raise ValueError("thin must be a positive integer")
    first = np.asarray(record(state))
    out = np.empty((1 + m // thin, *first.shape), dtype=first.dtype)
    out[0] = first
    for k in range(1, m + 1):
        try:
            state = step(state)
        except IntegrationDivergedError as err:
            raise IntegrationDivergedError(
                k - 1, f"chain diverged at kernel step {k - 1} (inner step "
                       f"{err.step_index}, replica {err.replica})",
                err.replica) from err
        if k % thin == 0:
            out[k // thin] = record(state)
    return out
