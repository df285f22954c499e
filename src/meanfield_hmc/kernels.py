"""HMC transition kernels for the particle system, chain runners, moment tracking.

Kernels act on raw position arrays with optional leading batch axes.  Both
kernels refresh the full velocity vector from N(0, I) each step and
transport positions with a Hamiltonian flow for a fixed duration T: the
unadjusted kernel uses the randomized time integrator with step size h,
the exact kernel (1-d quadratic model only) uses the closed-form flow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .integrators import (IntegrationDivergedError, _integral_steps,
                          exact_gaussian_flow_arrays, randomized_flow_arrays)
from .models import MeanFieldModel
from .rng import RngStream


@dataclass(frozen=True)
class KernelParams:
    """Kernel duration T, inner step size h (0 selects the exact flow), record stride."""

    T: float
    h: float
    thin: int = 1

    def __post_init__(self):
        if not self.T > 0:
            raise ValueError("T must be positive")
        if self.h < 0:
            raise ValueError("h must be nonnegative")
        if self.h > 0:
            _integral_steps(self.T, self.h)
        if self.thin < 1:
            raise ValueError("thin must be a positive integer")

    @property
    def n_inner_steps(self) -> int:
        return 0 if self.h == 0 else _integral_steps(self.T, self.h)


def uhmc_step_arrays(model: MeanFieldModel, q, params: KernelParams,
                     stream: RngStream) -> np.ndarray:
    """One unadjusted step on raw (..., N, d) position arrays."""
    if params.h <= 0:
        raise ValueError("uhmc requires h > 0")
    p = stream.normal_vector(q.size).reshape(q.shape)
    q_out, _ = randomized_flow_arrays(model, q, p, params.T, params.h, stream)
    return q_out


def xhmc_step_gaussian_arrays(epsilon: float, q, T: float, stream: RngStream) -> np.ndarray:
    """One exact step on raw (..., N) position arrays of the 1-d quadratic model."""
    p = stream.normal_vector(q.size).reshape(q.shape)
    q_out, _ = exact_gaussian_flow_arrays(epsilon, q, p, T)
    return q_out


def stationary_gaussian_sample_arrays(epsilon: float, shape, stream: RngStream) -> np.ndarray:
    """Exact draws from the N-particle stationary measure of the 1-d quadratic model.

    ``shape`` is (..., N) with particles last.  The measure is N(0, M^{-1})
    with M = I - (eps/N) 11^T: draw z ~ N(0, I) and stretch its mean
    direction by 1/sqrt(1 - eps).
    """
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("epsilon must lie in [0, 1)")
    shape = tuple(int(s) for s in shape)
    z = stream.normal_vector(int(np.prod(shape))).reshape(shape)
    scale = 1.0 / np.sqrt(1.0 - epsilon) - 1.0
    return z + scale * z.mean(axis=-1, keepdims=True)


def draw_initial_positions(model: MeanFieldModel, N: int, init: str,
                           stream: RngStream) -> np.ndarray:
    """Initial (N, d) positions: ``cold`` (zeros), ``normal``, or ``stationary``."""
    if init == "cold":
        return np.zeros((N, model.dim))
    if init == "normal":
        return stream.normal_vector(N * model.dim).reshape(N, model.dim)
    if init == "stationary":
        if model.name != "gaussian":
            raise ValueError("stationary start is available only for the gaussian model")
        eps = model.params["epsilon"]
        return stationary_gaussian_sample_arrays(eps, (N,), stream)[:, None]
    raise ValueError(f"unknown init {init!r}; expected cold, normal, or stationary")


@dataclass(frozen=True)
class ChainOutput:
    """Recorded output of a chain run.

    ``positions`` stacks the thinned states, shape (n_recorded, N, d),
    including the initial state.  ``second_moments`` holds the per-step
    particle-averaged squared norm for every step (length step_count + 1).
    """

    positions: np.ndarray
    second_moments: np.ndarray
    step_count: int


def _second_moment(q: np.ndarray) -> float:
    return float((q * q).sum(axis=-1).mean())


def run_chain(model: MeanFieldModel, x0: np.ndarray, kernel: str, m: int,
              params: KernelParams, stream: RngStream) -> ChainOutput:
    """Iterate a kernel ``m`` times, recording thinned positions.

    ``kernel`` is ``"uhmc"`` or ``"xhmc"``; the exact kernel requires the
    gaussian model.  Divergence errors carry the chain step index.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    q = np.asarray(x0, dtype=float)
    if q.ndim == 1:
        q = q[:, None]
    if q.shape[1] != model.dim:
        raise ValueError(f"x0 must have shape (N, {model.dim})")
    if kernel == "xhmc":
        if model.name != "gaussian" or model.dim != 1:
            raise ValueError("the exact kernel is implemented only for the gaussian model")
        eps = model.params["epsilon"]
        step = lambda v: xhmc_step_gaussian_arrays(eps, v[:, 0], params.T, stream)[:, None]
    elif kernel == "uhmc":
        step = lambda v: uhmc_step_arrays(model, v, params, stream)
    else:
        raise ValueError(f"unknown kernel {kernel!r}; expected 'uhmc' or 'xhmc'")

    recorded = [q.copy()]
    moments = np.empty(m + 1)
    moments[0] = _second_moment(q)
    for k in range(1, m + 1):
        try:
            q = step(q)
        except IntegrationDivergedError as err:
            raise IntegrationDivergedError(
                k - 1, f"chain diverged at kernel step {k - 1} "
                       f"(inner step {err.step_index})") from err
        moments[k] = _second_moment(q)
        if k % params.thin == 0:
            recorded.append(q.copy())
    return ChainOutput(positions=np.stack(recorded), second_moments=moments,
                       step_count=m)
