"""Time evolution of the N-particle Hamiltonian system.

Two flows live here: the randomized one-step integrator, whose force is
frozen within each step at the random evaluation point q + h*u*p with u
uniform, and the closed-form flow of the 1-d quadratic model obtained by
decoupling into internal modes (particle mean + consecutive differences).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import MeanFieldModel, mean_field_grad_all
from .rng import RngStream

DIVERGENCE_LIMIT = 1e100


class IntegrationDivergedError(RuntimeError):
    """A trajectory left the representable range."""

    def __init__(self, step_index: int, message: str = ""):
        self.step_index = int(step_index)
        super().__init__(message or f"trajectory diverged at integrator step {step_index}")


@dataclass(frozen=True)
class PhaseState:
    """Positions and momenta of N particles in dimension d.

    ``q`` and ``p`` are (N, d) arrays with finite entries.
    """

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = np.atleast_2d(np.asarray(self.q, dtype=float))
        p = np.atleast_2d(np.asarray(self.p, dtype=float))
        if q.shape != p.shape:
            raise ValueError(f"q and p shapes differ: {q.shape} vs {p.shape}")
        if not (np.isfinite(q).all() and np.isfinite(p).all()):
            raise ValueError("phase-space entries must be finite")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    @property
    def N(self) -> int:
        return self.q.shape[0]

    @property
    def d(self) -> int:
        return self.q.shape[1]

    @classmethod
    def from_flat(cls, q_flat, p_flat, N: int, d: int) -> "PhaseState":
        return cls(np.reshape(q_flat, (N, d)), np.reshape(p_flat, (N, d)))

    @property
    def q_flat(self) -> np.ndarray:
        return self.q.reshape(-1)

    @property
    def p_flat(self) -> np.ndarray:
        return self.p.reshape(-1)


def _integral_steps(T: float, h: float) -> int:
    n = int(round(T / h))
    if n < 1 or abs(T / h - n) > 1e-9 * max(1.0, n):
        raise ValueError(f"T/h must be a positive integer, got T={T}, h={h}")
    return n


@dataclass(frozen=True)
class IntegratorParams:
    """Duration T and step size h with T/h integral."""

    T: float
    h: float

    def __post_init__(self):
        if not self.T > 0:
            raise ValueError("T must be positive")
        if not 0 < self.h <= self.T:
            raise ValueError("h must lie in (0, T]")
        _integral_steps(self.T, self.h)

    @property
    def n_steps(self) -> int:
        return _integral_steps(self.T, self.h)


def randomized_step_arrays(model: MeanFieldModel, q, p, h: float, u, *,
                           step_index: int = 0):
    """One step of the randomized integrator on raw (..., N, d) arrays.

    ``u`` is the step's uniform variate (scalar, or batch-shaped for
    vectorized replicas).  The force is evaluated once at q + h*u*p and
    held constant, so the in-step update is exact:

        q' = q + h p + (h^2/2) g,   p' = p + h g,   g = -grad U(q + h u p).

    Raises :class:`IntegrationDivergedError` carrying ``step_index`` when
    the force is not finite or an entry of q' or p' reaches
    ``DIVERGENCE_LIMIT`` in absolute value.
    """
    hu = h * u
    if getattr(hu, "ndim", 0):
        hu = hu[..., None, None]
    q_star = q + hu * p
    g = -mean_field_grad_all(model, q_star)
    q1 = q + h * p + (0.5 * h * h) * g
    p1 = p + h * g
    # a non-finite force makes p1 non-finite, so one bound test on the
    # endpoint covers both failures; the force is inspected only to name it
    if not (np.abs(q1).max(initial=0.0) < DIVERGENCE_LIMIT
            and np.abs(p1).max(initial=0.0) < DIVERGENCE_LIMIT):
        if not np.isfinite(g).all():
            raise IntegrationDivergedError(step_index, f"non-finite force at step {step_index}")
        raise IntegrationDivergedError(step_index)
    return q1, p1


def randomized_step(model: MeanFieldModel, state: PhaseState, h: float, u: float) -> PhaseState:
    """One randomized-integrator step of size ``h`` with uniform ``u``."""
    q, p = randomized_step_arrays(model, state.q, state.p, h, u)
    return PhaseState(q, p)


def randomized_flow_arrays(model: MeanFieldModel, q, p, T: float, h: float,
                           stream: RngStream, *, record: bool = False):
    """Randomized flow over duration T on (..., N, d) arrays.

    One uniform is consumed per step and per batch element, even when the
    force vanishes.  With ``record`` the full position trajectory
    (n_steps+1, ..., N, d) is returned alongside the endpoint.
    """
    n = _integral_steps(T, h)
    batch = q.shape[:-2]
    if batch:
        us = stream.uniforms(n * math.prod(batch)).reshape((n,) + batch)
    else:
        us = stream.uniforms(n).tolist()
    traj = [q] if record else None
    for k in range(n):
        q, p = randomized_step_arrays(model, q, p, h, us[k], step_index=k)
        if record:
            traj.append(q)
    if record:
        return q, p, np.stack(traj)
    return q, p


def randomized_flow(model: MeanFieldModel, state: PhaseState, params: IntegratorParams,
                    stream: RngStream, *, record: bool = False):
    """Apply ``params.n_steps`` randomized steps with fresh uniforms."""
    out = randomized_flow_arrays(model, state.q, state.p, params.T, params.h,
                                 stream, record=record)
    if record:
        q, p, traj = out
        return PhaseState(q, p), traj
    return PhaseState(*out)


# ---------------------------------------------------------------------------
# closed-form flow for the 1-d quadratic model


def internal_modes(q: np.ndarray):
    """Split (..., N) coordinates into (particle mean, consecutive differences)."""
    q = np.asarray(q, dtype=float)
    return q.mean(axis=-1), np.diff(q, axis=-1)


def internal_modes_inverse(mode0: np.ndarray, diffs: np.ndarray) -> np.ndarray:
    """Invert :func:`internal_modes` in O(N).

    Rebuilds a vector with the given consecutive differences by prefix
    summation from zero, then shifts it to have mean ``mode0``.
    """
    diffs = np.asarray(diffs, dtype=float)
    mode0 = np.asarray(mode0, dtype=float)
    zeros = np.zeros(diffs.shape[:-1] + (1,))
    tilted = np.concatenate([zeros, np.cumsum(diffs, axis=-1)], axis=-1)
    shift = mode0 - tilted.mean(axis=-1)
    return tilted + shift[..., None]


def roundtrip_internal_transform(q: np.ndarray) -> np.ndarray:
    """Forward internal transform followed by its inverse (identity)."""
    mode0, diffs = internal_modes(q)
    return internal_modes_inverse(mode0, diffs)


def exact_gaussian_flow_arrays(epsilon: float, q, p, t: float):
    """Exact flow of the 1-d quadratic model on (..., N) arrays.

    The mean mode oscillates at frequency sqrt(1 - eps) and every
    difference mode at frequency 1; each evolves as a harmonic oscillator
    and the transform is inverted in O(N).
    """
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("epsilon must lie in [0, 1) for a real mean-mode frequency")
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    q_mean, q_diff = internal_modes(q)
    p_mean, p_diff = internal_modes(p)

    w0 = np.sqrt(1.0 - epsilon)
    c0, s0 = np.cos(w0 * t), np.sin(w0 * t)
    q_mean_t = c0 * q_mean + (s0 / w0) * p_mean
    p_mean_t = -w0 * s0 * q_mean + c0 * p_mean

    c1, s1 = np.cos(t), np.sin(t)
    q_diff_t = c1 * q_diff + s1 * p_diff
    p_diff_t = -s1 * q_diff + c1 * p_diff

    return (internal_modes_inverse(q_mean_t, q_diff_t),
            internal_modes_inverse(p_mean_t, p_diff_t))


def exact_gaussian_flow(epsilon: float, state: PhaseState, t: float) -> PhaseState:
    """Exact flow of the 1-d quadratic model for duration ``t`` (d = 1)."""
    if state.d != 1:
        raise ValueError("exact flow is available only for d = 1")
    q, p = exact_gaussian_flow_arrays(epsilon, state.q[:, 0], state.p[:, 0], t)
    return PhaseState(q[:, None], p[:, None])
