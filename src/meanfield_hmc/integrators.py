"""Time evolution of the N-particle Hamiltonian system on raw arrays.

Two flows live here: the randomized one-step integrator, whose force is
frozen within each step at the random evaluation point q + h*u*p with u
uniform, and the closed-form flow of the 1-d quadratic model, in which the
particle mean rotates at frequency sqrt(1 - eps) and every direction
orthogonal to it at frequency 1.
The randomized flow takes (..., N, d) arrays and the exact flow (..., N)
arrays, both with optional leading batch axes.  The randomized step loop
has one home, :func:`lockstep_flow_arrays`, which single chains, batched
replicas and the two copies of a coupled chain all run through.
"""

from __future__ import annotations

import math

import numpy as np

from .models import MeanFieldModel, mean_field_grad_all
from .rng import RngStream

DIVERGENCE_LIMIT = 1e100


class IntegrationDivergedError(RuntimeError):
    """A trajectory left the representable range."""

    def __init__(self, step_index: int, message: str = ""):
        self.step_index = int(step_index)
        super().__init__(message or f"trajectory diverged at integrator step {step_index}")


def _integral_steps(T: float, h: float) -> int:
    if not h > 0:
        raise ValueError(f"h must be positive, got h={h}")
    n = int(round(T / h))
    if n < 1 or abs(T / h - n) > 1e-9 * max(1.0, n):
        raise ValueError(f"T/h must be a positive integer, got T={T}, h={h}")
    return n


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


def lockstep_flow_arrays(model: MeanFieldModel, states, T: float, h: float,
                         stream: RngStream) -> list:
    """Randomized flow over duration T of one or more (q, p) pairs in lockstep.

    ``states`` is a sequence of (q, p) pairs of (..., N, d) arrays sharing
    one batch shape.  Each step draws one uniform per batch element, even
    when the force vanishes, and applies it to every pair, so coupled
    copies see identical integrator noise.  A divergence reports the
    earliest inner step at which any pair leaves the representable range.
    Returns the endpoint pairs in input order.
    """
    n = _integral_steps(T, h)
    batch = states[0][0].shape[:-2]
    if batch:
        us = stream.uniforms(n * math.prod(batch)).reshape((n,) + batch)
    else:
        us = stream.uniforms(n).tolist()
    for k in range(n):
        u = us[k]
        states = [randomized_step_arrays(model, q, p, h, u, step_index=k)
                  for q, p in states]
    return states


def randomized_flow_arrays(model: MeanFieldModel, q, p, T: float, h: float,
                           stream: RngStream):
    """Randomized flow of one (q, p) pair over duration T on (..., N, d) arrays."""
    (q, p), = lockstep_flow_arrays(model, [(q, p)], T, h, stream)
    return q, p


# ---------------------------------------------------------------------------
# closed-form flow for the 1-d quadratic model


def exact_gaussian_flow_arrays(epsilon: float, q, p, t: float):
    """Exact flow of the 1-d quadratic model on (..., N) arrays.

    The force is -M q with M = I - (eps/N) 11^T.  Every direction
    orthogonal to 1 rotates at frequency 1 and the particle mean at
    w0 = sqrt(1 - eps), so with c1, s1 = cos t, sin t, c0, s0 =
    cos w0 t, sin w0 t and q_bar, p_bar the particle means:

        q_t = c1 q + s1 p + (c0 - c1) q_bar + (s0/w0 - s1) p_bar
        p_t = c1 p - s1 q + (c0 - c1) p_bar + (s1 - w0 s0) q_bar

    The mean-mode correction is one number per batch element, so the
    rounding error does not grow with N.
    """
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("epsilon must lie in [0, 1) for a real mean-mode frequency")
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    q_bar = q.mean(axis=-1, keepdims=True)
    p_bar = p.mean(axis=-1, keepdims=True)

    w0 = np.sqrt(1.0 - epsilon)
    c0, s0 = np.cos(w0 * t), np.sin(w0 * t)
    c1, s1 = np.cos(t), np.sin(t)
    dc = c0 - c1

    q_t = c1 * q
    q_t += s1 * p
    q_t += dc * q_bar + (s0 / w0 - s1) * p_bar
    p_t = c1 * p
    p_t -= s1 * q
    p_t += dc * p_bar + (s1 - w0 * s0) * q_bar
    return q_t, p_t
