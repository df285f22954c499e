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
from typing import Optional

import numpy as np

from .models import (MeanFieldModel, _check_quadratic_epsilon,
                     mean_field_grad_all)
from .rng import RngStream

DIVERGENCE_LIMIT = 1e100
_RATIO_MESSAGE = "T/h must be a positive integer, got T={T}, h={h}"


class IntegrationDivergedError(RuntimeError):
    """A trajectory left the representable range.

    ``replica`` is the flat index, in C order over the batch axes, of the
    first batched replica that left it; None for an unbatched trajectory.
    """

    def __init__(self, step_index: int, message: str = "",
                 replica: Optional[int] = None):
        self.step_index = int(step_index)
        self.replica = replica
        super().__init__(message or f"trajectory diverged at integrator step {step_index}")


# A kernel runs for a duration T in T/h inner steps of size h.  The checks
# below are the only statement of that rule; every other module calls them.
# They stay private so that a traced run adds no span per flow call.


def _check_duration(T: float) -> None:
    """Raise ValueError unless the kernel duration T is finite and positive."""
    if not 0 < T < math.inf:
        raise ValueError(f"T must be finite and positive, got T={T}")


def _check_step(h: float) -> None:
    """Raise ValueError unless the inner step size h is finite and positive."""
    if not 0 < h < math.inf:
        raise ValueError(f"h must be finite and positive, got h={h}")


def _integral_steps(T: float, h: float) -> int:
    """The number T/h of inner steps, after checking T, h and that T/h is
    integral up to rounding."""
    _check_duration(T)
    _check_step(h)
    ratio = T / h
    n = int(round(ratio)) if ratio < math.inf else 0
    if n < 1 or abs(ratio - n) > 1e-9 * max(1.0, n):
        raise ValueError(_RATIO_MESSAGE.format(T=T, h=h))
    return n


def _snap_step_size(T: float, h_raw: float) -> float:
    """Largest h <= h_raw with T/h integral (T itself when h_raw >= T)."""
    _check_duration(T)
    _check_step(h_raw)
    ratio = T / h_raw
    if ratio == math.inf:
        raise ValueError(_RATIO_MESSAGE.format(T=T, h=h_raw))
    return T / max(1, math.ceil(ratio - 1e-12))


def randomized_step_arrays(model: MeanFieldModel, q, p, h: float, u, *,
                           step_index: int = 0):
    """One step of the randomized integrator on raw (..., N, d) arrays.

    ``u`` is the step's uniform variate (scalar, or batch-shaped for
    vectorized replicas).  The force is evaluated once at q + h*u*p and
    held constant, so the in-step update is exact.  With G = grad U(q*),
    each entry is computed in this order, which the golden files pin:

        q* = q + (h u) p,   q' = (q + h p) - (h^2/2) G,   p' = p - h G.

    Subtracting (h^2/2) G rounds exactly as adding (h^2/2) times the force
    -G.  The step writes none of its inputs and not the force's return
    value, which may alias q*; q' and p' are new arrays, and the bound
    test reuses q* once it is spent.

    Raises :class:`IntegrationDivergedError` carrying ``step_index``, and
    for batched arrays the first replica at fault, when the force is not
    finite or an entry of q' or p' reaches ``DIVERGENCE_LIMIT`` in
    absolute value.
    """
    hu = h * u
    if getattr(hu, "ndim", 0):
        hu = hu[..., None, None]
    q_star = np.multiply(hu, p)
    np.add(q, q_star, out=q_star)
    grad = mean_field_grad_all(model, q_star)
    p1 = np.multiply(h, grad)
    np.subtract(p, p1, out=p1)
    q1 = np.multiply(h, p)
    np.add(q, q1, out=q1)
    # q* is spent once the force is known, unless the force returned it
    work = None if np.may_share_memory(grad, q_star) else q_star
    q1 -= np.multiply(0.5 * h * h, grad, out=work)
    # a non-finite force makes p1 non-finite, so one bound test on the
    # endpoint covers both failures; the force is inspected only to name it.
    # The maxima are ndarray.max(initial=0.0) without numpy's Python wrapper:
    # the reduce with the arguments that max passes on
    if not (np.maximum.reduce(np.abs(q1, out=work), axis=None, initial=0.0,
                              where=True) < DIVERGENCE_LIMIT
            and np.maximum.reduce(np.abs(p1, out=work), axis=None, initial=0.0,
                                  where=True) < DIVERGENCE_LIMIT):
        replica = _first_diverged_replica(q1, p1)
        if not np.isfinite(grad).all():
            raise IntegrationDivergedError(
                step_index, f"non-finite force at step {step_index}", replica)
        raise IntegrationDivergedError(step_index, replica=replica)
    return q1, p1


def _first_diverged_replica(q, p):
    """Flat batch index of the first replica of (..., N, d) ``q`` and ``p``
    with an entry out of range (nan included); None when unbatched."""
    if q.ndim < 3:
        return None
    inside = (np.abs(q) < DIVERGENCE_LIMIT) & (np.abs(p) < DIVERGENCE_LIMIT)
    return int(np.argmin(inside.all(axis=(-2, -1))))


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
    states = list(states)
    batch = states[0][0].shape[:-2]
    us = stream.uniforms(n * math.prod(batch)).reshape((n,) + batch)
    for k in range(n):
        u = us[k]
        # each pair is replaced as soon as it has stepped, so a spent pair
        # is freed before the next pair's step allocates
        for i, (q, p) in enumerate(states):
            states[i] = randomized_step_arrays(model, q, p, h, u, step_index=k)
    return states


def randomized_flow_arrays(model: MeanFieldModel, q, p, T: float, h: float,
                           stream: RngStream):
    """Randomized flow of one (q, p) pair over duration T on (..., N, d) arrays."""
    (q, p), = lockstep_flow_arrays(model, [(q, p)], T, h, stream)
    return q, p


# ---------------------------------------------------------------------------
# closed-form flow for the 1-d quadratic model


def exact_gaussian_flow_arrays(epsilon: float, q, p, t: float) -> np.ndarray:
    """Position at time t of the exact flow of the 1-d quadratic model on
    (..., N) arrays.

    The force is -M q with M = I - (eps/N) 11^T.  Every direction
    orthogonal to 1 rotates at frequency 1 and the particle mean at
    w0 = sqrt(1 - eps), so with c1, s1 = cos t, sin t, c0, s0 =
    cos w0 t, sin w0 t and q_bar, p_bar the particle means:

        q_t = c1 q + s1 p + (c0 - c1) q_bar + (s0/w0 - s1) p_bar

    The momentum obeys the same linear equation, so p_t is this map applied
    to (p, -M q).  The mean-mode correction is one number per batch element,
    so the rounding error does not grow with N.
    """
    _check_quadratic_epsilon(epsilon)
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    q_bar = q.mean(axis=-1, keepdims=True)
    p_bar = p.mean(axis=-1, keepdims=True)

    w0 = np.sqrt(1.0 - epsilon)
    c0, s0 = np.cos(w0 * t), np.sin(w0 * t)
    c1, s1 = np.cos(t), np.sin(t)

    q_t = c1 * q
    q_t += s1 * p
    q_t += (c0 - c1) * q_bar + (s0 / w0 - s1) * p_bar
    return q_t
