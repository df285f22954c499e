"""Velocity coupling for pairs of chains, the coupled kernel step, and the
contraction metric.

For particle pairs closer than the threshold radius the refreshed
velocities are coupled so that the difference collapses to -gamma*z with
the largest probability a valid coupling allows, and are reflected across
the separation direction otherwise; distant pairs synchronize.  Both
marginals stay exactly standard normal.  The two copies of a coupled
kernel run through the integrator's lockstep flow on shared per-step
uniforms, so only the initial velocities differ.  The concave metric
rho_N measures how far apart the coupled copies are; the contraction
experiment runs the coupled steps and tabulates it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import KernelParams
from .models import (MeanFieldModel, _columnwise, _dot_last, _norm_last,
                     _select_rows)
from .integrators import lockstep_flow_arrays
from .rng import RngStream


@dataclass(frozen=True)
class CouplingParams:
    """Threshold radius R_tilde and duration T; the coupling strength
    gamma = min(1/T, 1/(4 R_tilde)) is derived (1/T when R_tilde = 0)."""

    R_tilde: float
    T: float

    def __post_init__(self):
        if self.R_tilde < 0:
            raise ValueError("R_tilde must be nonnegative")
        if not self.T > 0:
            raise ValueError("T must be positive")

    @property
    def gamma(self) -> float:
        if self.R_tilde == 0.0:
            return 1.0 / self.T
        return min(1.0 / self.T, 0.25 / self.R_tilde)


@dataclass(frozen=True)
class CoupleResult:
    """Coupled velocity draw with branch bookkeeping.

    ``synchronous`` marks pairs at or beyond the threshold radius;
    ``coalescing`` marks pairs whose velocity difference equals -gamma*z
    (it is True on synchronous pairs only if z = 0).
    """

    xi: np.ndarray
    eta: np.ndarray
    synchronous: np.ndarray
    coalescing: np.ndarray


def couple_velocities_batch(z: np.ndarray, cp: CouplingParams,
                            stream: RngStream) -> CoupleResult:
    """Coupled velocity refresh for a batch of separations ``z`` (..., d).

    Draws xi ~ N(0, I_d) per batch element.  One uniform per element is
    always consumed so variate counts stay fixed across branches.  The
    acceptance ratio of the shifted normal density is evaluated in log
    space.
    """
    z = np.asarray(z, dtype=float)
    batch = z.shape[:-1]
    d = z.shape[-1]
    count = int(np.prod(batch)) if batch else 1
    xi = stream.normal_vector(count * d).reshape(z.shape)
    u = stream.uniforms(count).reshape(batch)

    r = _norm_last(z)
    e = np.zeros_like(z)
    e[..., 0] = 1.0
    _columnwise(np.divide, z, r, out=e, where=r > 0)

    a = _dot_last(e, xi)
    gr = cp.gamma * r
    # log of phi(a + gamma r) / phi(a)
    log_ratio = -gr * a - 0.5 * gr * gr
    accept = np.log(u) <= log_ratio

    synchronous = r >= cp.R_tilde
    reflected = xi - _columnwise(np.multiply, e, 2.0 * a)
    shifted = xi + cp.gamma * z
    eta = _select_rows(synchronous, xi, _select_rows(accept, shifted, reflected))
    coalescing = np.where(synchronous, r == 0.0, accept)
    return CoupleResult(xi=xi, eta=eta, synchronous=synchronous,
                        coalescing=coalescing)


def coupled_uhmc_step(model: MeanFieldModel, x: np.ndarray, xp: np.ndarray,
                      params: KernelParams, cp: CouplingParams, stream: RngStream,
                      *, synchronous: bool = False):
    """One coupled unadjusted step on (..., N, d) position arrays.

    Initial velocities are coupled particle-wise (or fully synchronized
    with ``synchronous``); both copies then run through one lockstep flow
    with identical integrator uniforms.  Shapes and h are checked before
    any variate is drawn.
    """
    x = np.asarray(x, dtype=float)
    xp = np.asarray(xp, dtype=float)
    if x.shape != xp.shape:
        raise ValueError("coupled copies must have identical shapes")
    if params.h <= 0:
        raise ValueError("coupled uhmc requires h > 0")
    if synchronous:
        xi = eta = stream.normal_vector(x.size).reshape(x.shape)
    else:
        res = couple_velocities_batch(x - xp, cp, stream)
        xi, eta = res.xi, res.eta
    (q, _), (qp, _) = lockstep_flow_arrays(model, [(x, xi), (xp, eta)],
                                           params.T, params.h, stream)
    return q, qp


# ---------------------------------------------------------------------------
# contraction metric


def metric_f(r, R1: float, T: float):
    """Concave distance profile: integral of exp(-min(R1, s)/T) from 0 to r.

    Closed form: T (1 - e^{-r/T}) for r <= R1, continued linearly with
    slope e^{-R1/T} beyond.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("r must be nonnegative")
    if not (R1 > 0 and T > 0):
        raise ValueError("R1 and T must be positive")
    inner = T * (-np.expm1(-np.minimum(r, R1) / T))
    tail = np.exp(-R1 / T) * np.maximum(r - R1, 0.0)
    out = inner + tail
    return float(out) if out.ndim == 0 else out


def metric_f_prime(r, R1: float, T: float):
    """Derivative of :func:`metric_f`: exp(-min(R1, r)/T)."""
    r = np.asarray(r, dtype=float)
    out = np.exp(-np.minimum(r, R1) / T)
    return float(out) if out.ndim == 0 else out


def _exact_reciprocal(y: float) -> float:
    """Reciprocal adjusted by at most one ulp so that a * y == 1.0 exactly.

    Returns the unadjusted 1/y when no such double exists.
    """
    a = 1.0 / y
    if a * y == 1.0:
        return a
    for candidate in (math.nextafter(a, 0.0), math.nextafter(a, math.inf)):
        if candidate * y == 1.0:
            return candidate
    return a


# Upper limit on the ulps metric_radius may add.  Over 100k random
# (R_tilde, T) pairs, 95% needed none, 5% one to three, and seven needed
# between 77 and 2500: single ulp steps of R1 can move the slope by a
# near-constant stride that keeps missing the doubles with a reciprocal.
_R1_MAX_ULPS = 4096


def metric_radius(R_tilde: float, T: float) -> float:
    """Radius R1 = (5/4)(R_tilde + 2T) beyond which the metric profile is linear.

    Not every double slope exp(-R1/T) has a double reciprocal, so R1 is
    raised by the fewest ulps that give it one; A = 1/f'(R1) then holds
    exactly.  A slope that underflows, or whose reciprocal overflows,
    leaves R1 as computed.  The contraction metric and the reported A
    both take R1 from here.
    """
    r1 = base = 1.25 * (R_tilde + 2.0 * T)
    for _ in range(_R1_MAX_ULPS):
        slope = metric_f_prime(r1, r1, T)
        if slope == 0.0 or math.isinf(1.0 / slope) or _exact_reciprocal(slope) * slope == 1.0:
            return r1
        r1 = math.nextafter(r1, math.inf)
    return base


def rho_N(x: np.ndarray, y: np.ndarray, R1: float, T: float):
    """Particle-averaged coupled distance: mean_i f(|x^i - y^i|).

    ``x`` and ``y`` have shape (..., N, d); the result drops both trailing
    axes.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("shape mismatch between the two states")
    out = metric_f(_norm_last(x - y), R1, T).mean(axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def ell1_bar(x: np.ndarray, y: np.ndarray):
    """Particle-averaged Euclidean distance: mean_i |x^i - y^i|."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("shape mismatch between the two states")
    out = _norm_last(x - y).mean(axis=-1)
    return float(out) if np.ndim(out) == 0 else out

