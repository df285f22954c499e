"""Velocity coupling for pairs of chains, the coupled kernel step, and the
contraction metric.

For particle pairs closer than the threshold radius the refreshed
velocities are coupled so that the difference collapses to -gamma*z with
the largest probability a valid coupling allows, and are reflected across
the separation direction otherwise; distant pairs synchronize.  Both
marginals stay exactly standard normal.  The two copies of a coupled
kernel run through the integrator's lockstep flow on shared per-step
uniforms, so only the initial velocities differ.  The concave metric
rho_N, the particle mean of the profile f of :func:`metric_f`, whose radius
R1 and constant A = 1/f'(R1) are closed forms, measures how far apart the
coupled copies are; the contraction experiment runs the coupled steps and
tabulates it.
"""

from __future__ import annotations

import math

import numpy as np

from .integrators import _check_duration, _integral_steps, lockstep_flow_arrays
from .models import (MeanFieldModel, _columnwise, _dot_last, _Frozen,
                     _norm_last, _put_rows)
from .rng import RngStream


class CouplingParams(_Frozen):
    """Threshold radius R_tilde and the coupled kernel's duration T; the
    coupling strength gamma = min(1/T, 1/(4 R_tilde)) = 1/max(T, 4 R_tilde)
    is derived from them."""

    def __init__(self, R_tilde: float, T: float):
        self._set(locals())
        if not self.R_tilde >= 0:
            raise ValueError("R_tilde must be nonnegative")
        _check_duration(self.T)

    @property
    def gamma(self) -> float:
        return 1.0 / max(self.T, 4.0 * self.R_tilde)


class CoupleResult(_Frozen):
    """Coupled velocity draw with branch bookkeeping.

    ``synchronous`` marks pairs at or beyond the threshold radius;
    ``coalescing`` marks pairs whose velocity difference equals -gamma*z
    (it is True on synchronous pairs only if z = 0).
    """

    def __init__(self, xi: np.ndarray, eta: np.ndarray, synchronous: np.ndarray,
                 coalescing: np.ndarray):
        self._set(locals())


def couple_velocities_batch(z: np.ndarray, cp: CouplingParams,
                            stream: RngStream) -> CoupleResult:
    """Coupled velocity refresh for a batch of separations ``z`` (..., d).

    Draws xi ~ N(0, I_d) per batch element.  One uniform per element is
    always consumed so variate counts stay fixed across branches.  The
    acceptance ratio of the shifted normal density is evaluated in log
    space.
    """
    z = np.asarray(z, dtype=float)
    xi = stream.normal_vector(z.shape)
    u = stream.uniforms(z.shape[:-1])

    r = _norm_last(z)
    e = np.zeros(z.shape)
    e[..., 0] = 1.0
    _columnwise(np.divide, z, r, out=e, where=r > 0)

    a = _dot_last(e, xi)
    gr = cp.gamma * r
    # log of phi(a + gamma r) / phi(a)
    accept = np.log(u, out=u) <= -gr * a - 0.5 * gr * gr

    synchronous = r >= cp.R_tilde
    # eta is the shifted xi + gamma z, except the reflected xi - (2a) e
    # (written over e) where the shift is refused and xi where synchronous
    eta = xi + cp.gamma * z
    reflected = _columnwise(np.multiply, e, 2.0 * a, out=e)
    np.subtract(xi, reflected, out=reflected)
    _put_rows(~accept, eta, reflected)
    _put_rows(synchronous, eta, xi)
    coalescing = np.where(synchronous, r == 0.0, accept)
    return CoupleResult(xi=xi, eta=eta, synchronous=synchronous,
                        coalescing=coalescing)


def coupled_uhmc_step(model: MeanFieldModel, x: np.ndarray, xp: np.ndarray,
                      h: float, cp: CouplingParams, stream: RngStream):
    """One coupled unadjusted step of duration cp.T in steps of size h on
    (..., N, d) position arrays.

    Initial velocities are coupled particle-wise, synchronously for every
    pair at cp.R_tilde = 0; both copies then run through one lockstep flow
    with identical integrator uniforms.  Shapes, cp.T and h are checked
    before any variate is drawn.
    """
    x = np.asarray(x, dtype=float)
    xp = np.asarray(xp, dtype=float)
    if x.shape != xp.shape:
        raise ValueError("coupled copies must have identical shapes")
    _integral_steps(cp.T, h)
    res = couple_velocities_batch(x - xp, cp, stream)
    (q, _), (qp, _) = lockstep_flow_arrays(model, [(x, res.xi), (xp, res.eta)],
                                           cp.T, h, stream)
    return q, qp


# ---------------------------------------------------------------------------
# contraction metric


def _metric_argument(r, R1: float, T: float) -> np.ndarray:
    """``r`` as a float array, after checking that r >= 0 (not nan) and R1, T > 0."""
    r = np.asarray(r, dtype=float)
    if not np.all(r >= 0):
        raise ValueError("r must be nonnegative")
    if not (R1 > 0 and T > 0):
        raise ValueError("R1 and T must be positive")
    return r


def metric_f(r, R1: float, T: float):
    """Concave distance profile: integral of exp(-min(R1, s)/T) from 0 to r.

    Closed form: T (1 - e^{-r/T}) for r <= R1, continued linearly with
    slope e^{-R1/T} beyond.  T (-expm1((-min(r, R1)) / T)) is evaluated as
    (-T) expm1(min(r, R1) / (-T)): negating a factor or a divisor instead
    of the product or the quotient rounds alike, so the bits are the same.
    """
    r = _metric_argument(r, R1, T)
    out = ((-T) * np.expm1(np.minimum(r, R1) / (-T))
           + np.exp(-R1 / T) * np.maximum(r - R1, 0.0))
    return float(out) if out.ndim == 0 else out


def metric_f_prime(r, R1: float, T: float):
    """Derivative of :func:`metric_f`: exp(-min(R1, r)/T).

    A ratio min(R1, r)/T that overflows gives 0, without a warning.
    """
    r = _metric_argument(r, R1, T)
    with np.errstate(over="ignore"):
        out = np.exp(-np.minimum(r, R1) / T)
    return float(out) if out.ndim == 0 else out


def metric_radius(R_tilde: float, T: float) -> tuple:
    """(R1, A): the radius R1 = (5/4)(R_tilde + 2T) beyond which the metric
    profile is linear, and the envelope constant A = exp(R1/T) = 1/f'(R1),
    inf where f'(R1) underflows.  Both are closed forms, so A * f'(R1) is 1
    to within one ulp, not exactly; the metric and the reported A use them."""
    r1 = 1.25 * (R_tilde + 2.0 * T)
    slope = metric_f_prime(r1, r1, T)
    return r1, (1.0 / slope if slope > 0.0 else math.inf)


def _particle_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|x^i - y^i| for (..., N, d) states of equal shape, as (..., N)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("shape mismatch between the two states")
    return _norm_last(x - y)


def rho_N(x: np.ndarray, y: np.ndarray, R1: float, T: float):
    """Particle-averaged coupled distance: mean_i f(|x^i - y^i|).

    ``x`` and ``y`` have shape (..., N, d); the result drops both trailing
    axes.
    """
    return metric_f(_particle_distances(x, y), R1, T).mean(axis=-1)


def ell1_bar(x: np.ndarray, y: np.ndarray):
    """Particle-averaged Euclidean distance: mean_i |x^i - y^i|."""
    return _particle_distances(x, y).mean(axis=-1)
