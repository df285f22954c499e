"""Closed-form evaluation of contraction rates, bound constants, and
admissibility conditions for a model at a given kernel duration.

Everything here is a deterministic function of the model constants
(K, L = max(L1, L2), L_tilde, R_conv, W0), the interaction strength, the
duration T, the per-particle dimension, and the initial second moment.
Conditions are reported with their left/right sides so margins are
visible; a right-hand branch of the form 1/R_tilde^2 at R_tilde = 0 is
treated as +infinity.
"""

from __future__ import annotations

import functools
import math
import sys

from .couplings import CouplingParams, metric_radius
from .integrators import _check_duration
from .models import MeanFieldModel, _Frozen


class ConditionReport(_Frozen):
    """One admissibility inequality lhs <= rhs with its margin."""

    def __init__(self, lhs: float, rhs: float):
        self._set(locals())

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs

    @property
    def ratio(self) -> float:
        """lhs / rhs; 0 when both sides vanish or rhs is infinite, and inf
        when rhs alone vanishes (an exp(-R_tilde/T) factor that underflows)."""
        if self.lhs == 0.0 or math.isinf(self.rhs):
            return 0.0
        if self.rhs == 0.0:
            return math.inf
        return self.lhs / self.rhs


# (name, formula) of each reported field of TheoryConstants, in its
# parameter order: the rows of :func:`constants_table`
_FORMULAS = (
    ("K", "strong co-coercivity rate"),
    ("L", "max(L1, L2)"),
    ("L_tilde", "interaction gradient Lipschitz constant"),
    ("R_conv", "co-coercivity radius"),
    ("W0", "|grad1_W(0, 0)|"),
    ("epsilon", "interaction strength"),
    ("T", "kernel duration"),
    ("R_tilde", "sqrt((2L+K)/(6K)) * R_conv"),
    ("R1", "(5/4) (R_tilde + 2T)"),
    ("gamma", "min(1/T, 1/(4 R_tilde))"),
    ("C_hat", "(2L+K) R_conv^2"),
    ("L_e", "L + 2 eps L_tilde"),
    ("c_nhmc", "(K T^2/156) exp(-5 R_tilde/(4T))"),
    ("c_strongconvex", "K T^2 / 8"),
    ("c_uhmc", "(K T^2/156) exp(-R_tilde/T)"),
    ("A", "exp(R1/T) = 1/f'(R1)"),
    ("B1", "m2_init + (1280/(13K)) (R_conv^2 (2L+K) + 11 d + 6 (eps W0)^2 T^2 + (45/2)(eps^2/K) W0^2)"),
    ("B", "4 T^2 eps L_tilde sqrt(B1)"),
    ("B2", "m2_init + (13/(1280 K)) (11 d + (15 eps/(2 L_tilde) + 6 eps^2 T^2) W0^2 + R_conv^2 (2L+K))"),
    ("B3", "free numerical prefactor (default 1)"),
    ("C", "B3 L^(3/4) (T sqrt(d) + sqrt(B2) + (eps/K) W0) / c_uhmc"),
)


class TheoryConstants(_Frozen):
    """Derived rates, bound constants, and admissibility flags.

    Every field but ``conditions`` (a new empty dict by default) is a row
    of :func:`constants_table`, with its formula from ``_FORMULAS``, in
    parameter order.  ``B3`` is a free numerical prefactor of the
    discretization-bias constant ``C``; no closed form pins it, so ``C`` is
    reported as the family C(B3) with B3 = 1 by default.
    """

    def __init__(self, K: float, L: float, L_tilde: float, R_conv: float,
                 W0: float, epsilon: float, T: float, R_tilde: float, R1: float,
                 gamma: float, C_hat: float, L_e: float, c_nhmc: float,
                 c_strongconvex: float, c_uhmc: float, A: float, B1: float,
                 B: float, B2: float, B3: float, C: float,
                 conditions: dict | None = None):
        if conditions is None:
            conditions = {}
        self._set(locals())


def _r_tilde(c) -> float:
    """Threshold radius sqrt((2L + K) / (6K)) * R_conv of the coupling."""
    return math.sqrt((2.0 * c.L + c.K) / (6.0 * c.K)) * c.R_conv


def _times_eps_lt(model, left, right=1.0) -> float:
    """left * eps * L_tilde * right, multiplied in that order; 0 at eps = 0,
    where W adds nothing even if L_tilde or ``right`` is infinite."""
    eps = model.epsilon
    return left * eps * model.constants.L_tilde * right if eps else 0.0


def _in_float_range(fn):
    """``fn(model, T, ...)`` with an ArithmeticError (a T^2 that overflows or
    underflows to a zero divisor) re-raised as a ValueError naming T and the model."""
    @functools.wraps(fn)
    def checked(model: MeanFieldModel, T: float, *args, **kwargs):
        try:
            return fn(model, T, *args, **kwargs)
        except ArithmeticError:
            params = ", ".join(f"{key}={value}" for key, value in model.params.items())
            raise ValueError(
                f"theory constants leave the floating-point range at T={T} "
                f"for the {model.name} model ({params})") from None
    return checked


@_in_float_range
def check_conditions(model: MeanFieldModel, T: float) -> dict:
    """Evaluate every admissibility inequality at duration ``T``.

    Returns a dict name -> :class:`ConditionReport`.  The `*_strong`
    conditions apply under global strong convexity (R_conv = 0); cond_CT
    and cond_Cepsi gate the discretized-kernel contraction; cond_T_moment
    and cond_eps_moment gate the second-moment bounds.
    """
    _check_duration(T)
    c = model.constants
    K, L = c.K, c.L
    eps_lt = _times_eps_lt(model, 1.0)
    r_tilde = _r_tilde(c)
    inv_rt2 = math.inf if r_tilde**2 == 0.0 else 1.0 / r_tilde**2
    root = math.sqrt(7.0 / 6.0 + 3.0 / (2.0 * K * T**2))
    decay = math.exp(-2.5 * r_tilde / T - 5.0)

    reports = {}

    def add(name, lhs, rhs):
        reports[name] = ConditionReport(lhs=lhs, rhs=rhs)

    add("cond_T", L * T**2, 0.6 * min(0.25, (3.0 / (1280.0 * L)) * inv_rt2))
    add("cond_eps", eps_lt, (5.0 / 64.0) * K / root * decay)
    add("cond_T_strong", L * T**2, 0.15)
    add("cond_eps_strong", eps_lt, (K / 15.0) / root)
    add("cond_CT", (L + 2.0 * eps_lt) * T**2,
        min(1.0 / 9.0, (1.0 / (1296.0 * L)) * inv_rt2))
    add("cond_Cepsi", eps_lt,
        min(K / 3.0, (125.0 * K / 624.0) / math.sqrt(7.0 + 1.0 / (K * T**2)) * decay))
    add("cond_T_moment", (L + 2.0 * eps_lt) * T**2, 0.25)
    add("cond_eps_moment", eps_lt, K / 3.0)
    return reports


@_in_float_range
def compute_constants(model: MeanFieldModel, T: float, m2_init: float = 0.0,
                      B3: float = 1.0) -> TheoryConstants:
    """Evaluate every derived constant and rate at duration ``T``.

    ``m2_init`` is the second moment of the initial distribution entering
    the uniform second-moment bounds B1 and B2; it must be finite and
    nonnegative, and ``B3`` finite and positive.
    """
    _check_duration(T)
    if not 0 <= m2_init < math.inf:
        raise ValueError(f"m2_init must be finite and nonnegative, got m2_init={m2_init}")
    if not 0 < B3 < math.inf:
        raise ValueError(f"B3 must be finite and positive, got B3={B3}")
    c = model.constants
    K, L, Lt, W0 = c.K, c.L, c.L_tilde, c.W0
    eps, d = model.epsilon, model.dim

    r_tilde = _r_tilde(c)
    r1, a_const = metric_radius(r_tilde, T)
    l_e = L + _times_eps_lt(model, 2.0)

    c_nhmc = (K * T**2 / 156.0) * math.exp(-1.25 * r_tilde / T)
    c_strong = K * T**2 / 8.0
    c_uhmc = (K * T**2 / 156.0) * math.exp(-r_tilde / T)

    b1 = m2_init + (1280.0 / (13.0 * K)) * (
        c.C_hat + 11.0 * d
        + 6.0 * (eps * W0)**2 * T**2 + 22.5 * (eps**2 / K) * W0**2)
    b = _times_eps_lt(model, 4.0 * T**2, math.sqrt(b1))

    if W0 == 0.0 or eps == 0.0:
        w0_term = 0.0
    elif Lt == 0.0:
        w0_term = math.inf
    else:
        w0_term = (15.0 * eps / (2.0 * Lt) + 6.0 * eps**2 * T**2) * W0**2
    b2 = m2_init + (13.0 / (1280.0 * K)) * (
        11.0 * d + w0_term + c.C_hat)

    if c_uhmc == 0.0 or math.isinf(b2):
        c_bias = math.inf
    else:
        c_bias = (1.0 / c_uhmc) * L**0.75 * B3 * (
            T * math.sqrt(d) + math.sqrt(b2) + (eps / K) * W0)

    return TheoryConstants(
        T=float(T), epsilon=eps,
        K=K, L=L, L_tilde=Lt, R_conv=c.R_conv, W0=W0,
        R_tilde=r_tilde, R1=r1, gamma=CouplingParams(r_tilde, T).gamma,
        C_hat=c.C_hat, L_e=l_e,
        c_nhmc=c_nhmc, c_strongconvex=c_strong, c_uhmc=c_uhmc, A=a_const,
        B1=b1, B=b, B2=b2, B3=float(B3), C=c_bias,
        conditions=check_conditions(model, T))


# each condition set of :func:`max_admissible_T` and its T-inequality
CONDITION_SETS = {
    "nhmc": "cond_T",
    "strong-convex": "cond_T_strong",
    "uhmc": "cond_CT",
}


def max_admissible_T(model: MeanFieldModel, condition_set: str) -> float:
    """Largest duration satisfying the selected T-inequality, in closed form.

    Each T-inequality reads coef * T^2 <= rhs with rhs independent of T, so
    coef and rhs are the two sides of :func:`check_conditions` at T = 1 and
    the root is sqrt(rhs / coef).  The interaction-strength inequalities
    have right-hand sides that only grow with T, so they cannot be
    satisfied by shrinking T; they are checked separately.

    coef >= L2 > 0 and every rhs is capped, so a root always exists; where
    rhs or T^2 falls outside the normal floats (a root below about 1.5e-154,
    or one that underflowed to 0) no T can be checked and the result is nan.
    """
    if condition_set not in CONDITION_SETS:
        raise ValueError(f"condition set must be one of {sorted(CONDITION_SETS)}")
    name = CONDITION_SETS[condition_set]
    unit = check_conditions(model, 1.0)[name]
    t = math.sqrt(unit.rhs / unit.lhs)
    # with a subnormal rhs or T^2 the root can sit many ulps past the
    # boundary, or the check at T leaves the float range
    if not (unit.rhs >= sys.float_info.min and sys.float_info.min <= t * t < math.inf):
        return math.nan
    # the closed-form root can overshoot the boundary by an ulp; step down
    # until the inverted inequality actually holds
    while not check_conditions(model, t)[name].passed:
        t = math.nextafter(t, 0.0)
    return t


def constants_table(tc: TheoryConstants) -> list:
    """(name, value, formula) rows for reporting, one per field of
    :class:`TheoryConstants` that carries a formula."""
    return [(name, getattr(tc, name), formula) for name, formula in _FORMULAS]
