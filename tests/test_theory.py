import math

import numpy as np
import pytest

from meanfield_hmc import (AssumptionConstants, MeanFieldModel, ShallowNetDataset,
                           check_conditions, compute_constants, gaussian_model,
                           max_admissible_T, multiwell_model, shallow_net_model)
from meanfield_hmc.theory import constants_table


def test_zero_radius_closed_forms():
    tc = compute_constants(gaussian_model(0.25), 1.0)
    assert tc.R_tilde == 0.0
    assert tc.R1 == 2.5
    assert tc.gamma == 1.0
    assert tc.A == pytest.approx(math.exp(2.5), rel=1e-15)
    assert tc.C_hat == 0.0


def test_gaussian_rate_hand_value():
    tc = compute_constants(gaussian_model(0.25), 1.0)
    assert tc.c_uhmc == pytest.approx(0.75 / 156.0, rel=1e-12)
    assert tc.c_nhmc == pytest.approx(0.75 / 156.0, rel=1e-12)
    assert tc.c_strongconvex == pytest.approx(0.75 / 8.0, rel=1e-12)


def test_multiwell_threshold_radius_hand_value():
    tc = compute_constants(multiwell_model(1.0), 0.05)
    expected = math.sqrt(17.0 / 6.0) * 4.0 / math.sqrt(math.e)
    assert tc.R_tilde == pytest.approx(expected, rel=1e-12)


def test_weighted_norm_constant():
    tc = compute_constants(gaussian_model(0.25), 1.0)
    assert tc.L_e == pytest.approx(1.5, rel=1e-15)
    mw = compute_constants(multiwell_model(1.0, epsilon=0.5,
                                           interaction="quadratic"), 0.1)
    assert mw.L_e == pytest.approx(2.0 + 2.0 * 0.5 * 1.0, rel=1e-15)


def test_rates_increase_with_duration():
    # the strongly multi-well case underflows exp(-R_tilde/T) at its tiny
    # admissible durations, so probe models whose rates stay representable
    for m in (gaussian_model(0.25), multiwell_model(0.05)):
        t_max = max_admissible_T(m, "uhmc")
        grid = np.linspace(0.2 * t_max, t_max, 12)
        c_u = [compute_constants(m, t).c_uhmc for t in grid]
        c_n = [compute_constants(m, t).c_nhmc for t in grid]
        assert all(a < b for a, b in zip(c_u, c_u[1:]))
        assert all(a < b for a, b in zip(c_n, c_n[1:]))


def test_discretized_rate_dominates_nonlinear_rate():
    for model, T in [(gaussian_model(0.1), 0.3),
                     (multiwell_model(1.0), 0.003),
                     (multiwell_model(0.05), 0.015)]:
        tc = compute_constants(model, T)
        assert tc.c_uhmc >= tc.c_nhmc


def test_rate_in_unit_interval_when_admissible():
    for model in (gaussian_model(0.25), multiwell_model(0.05)):
        t = max_admissible_T(model, "uhmc")
        tc = compute_constants(model, t)
        assert tc.conditions["cond_CT"].passed
        assert 0.0 < tc.c_uhmc < 1.0


def test_condition_reports_zero_interaction():
    # shallow-net data past the box bounds make L_tilde infinite; at eps = 0
    # the interaction still adds nothing, so every eps * L_tilde term is 0
    overflow = ShallowNetDataset(inputs=np.array([[1e200], [1.0]]),
                                 outputs=np.array([0.0, 0.5]))
    for model in (gaussian_model(0.0), shallow_net_model(overflow, epsilon=0.0)):
        reports = check_conditions(model, 0.25)
        for name in ("cond_eps", "cond_Cepsi", "cond_eps_strong", "cond_eps_moment"):
            assert reports[name].passed
            assert reports[name].lhs == 0.0
            assert reports[name].ratio == 0.0
        tc = compute_constants(model, 0.25)
        assert math.isfinite(tc.L_e) and tc.L_e == tc.L
        assert tc.B == 0.0
        assert math.isfinite(max_admissible_T(model, "uhmc"))
    # every W0 term of B2 and C carries eps, so at eps = 0 a W0 > 0 with
    # L_tilde = 0 leaves them finite: those of the same model with W0 = 0
    at_origin, no_w0 = [compute_constants(_model_with_interaction_at_origin(0.0, W0, 0.0), 0.4)
                        for W0 in (1.3, 0.0)]
    assert math.isfinite(at_origin.C)
    assert (at_origin.B2, at_origin.C) == (no_w0.B2, no_w0.C)


def test_condition_ratio_is_infinite_where_only_the_bound_vanishes():
    # at R_conv = 160 (shallow-net outputs of size 20) exp(-2.5 R_tilde/T)
    # underflows and the cond_eps bound is 0
    m = shallow_net_model(ShallowNetDataset(inputs=np.eye(3), outputs=np.full(3, 20.0)))
    rep = check_conditions(m, 1.0)["cond_eps"]
    assert rep.rhs == 0.0 < rep.lhs
    assert rep.ratio == math.inf and not rep.passed


def test_condition_boundary_saturation():
    m = gaussian_model(0.25)
    t = max_admissible_T(m, "strong-convex")
    rep = check_conditions(m, t)["cond_T_strong"]
    assert rep.passed
    assert rep.ratio == pytest.approx(1.0, rel=1e-9)


def test_max_admissible_T_is_nan_where_no_duration_can_be_checked():
    # the nhmc and uhmc roots have a subnormal square at a = 10^77.5 (where
    # the ulp step-down did not end within 2 s) and underflow to 0 at
    # a = 1e100; the strong-convex root stays normal
    for a in (10.0**77.5, 1e100):
        m = multiwell_model(a)
        assert math.isnan(max_admissible_T(m, "nhmc"))
        assert math.isnan(max_admissible_T(m, "uhmc"))
        t = max_admissible_T(m, "strong-convex")
        assert check_conditions(m, t)["cond_T_strong"].passed
        assert not check_conditions(m, math.nextafter(t, math.inf))["cond_T_strong"].passed


def test_condition_reports_all_evaluated():
    reports = check_conditions(multiwell_model(1.0, epsilon=0.2,
                                               interaction="quadratic"), 0.05)
    expected = {"cond_T", "cond_eps", "cond_T_strong", "cond_eps_strong",
                "cond_CT", "cond_Cepsi", "cond_T_moment", "cond_eps_moment"}
    assert set(reports) == expected
    for rep in reports.values():
        assert math.isfinite(rep.lhs)
        assert rep.rhs > 0


def test_max_admissible_T_closed_forms():
    m = gaussian_model(0.25)
    assert max_admissible_T(m, "strong-convex") == pytest.approx(
        math.sqrt(3.0 / 20.0), rel=1e-9)
    # with R_conv = 0 the radius branch is infinite
    assert max_admissible_T(m, "uhmc") == pytest.approx(
        math.sqrt(1.0 / (9.0 * 1.5)), rel=1e-9)
    with pytest.raises(ValueError):
        max_admissible_T(m, "verlet")


def test_max_admissible_T_roundtrip():
    sets = {"nhmc": "cond_T", "strong-convex": "cond_T_strong", "uhmc": "cond_CT"}
    rng_models = [gaussian_model(0.25), gaussian_model(0.0),
                  multiwell_model(1.0), multiwell_model(0.05),
                  multiwell_model(2.0, epsilon=0.01, interaction="quadratic")]
    for model in rng_models:
        for condition_set, name in sets.items():
            t = max_admissible_T(model, condition_set)
            rep = check_conditions(model, t)[name]
            assert rep.passed and rep.ratio <= 1.0


def test_bias_prefactor_is_configurable():
    m = gaussian_model(0.25)
    base = compute_constants(m, 0.25, m2_init=1.0)
    double = compute_constants(m, 0.25, m2_init=1.0, B3=2.0)
    assert double.C == pytest.approx(2.0 * base.C, rel=1e-12)
    assert double.B3 == 2.0


def test_second_moment_bounds_formulas():
    # closed-form spot check at R_conv = 0, W0 = 0
    m = gaussian_model(0.25)
    tc = compute_constants(m, 0.4, m2_init=2.0)
    k = 0.75
    assert tc.B1 == pytest.approx(2.0 + (1280.0 / (13.0 * k)) * 11.0, rel=1e-12)
    assert tc.B2 == pytest.approx(2.0 + (13.0 / (1280.0 * k)) * 11.0, rel=1e-12)
    assert tc.B == pytest.approx(4.0 * 0.4**2 * 1.0 * 0.25 * math.sqrt(tc.B1),
                                 rel=1e-12)


def _model_with_interaction_at_origin(L_tilde, W0=1.3, epsilon=0.3):
    # no built-in model has W0 > 0; only the constants, eps and d enter the theory
    constants = AssumptionConstants(K=0.5, L1=1.5, L2=2.0, L_tilde=L_tilde,
                                    R_conv=0.7, W0=W0)
    m = gaussian_model(epsilon)
    return MeanFieldModel(**{**vars(m), "dim": 2, "constants": constants})


def test_second_moment_bounds_formulas_with_interaction_at_origin():
    m2, T, B3 = 1.5, 0.4, 2.0
    K, L, Lt, R, W0, eps, d = 0.5, 2.0, 0.8, 0.7, 1.3, 0.3, 2
    tc = compute_constants(_model_with_interaction_at_origin(Lt), T, m2_init=m2, B3=B3)
    b1 = m2 + (1280 / (13 * K)) * (R**2 * (2 * L + K) + 11 * d + 6 * (eps * W0)**2 * T**2
                                   + (45 / 2) * (eps**2 / K) * W0**2)
    b2 = m2 + (13 / (1280 * K)) * (11 * d + (15 * eps / (2 * Lt) + 6 * eps**2 * T**2) * W0**2
                                   + R**2 * (2 * L + K))
    c_uhmc = (K * T**2 / 156) * math.exp(-math.sqrt((2 * L + K) / (6 * K)) * R / T)
    assert tc.B1 == pytest.approx(b1, rel=1e-12)
    assert tc.B2 == pytest.approx(b2, rel=1e-12)
    assert tc.C == pytest.approx(
        B3 * L**0.75 * (T * math.sqrt(d) + math.sqrt(b2) + (eps / K) * W0) / c_uhmc, rel=1e-12)


def test_interaction_at_origin_without_lipschitz_interaction_has_no_bias_bound():
    # B2's term 15 eps W0^2 / (2 L_tilde) has no finite value at L_tilde = 0
    tc = compute_constants(_model_with_interaction_at_origin(0.0), 0.4)
    assert math.isfinite(tc.B1)
    assert tc.B2 == math.inf
    assert tc.C == math.inf


def test_invalid_inputs_raise():
    m = gaussian_model(0.25)
    with pytest.raises(ValueError):
        compute_constants(m, 0.0)
    with pytest.raises(ValueError):
        check_conditions(m, -1.0)
    valid = dict(K=0.5, L1=1.5, L2=2.0, L_tilde=0.8, R_conv=0.7, W0=1.3)
    for change, message in [({"K": 0.0}, "K must be positive"),
                            ({"L2": 0.0}, "L2 must be positive"),
                            ({"K": 2.5}, "K must not exceed L2"),
                            ({"L_tilde": -0.1}, "L_tilde must be nonnegative")]:
        with pytest.raises(ValueError, match=message):
            AssumptionConstants(**{**valid, **change})


def test_constants_table_is_complete():
    # the rows are the fields of TheoryConstants with a formula, in this order
    tc = compute_constants(gaussian_model(0.25), 1.0)
    names = [row[0] for row in constants_table(tc)]
    assert names == ["K", "L", "L_tilde", "R_conv", "W0", "epsilon", "T",
                     "R_tilde", "R1", "gamma", "C_hat", "L_e", "c_nhmc",
                     "c_strongconvex", "c_uhmc", "A", "B1", "B", "B2", "B3", "C"]
    assert all(value == getattr(tc, name) for name, value, _ in constants_table(tc))
