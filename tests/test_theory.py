import math

import numpy as np
import pytest

from meanfield_hmc import (check_conditions, compute_constants, gaussian_model,
                           max_admissible_T, metric_f_prime, multiwell_model)
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


def test_A_is_exact_reciprocal_of_slope():
    for model, T in [(gaussian_model(0.25), 1.0),
                     (multiwell_model(1.0), 0.05),
                     (multiwell_model(0.3), 0.11)]:
        tc = compute_constants(model, T)
        assert tc.A * metric_f_prime(tc.R1, tc.R1, T) == 1.0


def test_condition_reports_zero_interaction():
    reports = check_conditions(gaussian_model(0.0), 0.25)
    for name in ("cond_eps", "cond_Cepsi", "cond_eps_strong", "cond_eps_moment"):
        assert reports[name].passed
        assert reports[name].lhs == 0.0
        assert reports[name].ratio == 0.0


def test_condition_boundary_saturation():
    m = gaussian_model(0.25)
    t = max_admissible_T(m, "strong-convex")
    rep = check_conditions(m, t)["cond_T_strong"]
    assert rep.passed
    assert rep.ratio == pytest.approx(1.0, rel=1e-9)


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


def test_invalid_inputs_raise():
    m = gaussian_model(0.25)
    with pytest.raises(ValueError):
        compute_constants(m, 0.0)
    with pytest.raises(ValueError):
        check_conditions(m, -1.0)


def test_constants_table_is_complete():
    tc = compute_constants(gaussian_model(0.25), 1.0)
    names = [row[0] for row in constants_table(tc)]
    for expected in ("K", "L", "R_tilde", "R1", "gamma", "c_nhmc", "c_uhmc",
                     "c_strongconvex", "A", "B1", "B", "B2", "B3", "C", "L_e",
                     "C_hat"):
        assert expected in names
