"""Each workload gate accepts a well-formed output and rejects a wrong one."""

import json
import math

import pytest

from perfbench import gates


def chaos_csv(shift_var_se=0.0, shift_mean_se=0.0, n_list=(16, 64, 256), m=200):
    # standard errors of the size chaos-scan reports at 200 steps, 200 replicas
    eps = 0.25
    detail, rows = [], []
    for n in n_list:
        var, var_se = 1.0 + eps / (n * (1.0 - eps)), 0.03 / n ** 0.5
        mcv = 1.0 / ((1.0 - eps) * n)
        mcv_se = 0.012 * mcv
        detail.append({"N": n, "var_hat": var + shift_var_se * var_se, "var_se": var_se,
                       "analytic_var": var, "mean_coord_var": mcv + shift_mean_se * mcv_se,
                       "mean_coord_var_se": mcv_se, "analytic_mean_coord_var": mcv,
                       "w1_marginal": 0.01})
        rows.append(f"{n},{abs(var - 1.0)!r},{mcv!r},0.01")
    config = {"N_list": list(n_list), "T": 1.0, "epsilon": eps, "m": m, "replicas": 200}
    return "\n".join(["# meanfield-hmc 0.1.0", "# command: chaos-scan", "# seed: 0",
                      "# config: " + json.dumps(config),
                      "N,var_err,mean_coord_var,w1_marginal", *rows,
                      "# loglog_slope_vs_N: -1.0",
                      "# detail: " + json.dumps(detail)]) + "\n"


def bias_csv(errors):
    rows = [f"{k},{2.0 ** -k!r},{4 ** k},0.25,2500,{e!r}" for k, e in enumerate(errors, 1)]
    return "\n".join(["# command: bias-scan", "k,eps_acc,N,h,steps,kde_rel_error",
                      *rows, "# loglog_slope_vs_eps_acc: 0.1"]) + "\n"


def contraction_csv(rho, factor):
    rows = [f"{k},{v!r},0.01" for k, v in enumerate(rho)]
    return "\n".join(["# command: contraction", "step,mean_rhoN,stderr", *rows,
                      f"# fitted_decay_factor: {factor!r}",
                      "# fitted_decay_factor_se: 0.001"]) + "\n"


def sample_csv(n_rows, bad_value=None, constants=True):
    rows = [f"{5 * i},0.1,-0.2" for i in range(n_rows)]
    if bad_value is not None:
        rows[-1] = f"{5 * (n_rows - 1)},{bad_value},0.3"
    footer = ['# constants: {"A": 1.0}'] if constants else []
    return "\n".join(["# command: sample", "step,x_1,x_2", *rows, *footer]) + "\n"


def test_chaos_gate_accepts_exact_values():
    assert gates.gate_chaos(chaos_csv(), n_list=(16, 64, 256)) == []
    assert gates.gate_chaos(chaos_csv(shift_var_se=3.9), n_list=(16, 64, 256)) == []
    assert gates.gate_chaos(chaos_csv(shift_mean_se=-3.9), n_list=(16, 64, 256)) == []


def test_chaos_estimator_bias_is_negative_and_shrinks_like_one_over_m():
    short = gates.chaos_estimator_bias(16, 200, 0.25, 1.0)
    long = gates.chaos_estimator_bias(16, 2000, 0.25, 1.0)
    for b_short, b_long in zip(short, long):
        assert b_short < b_long < 0
        assert b_short / b_long == pytest.approx(10.0, rel=0.05)


@pytest.mark.parametrize("kwargs", [{"shift_var_se": 10.0}, {"shift_var_se": -10.0},
                                    {"shift_mean_se": 10.0},
                                    {"shift_var_se": math.nan}])
def test_chaos_gate_rejects_shifted_estimates(kwargs):
    assert gates.gate_chaos(chaos_csv(**kwargs), n_list=(16, 64, 256))


def test_chaos_gate_rejects_missing_n_and_missing_footer():
    assert gates.gate_chaos(chaos_csv(n_list=(16, 64)), n_list=(16, 64, 256))
    for prefix in ("# detail", "# config"):
        text = "\n".join(line for line in chaos_csv().splitlines()
                         if not line.startswith(prefix))
        assert gates.gate_chaos(text, n_list=(16, 64, 256))


def test_kde_noise_floor_shrinks_with_sample_size():
    small, large = gates.kde_noise_floor(1000), gates.kde_noise_floor(16000)
    assert 0.0 < large < small < 0.2


def test_bias_gate():
    kept = 2250
    ok = gates.kde_noise_floor(kept)
    assert gates.gate_bias(bias_csv([ok, ok, ok]), k_max=3, kept=kept) == []
    assert gates.gate_bias(bias_csv([ok, ok]), k_max=3, kept=kept)
    assert gates.gate_bias(bias_csv([ok, 0.5, ok]), k_max=3, kept=kept)
    assert gates.gate_bias(bias_csv([ok, math.nan, ok]), k_max=3, kept=kept)
    assert gates.gate_bias(bias_csv([ok, math.inf, ok]), k_max=3, kept=kept)


def test_contraction_gate():
    rho = [1.0 * 0.9 ** k for k in range(51)]
    assert gates.gate_contraction(contraction_csv(rho, 0.9), steps=50) == []
    assert gates.gate_contraction(contraction_csv(rho, 1.02), steps=50)
    assert gates.gate_contraction(contraction_csv(rho, 0.0), steps=50)
    assert gates.gate_contraction(contraction_csv(rho[:-1] + [1.5], 0.9), steps=50)
    assert gates.gate_contraction(contraction_csv(rho[:40], 0.9), steps=50)


def test_sample_gate():
    assert gates.gate_sample(sample_csv(21), steps=100, thin=5) == []
    assert gates.gate_sample(sample_csv(20), steps=100, thin=5)
    assert gates.gate_sample(sample_csv(21, bad_value="nan"), steps=100, thin=5)
    assert gates.gate_sample(sample_csv(21, bad_value="inf"), steps=100, thin=5)
    assert gates.gate_sample(sample_csv(21, constants=False), steps=100, thin=5)


def test_gates_reject_unreadable_output():
    for gate, spec in ((gates.gate_chaos, {"n_list": (16,)}),
                       (gates.gate_bias, {"k_max": 1, "kept": 500}),
                       (gates.gate_contraction, {"steps": 1}),
                       (gates.gate_sample, {"steps": 1, "thin": 1})):
        assert gate("", **spec)
        assert gate("# only a comment\n", **spec)
