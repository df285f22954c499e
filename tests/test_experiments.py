import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from meanfield_hmc import (CouplingParams, RngStream, __version__, compute_constants,
                           coupled_uhmc_step, couplings, experiments,
                           gaussian_model, max_admissible_T, metric_f,
                           multiwell_model, rho_N, run_chain)
from meanfield_hmc.couplings import CoupleResult
from meanfield_hmc.experiments import (Report, bias_scan, chaos_scan,
                                       contraction_experiment, order_check,
                                       write_csv)
from meanfield_hmc.integrators import IntegrationDivergedError
from meanfield_hmc.statistics import KDE_MIN_SAMPLES

from conftest import harmonic_step_maps
from test_kernels import uhmc_variance_oracle


def test_bias_scan_single_replica_reproduces_the_single_chain_rows(monkeypatch):
    # the rows the one-chain design wrote for `bias-scan --k-max 2 --steps 120`
    monkeypatch.setattr(experiments, "_BIAS_MAX_REPLICAS", 1)
    result = bias_scan(k_max=2, steps=120)
    assert [d["replicas"] for d in result.footer["detail"]] == [1, 1]
    assert result.rows == [
        (1, 0.5, 4, 0.5, 120, 0.24077487322225144),
        (2, 0.25, 16, 0.3333333333333333, 120, 0.1969201922849852),
    ]


@pytest.mark.parametrize("steps, kept", [
    (120, 108),   # 6 replicas of 20 steps, 2 dropped from each
    (125, 115),   # 5 replicas of 25 steps, 2 dropped from each
    (111, 100),   # 3 replicas of 37 keep 99, so one chain of 111, 11 dropped
])
def test_bias_scan_replicas_divide_any_step_count(steps, kept):
    result = bias_scan(k_max=1, steps=steps)
    assert result.rows[0][4] == steps
    assert steps % result.footer["detail"][0]["replicas"] == 0
    assert result.footer["detail"][0]["kept"] == kept


BURN_INS = (0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.9)


def test_json_safe_nulls_non_finite_floats_at_any_depth():
    nan, inf = float("nan"), float("inf")
    value = {"a": [1, {"b": nan, "c": (inf, -inf, 2.5)}], "d": np.float64(nan),
             "e": "x", "f": None, "g": True, "h": 0.5}
    want = {"a": [1, {"b": None, "c": [None, None, 2.5]}], "d": None,
            "e": "x", "f": None, "g": True, "h": 0.5}
    assert experiments.json_safe(value) == want
    assert experiments.config_json(value) == (
        '{"a":[1,{"b":null,"c":[null,null,2.5]}],"d":null,"e":"x","f":null,"g":true,"h":0.5}')


def test_slope_is_the_least_squares_slope_of_the_logs():
    assert math.isnan(experiments._slope([1.0, 2.0], [1.0, 0.5]))
    assert math.isnan(experiments._slope([1.0, 2.0, 4.0], [1.0, 0.0, 0.25]))
    assert math.isnan(experiments._slope([16, 16, 16], [0.1, 0.2, 0.3]))
    assert experiments._slope([1.0, 2.0, 4.0], [3.0, 1.5, 0.75]) == pytest.approx(-1.0)
    xs, ys = [4, 16, 64, 256], [0.3, 0.07, 0.02, 0.004]
    assert experiments._slope(xs, ys) == np.polyfit(np.log(xs), np.log(ys), 1)[0]


def _kept(steps, replicas, burn_in):
    per = steps // replicas
    return replicas * (per - int(round(burn_in * per)))


def test_bias_replica_rule_over_step_counts_and_burn_ins():
    # R divides steps, leaves each replica at least 20 steps (one chain
    # below that), is at most 1000 and keeps enough samples; no wider such
    # divisor keeps enough.  Otherwise the rule raises ValueError.
    for steps in range(10, 5001):
        cap = max(1, min(1000, steps // 20))
        admissible = [r for r in range(1, cap + 1) if steps % r == 0]
        for burn_in in BURN_INS:
            enough = [r for r in admissible
                      if _kept(steps, r, burn_in) >= KDE_MIN_SAMPLES]
            if not enough:
                with pytest.raises(ValueError, match=(
                        f"--steps {steps} with --burn-in {burn_in} keeps .* samples "
                        f"per k; the density estimate needs at least {KDE_MIN_SAMPLES}")):
                    experiments._bias_replicas(steps, burn_in)
                continue
            replicas, per, burn = experiments._bias_replicas(steps, burn_in)
            assert replicas == max(enough) and replicas * per == steps
            assert burn == int(round(burn_in * per))
            assert replicas * (per - burn) >= KDE_MIN_SAMPLES


def test_bias_replica_rule_rejects_two_pairs_the_gcd_rule_accepted():
    # the former rule ran gcd(steps, 10) replicas
    lost = set()
    for steps in range(10, 5001):
        for burn_in in BURN_INS:
            if _kept(steps, math.gcd(steps, 10), burn_in) < KDE_MIN_SAMPLES:
                continue
            try:
                experiments._bias_replicas(steps, burn_in)
            except ValueError:
                lost.add((steps, burn_in))
    assert lost == {(100, 0.05), (120, 0.2)}


def test_bias_scan_at_the_benchmark_size_keeps_2250_samples_per_k():
    # 125 replicas of 20 steps, 2 dropped from each
    result = bias_scan(k_max=3, steps=2500)
    assert [(d["replicas"], d["kept"]) for d in result.footer["detail"]] == [(125, 2250)] * 3


def _first_var_oracle(eps, T, n, h):
    # In the eigenbasis of M = I - (eps/N) 11^T the chain is one 1-d linear
    # chain per mode: the mean mode with omega^2 = 1 - eps, the N - 1 others
    # with omega^2 = 1.  A coordinate's stationary variance is therefore
    # v(1 - eps)/N + (1 - 1/N) v(1), not the target value 1 + eps/(N(1 - eps)).
    return (uhmc_variance_oracle(1.0 - eps, T, h) / n
            + (1.0 - 1.0 / n) * uhmc_variance_oracle(1.0, T, h))


def _check_first_var(result, eps, T, per, kept):
    for row, d in zip(result.rows, result.footer["detail"]):
        n, h = row[2], row[3]
        assert d["replicas"] * per == row[4] and d["kept"] == kept
        assert d["first_var_se"] > 0
        assert (abs(d["first_var"] - _first_var_oracle(eps, T, n, h))
                < 4.0 * d["first_var_se"])


def test_bias_scan_first_var_matches_discretized_chain_oracle():
    eps, T = 0.25, 1.0
    result = bias_scan(k_max=2, steps=80_000, epsilon=eps, T=T)
    assert [(row[2], row[3]) for row in result.rows] == [(4, 0.5), (16, pytest.approx(1 / 3))]
    # 1000 replicas of 80 steps, the first 8 of each dropped
    _check_first_var(result, eps, T, per=80, kept=72_000)


def test_bias_scan_first_var_matches_oracle_on_benchmark_length_replicas():
    # 1000 replicas of 20 steps, the benchmark's length, 2 dropped from each
    eps, T = 0.25, 1.0
    result = bias_scan(k_max=3, steps=20_000, epsilon=eps, T=T)
    assert [row[2] for row in result.rows] == [4, 16, 64]
    _check_first_var(result, eps, T, per=20, kept=18_000)


def test_chaos_scan_mean_coord_var_matches_exact_value():
    # the exact kernel keeps the stationary law N(0, M^-1), under which the
    # particle mean has variance 1/((1 - eps) N); the estimate takes it
    # about the known mean 0, so it is unbiased
    result = chaos_scan(N_list=(4, 16), m=400, replicas=200)
    assert [d["N"] for d in result.footer["detail"]] == [4, 16]
    for d in result.footer["detail"]:
        assert d["analytic_mean_coord_var"] == pytest.approx(1.0 / (0.75 * d["N"]))
        assert d["mean_coord_var_se"] > 0
        assert (abs(d["mean_coord_var"] - d["analytic_mean_coord_var"])
                < 4.0 * d["mean_coord_var_se"])


def test_chaos_scan_var_hat_matches_exact_value():
    # short chains over many replicas: taken about the pooled mean instead
    # of the known mean 0, the variance read 10 to 15 SE low here
    d, = chaos_scan(N_list=(4,), m=20, replicas=2000).footer["detail"]
    assert d["analytic_var"] == pytest.approx(1.0 + 0.25 / (0.75 * 4))
    assert d["var_se"] > 0
    assert abs(d["var_hat"] - d["analytic_var"]) < 4.0 * d["var_se"]


def test_chaos_scan_draws_only_the_start_and_the_velocities(monkeypatch):
    # the W1 reference is the normal's quantiles, so after the chain's
    # (m + 1) * replicas * N variates the scan draws none
    streams = []
    start = experiments.draw_initial_positions

    def recording_start(model, shape, init, stream):
        streams.append(stream)
        return start(model, shape, init, stream)

    monkeypatch.setattr(experiments, "draw_initial_positions", recording_start)
    chaos_scan(N_list=(4, 8), m=5, replicas=3)
    assert [s.counter for s in streams] == [6 * 3 * 4, 6 * 3 * 8]


@pytest.mark.parametrize("kwargs", [dict(N_list=(1, 4)), dict(m=0),
                                    dict(replicas=1)])
def test_chaos_scan_rejects_bad_config(kwargs):
    message = {"N_list": "N must be at least 2, got 1",
               "m": "steps must be a positive integer, got 0",
               "replicas": "replicas must be at least 2, got 1"}[next(iter(kwargs))]
    with pytest.raises(ValueError, match=message):
        chaos_scan(**{"N_list": (4,), "m": 2, "replicas": 2, **kwargs})


def test_bias_scan_rejects_an_unknown_h_rule():
    # argparse's choices keep such a rule from the CLI
    with pytest.raises(ValueError, match="h rule must be one of"):
        bias_scan(k_max=1, steps=120, h_rule="bogus")


def test_order_check_rejects_an_empty_h_list():
    # as the CLI's list parser does, so the plot always has a point
    with pytest.raises(ValueError, match="h_list names no step sizes"):
        order_check(h_list=())


# --- contraction -------------------------------------------------------------

def test_contraction_experiment_zero_offset_stays_zero():
    result = contraction_experiment(gaussian_model(0.25), T=1.0, h=0.25, m=5,
                                    replicas=16, N=4, seed=17, offset=0.0)
    assert [row[1] for row in result.rows] == [0.0] * 6


def test_contraction_experiment_divergence_names_the_kernel_step():
    # h = 2.5 is unstable for the harmonic force; the CLI prints the
    # condition warnings before the error, so the driver is called directly
    with pytest.raises(IntegrationDivergedError) as err:
        contraction_experiment(gaussian_model(0.25), T=2500.0, h=2.5, m=2,
                               replicas=4, N=8, seed=0)
    assert err.value.step_index == 0 and err.value.replica == 2
    assert str(err.value) == "chain diverged at kernel step 0 (inner step 186, replica 2)"


def test_synchronous_contraction_is_the_coupling_at_zero_radius():
    # every pair is at or beyond R_tilde = 0, so the coupled step draws xi,
    # the acceptance uniforms and the flow's uniforms and hands xi to both
    # copies; the metric keeps the model's R1
    model = multiwell_model(2.0, 2, 0.1, "quadratic")
    T, h, m, replicas, N, seed, offset = 0.5, 0.125, 6, 8, 4, 3, 0.7
    result = contraction_experiment(model, T=T, h=h, m=m, replicas=replicas, N=N,
                                    seed=seed, offset=offset, synchronous=True)
    assert result.config["synchronous"] is True
    cp, R1, stream = CouplingParams(0.0, T), compute_constants(model, T).R1, RngStream(seed)
    x = stream.normal_vector((replicas, N, model.dim))
    rho = run_chain(lambda pair: coupled_uhmc_step(model, *pair, h, cp, stream),
                    (x, x + offset), m, lambda pair: rho_N(*pair, R1, T))
    rows = np.array(result.rows)
    assert np.array_equal(rows[:, 0], np.arange(m + 1))
    assert np.array_equal(rows[:, 1], rho.mean(axis=1))
    assert np.array_equal(rows[:, 2], rho.std(axis=1, ddof=1) / np.sqrt(replicas))


def _assert_matches_the_mean_mode_oracle(result, eps):
    # synchronous velocities and an offset along 1 keep every particle's
    # difference equal, so it follows the mean mode (omega^2 = 1 - eps) and
    # returns to zero velocity at each refresh: after k kernel steps it is
    # a_1 ... a_k offset with a = [M(u_n) ... M(u_1)]_00, M(u) = M0 + u M1
    T, h, m, offset = (result.config[key] for key in ("T", "h", "m", "offset"))
    m0, m1 = harmonic_step_maps(1.0 - eps, h)
    u = np.random.default_rng(5).random((20_000, m, round(T / h)))
    diff = np.array([1.0, 0.0])
    for j in range(u.shape[-1]):
        diff = np.einsum("...ij,...j->...i", m0 + u[..., j, None, None] * m1, diff)
    r = np.abs(np.cumprod(diff[..., 0], axis=1)) * offset
    R1 = compute_constants(gaussian_model(eps), T).R1
    rho = metric_f(r, R1, T)
    oracle = rho.mean(axis=0)
    oracle_se = rho.std(axis=0, ddof=1) / np.sqrt(len(rho))
    rows = np.array(result.rows)
    assert rows[0, 1] == pytest.approx(metric_f(offset, R1, T), rel=1e-12)
    z = (rows[1:, 1] - oracle) / np.hypot(rows[1:, 2], oracle_se)
    assert np.all(np.abs(z) <= 4.0), z


def test_contraction_experiment_matches_the_mean_mode_oracle():
    result = contraction_experiment(gaussian_model(0.25), T=1.0, h=0.25, m=10,
                                    replicas=2000, N=4, offset=1.0, synchronous=True)
    _assert_matches_the_mean_mode_oracle(result, 0.25)


def test_contraction_at_its_defaults_matches_the_mean_mode_oracle():
    # what a bare `contraction` runs; R_tilde = 0 on gaussian, so the
    # reflection coupling there is the synchronous one
    model = gaussian_model(0.25)
    result = contraction_experiment(model)
    assert result.config["synchronous"] is False
    assert compute_constants(model, result.config["T"]).R_tilde == 0.0
    _assert_matches_the_mean_mode_oracle(result, 0.25)


def test_contraction_experiment_strongly_convex_rate():
    # synchronous coupling, no interaction, L T^2 = 3/20
    m = gaussian_model(0.0)
    T = np.sqrt(0.15)
    result = contraction_experiment(m, T=T, h=T / 8, m=25, replicas=1000, N=4,
                                    seed=18, offset=1.0, synchronous=True)
    bound = 1.0 - m.constants.K * T**2 / 8.0
    assert (result.footer["fitted_decay_factor"]
            <= bound + 3.0 * result.footer["fitted_decay_factor_se"])


def test_contraction_experiment_multiwell_theory_envelope():
    # weakly multi-well so the envelope constant A stays representable.  An
    # offset of T keeps the pairs in the curved part of the metric; an offset
    # of 1 puts them where it is nearly flat, so rho_N barely moves.
    mw = multiwell_model(0.05)
    T = max_admissible_T(mw, "uhmc")
    tc = compute_constants(mw, T)
    result = contraction_experiment(mw, T=T, h=T / 4, m=20, replicas=400, N=4,
                                    seed=19, offset=T)
    # the paper's envelope A e^(-c k) is vacuous here (A = 4.8e33,
    # c = 3e-33) but is the statement of the theorem, so it stays
    rho0 = result.rows[0][1]
    for k, mean_rho, stderr in result.rows[1:]:
        envelope = tc.A * np.exp(-tc.c_uhmc * k) * rho0
        assert mean_rho <= envelope + 3.0 * stderr
    # the measured contraction: 0.99822 with SE 0.00017 at seed 19
    footer = result.footer
    assert footer["fitted_decay_factor"] + 4.0 * footer["fitted_decay_factor_se"] < 1.0


def _multiwell_contraction(eps):
    # a = 5 with a quadratic interaction: the symmetric stationary law of
    # nHMC is unique below eps_c = 2.344 (1-d quadrature) and gives way to
    # two asymmetric ones above it, so no contraction is uniform in N there
    result = contraction_experiment(multiwell_model(5.0, epsilon=eps, interaction="quadratic"),
                                    T=1.0, h=0.25, m=60, replicas=200, N=128, offset=1.5)
    return (result.footer["fitted_decay_factor"], result.footer["fitted_decay_factor_se"],
            result.rows[20][1:], result.rows[60][1:])


def test_contraction_contracts_below_the_critical_interaction():
    # eps = 1: factor 0.838 +- 0.007 and step 60 20 SE below step 20 at
    # seed 0 (0.830-0.853 and 17.7-20.5 SE over seeds 0-5).  c_uhmc is
    # about 3e-10 here, so no theory bound is asserted.
    factor, se, (rho20, se20), (rho60, _) = _multiwell_contraction(1.0)
    assert factor + 4.0 * se < 0.9
    assert rho60 < rho20 - 10.0 * se20


def test_contraction_stalls_above_the_critical_interaction():
    # eps = 5: pairs that fell into opposite wells stop contracting; factor
    # 0.995 +- 0.001 and |z| = 0.53 between steps 20 and 60 at seed 0
    factor, se, (rho20, se20), (rho60, se60) = _multiwell_contraction(5.0)
    assert abs(rho60 - rho20) <= 4.0 * np.hypot(se20, se60)
    assert factor - 4.0 * se > 0.98


def _contraction_inside_the_uhmc_region():
    # eps = 2e-4, T = 0.25: the uHMC conditions hold (cond_CT at 0.56 of
    # its bound, cond_Cepsi at 0.71), so the theorem's one-step contraction
    # E rho_N' <= (1 - c_uhmc) rho_N applies to the coupling; cond_eps, the
    # nHMC condition, does not hold here.  An offset of order T keeps the
    # pairs where the metric is curved: at offset 1 an uncoupled copy also
    # stays under the bound.
    model = gaussian_model(2e-4)
    tc = compute_constants(model, 0.25)
    assert tc.conditions["cond_CT"].passed and tc.conditions["cond_Cepsi"].passed
    assert tc.c_uhmc == pytest.approx(4.0056e-4, rel=1e-4)
    result = contraction_experiment(model, T=0.25, h=0.0625, m=40, replicas=400,
                                    N=8, offset=0.25)
    rows = np.array(result.rows)
    bound = (1.0 - result.footer["c_uhmc"]) ** rows[:, 0] * rows[0, 1]
    return rows[:, 1] - (bound + 4.0 * rows[:, 2])


def test_contraction_experiment_keeps_the_theorem_rate():
    # the fitted factor reads 0.9766 per step against 1 - c_uhmc = 0.9996
    assert np.all(_contraction_inside_the_uhmc_region() <= 0.0)


def test_contraction_bound_fails_without_the_velocity_coupling(monkeypatch):
    # eta drawn independently of xi: the pairs drift apart, about 60 SE
    # above the bound
    couple = couplings.couple_velocities_batch

    def independent(z, cp, stream):
        res = couple(z, cp, stream)
        return CoupleResult(xi=res.xi, eta=stream.normal_vector(res.xi.shape),
                            synchronous=res.synchronous,
                            coalescing=np.zeros_like(res.coalescing))

    monkeypatch.setattr(couplings, "couple_velocities_batch", independent)
    assert np.any(_contraction_inside_the_uhmc_region() > 0.0)


# --- the CSV writer ---------------------------------------------------------

_EDGE_FLOATS = st.sampled_from(
    [-0.0, math.inf, -math.inf, math.nan, 5e-324, 1.7976931348623157e308])
_FLOATS = st.floats() | _EDGE_FLOATS
_ROW_VALUES = (st.integers() | st.integers(-2**63, 2**63 - 1).map(np.int64)
               | st.integers(0, 2**32 - 1).map(np.uint32)
               | _FLOATS | _FLOATS.map(np.float64))
_KEYS = st.text("abcxyz_", min_size=1, max_size=4)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | _FLOATS | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS, inner, max_size=3),
    max_leaves=8)
_FOOTER_VALUES = (_FLOATS | st.integers() | st.text(max_size=4)
                  | st.lists(_JSON_VALUES, max_size=3)
                  | st.dictionaries(_KEYS, _JSON_VALUES, max_size=3))


def _nulled(value):
    # JSON null for every non-finite float, at any depth
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _nulled(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_nulled(v) for v in value]
    return value


def _compact_sorted_json(value):
    return json.dumps(_nulled(value), sort_keys=True, separators=(",", ":"))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(st.lists(_ROW_VALUES, max_size=6), max_size=4),
       config=st.dictionaries(_KEYS, _JSON_VALUES, max_size=3),
       footer=st.dictionaries(_KEYS, _FOOTER_VALUES, max_size=3),
       seed=st.integers(0, 2**64 - 1))
def test_write_csv_text(tmp_path, rows, config, footer, seed):
    path = tmp_path / "out.csv"
    report = Report(("step", "x_1"), [tuple(r) for r in rows], config, footer, {})
    write_csv(path, report, "sample", seed)
    lines = path.read_bytes().decode("utf-8").split("\n")
    assert lines.pop() == ""
    assert lines[:5] == [f"# meanfield-hmc {__version__}", "# command: sample",
                         f"# seed: {seed}", "# config: " + _compact_sorted_json(config),
                         "step,x_1"]
    # an integer as str(int(v)), any other value as repr(float(v))
    cells = [",".join(str(int(v)) if isinstance(v, (int, np.integer)) else repr(float(v))
                      for v in row) for row in rows]
    assert lines[5:5 + len(rows)] == cells
    notes = [f"# {key}: " + (_compact_sorted_json(value) if isinstance(value, (dict, list))
                             else repr(value)) for key, value in footer.items()]
    assert lines[5 + len(rows):] == notes
