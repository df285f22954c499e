import numpy as np
import pytest

from meanfield_hmc import (compute_constants, experiments, gaussian_model,
                           max_admissible_T, multiwell_model)
from meanfield_hmc.experiments import (ConfigError, bias_scan, chaos_scan,
                                       contraction_experiment)
from meanfield_hmc.integrators import IntegrationDivergedError

from test_kernels import uhmc_variance_oracle


def test_bias_scan_single_replica_reproduces_the_single_chain_rows(monkeypatch):
    # the rows the one-chain design wrote for `bias-scan --k-max 2 --steps 120`
    monkeypatch.setattr(experiments, "_BIAS_REPLICAS", 1)
    result = bias_scan(k_max=2, steps=120)
    assert result.rows == [
        (1, 0.5, 4, 0.5, 120, 0.24077487322225144),
        (2, 0.25, 16, 0.3333333333333333, 120, 0.1969201922849852),
    ]


@pytest.mark.parametrize("steps, kept", [
    (120, 110),   # 10 replicas of 12 steps, 1 dropped from each
    (125, 115),   # 5 replicas of 25 steps, 2 dropped from each
    (111, 100),   # one chain of 111 steps, 11 dropped
])
def test_bias_scan_replicas_divide_any_step_count(steps, kept):
    result = bias_scan(k_max=1, steps=steps)
    assert result.rows[0][4] == steps
    assert result.detail[0]["kept"] == kept


def test_bias_scan_first_var_matches_discretized_chain_oracle():
    # In the eigenbasis of M = I - (eps/N) 11^T the chain is one 1-d linear
    # chain per mode: the mean mode with omega^2 = 1 - eps, the N - 1 others
    # with omega^2 = 1.  A coordinate's stationary variance is therefore
    # v(1 - eps)/N + (1 - 1/N) v(1), not the target value 1 + eps/(N(1 - eps)).
    eps, T = 0.25, 1.0
    result = bias_scan(k_max=2, steps=80_000, epsilon=eps, T=T)
    cases = [(row[2], row[3], d) for row, d in zip(result.rows, result.detail)]
    assert [(n, h) for n, h, _ in cases] == [(4, 0.5), (16, pytest.approx(1 / 3))]
    for n, h, d in cases:
        # 10 replicas of 8000 steps, the first 800 of each dropped
        assert d["kept"] == 72_000
        exact = (uhmc_variance_oracle(1.0 - eps, T, h) / n
                 + (1.0 - 1.0 / n) * uhmc_variance_oracle(1.0, T, h))
        assert d["first_var_se"] > 0
        assert abs(d["first_var"] - exact) < 4.0 * d["first_var_se"]


def test_chaos_scan_mean_coord_var_matches_exact_value():
    # the exact kernel keeps the stationary law N(0, M^-1), under which the
    # particle mean has variance 1/((1 - eps) N); the estimate takes it
    # about the known mean 0, so it is unbiased
    result = chaos_scan(N_list=(4, 16), m=400, replicas=200)
    assert [d["N"] for d in result.detail] == [4, 16]
    for d in result.detail:
        assert d["analytic_mean_coord_var"] == pytest.approx(1.0 / (0.75 * d["N"]))
        assert d["mean_coord_var_se"] > 0
        assert (abs(d["mean_coord_var"] - d["analytic_mean_coord_var"])
                < 4.0 * d["mean_coord_var_se"])


def test_chaos_scan_w1_strides_the_pooled_samples_down_to_the_cap(monkeypatch):
    # 160 pooled samples against a cap of 100; the rows are those the scan
    # gave when it applied the stride itself instead of wasserstein1_1d
    monkeypatch.setattr(experiments, "W1_SUBSAMPLE_CAP", 100)
    result = chaos_scan(N_list=(4,), m=40, replicas=4)
    assert result.rows == [
        (4, 0.07125593611423175, 0.33046240522409465, 0.2298932813520611)]


@pytest.mark.parametrize("kwargs", [dict(N_list=(1, 4)), dict(m=0),
                                    dict(replicas=1)])
def test_chaos_scan_rejects_bad_config(kwargs):
    with pytest.raises(ConfigError):
        chaos_scan(**{"N_list": (4,), "m": 2, "replicas": 2, **kwargs})


# --- contraction -------------------------------------------------------------

def test_contraction_experiment_zero_offset_stays_zero():
    result = contraction_experiment(gaussian_model(0.25), T=1.0, h=0.25, m=5,
                                    replicas=16, N=4, seed=17, offset=0.0)
    assert np.array_equal(result.mean_rho, np.zeros(6))


def test_contraction_experiment_divergence_names_the_kernel_step():
    # h = 2.5 is unstable for the harmonic force; the CLI prints the
    # condition warnings before the error, so the driver is called directly
    with pytest.raises(IntegrationDivergedError) as err:
        contraction_experiment(gaussian_model(0.25), T=2500.0, h=2.5, m=2,
                               replicas=4, N=8, seed=0)
    assert err.value.step_index == 0
    assert str(err.value) == "chain diverged at kernel step 0 (inner step 186)"


def test_contraction_experiment_strongly_convex_rate():
    # synchronous coupling, no interaction, L T^2 = 3/20
    m = gaussian_model(0.0)
    T = np.sqrt(0.15)
    result = contraction_experiment(m, T=T, h=T / 8, m=25, replicas=1000, N=4,
                                    seed=18, offset=1.0, synchronous=True)
    bound = 1.0 - m.constants.K * T**2 / 8.0
    assert result.decay_factor <= bound + 3.0 * result.decay_factor_se


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
    rho0 = result.mean_rho[0]
    for k in range(1, 21):
        envelope = tc.A * np.exp(-tc.c_uhmc * k) * rho0
        assert result.mean_rho[k] <= envelope + 3.0 * result.stderr[k]
    # the measured contraction: 0.99822 with SE 0.00017 at seed 19
    assert result.decay_factor + 4.0 * result.decay_factor_se < 1.0
