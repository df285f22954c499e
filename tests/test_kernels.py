import numpy as np
import pytest

from meanfield_hmc import (KernelParams, RngStream, compute_constants,
                           draw_initial_positions, gaussian_model,
                           multiwell_model, randomized_step_arrays, run_chain,
                           stationary_gaussian_sample_arrays, uhmc_step_arrays,
                           xhmc_step_gaussian_arrays)
from meanfield_hmc.integrators import IntegrationDivergedError


def uhmc_variance_oracle(omega2, T, h):
    """Exact stationary variance of the 1-d unadjusted chain with force
    -omega2*q, via the second-moment transfer matrix of the random
    one-step map (independent of the sampling code entirely)."""
    n = int(round(T / h))
    m0 = np.array([[1 - omega2 * h * h / 2, h], [-omega2 * h, 1.0]])
    m1 = np.array([[0.0, -omega2 * h**3 / 2], [0.0, -omega2 * h * h]])
    g = (np.kron(m0, m0) + 0.5 * (np.kron(m0, m1) + np.kron(m1, m0))
         + (1.0 / 3.0) * np.kron(m1, m1))
    gn = np.linalg.matrix_power(g, n)
    return gn[0, 3] / (1.0 - gn[0, 0])


def test_kernel_params_validation():
    with pytest.raises(ValueError):
        KernelParams(T=1.0, h=0.3)
    with pytest.raises(ValueError):
        KernelParams(T=1.0, h=0.25, thin=0)
    assert KernelParams(T=1.0, h=0.0).n_inner_steps == 0
    assert KernelParams(T=1.0, h=0.25).n_inner_steps == 4
    assert KernelParams(T=1.0, h=0.125).n_inner_steps == 8
    t = np.sqrt(0.15)
    assert KernelParams(T=t, h=t / 8).n_inner_steps == 8


def test_uhmc_single_inner_step_composition():
    # T = h: the kernel is a refresh followed by one randomized step
    m = gaussian_model(0.25)
    x = np.array([[0.2], [-0.8], [1.1]])
    params = KernelParams(T=0.5, h=0.5)
    out = uhmc_step_arrays(m, x, params, RngStream(13))
    s = RngStream(13)
    xi = s.normal_vector(3).reshape(3, 1)
    u = s.uniform()
    manual, _ = randomized_step_arrays(m, x, xi, 0.5, u)
    assert np.array_equal(out, manual)


def test_uhmc_seed_reproducibility():
    m = gaussian_model(0.25)
    x = np.zeros((5, 1))
    params = KernelParams(T=1.0, h=0.125)
    a = uhmc_step_arrays(m, x, params, RngStream(77))
    b = uhmc_step_arrays(m, x, params, RngStream(77))
    assert np.array_equal(a, b)


def test_uhmc_long_run_variance_matches_target():
    # decoupled single-particle chains on the standard normal target
    m = gaussian_model(0.0)
    params = KernelParams(T=1.0, h=1 / 32)
    stream = RngStream(101)
    chains = 8
    q = stream.normal_vector(chains).reshape(chains, 1, 1)
    samples = np.empty((10_000, chains))
    for k in range(10_000):
        q = uhmc_step_arrays(m, q, params, stream)
        samples[k] = q[:, 0, 0]
    variances = samples[500:].var(axis=0)
    assert np.all(np.abs(variances - 1.0) < 0.1)
    # and the pooled estimate agrees with the exact chain-variance oracle
    oracle = uhmc_variance_oracle(1.0, 1.0, 1 / 32)
    pooled = samples[500:].var()
    assert abs(pooled - oracle) < 0.01


def test_uhmc_stationary_bias_shrinks_with_step():
    # the exact chain-variance oracle gives the bias without sampling noise
    errors = [abs(uhmc_variance_oracle(1.0, 1.0, h) - 1.0)
              for h in (1 / 8, 1 / 16, 1 / 32)]
    assert errors[0] > errors[1] > errors[2]

    # empirical runs agree with the oracle and stay monotone within noise
    m = gaussian_model(0.0)
    stream = RngStream(303)
    measured = []
    ses = []
    for h in (1 / 8, 1 / 16, 1 / 32):
        params = KernelParams(T=1.0, h=h)
        chains = 48
        q = stream.normal_vector(chains).reshape(chains, 1, 1)
        acc = np.empty((3000, chains))
        for k in range(3300):
            q = uhmc_step_arrays(m, q, params, stream)
            if k >= 300:
                acc[k - 300] = q[:, 0, 0]
        per_chain = acc.var(axis=0)
        measured.append(abs(per_chain.mean() - 1.0))
        ses.append(per_chain.std(ddof=1) / np.sqrt(chains))
        oracle = uhmc_variance_oracle(1.0, 1.0, h)
        assert abs(per_chain.mean() - oracle) < 3 * ses[-1] + 1e-12
    assert measured[1] <= measured[0] + 2 * np.hypot(ses[0], ses[1])
    assert measured[2] <= measured[1] + 2 * np.hypot(ses[1], ses[2])


def test_xhmc_zero_duration_keeps_positions():
    x = np.array([0.4, -1.3, 0.9])
    out = xhmc_step_gaussian_arrays(0.25, x, 0.0, RngStream(1))
    assert np.allclose(out, x, atol=1e-15)


def test_xhmc_decoupled_case_is_exact_rotation():
    x = np.array([1.7])
    out = xhmc_step_gaussian_arrays(0.0, x, 1.0, RngStream(9))
    xi = RngStream(9).normal_vector(1)
    assert np.allclose(out, np.cos(1.0) * x + np.sin(1.0) * xi, atol=1e-14)


def test_xhmc_preserves_stationary_moments():
    # one exact step from a stationary start keeps both variance fingerprints
    eps, n_part, reps = 0.25, 16, 4000
    stream = RngStream(55)
    q = stationary_gaussian_sample_arrays(eps, (reps, n_part), stream)
    q = xhmc_step_gaussian_arrays(eps, q, 1.0, stream)
    coord_var = q.var(ddof=1)
    mean_var = q.mean(axis=1).var(ddof=1)
    target_coord = 1.0 + eps / (n_part * (1.0 - eps))
    target_mean = 1.0 / ((1.0 - eps) * n_part)
    assert abs(coord_var - target_coord) < 0.02
    assert abs(mean_var - target_mean) < 0.01


def test_stationary_sample_zero_interaction_is_raw_normal():
    a = stationary_gaussian_sample_arrays(0.0, (32,), RngStream(3))
    b = RngStream(3).normal_vector(32)
    assert np.array_equal(a, b)


def test_stationary_sample_covariance_fingerprint():
    eps, n_part = 0.25, 16
    draws = stationary_gaussian_sample_arrays(eps, (100_000, n_part), RngStream(8))
    mean_dir_var = draws.mean(axis=1).var(ddof=1) * n_part
    assert abs(mean_dir_var - 1.0 / (1.0 - eps)) < 0.05 * (1.0 / (1.0 - eps))
    coord_var = draws[:, 0].var(ddof=1)
    target = 1.0 + eps / (n_part * (1.0 - eps))
    assert abs(coord_var - target) < 0.02
    with pytest.raises(ValueError):
        stationary_gaussian_sample_arrays(1.0, (4,), RngStream(8))


def test_draw_initial_positions_modes():
    m = gaussian_model(0.25)
    assert np.array_equal(draw_initial_positions(m, 4, "cold", RngStream(0)),
                          np.zeros((4, 1)))
    normal = draw_initial_positions(m, 4, "normal", RngStream(0))
    assert normal.shape == (4, 1)
    stat = draw_initial_positions(m, 4, "stationary", RngStream(0))
    assert stat.shape == (4, 1)
    with pytest.raises(ValueError):
        draw_initial_positions(m, 4, "warm", RngStream(0))
    with pytest.raises(ValueError):
        draw_initial_positions(multiwell_model(1.0), 4, "stationary", RngStream(0))


def test_run_chain_single_step_equals_kernel():
    m = gaussian_model(0.25)
    x0 = np.full((3, 1), 0.5)
    params = KernelParams(T=1.0, h=0.25)
    out = run_chain(m, x0, 1, params, RngStream(21))
    direct = uhmc_step_arrays(m, x0, params, RngStream(21))
    assert out.shape == (2, 3, 1)
    assert np.array_equal(out[-1], direct)


def test_run_chain_exact_kernel_equals_direct_steps():
    x0 = np.linspace(-1.0, 1.0, 6)[:, None]
    out = run_chain(gaussian_model(0.25), x0, 5, KernelParams(T=1.0, h=0.0),
                    RngStream(22))
    stream = RngStream(22)
    q = x0[:, 0]
    for k in range(1, 6):
        q = xhmc_step_gaussian_arrays(0.25, q, 1.0, stream)
        assert np.array_equal(out[k, :, 0], q)


def test_run_chain_thinning_count():
    m = gaussian_model(0.25)
    out = run_chain(m, np.zeros((2, 1)), 100,
                    KernelParams(T=1.0, h=0.5, thin=10), RngStream(2))
    assert out.shape == (11, 2, 1)


def test_run_chain_determinism():
    m = gaussian_model(0.25)
    params = KernelParams(T=1.0, h=0.25)
    a = run_chain(m, np.zeros((4, 1)), 20, params, RngStream(6))
    b = run_chain(m, np.zeros((4, 1)), 20, params, RngStream(6))
    assert np.array_equal(a, b)


def test_run_chain_divergence_names_kernel_and_inner_step():
    # h = 2.5 is unstable for the unit harmonic force; the step indices
    # were read from the step-by-step reference loop
    with pytest.raises(IntegrationDivergedError) as err:
        run_chain(gaussian_model(0.0), np.ones((4, 1)), 100,
                  KernelParams(T=50.0, h=2.5), RngStream(3))
    assert err.value.step_index == 9
    assert str(err.value) == "chain diverged at kernel step 9 (inner step 8)"


def test_run_chain_kernel_validation():
    m = gaussian_model(0.25)
    params = KernelParams(T=1.0, h=0.25)
    with pytest.raises(ValueError):
        run_chain(m, np.zeros((2, 1)), 0, params, RngStream(0))
    with pytest.raises(ValueError):
        run_chain(multiwell_model(1.0), np.zeros((2, 1)), 5,
                  KernelParams(T=1.0, h=0.0), RngStream(0))


def test_chain_second_moments_respect_uniform_bound():
    # replica-averaged per-step second moments stay under the closed-form
    # bound evaluated at the stationary initial second moment
    eps, n_part, reps, steps, T = 0.25, 16, 200, 200, 0.4
    m = gaussian_model(eps)
    m2_init = 1.0 + eps / (n_part * (1.0 - eps))
    tc = compute_constants(m, T, m2_init=m2_init)
    assert tc.conditions["cond_T_moment"].passed
    assert tc.conditions["cond_eps_moment"].passed
    stream = RngStream(99)
    q = stationary_gaussian_sample_arrays(eps, (reps, n_part), stream)
    for _ in range(steps):
        q = xhmc_step_gaussian_arrays(eps, q, T, stream)
        step_moment = (q * q).mean(axis=1).mean()
        assert step_moment <= tc.B2
