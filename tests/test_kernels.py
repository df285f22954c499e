import numpy as np
import pytest

from meanfield_hmc import (RngStream, compute_constants,
                           draw_initial_positions, gaussian_model,
                           lockstep_flow_arrays, multiwell_model,
                           randomized_step_arrays, run_chain, uhmc_step_arrays,
                           xhmc_step_gaussian_arrays)
from meanfield_hmc.integrators import (_MAX_INNER_STEPS, IntegrationDivergedError,
                                      _check_duration, _integral_steps,
                                      _snap_step_size)

from conftest import harmonic_step_maps


def uhmc_variance_oracle(omega2, T, h):
    """Exact stationary variance of the 1-d unadjusted chain with force
    -omega2*q, via the second-moment transfer matrix of the random
    one-step map (independent of the sampling code entirely)."""
    n = int(round(T / h))
    m0, m1 = harmonic_step_maps(omega2, h)
    g = (np.kron(m0, m0) + 0.5 * (np.kron(m0, m1) + np.kron(m1, m0))
         + (1.0 / 3.0) * np.kron(m1, m1))
    gn = np.linalg.matrix_power(g, n)
    return gn[0, 3] / (1.0 - gn[0, 0])


def test_kernel_params_validation():
    # the one rule for a kernel's duration T and step size h
    for T in (0.0, -1.0, np.nan, np.inf):
        message = f"T must be finite and positive, got T={T}"
        for check in (_check_duration, lambda T: _integral_steps(T, 0.25)):
            with pytest.raises(ValueError) as err:
                check(T)
            assert str(err.value) == message
    for h, message in ((0.0, "h must be finite and positive, got h=0.0"),
                       (-0.25, "h must be finite and positive, got h=-0.25"),
                       (np.nan, "h must be finite and positive, got h=nan"),
                       (np.inf, "h must be finite and positive, got h=inf"),
                       (0.3, "T/h must be a positive integer, got T=1.0, h=0.3"),
                       # T/h overflows to inf
                       (1e-320, "T/h must be a positive integer, got T=1.0, h=1e-320")):
        with pytest.raises(ValueError) as err:
            _integral_steps(1.0, h)
        assert str(err.value) == message
    # accepted: T/h integral up to rounding
    t = np.sqrt(0.15)
    for T, h, n in ((1.0, 0.25, 4), (1.0, 0.125, 8), (t, t / 8, 8)):
        _check_duration(T)
        assert _integral_steps(T, h) == n


def test_inner_step_count_is_bounded():
    # checked after the other rules, so their messages stand; a snapped
    # step size is a checked one
    assert _MAX_INNER_STEPS == 2**20
    h = 1.0 / _MAX_INNER_STEPS
    assert _integral_steps(1.0, h) == _MAX_INNER_STEPS
    assert _snap_step_size(1.0, h) == h
    for T, h in ((1.0, 1.0 / (_MAX_INNER_STEPS + 1)), (1.0, 1e-9), (2048.0, 1e-3)):
        for check in (_integral_steps, _snap_step_size):
            with pytest.raises(ValueError) as err:
                check(T, h)
            assert str(err.value) == (f"T/h must be at most the inner-step limit "
                                      f"1048576, got T={T}, h={h}")
    with pytest.raises(ValueError, match="T/h must be a positive integer"):
        _integral_steps(1.0, 1.0 / (_MAX_INNER_STEPS + 0.5))


def test_snap_step_size():
    # the largest h <= h_raw with T/h integral, T itself for any h_raw >= T
    for h_raw, h in ((0.25, 0.25), (0.3, 0.25), (0.2, 1 / 5), (1.0, 1.0), (1e13, 1.0)):
        assert _snap_step_size(1.0, h_raw) == h
    with pytest.raises(ValueError, match="h must be finite and positive, got h=inf"):
        _snap_step_size(1.0, np.inf)
    with pytest.raises(ValueError, match="T must be finite and positive, got T=nan"):
        _snap_step_size(np.nan, 0.25)


def test_uhmc_single_inner_step_composition():
    # T = h: the kernel is a refresh followed by one randomized step
    m = gaussian_model(0.25)
    x = np.array([[0.2], [-0.8], [1.1]])
    T, h = 0.5, 0.5
    out = uhmc_step_arrays(m, x, T, h, RngStream(13))
    s = RngStream(13)
    xi = s.normal_vector((3, 1))
    u = s.uniforms(1)[0]
    manual, _ = randomized_step_arrays(m, x, xi, 0.5, u)
    assert np.array_equal(out, manual)


def test_uhmc_seed_reproducibility():
    m = gaussian_model(0.25)
    x = np.zeros((5, 1))
    T, h = 1.0, 0.125
    a = uhmc_step_arrays(m, x, T, h, RngStream(77))
    b = uhmc_step_arrays(m, x, T, h, RngStream(77))
    assert np.array_equal(a, b)


def test_uhmc_long_run_variance_matches_target():
    # decoupled single-particle chains on the standard normal target
    m = gaussian_model(0.0)
    T, h = 1.0, 1 / 32
    stream = RngStream(101)
    chains = 8
    q = stream.normal_vector((chains, 1, 1))
    samples = np.empty((10_000, chains))
    for k in range(10_000):
        q = uhmc_step_arrays(m, q, T, h, stream)
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
        chains = 48
        q = stream.normal_vector((chains, 1, 1))
        acc = np.empty((3000, chains))
        for k in range(3300):
            q = uhmc_step_arrays(m, q, 1.0, h, stream)
            if k >= 300:
                acc[k - 300] = q[:, 0, 0]
        per_chain = acc.var(axis=0)
        measured.append(abs(per_chain.mean() - 1.0))
        ses.append(per_chain.std(ddof=1) / np.sqrt(chains))
        oracle = uhmc_variance_oracle(1.0, 1.0, h)
        assert abs(per_chain.mean() - oracle) < 3 * ses[-1] + 1e-12
    assert measured[1] <= measured[0] + 2 * np.hypot(ses[0], ses[1])
    assert measured[2] <= measured[1] + 2 * np.hypot(ses[1], ses[2])


def _virial_deviation(model, q, h, stream):
    # per replica, the mean over the 100 states after 30 burn-in kernel
    # steps of (1/(N d)) sum_i x^i . grad_i U(x), minus 1: its expectation
    # is 0 under the exact chain (Stein's identity with g(x) = x)
    N, d = q.shape[-2:]
    virial = run_chain(lambda q: uhmc_step_arrays(model, q, 1.0, h, stream), q, 130,
                       lambda q: (q * model.grad_U_all(q)).sum(axis=(-2, -1)) / (N * d))
    per_replica = virial[31:].mean(axis=0) - 1.0
    return per_replica.mean(), per_replica.std(ddof=1) / np.sqrt(len(per_replica))


@pytest.mark.parametrize("h, exact", [(1 / 2, -0.05775), (1 / 4, -0.01490)])
def test_uhmc_virial_deviation_matches_the_exact_chain(h, exact):
    # x . grad U is the sum over modes of omega^2 y^2: N - 1 modes at
    # omega^2 = 1 and the mean mode at 1 - eps, each with the uHMC
    # stationary variance v(omega^2)
    eps, N = 0.25, 16
    v = lambda omega2: uhmc_variance_oracle(omega2, 1.0, h)
    oracle = ((N - 1) * (v(1.0) - 1.0) + ((1.0 - eps) * v(1.0 - eps) - 1.0)) / N
    assert oracle == pytest.approx(exact, abs=5e-6)
    model, stream = gaussian_model(eps), RngStream(0)
    q = draw_initial_positions(model, (400, N), "stationary", stream)
    dev, se = _virial_deviation(model, q, h, stream)
    assert abs(dev - oracle) <= 4.0 * se, (dev, se)


def test_uhmc_virial_deviation_sees_the_multiwell_bias():
    # the check has power: 32 SE below 0 at seed 0 (29-36 SE over seeds 0-9)
    model = multiwell_model(2.0, epsilon=0.1, interaction="quadratic")
    stream = RngStream(0)
    dev, se = _virial_deviation(model, stream.normal_vector((400, 16, 1)), 1 / 2, stream)
    assert dev < -10.0 * se, (dev, se)


def _second_moment_averages(model, T, groups, width, burn, steps, stream):
    """Per replica, the time average over ``steps`` kernel steps after
    ``burn`` of Y = (1/N) sum_i q_i^2 for every system of ``groups``.

    ``groups`` lists (h, starts, slices): the systems of one group start
    at ``starts``, (R, N, 1) arrays, and run one lockstep flow at step
    size h, so they share its uniforms, which each group draws for itself.
    Each kernel step draws one (R, width, 1) velocity refresh, and each
    system takes its slice along the particle axis.  Returns one (systems,
    R) array per group."""
    R = len(groups[0][1][0])
    states = [list(starts) for _, starts, _ in groups]
    y = [np.zeros((len(starts), R)) for _, starts, _ in groups]
    for k in range(burn + steps):
        xi = stream.normal_vector((R, width, 1))
        for g, (h, _, slices) in enumerate(groups):
            ends = lockstep_flow_arrays(
                model, [(x, xi[:, s]) for x, s in zip(states[g], slices)], T, h, stream)
            states[g] = [x for x, _ in ends]
            if k >= burn:
                y[g] += [(x * x).mean(axis=(-2, -1)) for x in states[g]]
    return [total / steps for total in y]


def _mean_mode_excess(eps, T, h):
    # v(1 - eps) - v(1): the mean mode's stationary variance over that of
    # every other mode, so that E Y(N) = v(1) + excess / N on gaussian
    return uhmc_variance_oracle(1.0 - eps, T, h) - uhmc_variance_oracle(1.0, T, h)


def test_antithetic_chaos_part_matches_the_exact_chain():
    # Delta_N = Y(2N) - (Y(N_a) + Y(N_b))/2, Y the per-replica time average
    # of (1/N) sum_i q_i^2: the 2N system's first and last N particles take
    # the velocities of N_a and N_b, and all three share the integrator
    # uniforms.  Its mean is -(v(1 - eps) - v(1))/(2N), the mean mode's
    # share.  On seeds 0-9 |z| was 0.19-2.26 and the variance ratio 94-121
    # at N = 16, and 0.11-1.75 and 327-457 at N = 64
    eps, T, h, R, burn, steps = 0.25, 1.0, 0.25, 400, 30, 100
    for N, exact in ((16, -0.010412), (64, -0.0026031)):
        assert -_mean_mode_excess(eps, T, h) / (2 * N) == pytest.approx(exact, abs=5e-7)
        model, stream = gaussian_model(eps), RngStream(0)
        xa, xb = (draw_initial_positions(model, (R, N), "stationary", stream)
                  for _ in range(2))
        halves = [slice(None, N), slice(N, None), slice(None)]
        (ya, yb, y2), = _second_moment_averages(
            model, T,
            [(h, [xa, xb, np.concatenate([xa, xb], axis=1)], halves)],
            2 * N, burn, steps, stream)
        delta = y2 - 0.5 * (ya + yb)
        se = delta.std(ddof=1) / np.sqrt(R)
        assert abs(delta.mean() - exact) <= 4.0 * se, (N, delta.mean(), se)
        # the antithetic split is what makes the part measurable: the plain
        # difference against one N system is far noisier
        assert (y2 - ya).var(ddof=1) >= 20.0 * delta.var(ddof=1), N


def test_discretization_and_mixed_parts_match_the_exact_chain():
    # Delta_h = Y(N, h/2) - Y(N, h) and the mixed part Y(2N, h/2) - Y(2N, h)
    # - Y(N, h/2) + Y(N, h), Y as above.  The N system takes the first N
    # velocities of the 2N system (the plain coupling in N), and the h/2
    # pair takes the h pair's velocities at each kernel step and draws its
    # own uniforms.  E Y(N) = v(1) + (v(1 - eps) - v(1))/N gives both
    # exact values.  On seeds 0-9 |z| of Delta_h was 0.33-2.24 at h = 1/2
    # and 0.03-2.28 at h = 1/4, and of the mixed part 0.04-1.26 and 0.25-1.94
    eps, T, N, R, burn, steps = 0.25, 1.0, 16, 400, 30, 100
    model = gaussian_model(eps)
    for h, exact_h, exact_mixed in ((0.5, 0.0435470, -3.02e-5),
                                    (0.25, 0.0112913, -3.805e-6)):
        y_exact = [uhmc_variance_oracle(1.0, T, step) + _mean_mode_excess(eps, T, step) / N
                   for step in (h, h / 2)]
        assert y_exact[1] - y_exact[0] == pytest.approx(exact_h, abs=5e-8)
        assert ((_mean_mode_excess(eps, T, h) - _mean_mode_excess(eps, T, h / 2)) / (2 * N)
                == pytest.approx(exact_mixed, rel=1e-3))
        stream = RngStream(0)
        xa, xb = (draw_initial_positions(model, (R, N), "stationary", stream)
                  for _ in range(2))
        starts = [xa, np.concatenate([xa, xb], axis=1)]
        slices = [slice(None, N), slice(None)]
        (yn_h, y2n_h), (yn_h2, y2n_h2) = _second_moment_averages(
            model, T, [(h, starts, slices), (h / 2, starts, slices)], 2 * N,
            burn, steps, stream)
        delta_h = yn_h2 - yn_h
        se = delta_h.std(ddof=1) / np.sqrt(R)
        assert abs(delta_h.mean() - exact_h) <= 4.0 * se, (h, delta_h.mean(), se)
        mixed = y2n_h2 - y2n_h - delta_h
        se = mixed.std(ddof=1) / np.sqrt(R)
        assert abs(mixed.mean() - exact_mixed) <= 4.0 * se, (h, mixed.mean(), se)


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
    q = draw_initial_positions(gaussian_model(eps), (reps, n_part), "stationary",
                               stream)[..., 0]
    q = xhmc_step_gaussian_arrays(eps, q, 1.0, stream)
    coord_var = q.var(ddof=1)
    mean_var = q.mean(axis=1).var(ddof=1)
    target_coord = 1.0 + eps / (n_part * (1.0 - eps))
    target_mean = 1.0 / ((1.0 - eps) * n_part)
    assert abs(coord_var - target_coord) < 0.02
    assert abs(mean_var - target_mean) < 0.01


def test_stationary_sample_zero_interaction_is_raw_normal():
    a = draw_initial_positions(gaussian_model(0.0), (1, 32), "stationary", RngStream(3))
    b = RngStream(3).normal_vector((1, 32, 1))
    assert np.array_equal(a, b)


def test_stationary_sample_covariance_fingerprint():
    eps, n_part = 0.25, 16
    draws = draw_initial_positions(gaussian_model(eps), (100_000, n_part), "stationary",
                                   RngStream(8))[..., 0]
    mean_dir_var = draws.mean(axis=1).var(ddof=1) * n_part
    assert abs(mean_dir_var - 1.0 / (1.0 - eps)) < 0.05 * (1.0 / (1.0 - eps))
    coord_var = draws[:, 0].var(ddof=1)
    target = 1.0 + eps / (n_part * (1.0 - eps))
    assert abs(coord_var - target) < 0.02
    # the stationary law needs eps < 1, which the gaussian model enforces
    with pytest.raises(ValueError, match=r"epsilon must lie in \[0, 1\)"):
        gaussian_model(1.0)


def test_draw_initial_positions_modes():
    m = gaussian_model(0.25)
    assert np.array_equal(draw_initial_positions(m, (3, 4), "cold", RngStream(0)),
                          np.zeros((3, 4, 1)))
    normal = draw_initial_positions(m, (3, 4), "normal", RngStream(0))
    assert np.array_equal(normal, RngStream(0).normal_vector((3, 4, 1)))
    wide = draw_initial_positions(multiwell_model(1.0, dim=2), (3, 4), "normal", RngStream(0))
    assert np.array_equal(wide, RngStream(0).normal_vector((3, 4, 2)))
    # stationary: bit for bit the (R, N) draw z + (1/sqrt(1 - eps) - 1) mean(z)
    # on particles last, taken from an equal stream
    for shape in [(1, 8), (125, 64), (200, 256)]:
        stat = draw_initial_positions(m, shape, "stationary", RngStream(5))
        z = RngStream(5).normal_vector(shape)
        expected = z + (1.0 / np.sqrt(1.0 - 0.25) - 1.0) * z.mean(axis=-1, keepdims=True)
        assert stat.shape == (*shape, 1)
        assert np.array_equal(stat[..., 0], expected), shape
    with pytest.raises(ValueError, match="unknown init 'warm'"):
        draw_initial_positions(m, (3, 4), "warm", RngStream(0))
    with pytest.raises(ValueError, match="only for the gaussian model"):
        draw_initial_positions(multiwell_model(1.0), (3, 4), "stationary", RngStream(0))


def _uhmc(model, T, h, stream):
    return lambda q: uhmc_step_arrays(model, q, T, h, stream)


def _whole(q):
    return q


def test_run_chain_single_step_equals_kernel():
    m = gaussian_model(0.25)
    x0 = np.full((3, 1), 0.5)
    T, h = 1.0, 0.25
    out = run_chain(_uhmc(m, T, h, RngStream(21)), x0, 1, _whole)
    direct = uhmc_step_arrays(m, x0, T, h, RngStream(21))
    assert out.shape == (2, 3, 1)
    assert np.array_equal(out[0], x0)
    assert np.array_equal(out[-1], direct)


def test_run_chain_exact_kernel_equals_direct_steps():
    x0 = np.linspace(-1.0, 1.0, 6)
    s = RngStream(22)
    out = run_chain(lambda q: xhmc_step_gaussian_arrays(0.25, q, 1.0, s), x0, 5, _whole)
    stream = RngStream(22)
    q = x0
    for k in range(1, 6):
        q = xhmc_step_gaussian_arrays(0.25, q, 1.0, stream)
        assert np.array_equal(out[k], q)


def test_run_chain_thinning_count():
    m = gaussian_model(0.25)
    step = _uhmc(m, 1.0, 0.5, RngStream(2))
    out = run_chain(step, np.zeros((2, 1)), 100, _whole, thin=10)
    assert out.shape == (11, 2, 1)


def test_run_chain_records_each_state_when_it_is_taken():
    # the step updates the state in place and the record is a view of it,
    # so every row must be copied when it is recorded
    out = run_chain(lambda v: np.add(v, 1.0, out=v), np.zeros((4, 2)), 10,
                    lambda v: v[:, 0], thin=3)
    assert np.array_equal(out, np.repeat([[0.0], [3.0], [6.0], [9.0]], 4, axis=1))


def test_run_chain_records_a_tuple_and_a_coupled_pair():
    pair = (np.zeros(3), np.ones(3))
    out = run_chain(lambda p: (p[0] + 1.0, p[1] * 2.0), pair, 2,
                    lambda p: (p[0].sum(), p[1][0]))
    assert np.array_equal(out, [[0.0, 1.0], [3.0, 2.0], [6.0, 4.0]])


def test_run_chain_determinism():
    m = gaussian_model(0.25)
    a = run_chain(_uhmc(m, 1.0, 0.25, RngStream(6)), np.zeros((4, 1)), 20, _whole)
    b = run_chain(_uhmc(m, 1.0, 0.25, RngStream(6)), np.zeros((4, 1)), 20, _whole)
    assert np.array_equal(a, b)


def test_run_chain_divergence_names_kernel_and_inner_step():
    # h = 2.5 is unstable for the unit harmonic force; the step indices
    # were read from the step-by-step reference loop
    step = _uhmc(gaussian_model(0.0), 50.0, 2.5, RngStream(3))
    with pytest.raises(IntegrationDivergedError) as err:
        run_chain(step, np.ones((4, 1)), 100, _whole)
    assert err.value.step_index == 9
    assert str(err.value) == "chain diverged at kernel step 9 (inner step 8, replica 0)"


def test_run_chain_divergence_names_the_replica():
    # h = 2.5 is unstable for every replica alike; replica (1, 0) of a
    # (2, 3) batch starts 1e90 times further out, so it alone leaves the
    # range, at inner step 16 where the others would need about 180; the
    # message names its flat index
    q = np.ones((2, 3, 4, 1))
    q[1, 0] = 1e90
    step = _uhmc(gaussian_model(0.0), 50.0, 2.5, RngStream(3))
    with pytest.raises(IntegrationDivergedError) as err:
        run_chain(step, q, 100, _whole)
    assert err.value.replica == 3
    assert str(err.value) == "chain diverged at kernel step 0 (inner step 16, replica 3)"


def test_run_chain_kernel_validation():
    for m, thin in ((0, 1), (5, 0)):
        with pytest.raises(ValueError):
            run_chain(_whole, np.zeros((2, 1)), m, _whole, thin=thin)


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
    q = draw_initial_positions(m, (reps, n_part), "stationary", stream)[..., 0]
    for _ in range(steps):
        q = xhmc_step_gaussian_arrays(eps, q, T, stream)
        step_moment = (q * q).mean(axis=1).mean()
        assert step_moment <= tc.B2
