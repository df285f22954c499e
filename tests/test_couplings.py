import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import quad
from scipy.stats import kstest, kstwo

from meanfield_hmc import (CouplingParams, IntegrationDivergedError,
                           KernelParams, RngStream, compute_constants,
                           couple_velocities_batch, coupled_uhmc_step,
                           ell1_bar, estimate_contraction, gaussian_model,
                           metric_f, metric_f_prime, multiwell_model, rho_N)
from meanfield_hmc.couplings import metric_radius


def test_gamma_convention():
    assert CouplingParams(R_tilde=0.0, T=2.0).gamma == 0.5
    assert CouplingParams(R_tilde=4.0, T=1.0).gamma == 1.0 / 16.0
    assert CouplingParams(R_tilde=0.1, T=1.0).gamma == 1.0


def test_zero_separation_always_accepts():
    cp = CouplingParams(R_tilde=2.0, T=1.0)
    res = couple_velocities_batch(np.zeros((10_000, 3)), cp, RngStream(0))
    assert np.array_equal(res.eta, res.xi)
    assert res.coalescing.all()


def test_beyond_threshold_is_synchronous():
    cp = CouplingParams(R_tilde=2.0, T=1.0)
    z = np.full((500, 2), 3.0)  # |z| > 2
    res = couple_velocities_batch(z, cp, RngStream(1))
    assert res.synchronous.all()
    assert np.array_equal(res.eta, res.xi)


def test_coupled_marginal_is_standard_normal():
    # at |z| = R_tilde / 2 both branches are exercised heavily
    cp = CouplingParams(R_tilde=2.0, T=1.0)
    n = 100_000
    z = np.full((n, 1), 1.0)
    res = couple_velocities_batch(z, cp, RngStream(2))
    crit = 1.63 / np.sqrt(n)
    assert kstest(res.eta[:, 0], "norm").statistic < crit
    assert kstest(res.xi[:, 0], "norm").statistic < crit
    assert not res.synchronous.any()
    assert 0.0 < res.coalescing.mean() < 1.0


def test_coupled_marginal_multidimensional():
    cp = CouplingParams(R_tilde=3.0, T=1.0)
    n = 100_000
    z = np.zeros((n, 3))
    z[:, 0] = 0.8
    z[:, 1] = -0.6  # |z| = 1.0 < R_tilde
    res = couple_velocities_batch(z, cp, RngStream(3))
    crit = 1.63 / np.sqrt(n)
    e = z[0] / np.linalg.norm(z[0])
    for coord in range(3):
        assert kstest(res.eta[:, coord], "norm").statistic < crit
    assert kstest(res.eta @ e, "norm").statistic < crit
    assert kstest(res.xi @ e, "norm").statistic < crit


@st.composite
def _separations(draw):
    """One separation z in R^d with |z| in [0, 1.2 R_tilde], and its R_tilde."""
    d = draw(st.integers(1, 3))
    r_tilde = draw(st.floats(0.1, 5.0))
    direction = draw(hnp.arrays(np.float64, d, elements=st.floats(-1.0, 1.0))
                     .filter(lambda v: np.linalg.norm(v) > 0.1))
    radius = draw(st.floats(0.0, 1.2)) * r_tilde
    return radius * direction / np.linalg.norm(direction), r_tilde


@settings(max_examples=20, deadline=None, derandomize=True)
@given(sep=_separations(), T=st.floats(0.1, 2.0), seed=st.integers(0, 2**32 - 1))
def test_coupled_marginal_standard_normal_for_any_separation(sep, T, seed):
    # whichever branch each row takes, eta must be exactly N(0, I_d)
    z, r_tilde = sep
    n = 20_000
    res = couple_velocities_batch(np.tile(z, (n, 1)), CouplingParams(r_tilde, T),
                                  RngStream(seed))
    crit = kstwo.ppf(1.0 - 1e-4, n)
    r = np.linalg.norm(z)
    e = z / r if r > 0 else np.eye(len(z))[0]
    for coord in range(len(z)):
        assert kstest(res.eta[:, coord], "norm").statistic < crit
    assert kstest(res.eta @ e, "norm").statistic < crit


def test_reflection_branch_is_isometry():
    cp = CouplingParams(R_tilde=2.0, T=1.0)
    # d = 1: the unit separation vector is exact, so reflection is bit-exact
    z = np.full((50_000, 1), 1.0)
    res = couple_velocities_batch(z, cp, RngStream(4))
    refl = ~res.coalescing
    assert refl.any()
    assert np.array_equal(np.abs(res.eta[refl]), np.abs(res.xi[refl]))
    # general direction: isometric to machine precision
    z2 = np.full((50_000, 2), 0.5)
    res2 = couple_velocities_batch(z2, cp, RngStream(5))
    refl2 = ~res2.coalescing
    norms_xi = np.linalg.norm(res2.xi[refl2], axis=1)
    norms_eta = np.linalg.norm(res2.eta[refl2], axis=1)
    assert np.allclose(norms_eta, norms_xi, rtol=1e-14, atol=0)


def test_non_coalescence_frequency_bound():
    cp = CouplingParams(R_tilde=2.0, T=1.0)
    n = 200_000
    for dist in (0.25, 1.0, 1.9):
        z = np.zeros((n, 1))
        z[:, 0] = dist
        res = couple_velocities_batch(z, cp, RngStream(int(dist * 100)))
        freq = float((~res.coalescing).mean())
        bound = cp.gamma * dist / np.sqrt(2.0 * np.pi)
        se = np.sqrt(freq * (1.0 - freq) / n)
        assert freq <= bound + 3.0 * se


def test_couple_velocities_single_pair():
    cp = CouplingParams(R_tilde=2.0, T=1.0)
    res = couple_velocities_batch(np.array([0.5]), cp, RngStream(5))
    assert res.xi.shape == (1,) and res.eta.shape == (1,)


def test_particlewise_identical_inputs():
    cp = CouplingParams(R_tilde=2.0, T=1.0)
    x = RngStream(6).normal_vector(12).reshape(4, 3)
    res = couple_velocities_batch(x - x.copy(), cp, RngStream(7))
    assert np.array_equal(res.xi, res.eta)


def test_particlewise_mixed_branches():
    cp = CouplingParams(R_tilde=2.0, T=1.0)
    x = np.zeros((2000, 2, 1))
    xp = np.zeros((2000, 2, 1))
    xp[:, 0, 0] = -3.0   # particle 0 beyond threshold
    xp[:, 1, 0] = -0.5   # particle 1 inside
    res = couple_velocities_batch(x - xp, cp, RngStream(8))
    assert res.synchronous[:, 0].all()
    assert not res.synchronous[:, 1].any()
    freq = float((~res.coalescing[:, 1]).mean())
    bound = cp.gamma * 0.5 / np.sqrt(2.0 * np.pi)
    se = np.sqrt(max(freq * (1 - freq), 1e-12) / 2000)
    assert freq <= bound + 3.0 * se


def test_coupled_step_faithful_on_equal_inputs():
    m = gaussian_model(0.25)
    params = KernelParams(T=1.0, h=0.25)
    cp = CouplingParams(R_tilde=0.0, T=1.0)
    x = RngStream(9).normal_vector(6).reshape(6, 1)
    a, b = coupled_uhmc_step(m, x, x.copy(), params, cp, RngStream(10))
    assert np.array_equal(a, b)


def test_coupled_step_determinism():
    m = gaussian_model(0.25)
    params = KernelParams(T=1.0, h=0.25)
    cp = CouplingParams(R_tilde=0.0, T=1.0)
    x = RngStream(11).normal_vector(6).reshape(6, 1)
    xp = x + 0.7
    a1, b1 = coupled_uhmc_step(m, x, xp, params, cp, RngStream(12))
    a2, b2 = coupled_uhmc_step(m, x, xp, params, cp, RngStream(12))
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)


@pytest.mark.parametrize("synchronous", [False, True])
def test_coupled_step_checks_inputs_before_drawing(synchronous):
    m = gaussian_model(0.25)
    cp = CouplingParams(R_tilde=0.0, T=1.0)
    stream = RngStream(0)
    # (3, 4, 1) and (4, 1) would broadcast silently
    with pytest.raises(ValueError, match="identical shapes"):
        coupled_uhmc_step(m, np.ones((3, 4, 1)), np.ones((4, 1)),
                          KernelParams(T=1.0, h=0.25), cp, stream,
                          synchronous=synchronous)
    with pytest.raises(ValueError, match="h > 0"):
        coupled_uhmc_step(m, np.ones((3, 4, 1)), np.ones((3, 4, 1)),
                          KernelParams(T=1.0, h=0.0), cp, stream,
                          synchronous=synchronous)
    assert stream.counter == 0


def test_coupled_step_reports_earlier_divergence():
    # h = 2.5 is unstable for the unit harmonic force.  Alone, the copy
    # started at 1 diverges at inner step 185 and the one started at 1e60
    # at step 76; the coupled step names the earlier one whichever copy it
    # is.  The indices were recorded with the earlier coupled step, which
    # looped over the two copies itself.
    m = gaussian_model(0.0)
    params = KernelParams(T=2500.0, h=2.5)
    cp = CouplingParams(R_tilde=0.0, T=2500.0)
    near, far = np.ones((1, 1)), np.full((1, 1), 1e60)
    for x, xp, step in ((near, near, 185), (near, far, 76), (far, near, 76)):
        with pytest.raises(IntegrationDivergedError) as err:
            coupled_uhmc_step(m, x, xp, params, cp, RngStream(3), synchronous=True)
        assert err.value.step_index == step


def test_multiwell_one_step_contracts_on_average():
    mw = multiwell_model(1.0)
    T = 0.5
    tc = compute_constants(mw, T)
    cp = CouplingParams(R_tilde=tc.R_tilde, T=T)
    params = KernelParams(T=T, h=0.125)
    stream = RngStream(13)
    reps = 4000
    x = stream.normal_vector(reps * 4).reshape(reps, 4, 1)
    xp = x + 1.0
    r0 = rho_N(x, xp, tc.R1, T)
    a, b = coupled_uhmc_step(mw, x, xp, params, cp, stream)
    r1 = rho_N(a, b, tc.R1, T)
    se = r1.std(ddof=1) / np.sqrt(reps)
    assert r1.mean() + 3 * se < r0.mean()


# --- contraction metric -----------------------------------------------------

def test_metric_f_closed_form():
    assert metric_f(0.0, R1=10.0, T=1.0) == 0.0
    assert metric_f(1.0, R1=10.0, T=1.0) == pytest.approx(1 - np.exp(-1.0), rel=1e-14)
    with pytest.raises(ValueError):
        metric_f(-0.1, R1=1.0, T=1.0)


def test_metric_f_matches_quadrature():
    rng = np.random.default_rng(14)
    for r1, t in [(2.5, 1.0), (0.8, 0.3), (6.0, 2.0)]:
        integrand = lambda s: np.exp(-min(r1, s) / t)
        for r in rng.uniform(0.0, 3.0 * r1, size=25):
            ref = quad(integrand, 0.0, r, points=[r1] if r > r1 else None)[0]
            assert metric_f(r, R1=r1, T=t) == pytest.approx(ref, abs=1e-10)


def test_metric_equivalence_bounds():
    rng = np.random.default_rng(15)
    r1, t = 3.0, 1.0
    r = rng.uniform(0.0, 12.0, size=1000)
    f = metric_f(r, R1=r1, T=t)
    lower = r * metric_f_prime(r1, R1=r1, T=t)
    assert (f <= r + 1e-12).all()
    assert (lower <= f + 1e-12).all()


def test_metric_radius_slope_has_exact_reciprocal():
    moved = 0
    for a in np.linspace(0.05, 3.0, 20):
        for T in np.linspace(0.02, 2.0, 20):
            tc = compute_constants(multiwell_model(float(a)), float(T))
            r1 = metric_radius(tc.R_tilde, float(T))
            base = 1.25 * (tc.R_tilde + 2.0 * T)
            assert tc.R1 == r1
            assert base <= r1 <= base * (1 + 64 * 2.0**-52)
            moved += r1 != base
            slope = metric_f_prime(r1, r1, float(T))
            assert tc.A * slope == 1.0
    # the grid holds radii that had to move and radii that did not
    assert 0 < moved < 400
    assert metric_radius(0.0, 1.0) == 2.5


def test_rho_N_reductions():
    r1, t = 2.5, 1.0
    x = np.arange(8.0).reshape(4, 2)
    assert rho_N(x, x, r1, t) == 0.0
    single = np.array([[0.3, -0.4]])
    other = np.array([[1.3, 0.6]])
    dist = np.linalg.norm(single - other)
    assert rho_N(single, other, r1, t) == pytest.approx(metric_f(dist, r1, t))
    rng = np.random.default_rng(16)
    a = rng.normal(size=(6, 2))
    b = rng.normal(size=(6, 2))
    assert rho_N(a, b, r1, t) <= ell1_bar(a, b) + 1e-12
    with pytest.raises(ValueError):
        rho_N(a, b[:3], r1, t)


# --- contraction estimation --------------------------------------------------

def _pair_sampler(n_particles, dim, offset):
    def init_pair(stream, replicas):
        x = stream.normal_vector(replicas * n_particles * dim)
        x = x.reshape(replicas, n_particles, dim)
        return x, x + offset
    return init_pair


def test_estimate_contraction_zero_offset_stays_zero():
    m = gaussian_model(0.25)
    params = KernelParams(T=1.0, h=0.25)
    cp = CouplingParams(R_tilde=0.0, T=1.0)
    est = estimate_contraction(m, params, cp, m=5, replicas=16,
                               init_pair=_pair_sampler(4, 1, 0.0),
                               stream=RngStream(17))
    assert np.array_equal(est.mean_rho, np.zeros(6))


def test_estimate_contraction_strongly_convex_rate():
    # synchronous coupling, no interaction, L T^2 = 3/20
    m = gaussian_model(0.0)
    T = np.sqrt(0.15)
    params = KernelParams(T=T, h=T / 8)
    cp = CouplingParams(R_tilde=0.0, T=T)
    est = estimate_contraction(m, params, cp, m=25, replicas=1000,
                               init_pair=_pair_sampler(4, 1, 1.0),
                               stream=RngStream(18), synchronous=True)
    bound = 1.0 - m.constants.K * T**2 / 8.0
    assert est.decay_factor <= bound + 3.0 * est.decay_factor_se


def test_estimate_contraction_multiwell_theory_envelope():
    # weakly multi-well so the envelope constant A stays representable
    mw = multiwell_model(0.05)
    from meanfield_hmc import max_admissible_T
    T = max_admissible_T(mw, "uhmc")
    tc = compute_constants(mw, T)
    params = KernelParams(T=T, h=T / 4)
    cp = CouplingParams(R_tilde=tc.R_tilde, T=T)
    est = estimate_contraction(mw, params, cp, m=20, replicas=400,
                               init_pair=_pair_sampler(4, 1, 1.0),
                               stream=RngStream(19))
    rho0 = est.mean_rho[0]
    for k in range(1, 21):
        envelope = tc.A * np.exp(-tc.c_uhmc * k) * rho0
        assert est.mean_rho[k] <= envelope + 3.0 * est.stderr[k]
    assert est.decay_factor < 1.0
