import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import quad
from scipy.stats import kstest, kstwo, norm

from meanfield_hmc import (CouplingParams, IntegrationDivergedError,
                           RngStream, compute_constants,
                           couple_velocities_batch, coupled_uhmc_step,
                           ell1_bar, gaussian_model, lockstep_flow_arrays,
                           metric_f, metric_f_prime, multiwell_model, rho_N,
                           uhmc_step_arrays, xhmc_step_gaussian_arrays)
from meanfield_hmc import models
from meanfield_hmc.couplings import metric_radius
from conftest import read_only


def test_gamma_convention():
    assert CouplingParams(R_tilde=0.0, T=2.0).gamma == 0.5
    assert CouplingParams(R_tilde=4.0, T=1.0).gamma == 1.0 / 16.0
    assert CouplingParams(R_tilde=0.1, T=1.0).gamma == 1.0
    with pytest.raises(ValueError, match="R_tilde must be nonnegative"):
        CouplingParams(R_tilde=-1.0, T=1.0)


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
    # Inside the threshold radius the pair coalesces with the overlap of
    # N(0, 1) and N(gamma |z|, 1), 2 Phi(-gamma |z| / 2); its complement is
    # at most gamma |z| / sqrt(2 pi), the bound the coupling promises.
    # gamma |z| < 1/4 always, so the Gaussian term -(gamma r)^2 / 2 of the
    # acceptance ratio moves this probability little: the cases with |z|
    # near R_tilde are the ones that would catch it going missing.
    n = 200_000
    cases = [(2.0, 1.0, [0.25]), (2.0, 1.0, [1.9]), (0.5, 0.5, [0.4]),
             (2.0, 1.0, [1.2, -0.9, 0.8])]   # the last |z| is 1.7
    for seed, (r_tilde, T, z) in enumerate(cases):
        cp = CouplingParams(R_tilde=r_tilde, T=T)
        gr = cp.gamma * np.linalg.norm(z)
        res = couple_velocities_batch(np.tile(z, (n, 1)), cp, RngStream(seed))
        assert not res.synchronous.any()
        exact = 2.0 * norm.cdf(-0.5 * gr)
        se = np.sqrt(exact * (1.0 - exact) / n)
        assert abs(res.coalescing.mean() - exact) < 4.0 * se
        assert 1.0 - exact <= gr / np.sqrt(2.0 * np.pi)


def test_couple_velocities_single_pair():
    cp = CouplingParams(R_tilde=2.0, T=1.0)
    res = couple_velocities_batch(np.array([0.5]), cp, RngStream(5))
    assert res.xi.shape == (1,) and res.eta.shape == (1,)


def test_particlewise_identical_inputs():
    cp = CouplingParams(R_tilde=2.0, T=1.0)
    x = RngStream(6).normal_vector((4, 3))
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
    cp = CouplingParams(R_tilde=0.0, T=1.0)
    x = RngStream(9).normal_vector((6, 1))
    a, b = coupled_uhmc_step(m, x, x.copy(), 0.25, cp, RngStream(10))
    assert np.array_equal(a, b)


def test_coupled_step_determinism():
    m = gaussian_model(0.25)
    cp = CouplingParams(R_tilde=0.0, T=1.0)
    x = RngStream(11).normal_vector((6, 1))
    xp = x + 0.7
    a1, b1 = coupled_uhmc_step(m, x, xp, 0.25, cp, RngStream(12))
    a2, b2 = coupled_uhmc_step(m, x, xp, 0.25, cp, RngStream(12))
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)


@pytest.mark.parametrize("synchronous", [False, True])
def test_coupled_step_checks_inputs_before_drawing(synchronous):
    m = gaussian_model(0.25)
    cp = CouplingParams(R_tilde=0.0, T=1.0)
    stream = RngStream(0)
    # (3, 4, 1) and (4, 1) would broadcast silently
    with pytest.raises(ValueError, match="identical shapes"):
        coupled_uhmc_step(m, np.ones((3, 4, 1)), np.ones((4, 1)), 0.25, cp, stream,
                          synchronous=synchronous)
    x = np.ones((3, 4, 1))
    for h, message in ((0.0, "h must be finite and positive, got h=0.0"),
                       (0.3, "T/h must be a positive integer, got T=1.0, h=0.3")):
        with pytest.raises(ValueError) as err:
            coupled_uhmc_step(m, x, x, h, cp, stream, synchronous=synchronous)
        assert str(err.value) == message
    # the step runs for cp.T, which the coupling refuses unless it is a
    # valid duration, so no step can draw with a bad one
    for T in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError) as err:
            coupled_uhmc_step(m, x, x, 0.25, CouplingParams(R_tilde=0.0, T=T), stream,
                              synchronous=synchronous)
        assert str(err.value) == f"T must be finite and positive, got T={T}"
    assert stream.counter == 0


def test_coupled_step_reports_earlier_divergence():
    # h = 2.5 is unstable for the unit harmonic force.  Alone, the copy
    # started at 1 diverges at inner step 185 and the one started at 1e60
    # at step 76; the coupled step names the earlier one whichever copy it
    # is.  The indices were recorded with the earlier coupled step, which
    # looped over the two copies itself.
    m = gaussian_model(0.0)
    cp = CouplingParams(R_tilde=0.0, T=2500.0)
    near, far = np.ones((1, 1)), np.full((1, 1), 1e60)
    for x, xp, step in ((near, near, 185), (near, far, 76), (far, near, 76)):
        with pytest.raises(IntegrationDivergedError) as err:
            coupled_uhmc_step(m, x, xp, 2.5, cp, RngStream(3), synchronous=True)
        assert err.value.step_index == step


def _reference_couple(z, cp, stream):
    """couple_velocities_batch in plain numpy broadcasts: (xi, eta,
    synchronous, coalescing), with the variates drawn in the same order."""
    xi = stream.normal_vector(z.shape)
    u = stream.uniforms(z.shape[:-1])
    r = np.linalg.norm(z, axis=-1)
    e = np.zeros_like(z)
    e[..., 0] = 1.0
    np.divide(z, r[..., None], out=e, where=(r > 0)[..., None])
    a = np.sum(e * xi, axis=-1)
    gr = cp.gamma * r
    accept = np.log(u) <= -gr * a - 0.5 * gr * gr
    synchronous = r >= cp.R_tilde
    eta = np.where(synchronous[..., None], xi,
                   np.where(accept[..., None], xi + cp.gamma * z, xi - e * (2.0 * a)[..., None]))
    return xi, eta, synchronous, np.where(synchronous, r == 0.0, accept)


@pytest.mark.parametrize("shape, order", [((40, 1), "C"), ((30, 8, 2), "C"),
                                          ((30, 8, 2), "F"), ((5, 4, 6, 3), "C")])
def test_coupling_matches_expression_form_bit_for_bit(shape, order):
    # a Fortran-ordered separation has no contiguous rows of its own
    rng = np.random.default_rng(19)
    z = np.asarray(rng.normal(scale=1.5, size=shape), order=order)
    z[..., 0, :] = 0.0
    cp = CouplingParams(R_tilde=2.0, T=0.5)
    res = couple_velocities_batch(z, cp, RngStream(4))
    want = _reference_couple(z, cp, RngStream(4))
    for got, expected in zip((res.xi, res.eta, res.synchronous, res.coalescing), want):
        assert np.array_equal(got, expected)


def test_coupling_and_coupled_step_leave_their_inputs_unchanged():
    # read-only inputs make any write raise; the copies check the values
    m = multiwell_model(2.0, 2, 0.1, "quadratic")
    cp = CouplingParams(R_tilde=1.5, T=0.5)
    rng = np.random.default_rng(17)
    x = rng.normal(size=(6, 5, 2))
    xp = x + rng.normal(scale=0.7, size=x.shape)
    fx, fxp, fz = read_only(x, xp, x - xp)
    res = couple_velocities_batch(fz, cp, RngStream(1))
    assert res.synchronous.any() and not res.synchronous.all()
    for synchronous in (False, True):
        coupled_uhmc_step(m, fx, fxp, 0.125, cp, RngStream(2), synchronous=synchronous)
    for frozen, copy in ((fx, x), (fxp, xp), (fz, x - xp)):
        assert np.array_equal(frozen, copy)


def test_zero_replica_batch_steps_to_an_empty_batch():
    # a batch of no replicas draws no variate and keeps its shape
    m = multiwell_model(2.0, 2, 0.1, "quadratic")
    cp = CouplingParams(R_tilde=1.5, T=0.5)
    x = np.empty((0, 4, 2))
    stream = RngStream(1)
    steps = [uhmc_step_arrays(m, x, 0.5, 0.125, stream),
             couple_velocities_batch(x, cp, stream).eta]
    for synchronous in (False, True):
        steps += coupled_uhmc_step(m, x, x.copy(), 0.125, cp, stream,
                                   synchronous=synchronous)
    assert all(q.shape == (0, 4, 2) for q in steps)
    assert xhmc_step_gaussian_arrays(0.25, np.empty((0, 4)), 1.0, stream).shape == (0, 4)
    assert stream.counter == 0


def test_synchronous_step_keeps_the_shared_momentum():
    # the synchronous step hands one momentum array to both copies; each
    # copy must flow as if it had its own
    m = multiwell_model(2.0, 2, 0.1, "quadratic")
    cp = CouplingParams(R_tilde=1.5, T=0.5)
    rng = np.random.default_rng(18)
    x = rng.normal(size=(4, 5, 2))
    xp = x + 0.3
    got = coupled_uhmc_step(m, x, xp, 0.125, cp, RngStream(3), synchronous=True)
    stream = RngStream(3)
    xi = stream.normal_vector(x.shape)
    (q, _), (qp, _) = lockstep_flow_arrays(m, [(x, xi), (xp, xi.copy())], cp.T, 0.125,
                                           stream)
    assert np.array_equal(got[0], q) and np.array_equal(got[1], qp)


def test_multiwell_one_step_contracts_on_average():
    mw = multiwell_model(1.0)
    T = 0.5
    tc = compute_constants(mw, T)
    cp = CouplingParams(R_tilde=tc.R_tilde, T=T)
    stream = RngStream(13)
    reps = 4000
    x = stream.normal_vector((reps, 4, 1))
    xp = x + 1.0
    r0 = rho_N(x, xp, tc.R1, T)
    a, b = coupled_uhmc_step(mw, x, xp, 0.125, cp, stream)
    r1 = rho_N(a, b, tc.R1, T)
    se = r1.std(ddof=1) / np.sqrt(reps)
    assert r1.mean() + 3 * se < r0.mean()


# --- contraction metric -----------------------------------------------------

def test_metric_f_closed_form():
    assert metric_f(0.0, R1=10.0, T=1.0) == 0.0
    assert metric_f(1.0, R1=10.0, T=1.0) == pytest.approx(1 - np.exp(-1.0), rel=1e-14)
    with pytest.raises(ValueError):
        metric_f(-0.1, R1=1.0, T=1.0)
    # the derivative's range is (0, 1]: a negative r is refused alike
    with pytest.raises(ValueError, match="r must be nonnegative"):
        metric_f_prime(-1.0, R1=1.0, T=1.0)


def test_metric_f_matches_expression_form_bit_for_bit():
    rng = np.random.default_rng(20)
    for r1, t in [(2.5, 1.0), (0.8, 0.3), (6.0, 2.0)]:
        r = np.concatenate([rng.uniform(0.0, 3.0 * r1, size=200), [0.0, r1, np.inf]])
        want = t * (-np.expm1(-np.minimum(r, r1) / t)) + np.exp(-r1 / t) * np.maximum(r - r1, 0.0)
        assert np.array_equal(metric_f(r, r1, t), want)
        assert metric_f(r[0], r1, t) == want[0]


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


def test_metric_radius_is_the_closed_form():
    # A * f'(R1) is 1 to within one ulp, not exactly
    for a in np.linspace(0.05, 3.0, 20):
        for T in np.linspace(0.02, 2.0, 20):
            T = float(T)
            tc = compute_constants(multiwell_model(float(a)), T)
            assert (tc.R1, tc.A) == metric_radius(tc.R_tilde, T)
            assert tc.R1 == 1.25 * (tc.R_tilde + 2.0 * T)
            slope = metric_f_prime(tc.R1, tc.R1, T)
            assert tc.A == 1.0 / slope
            assert abs(tc.A * slope - 1.0) <= 2.0**-52
    assert metric_radius(0.0, 1.0)[0] == 2.5


def test_rho_N_matches_metric_f_bit_for_bit_on_read_only_inputs():
    # rho_N evaluates metric_f's profile in place on the distances; a write
    # into an input would raise
    rng = np.random.default_rng(21)
    for shape, r1, t in [((4, 2), 2.5, 1.0), ((50, 8, 3), 0.8, 0.3),
                         ((2, 7, 5, 1), 6.0, 2.0)]:
        x0 = rng.normal(size=shape)
        y0 = x0 + rng.uniform(0.0, 3.0 * r1) * rng.normal(size=shape)
        x, y = read_only(x0, y0)
        want = metric_f(models._norm_last(x0 - y0), r1, t).mean(-1)
        got = rho_N(x, y, r1, t)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert np.array_equal(x, x0) and np.array_equal(y, y0)
    with pytest.raises(ValueError, match="R1 and T must be positive"):
        rho_N(x, y, 0.0, 1.0)


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
    with pytest.raises(ValueError, match="shape mismatch between the two states"):
        ell1_bar(a, b[:3])

