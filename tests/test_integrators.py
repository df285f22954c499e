import itertools

import numpy as np
import pytest
from scipy.linalg import expm

from meanfield_hmc import (AssumptionConstants, IntegrationDivergedError,
                           MeanFieldModel, RngStream,
                           exact_gaussian_flow_arrays, gaussian_model,
                           potential_energy, randomized_flow_arrays,
                           randomized_step_arrays)


def _free_model(dim=1):
    """No force at all: V = 0, W = 0."""
    zeros_scalar = lambda x: np.zeros(np.asarray(x).shape[:-1])
    zeros_vec = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return MeanFieldModel(
        name="free", dim=dim, epsilon=0.0,
        grad_V=zeros_vec, grad1_W=lambda x, y: zeros_vec(x),
        V=zeros_scalar, W=lambda x, y: zeros_scalar(x),
        constants=AssumptionConstants(K=1.0, L1=0.0, L2=1.0, L_tilde=0.0,
                                      R_conv=0.0, W0=0.0))


def _count_flow_steps(T, h):
    """Number of randomized steps the flow takes, read off its uniform draws."""
    m = gaussian_model(0.25)
    q, p = np.array([[0.1], [0.9]]), np.array([[-0.4], [0.3]])
    got = randomized_flow_arrays(m, q, p, T, h, RngStream(3))
    us = RngStream(3).uniforms(64)
    for k in range(64):
        q, p = randomized_step_arrays(m, q, p, h, us[k], step_index=k)
        if np.array_equal(q, got[0]) and np.array_equal(p, got[1]):
            return k + 1
    raise AssertionError("flow matches no prefix of single steps")


def test_integrator_params_validation():
    m = gaussian_model(0.25)
    q, p = np.zeros((2, 1)), np.ones((2, 1))
    with pytest.raises(ValueError):
        randomized_flow_arrays(m, q, p, 1.0, 0.3, RngStream(0))  # 1/0.3 not integral
    with pytest.raises(ValueError):
        randomized_flow_arrays(m, q, p, 1.0, 0.0, RngStream(0))
    assert _count_flow_steps(1.0, 0.125) == 8
    t = np.sqrt(0.15)
    assert _count_flow_steps(t, t / 8) == 8


def test_zero_length_step_is_identity():
    m = gaussian_model(0.25)
    q, p = np.array([[0.4], [-1.0]]), np.array([[0.2], [0.7]])
    q1, p1 = randomized_step_arrays(m, q, p, 0.0, 0.37)
    assert np.array_equal(q1, q) and np.array_equal(p1, p)


def test_randomized_step_hand_value():
    m = gaussian_model(0.0)
    q, p = randomized_step_arrays(m, np.array([[1.0]]), np.array([[0.0]]), 0.1, 0.5)
    assert q[0, 0] == pytest.approx(0.995, abs=1e-15)
    assert p[0, 0] == pytest.approx(-0.1, abs=1e-15)


def test_free_flight_is_exact_straight_line():
    m = _free_model()
    q = np.array([[0.3], [-2.0], [1.5]])
    p = np.array([[1.0], [0.5], [-0.25]])
    out, _ = randomized_flow_arrays(m, q, p, 2.0, 0.25, RngStream(0))
    assert np.array_equal(out, q + 2.0 * p)


def test_flow_single_step_equals_one_randomized_step():
    m = gaussian_model(0.25)
    q, p = np.array([[0.1], [0.9]]), np.array([[-0.4], [0.3]])
    u = RngStream(5).uniform()
    by_step = randomized_step_arrays(m, q, p, 0.5, u)
    by_flow = randomized_flow_arrays(m, q, p, 0.5, 0.5, RngStream(5))
    assert np.array_equal(by_flow[0], by_step[0])
    assert np.array_equal(by_flow[1], by_step[1])


def test_flow_determinism():
    m = gaussian_model(0.25)
    q, p = np.ones((4, 1)), np.zeros((4, 1))
    a = randomized_flow_arrays(m, q, p, 1.0, 0.125, RngStream(17))
    b = randomized_flow_arrays(m, q, p, 1.0, 0.125, RngStream(17))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_flow_refines_toward_exact_flow():
    # endpoint error shrinks as the step is refined
    eps, n_rep, n_part = 0.25, 64, 16
    m = gaussian_model(eps)
    stream = RngStream(23)
    q0 = stream.normal_vector(n_rep * n_part).reshape(n_rep, n_part)
    p0 = stream.normal_vector(n_rep * n_part).reshape(n_rep, n_part)
    q_ref, _ = exact_gaussian_flow_arrays(eps, q0, p0, 1.0)
    errs = {}
    for h in (1 / 8, 1 / 128):
        q_num, _ = randomized_flow_arrays(m, q0[..., None], p0[..., None],
                                          1.0, h, RngStream(29))
        errs[h] = np.abs(q_num[..., 0] - q_ref).mean()
    assert errs[1 / 128] < errs[1 / 8] / 10


def test_divergence_guard_reports_step():
    m = gaussian_model(0.0)
    q = np.array([[1.0]])
    p = np.array([[0.0]])
    with pytest.raises(IntegrationDivergedError) as err:
        randomized_flow_arrays(m, q, p, 2500.0, 2.5, RngStream(0))
    assert err.value.step_index >= 0


@pytest.mark.parametrize("shape, h, seed, step", [((1, 1), 2.5, 0, 192),
                                                  ((1, 1), 3.0, 0, 124),
                                                  ((1, 1), 4.0, 0, 88),
                                                  ((3, 4, 1), 2.5, 1, 178)])
def test_divergence_reports_exact_inner_step(shape, h, seed, step):
    # the unstable step sizes blow up |q| past DIVERGENCE_LIMIT at these
    # inner steps; the indices were read from the step-by-step reference loop
    m = gaussian_model(0.0)
    with pytest.raises(IntegrationDivergedError) as err:
        randomized_flow_arrays(m, np.ones(shape), np.zeros(shape), 1000 * h, h,
                               RngStream(seed))
    assert err.value.step_index == step
    assert str(err.value) == f"trajectory diverged at integrator step {step}"


def test_non_finite_force_names_its_step():
    # unit-speed free flight from 0 with h = 1 puts the evaluation point
    # q + u p inside (k, k + 1) at step k, so the force turns NaN at step 3
    nan_beyond_3 = lambda q: np.where(q > 3.0, np.nan, 0.0)
    m = MeanFieldModel(
        name="cliff", dim=1, epsilon=0.0,
        grad_V=nan_beyond_3, grad1_W=lambda x, y: np.zeros_like(x),
        V=lambda x: np.zeros(np.shape(x)[:-1]), W=lambda x, y: np.zeros(np.shape(x)[:-1]),
        constants=AssumptionConstants(K=1.0, L1=0.0, L2=1.0, L_tilde=0.0,
                                      R_conv=0.0, W0=0.0),
        grad_U_all=nan_beyond_3)
    with pytest.raises(IntegrationDivergedError) as err:
        randomized_flow_arrays(m, np.zeros((2, 1)), np.ones((2, 1)), 10.0, 1.0,
                               RngStream(4))
    assert err.value.step_index == 3
    assert str(err.value) == "non-finite force at step 3"


def test_step_rejects_wrong_trailing_dimension():
    m = gaussian_model(0.25)
    assert m.grad_U_all is not None
    with pytest.raises(ValueError, match=r"\(\.\.\., N, 1\)"):
        randomized_step_arrays(m, np.zeros((4, 2)), np.zeros((4, 2)), 0.1, 0.5)


# --- exact flow of the 1-d quadratic model ---------------------------------

def test_exact_flow_identity_at_t0():
    q, p = np.array([0.3, 1.4]), np.array([-1.0, 0.2])
    qt, pt = exact_gaussian_flow_arrays(0.25, q, p, 0.0)
    assert np.allclose(qt, q, atol=1e-15)
    assert np.allclose(pt, p, atol=1e-15)


def test_exact_flow_quarter_period():
    qt, pt = exact_gaussian_flow_arrays(0.0, np.array([1.0]), np.array([0.0]), np.pi / 2)
    assert qt[0] == pytest.approx(0.0, abs=1e-15)
    assert pt[0] == pytest.approx(-1.0, abs=1e-15)


def test_exact_flow_mean_mode_only():
    qt, _ = exact_gaussian_flow_arrays(0.25, np.ones(2), np.zeros(2), 1.0)
    expected = np.cos(np.sqrt(0.75))
    assert np.allclose(qt, expected, atol=1e-14)


def test_exact_flow_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        exact_gaussian_flow_arrays(1.0, np.ones(2), np.zeros(2), 0.5)


def test_exact_flow_reversibility():
    rng = np.random.default_rng(31)
    q = rng.normal(size=12)
    p = rng.normal(size=12)
    qt, pt = exact_gaussian_flow_arrays(0.25, q, p, 3.7)
    q0, p0 = exact_gaussian_flow_arrays(0.25, qt, pt, -3.7)
    assert np.abs(q0 - q).max() < 1e-9
    assert np.abs(p0 - p).max() < 1e-9


def test_exact_flow_conserves_energy():
    eps = 0.25
    m = gaussian_model(eps)
    rng = np.random.default_rng(37)
    q = rng.normal(size=8)
    p = rng.normal(size=8)
    h0 = potential_energy(m, q[:, None]) + 0.5 * np.sum(p * p)
    for t in np.linspace(0.5, 10.0, 20):
        qt, pt = exact_gaussian_flow_arrays(eps, q, p, t)
        ht = potential_energy(m, qt[:, None]) + 0.5 * np.sum(pt * pt)
        assert abs(ht - h0) <= 1e-9 * abs(h0)


def test_exact_flow_matches_matrix_exponential():
    # (q, p)' = (p, -M q) with M = I - (eps/N) 11^T is linear, so its flow
    # is the exponential of t [[0, I], [-M, 0]] applied to stacked (q, p)
    rng = np.random.default_rng(47)
    for n, eps in itertools.product(range(1, 9), (0.0, 0.25, 0.9)):
        q = rng.normal(size=(3, 2, n))
        p = rng.normal(size=(3, 2, n))
        M = np.eye(n) - (eps / n) * np.ones((n, n))
        gen = np.block([[np.zeros((n, n)), np.eye(n)], [-M, np.zeros((n, n))]])
        for t in (-3.7, 0.3, 1.0, 10.0):
            want = np.concatenate([q, p], axis=-1) @ expm(t * gen).T
            qt, pt = exact_gaussian_flow_arrays(eps, q, p, t)
            assert qt.shape == pt.shape == q.shape
            assert np.abs(qt - want[..., :n]).max() < 1e-12
            assert np.abs(pt - want[..., n:]).max() < 1e-12


def _longdouble_flow(eps, q, p, t):
    """The same closed form as exact_gaussian_flow_arrays, in np.longdouble."""
    q, p = q.astype(np.longdouble), p.astype(np.longdouble)
    one = np.longdouble(1)
    w0 = np.sqrt(one - np.longdouble(eps))
    t = np.longdouble(t)
    c0, s0, c1, s1 = np.cos(w0 * t), np.sin(w0 * t), np.cos(t), np.sin(t)
    q_bar = q.mean(axis=-1, keepdims=True)
    p_bar = p.mean(axis=-1, keepdims=True)
    q_t = c1 * q + s1 * p + (c0 - c1) * q_bar + (s0 / w0 - s1) * p_bar
    p_t = c1 * p - s1 * q + (c0 - c1) * p_bar + (s1 - w0 * s0) * q_bar
    return q_t, p_t


@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(np.float64).eps,
                    reason="np.longdouble is float64 on this platform")
def test_exact_flow_rounding_flat_in_N():
    # On x86 np.longdouble is 80-bit extended precision, so this does not
    # skip there.  Rebuilding the coordinates by a prefix sum over particle
    # differences accumulates rounding with N (5e-14 at this size); the
    # closed form rounds each entry a fixed number of times.
    eps, t, n = 0.25, 1.0, 100_000
    rng = np.random.default_rng(43)
    q = rng.normal(size=(4, n))
    p = rng.normal(size=(4, n))
    qt, pt = exact_gaussian_flow_arrays(eps, q, p, t)
    q_ref, p_ref = _longdouble_flow(eps, q, p, t)
    assert float(np.abs(qt - q_ref).max()) < 1e-14
    assert float(np.abs(pt - p_ref).max()) < 1e-14
