import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from meanfield_hmc import (AssumptionConstants, IntegrationDivergedError,
                           MeanFieldModel, RngStream, ShallowNetDataset,
                           exact_gaussian_flow_arrays, gaussian_model,
                           integrators, lockstep_flow_arrays, multiwell_model,
                           randomized_step_arrays, shallow_net_model)
from conftest import read_only, reference_randomized_step


def _free_model(dim=1):
    """No force at all: V = 0, W = 0."""
    return MeanFieldModel(
        name="free", dim=dim, epsilon=0.0,
        constants=AssumptionConstants(K=1.0, L1=0.0, L2=1.0, L_tilde=0.0,
                                      R_conv=0.0, W0=0.0),
        grad_U_all=np.zeros_like)


def _count_flow_steps(T, h):
    """Number of randomized steps the flow takes, read off its uniform draws."""
    m = gaussian_model(0.25)
    q, p = np.array([[0.1], [0.9]]), np.array([[-0.4], [0.3]])
    (got,) = lockstep_flow_arrays(m, [(q, p)], T, h, RngStream(3))
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
        lockstep_flow_arrays(m, [(q, p)], 1.0, 0.3, RngStream(0))  # 1/0.3 not integral
    with pytest.raises(ValueError):
        lockstep_flow_arrays(m, [(q, p)], 1.0, 0.0, RngStream(0))
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


def test_step_at_u_half_is_reversible_position_verlet():
    # at u = 1/2 the step is position Verlet, q* = q + (h/2) p,
    # p' = p - h grad U(q*), q' = q* + (h/2) p', so stepping from (q', -p')
    # returns (q, -p); at any other u it does not
    model = multiwell_model(2.0, 2, 0.5, "quadratic")
    h = 0.25
    rng = np.random.default_rng(21)
    q, p = rng.standard_normal((2, 3, 8, 2))
    half = np.full(3, 0.5)
    q1, p1 = randomized_step_arrays(model, q, p, h, half)
    q_star = q + (h / 2) * p
    p_verlet = p - h * model.grad_U_all(q_star)
    assert np.abs(p1 - p_verlet).max() <= 1e-12
    assert np.abs(q1 - (q_star + (h / 2) * p_verlet)).max() <= 1e-12
    q0, p0 = randomized_step_arrays(model, q1, -p1, h, half)
    assert np.abs(q0 - q).max() <= 1e-12 and np.abs(p0 + p).max() <= 1e-12
    u = np.full(3, 0.3)
    q_off, p_off = randomized_step_arrays(model, q, p, h, u)
    q_back, _ = randomized_step_arrays(model, q_off, -p_off, h, u)
    assert np.abs(q_back - q).max() > 1e-3


class _FixedUniforms:
    """A stream whose every uniform is ``u``."""

    def __init__(self, u):
        self.u = u

    def uniforms(self, shape):
        return np.full(shape, self.u)


def test_flow_at_u_half_is_reversible():
    # T/h position Verlet steps are reversible as one step is: flowing on
    # from (q', -p') returns (q, -p); at u = 0.3 the return misses q by 0.08
    model = multiwell_model(2.0, 2, 0.5, "quadratic")
    rng = np.random.default_rng(22)
    q, p = rng.standard_normal((2, 3, 8, 2))
    misses = {}
    for u in (0.5, 0.3):
        (q1, p1), = lockstep_flow_arrays(model, [(q, p)], 1.0, 0.125, _FixedUniforms(u))
        (q0, p0), = lockstep_flow_arrays(model, [(q1, -p1)], 1.0, 0.125, _FixedUniforms(u))
        misses[u] = (np.abs(q0 - q).max() / np.abs(q).max(),
                     np.abs(p0 + p).max() / np.abs(p).max())
    assert max(misses[0.5]) <= 1e-12, misses
    assert misses[0.3][0] > 1e-3, misses


def test_free_flight_is_exact_straight_line():
    m = _free_model()
    q = np.array([[0.3], [-2.0], [1.5]])
    p = np.array([[1.0], [0.5], [-0.25]])
    (out, _), = lockstep_flow_arrays(m, [(q, p)], 2.0, 0.25, RngStream(0))
    assert np.array_equal(out, q + 2.0 * p)


def test_flow_single_step_equals_one_randomized_step():
    m = gaussian_model(0.25)
    q, p = np.array([[0.1], [0.9]]), np.array([[-0.4], [0.3]])
    u = RngStream(5).uniforms(1)[0]
    by_step = randomized_step_arrays(m, q, p, 0.5, u)
    (by_flow,) = lockstep_flow_arrays(m, [(q, p)], 0.5, 0.5, RngStream(5))
    assert np.array_equal(by_flow[0], by_step[0])
    assert np.array_equal(by_flow[1], by_step[1])


def test_flow_determinism():
    m = gaussian_model(0.25)
    q, p = np.ones((4, 1)), np.zeros((4, 1))
    (a,) = lockstep_flow_arrays(m, [(q, p)], 1.0, 0.125, RngStream(17))
    (b,) = lockstep_flow_arrays(m, [(q, p)], 1.0, 0.125, RngStream(17))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_flow_refines_toward_exact_flow():
    # endpoint error shrinks as the step is refined
    eps, n_rep, n_part = 0.25, 64, 16
    m = gaussian_model(eps)
    stream = RngStream(23)
    q0 = stream.normal_vector((n_rep, n_part))
    p0 = stream.normal_vector((n_rep, n_part))
    q_ref = exact_gaussian_flow_arrays(eps, q0, p0, 1.0)
    errs = {}
    for h in (1 / 8, 1 / 128):
        (q_num, _), = lockstep_flow_arrays(m, [(q0[..., None], p0[..., None])],
                                           1.0, h, RngStream(29))
        errs[h] = np.abs(q_num[..., 0] - q_ref).mean()
    assert errs[1 / 128] < errs[1 / 8] / 10


def test_divergence_guard_reports_step():
    m = gaussian_model(0.0)
    q = np.array([[1.0]])
    p = np.array([[0.0]])
    with pytest.raises(IntegrationDivergedError) as err:
        lockstep_flow_arrays(m, [(q, p)], 2500.0, 2.5, RngStream(0))
    assert err.value.step_index >= 0


@pytest.mark.parametrize("shape, h, seed, step", [((1, 1), 2.5, 0, 192),
                                                  ((1, 1), 3.0, 0, 124),
                                                  ((1, 1), 4.0, 0, 88),
                                                  ((3, 4, 1), 2.5, 1, 178)])
def test_divergence_reports_exact_inner_step(shape, h, seed, step):
    # the unstable step sizes blow up |q| past DIVERGENCE_LIMIT at these
    # inner steps; the indices were read from the step-by-step reference loop.
    # An unbatched state is replica 0; of the (3,) batch, replica 1 leaves first
    replica = 1 if shape == (3, 4, 1) else 0
    m = gaussian_model(0.0)
    with pytest.raises(IntegrationDivergedError) as err:
        lockstep_flow_arrays(m, [(np.ones(shape), np.zeros(shape))], 1000 * h, h,
                             RngStream(seed))
    assert err.value.step_index == step
    assert str(err.value) == f"trajectory diverged at inner step {step}, replica {replica}"


def test_non_finite_force_names_its_step():
    # unit-speed free flight from 0 with h = 1 puts the evaluation point
    # q + u p inside (k, k + 1) at step k, so the force turns NaN at step 3
    nan_beyond_3 = lambda q: np.where(q > 3.0, np.nan, 0.0)
    m = MeanFieldModel(
        name="cliff", dim=1, epsilon=0.0,
        constants=AssumptionConstants(K=1.0, L1=0.0, L2=1.0, L_tilde=0.0,
                                      R_conv=0.0, W0=0.0),
        grad_U_all=nan_beyond_3)
    with pytest.raises(IntegrationDivergedError) as err:
        lockstep_flow_arrays(m, [(np.zeros((2, 1)), np.ones((2, 1)))], 10.0, 1.0,
                             RngStream(4))
    # a nan force makes p' nan, which the one bound test reports
    assert err.value.step_index == 3
    assert str(err.value) == "trajectory diverged at inner step 3, replica 0"


def test_step_rejects_wrong_trailing_dimension():
    m = gaussian_model(0.25)
    with pytest.raises(ValueError, match=r"\(\.\.\., N, 1\)"):
        randomized_step_arrays(m, np.zeros((4, 2)), np.zeros((4, 2)), 0.1, 0.5)


# --- the step's arithmetic and its inputs -----------------------------------

def _shallow_model():
    rng = np.random.default_rng(5)
    return shallow_net_model(ShallowNetDataset(rng.normal(size=(30, 2)),
                                               rng.normal(size=30)), 0.5)


def _identity_force_model(dim, seen=None):
    """V = |x|^2 / 2 and no interaction, so grad U(q) is q itself: the force
    returns its own input.  ``seen`` collects each returned array with a
    copy of it taken on return."""
    def grad_U_all(q):
        if seen is not None:
            seen.append((q, q.copy()))
        return q
    return MeanFieldModel(
        name="identity", dim=dim, epsilon=0.0,
        constants=AssumptionConstants(K=1.0, L1=1.0, L2=1.0, L_tilde=0.0,
                                      R_conv=0.0, W0=0.0),
        grad_U_all=grad_U_all)


STEP_CASES = {
    "gaussian-unbatched": (gaussian_model(0.25), (16, 1)),
    "gaussian-batched": (gaussian_model(0.25), (6, 16, 1)),
    "multiwell-interacting": (multiwell_model(2.0, 2, 0.1, "quadratic"), (5, 8, 2)),
    "multiwell-alone": (multiwell_model(2.0, 2, 0.25), (5, 8, 2)),
    "shallow-net": (_shallow_model(), (4, 6, 3)),
    "identity-force": (_identity_force_model(2), (3, 5, 2)),
}


@pytest.mark.parametrize("case", sorted(STEP_CASES))
def test_step_matches_expression_form_bit_for_bit(case):
    model, shape = STEP_CASES[case]
    rng = np.random.default_rng(11)
    for scale, h in itertools.product((1e-3, 1.0, 40.0), (0.0, 0.125, 0.7)):
        q, p = scale * rng.normal(size=shape), rng.normal(size=shape)
        # a batch array, or for one chain a Python float and the 0-d
        # np.float64 that the flow loop hands the step
        if len(shape) > 2:
            us = [rng.uniform(size=shape[:-2])]
        else:
            u = float(rng.uniform())
            us = [u, np.float64(u)]
        for u in us:
            got = randomized_step_arrays(model, *read_only(q, p), h, u)
            want = reference_randomized_step(model, q, p, h, u)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("case", sorted(STEP_CASES))
def test_step_and_flow_leave_their_inputs_unchanged(case):
    # read-only inputs make any write raise; the copies check the values
    model, shape = STEP_CASES[case]
    rng = np.random.default_rng(12)
    q, p, u = rng.normal(size=shape), rng.normal(size=shape), rng.uniform(size=shape[:-2])
    fq, fp, fu = read_only(q, p, u)
    randomized_step_arrays(model, fq, fp, 0.25, fu)
    # two pairs sharing one momentum array
    lockstep_flow_arrays(model, [(fq, fp), (fp, fp)], 1.0, 0.25, RngStream(1))
    for frozen, copy in ((fq, q), (fp, p), (fu, u)):
        assert np.array_equal(frozen, copy)


def test_step_never_writes_the_force_return_value():
    # the force hands back the evaluation point itself; every array it
    # returned must still hold what it held on return
    seen = []
    model = _identity_force_model(2, seen)
    rng = np.random.default_rng(13)
    q, p = rng.normal(size=(3, 4, 2)), rng.normal(size=(3, 4, 2))
    lockstep_flow_arrays(model, [(q, p), (p, q)], 1.0, 0.125, RngStream(2))
    assert len(seen) == 16
    for returned, on_return in seen:
        assert np.array_equal(returned, on_return)


def test_lockstep_flow_frees_each_spent_pair():
    # a pair is replaced as soon as it has stepped, so while the second
    # pair steps the flow holds the first pair's new arrays, the second
    # pair's old ones and the step's own four (q*, p', q' and one
    # temporary, as the identity force returns q*): 8 arrays of a pair's
    # size; holding both old pairs to the end of each step would take 10
    model = _identity_force_model(8)
    rng = np.random.default_rng(14)
    q, p = rng.normal(size=(2, 20, 64, 8))
    tracemalloc.start()
    try:
        lockstep_flow_arrays(model, [(q, p), (p, q)], 1.0, 0.25, RngStream(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * q.nbytes


class _RecordingStream:
    """An RngStream that records the size of each uniforms draw."""

    def __init__(self, seed):
        self.stream = RngStream(seed)
        self.sizes = []

    def uniforms(self, shape):
        u = self.stream.uniforms(shape)
        self.sizes.append(u.size)
        return u


@pytest.mark.parametrize("block, sizes", [
    # 41 steps of a 6-element batch: 8 blocks of 5 steps, then 1 step
    (30, [30] * 8 + [6]),
    # a block below one step's worth draws one step at a time
    (4, [6] * 41)])
def test_flow_draws_its_uniforms_in_blocks_of_whole_steps(monkeypatch, block, sizes):
    # the stream is counter-based, so a flow drawn in blocks matches, bit
    # for bit and in the stream's counter, the same flow drawn at once
    model = multiwell_model(2.0, 2, 0.5, "quadratic")
    q, p = np.random.default_rng(7).standard_normal((2, 3, 2, 4, 2))
    runs = []
    for cap in (block, 41 * 6):
        monkeypatch.setattr(integrators, "_UNIFORM_BLOCK", cap)
        stream = _RecordingStream(9)
        (out,) = lockstep_flow_arrays(model, [(q, p)], 5.125, 0.125, stream)
        runs.append((out, stream))
    (blocked, by_blocks), (whole, at_once) = runs
    assert by_blocks.sizes == sizes and at_once.sizes == [41 * 6]
    assert by_blocks.stream.counter == at_once.stream.counter == 41 * 6
    assert np.array_equal(blocked[0], whole[0]) and np.array_equal(blocked[1], whole[1])


@pytest.mark.parametrize("batch, index", [((), None), ((4,), 2), ((2, 3), 4)])
@pytest.mark.parametrize("where, value, force", [
    ("q", np.nan, False), ("p", np.nan, False), ("q", -np.inf, False),
    ("p", -np.inf, False), ("q", np.nan, True), ("p", np.nan, True)])
def test_bound_check_names_step_and_replica(batch, index, where, value, force):
    # one bad entry in the replica of flat batch index ``index`` (None
    # without batch axes: the unbatched state is replica 0); the force is
    # zero, or the identity, which turns the nan at the evaluation point
    # into a nan force, reported as any other divergence
    model = _identity_force_model(2) if force else _free_model(2)
    q = np.ones(batch + (3, 2))
    p = np.zeros(batch + (3, 2))
    bad = np.unravel_index(index, batch) if batch else ()
    replica = 0 if index is None else index
    (q if where == "q" else p)[bad + (1, 0)] = value
    with pytest.raises(IntegrationDivergedError) as err:
        randomized_step_arrays(model, q, p, 0.25, np.full(batch, 0.5), step_index=7)
    assert err.value.step_index == 7 and err.value.replica == replica
    assert str(err.value) == f"trajectory diverged at inner step 7, replica {replica}"


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_flow_names_the_inner_step_on_either_bound(sign):
    # free flight at speed 3e99 with h = 0.25 leaves |q| < 1e100 for 13
    # steps; the step with index 13 lands on 3.5 * 3e99 = 1.05e100, past
    # the bound on the side of the sign
    model = _free_model(1)
    q, p = np.zeros((2, 5, 3, 1)), np.zeros((2, 5, 3, 1))
    p[1, 2, 0, 0] = sign * 3e99
    with pytest.raises(IntegrationDivergedError) as err:
        lockstep_flow_arrays(model, [(q, p)], 10.0, 0.25, RngStream(3))
    assert err.value.step_index == 13 and err.value.replica == 7


# --- exact flow of the 1-d quadratic model ---------------------------------

def _exact_phase_flow(eps, q, p, t):
    """(q_t, p_t) of the exact flow: the momentum obeys the position's linear
    equation, so p_t is the position map applied to (p, -grad U(q))."""
    q, p = np.asarray(q, dtype=float), np.asarray(p, dtype=float)
    force = -gaussian_model(eps).grad_U_all(q[..., None])[..., 0]
    return (exact_gaussian_flow_arrays(eps, q, p, t),
            exact_gaussian_flow_arrays(eps, p, force, t))


def test_exact_flow_identity_at_t0():
    q, p = np.array([0.3, 1.4]), np.array([-1.0, 0.2])
    qt, pt = _exact_phase_flow(0.25, q, p, 0.0)
    assert np.allclose(qt, q, atol=1e-15)
    assert np.allclose(pt, p, atol=1e-15)


def test_exact_flow_quarter_period():
    qt, pt = _exact_phase_flow(0.0, np.array([1.0]), np.array([0.0]), np.pi / 2)
    assert qt[0] == pytest.approx(0.0, abs=1e-15)
    assert pt[0] == pytest.approx(-1.0, abs=1e-15)


def test_exact_flow_mean_mode_only():
    qt = exact_gaussian_flow_arrays(0.25, np.ones(2), np.zeros(2), 1.0)
    expected = np.cos(np.sqrt(0.75))
    assert np.allclose(qt, expected, atol=1e-14)


def test_exact_flow_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        exact_gaussian_flow_arrays(1.0, np.ones(2), np.zeros(2), 0.5)


def test_exact_flow_reversibility():
    rng = np.random.default_rng(31)
    q = rng.normal(size=12)
    p = rng.normal(size=12)
    qt, pt = _exact_phase_flow(0.25, q, p, 3.7)
    q0, p0 = _exact_phase_flow(0.25, qt, pt, -3.7)
    assert np.abs(q0 - q).max() < 1e-9
    assert np.abs(p0 - p).max() < 1e-9


def test_exact_flow_conserves_energy():
    eps = 0.25

    def energy(q, p):
        # the gaussian model's U, up to a constant, plus the kinetic energy
        return 0.5 * (q @ q - eps * q.sum() ** 2 / q.size) + 0.5 * (p @ p)

    rng = np.random.default_rng(37)
    q = rng.normal(size=8)
    p = rng.normal(size=8)
    h0 = energy(q, p)
    for t in np.linspace(0.5, 10.0, 20):
        qt, pt = _exact_phase_flow(eps, q, p, t)
        assert abs(energy(qt, pt) - h0) <= 1e-9 * abs(h0)


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
            qt, pt = _exact_phase_flow(eps, q, p, t)
            assert qt.shape == pt.shape == q.shape
            assert np.abs(qt - want[..., :n]).max() < 1e-12
            assert np.abs(pt - want[..., n:]).max() < 1e-12


def _longdouble_flow(eps, q, p, t):
    """The same closed form as _exact_phase_flow, in np.longdouble."""
    q, p = q.astype(np.longdouble), p.astype(np.longdouble)
    eps, t = np.longdouble(eps), np.longdouble(t)
    w0 = np.sqrt(np.longdouble(1) - eps)
    c0, s0, c1, s1 = np.cos(w0 * t), np.sin(w0 * t), np.cos(t), np.sin(t)

    def position(q, p):
        q_bar = q.mean(axis=-1, keepdims=True)
        p_bar = p.mean(axis=-1, keepdims=True)
        return c1 * q + s1 * p + (c0 - c1) * q_bar + (s0 / w0 - s1) * p_bar

    force = -(q - eps * q.mean(axis=-1, keepdims=True))
    return position(q, p), position(p, force)


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
    qt, pt = _exact_phase_flow(eps, q, p, t)
    q_ref, p_ref = _longdouble_flow(eps, q, p, t)
    assert float(np.abs(qt - q_ref).max()) < 1e-14
    assert float(np.abs(pt - p_ref).max()) < 1e-14
