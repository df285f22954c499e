import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meanfield_hmc import (InvalidModelError, RngStream, ShallowNetDataset,
                           gaussian_model, mean_field_grad, mean_field_grad_all,
                           models, multiwell_model, shallow_net_model)
from conftest import central_diff_grad, rel_err


def _builtin_models():
    rng = np.random.default_rng(314)
    data = ShallowNetDataset(inputs=rng.normal(size=(40, 2)),
                             outputs=rng.normal(size=40))
    return [
        gaussian_model(0.25),
        multiwell_model(1.0, dim=2, epsilon=0.5, interaction="quadratic"),
        multiwell_model(0.7),
        shallow_net_model(data),
    ]


# --- gaussian model ---------------------------------------------------------

def test_gaussian_potential_value():
    m = gaussian_model(0.25)
    assert m.V(np.array([1.0])) == pytest.approx(0.375, abs=1e-15)


def test_gaussian_zero_interaction():
    m = gaussian_model(0.0)
    rng = np.random.default_rng(0)
    for _ in range(10):
        x, y = rng.normal(size=(2, 1))
        assert m.W(np.array([x]), np.array([y])) == 0.0


def test_gaussian_two_particle_force():
    # x = (1, -1): the particle sum vanishes, so the force is (-1, +1)
    m = gaussian_model(0.25)
    q = np.array([[1.0], [-1.0]])
    force = -mean_field_grad_all(m, q)
    assert np.allclose(force, [[-1.0], [1.0]], atol=1e-15)


def test_gaussian_epsilon_range():
    with pytest.raises(InvalidModelError):
        gaussian_model(1.0)
    with pytest.raises(InvalidModelError):
        gaussian_model(-0.1)


def test_gaussian_constants():
    c = gaussian_model(0.25).constants
    assert c.K == 0.75 and c.L1 == 1.0 and c.L2 == 1.0
    assert c.L_tilde == 0.25 and c.R_conv == 0.0 and c.W0 == 0.0
    assert c.L == 1.0 and c.C_hat == 0.0


def test_gaussian_target_reduces_to_standard_normal():
    # V(x) + E_{y~N(0,1)} W(x, y) = x^2/2, by Gauss-Hermite quadrature
    m = gaussian_model(0.25)
    nodes, weights = np.polynomial.hermite.hermgauss(64)
    y = np.sqrt(2.0) * nodes
    w = weights / np.sqrt(np.pi)
    for x in (-2.0, -0.3, 0.0, 1.1, 3.0):
        integral = np.sum(w * m.W(np.array([x]), y[:, None]))
        total = m.V(np.array([x])) + integral
        assert total == pytest.approx(0.5 * x * x, abs=1e-8)


# --- multiwell model --------------------------------------------------------

def test_multiwell_constants_at_a1():
    c = multiwell_model(1.0).constants
    assert c.K == 0.25 and c.L2 == 2.0 and c.L1 == 2.0
    assert c.R_conv == pytest.approx(4.0 / np.sqrt(np.e), rel=1e-12)


def test_multiwell_flat_bump():
    m = multiwell_model(0.0)
    x = np.array([0.7])
    assert m.V(x) == pytest.approx(0.5 * 0.49 + 1.0, abs=1e-15)
    assert np.allclose(m.grad_V(x), x)
    assert m.constants.R_conv == 0.0


def test_multiwell_gradient_at_origin():
    m = multiwell_model(1.0)
    assert np.allclose(m.grad_V(np.zeros(1)), 0.0)


def test_multiwell_interaction_modes():
    none = multiwell_model(1.0, dim=2)
    quad = multiwell_model(1.0, dim=2, epsilon=0.3, interaction="quadratic")
    x = np.array([0.4, -1.0])
    y = np.array([1.0, 0.2])
    assert none.W(x, y) == 0.0
    assert quad.W(x, y) == pytest.approx(0.5 * np.sum((x - y) ** 2))
    assert quad.constants.L_tilde == 1.0
    with pytest.raises(InvalidModelError):
        multiwell_model(1.0, interaction="cubic")
    with pytest.raises(InvalidModelError):
        multiwell_model(-1.0)


# --- shallow-net model ------------------------------------------------------

def test_shallow_net_zero_outputs_reduce_to_regularizer():
    rng = np.random.default_rng(1)
    data = ShallowNetDataset(inputs=rng.normal(size=(30, 3)),
                             outputs=np.zeros(30))
    m = shallow_net_model(data)
    x = rng.normal(size=4)
    assert m.V(x) == pytest.approx(0.5 * np.sum(x * x), abs=1e-12)


def test_shallow_net_single_datum_value():
    # one point (y=1, z=0): sigmoid(0) = 1/2, so V(x) = |x|^2/2 + beta
    data = ShallowNetDataset(inputs=np.zeros((1, 1)), outputs=np.ones(1))
    m = shallow_net_model(data)
    for beta, alpha in [(0.3, -1.2), (-2.0, 0.5)]:
        x = np.array([beta, alpha])
        assert m.V(x) == pytest.approx(0.5 * (beta**2 + alpha**2) + beta, abs=1e-12)


def test_shallow_net_self_interaction_nonnegative():
    rng = np.random.default_rng(2)
    data = ShallowNetDataset(inputs=rng.normal(size=(25, 2)),
                             outputs=rng.normal(size=25))
    m = shallow_net_model(data)
    for _ in range(50):
        x = rng.normal(size=3)
        assert m.W(x, x) >= 0.0


def test_shallow_net_validation():
    with pytest.raises(InvalidModelError):
        ShallowNetDataset(inputs=np.zeros((0, 2)), outputs=np.zeros(0))
    with pytest.raises(InvalidModelError):
        ShallowNetDataset(inputs=np.array([[np.inf, 0.0]]), outputs=np.ones(1))
    rng = np.random.default_rng(3)
    data = ShallowNetDataset(inputs=rng.normal(size=(5, 2)),
                             outputs=rng.normal(size=5))
    m = shallow_net_model(data)
    with pytest.raises(InvalidModelError):
        m.V(np.zeros(5))  # parameter dim is 3
    with pytest.raises(InvalidModelError):
        shallow_net_model(data, activation="relu")


def test_shallow_net_constants_flagged_estimates():
    rng = np.random.default_rng(4)
    data = ShallowNetDataset(inputs=rng.normal(size=(20, 2)),
                             outputs=rng.normal(size=20))
    m = shallow_net_model(data)
    assert not m.constants.certified
    assert m.constants.L1 >= 1.0 and m.constants.L_tilde > 0.0
    # rebuilt model reproduces identical estimates (deterministic probes)
    again = shallow_net_model(data)
    assert again.constants == m.constants


def _whole_array_probe(model, probe_radius=4.0):
    """L1, L_tilde and R_conv from all probe pairs in one gradient call each."""
    n, dim = models._PROBE_PAIRS, model.dim
    stream = RngStream(models._PROBE_SEED)
    xs, ys, xt, yt = (probe_radius * (2.0 * stream.uniforms(n * dim).reshape(n, dim) - 1.0)
                      for _ in range(4))
    dx = xs - ys
    norms = np.linalg.norm(dx, axis=-1)
    keep = norms > 1e-8
    dg = model.grad_V(xs) - model.grad_V(ys)
    l1 = max(1.0, float((np.linalg.norm(dg, axis=-1)[keep] / norms[keep]).max()))
    upsilon = max(0.0, float((0.5 * norms**2 - np.sum(dx * dg, axis=-1)).max()))
    dgw = np.linalg.norm(model.grad1_W(xs, ys) - model.grad1_W(xt, yt), axis=-1)
    denom = np.linalg.norm(xs - xt, axis=-1) + np.linalg.norm(ys - yt, axis=-1)
    ok = denom > 1e-8
    l_tilde = float((dgw[ok] / denom[ok]).max())
    return {"L1": l1, "L_tilde": l_tilde, "R_conv": float(np.sqrt(4.0 * upsilon))}


@pytest.mark.parametrize("count, inputs, scale", [(40, 1, 1.0), (300, 2, 20.0)])
def test_shallow_net_blocked_probe_matches_whole_array_probe(count, inputs, scale):
    # neither count divides the block budget and the last probe block is
    # short; outputs scaled by 20 make the convexity defect (R_conv) nonzero
    assert models._PROBE_BLOCK % count != 0
    assert models._PROBE_PAIRS % (models._PROBE_BLOCK // count) != 0
    rng = np.random.default_rng(count)
    data = ShallowNetDataset(inputs=rng.normal(size=(count, inputs)),
                             outputs=scale * rng.normal(size=count))
    m = shallow_net_model(data)
    for name, ref in _whole_array_probe(m).items():
        got = getattr(m.constants, name)
        assert abs(got - ref) <= 1e-15 * abs(ref), (name, got, ref)
    assert (m.constants.R_conv > 0.0) == (scale > 1.0)


def test_shallow_net_build_memory_stays_flat():
    # all 10,000 probe pairs in one call would hold (10000, 512) feature
    # arrays, a peak near 159 MiB; in row blocks the build stays near 4 MiB
    rng = np.random.default_rng(13)
    data = ShallowNetDataset(inputs=rng.normal(size=(512, 3)),
                             outputs=rng.normal(size=512))
    tracemalloc.start()
    try:
        shallow_net_model(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_shallow_net_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    data = ShallowNetDataset(inputs=rng.normal(size=(12, 3)),
                             outputs=rng.normal(size=12))
    path = tmp_path / "data.csv"
    data.to_csv(path)
    back = ShallowNetDataset.from_csv(path)
    assert np.array_equal(back.inputs, data.inputs)
    assert np.array_equal(back.outputs, data.outputs)
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(InvalidModelError):
        ShallowNetDataset.from_csv(bad)


# --- shared invariants ------------------------------------------------------

def test_pair_interaction_symmetry():
    rng = np.random.default_rng(6)
    for m in _builtin_models():
        for _ in range(25):
            x = rng.normal(size=m.dim)
            y = rng.normal(size=m.dim)
            assert m.W(x, y) == pytest.approx(m.W(y, x), rel=1e-13, abs=1e-13)


def test_gradients_match_central_differences():
    rng = np.random.default_rng(7)
    for m in _builtin_models():
        for _ in range(100):
            x = rng.normal(size=m.dim)
            y = rng.normal(size=m.dim)
            gv = np.atleast_1d(m.grad_V(x))
            fd = central_diff_grad(lambda t: float(m.V(t)), x)
            assert np.abs(gv - fd).max() <= 1e-5 * max(1.0, np.abs(gv).max())
            g1 = np.atleast_1d(m.grad1_W(x, y))
            fd1 = central_diff_grad(lambda t: float(m.W(t, y)), x)
            assert np.abs(g1 - fd1).max() <= 1e-5 * max(1.0, np.abs(g1).max())


def test_interaction_gradient_lipschitz_probes():
    rng = np.random.default_rng(8)
    for m in _builtin_models():
        lt = m.constants.L_tilde
        x, y, xt, yt = rng.normal(size=(4, 1000, m.dim))
        lhs = np.linalg.norm(m.grad1_W(x, y) - m.grad1_W(xt, yt), axis=-1)
        rhs = lt * (np.linalg.norm(x - xt, axis=-1) + np.linalg.norm(y - yt, axis=-1))
        assert (lhs <= rhs * (1 + 1e-9) + 1e-12).all()


def test_confinement_gradient_lipschitz_probes():
    rng = np.random.default_rng(9)
    for m in _builtin_models():
        if not m.constants.certified:
            continue  # estimated constants hold only inside the probe box
        l1 = m.constants.L1
        x, y = rng.normal(size=(2, 1000, m.dim))
        lhs = np.linalg.norm(m.grad_V(x) - m.grad_V(y), axis=-1)
        rhs = l1 * np.linalg.norm(x - y, axis=-1)
        assert (lhs <= rhs * (1 + 1e-9)).all()
        assert np.isfinite(m.grad_V(np.zeros(m.dim))).all()


def test_grad_all_matches_pairwise_and_single():
    rng = np.random.default_rng(10)
    for m in _builtin_models():
        q = rng.normal(size=(7, m.dim))
        fast = mean_field_grad_all(m, q)
        pair = mean_field_grad_all(m, q, pairwise=True)
        assert np.allclose(fast, pair, rtol=1e-12, atol=1e-12)
        for i in range(7):
            assert np.allclose(mean_field_grad(m, q, i), fast[i],
                               rtol=1e-12, atol=1e-12)
        # batched (R, N, d): each replica is its own N-particle system
        qb = rng.normal(size=(3, 5, m.dim))
        fast = mean_field_grad_all(m, qb)
        pair = mean_field_grad_all(m, qb, pairwise=True)
        assert fast.shape == qb.shape
        assert np.allclose(fast, pair, rtol=1e-12, atol=1e-12)
        for r in range(3):
            assert np.allclose(fast[r], mean_field_grad_all(m, qb[r]),
                               rtol=1e-12, atol=1e-12)
            for i in range(5):
                assert np.allclose(mean_field_grad(m, qb[r], i), fast[r, i],
                                   rtol=1e-12, atol=1e-12)


def _assert_fast_force_matches_pairwise(m, seed, n, replicas):
    rng = np.random.default_rng(seed)
    for shape in [(n, m.dim), (replicas, n, m.dim)]:
        q = rng.uniform(-3.0, 3.0, size=shape)
        fast = mean_field_grad_all(m, q)
        assert fast.shape == q.shape
        assert rel_err(fast, mean_field_grad_all(m, q, pairwise=True)) <= 1e-12


_seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=30, deadline=None)
@given(count=st.integers(1, 40), inputs=st.integers(1, 3),
       eps=st.floats(0.0, 2.0), seed=_seeds, n=st.integers(1, 9),
       replicas=st.integers(1, 4))
def test_shallow_net_fast_force_matches_pairwise(count, inputs, eps, seed, n, replicas):
    rng = np.random.default_rng(seed)
    data = ShallowNetDataset(inputs=rng.normal(size=(count, inputs)),
                             outputs=rng.normal(size=count))
    m = shallow_net_model(data, epsilon=eps)
    _assert_fast_force_matches_pairwise(m, seed, n, replicas)


@settings(max_examples=100, deadline=None)
@given(a=st.floats(0.0, 5.0), eps=st.floats(0.0, 2.0), dim=st.integers(1, 3),
       interaction=st.sampled_from([None, "quadratic"]), seed=_seeds,
       n=st.integers(1, 9), replicas=st.integers(1, 4))
def test_multiwell_fast_force_matches_pairwise(a, eps, dim, interaction, seed, n, replicas):
    m = multiwell_model(a, dim=dim, epsilon=eps, interaction=interaction)
    _assert_fast_force_matches_pairwise(m, seed, n, replicas)


def test_grad_all_batched():
    m = gaussian_model(0.25)
    rng = np.random.default_rng(11)
    q = rng.normal(size=(5, 3, 4, 1))
    batched = mean_field_grad_all(m, q)
    for i in range(5):
        for j in range(3):
            assert np.allclose(batched[i, j], mean_field_grad_all(m, q[i, j]))


def test_mean_field_grad_values():
    m = gaussian_model(0.25)
    q = np.ones((4, 1))
    for i in range(4):
        assert mean_field_grad(m, q, i) == pytest.approx(0.75)
    with pytest.raises(IndexError):
        mean_field_grad(m, q, 4)
    mw = multiwell_model(1.0)
    assert np.allclose(mean_field_grad(mw, np.zeros((1, 1)), 0), 0.0)
    neutral = gaussian_model(0.0)
    q = np.array([[0.3], [-1.2]])
    assert np.allclose(mean_field_grad_all(neutral, q), neutral.grad_V(q))


# --- coordinate-axis helpers --------------------------------------------------
# Each helper must equal the numpy expression it replaces bit for bit.  The
# order in which numpy sums depends on its version, so a numpy upgrade that
# changes one of these orders fails here rather than moving golden outputs.

def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and got.dtype == want.dtype
            and got.tobytes() == want.tobytes())


@st.composite
def _particle_arrays(draw, count=1):
    """``count`` (..., N, d) arrays with leading shape (), (R,) or (2, R),
    d in 1..9, N in 1..40 and magnitudes spread over 1e-3..1e3."""
    d = draw(st.integers(1, 9))
    n = draw(st.sampled_from([1, 2, 7, 8, 9, 33]))
    r = draw(st.integers(1, 5))
    lead = draw(st.sampled_from([(), (r,), (2, r)]))
    rng = np.random.default_rng(draw(_seeds))
    shape = lead + (n, d)
    return [rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-3.0, 3.0, size=shape)
            for _ in range(count)]


@settings(max_examples=150, deadline=None)
@given(arrays=_particle_arrays(count=2))
def test_coordinate_sums_match_numpy(arrays):
    x, y = arrays
    assert _same_bits(models._dot_last(x, x), np.sum(x * x, -1))
    assert _same_bits(models._dot_last(x, y), np.sum(x * y, axis=-1))
    assert _same_bits(models._norm_last(x), np.linalg.norm(x, axis=-1))
    assert _same_bits(models._particle_sum(x), np.add.reduce(x, axis=-2, keepdims=True))


@settings(max_examples=150, deadline=None)
@given(arrays=_particle_arrays(count=3))
def test_columnwise_and_row_selection_match_broadcasts(arrays):
    x, y, z = arrays
    per_particle = y[..., 0]
    per_coordinate = y[..., :1, :]
    assert _same_bits(models._columnwise(np.multiply, x, per_particle),
                      x * per_particle[..., None])
    assert _same_bits(models._columnwise(np.subtract, x, per_coordinate),
                      x - per_coordinate)
    # masked division into a prepared output, as the velocity coupling does
    mask = per_particle > 0
    got = np.zeros_like(x)
    want = np.zeros_like(x)
    models._columnwise(np.divide, x, per_particle, out=got, where=mask)
    np.divide(x, per_particle[..., None], out=want, where=mask[..., None])
    assert _same_bits(got, want)
    rows = z[..., 0] > 0
    assert _same_bits(models._select_rows(rows, x, y), np.where(rows[..., None], x, y))
