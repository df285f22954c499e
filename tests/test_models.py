import math
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit

from meanfield_hmc import (ShallowNetDataset, gaussian_model,
                           mean_field_grad_all, models, multiwell_model,
                           shallow_net_model)
from conftest import (central_diff_grad, pair_sum_potential, pairwise_grad_all,
                      read_only, reference, reference_shallow_net, rel_err)


def _builtin_models():
    """Each built-in model with its expression-form reference."""
    rng = np.random.default_rng(314)
    data = ShallowNetDataset(inputs=rng.normal(size=(40, 2)),
                             outputs=rng.normal(size=40))
    models = [
        gaussian_model(0.25),
        multiwell_model(1.0, dim=2, epsilon=0.5, interaction="quadratic"),
        multiwell_model(0.7),
        shallow_net_model(data),
    ]
    return [(m, reference(m, data)) for m in models]


# --- gaussian model ---------------------------------------------------------

def test_gaussian_potential_value():
    ref = reference(gaussian_model(0.25))
    assert ref.V(np.array([1.0])) == pytest.approx(0.375, abs=1e-15)


def test_gaussian_zero_interaction():
    # the pair term enters the potential as epsilon * W
    m = gaussian_model(0.0)
    assert m.epsilon == 0.0
    ref = reference(m)
    rng = np.random.default_rng(0)
    for _ in range(10):
        x, y = rng.normal(size=(2, 1))
        assert ref.epsilon * ref.W(np.array([x]), np.array([y])) == 0.0


def test_gaussian_two_particle_force():
    # x = (1, -1): the particle sum vanishes, so the force is (-1, +1)
    m = gaussian_model(0.25)
    q = np.array([[1.0], [-1.0]])
    force = -mean_field_grad_all(m, q)
    assert np.allclose(force, [[-1.0], [1.0]], atol=1e-15)


def test_gaussian_epsilon_range():
    with pytest.raises(ValueError, match=r"epsilon must lie in \[0, 1\), got epsilon=1.0;"):
        gaussian_model(1.0)
    with pytest.raises(ValueError, match=r"epsilon must lie in \[0, 1\), got epsilon=-0.1;"):
        gaussian_model(-0.1)


def test_gaussian_constants():
    # epsilon is the interaction strength and W has unit strength, so the
    # interaction force epsilon * grad1_W is Lipschitz in epsilon * L_tilde
    m = gaussian_model(0.25)
    c = m.constants
    assert m.epsilon == 0.25 and m.params == {"epsilon": 0.25}
    assert c.K == 0.75 and c.L1 == 1.0 and c.L2 == 1.0
    assert c.L_tilde == 1.0 and c.R_conv == 0.0 and c.W0 == 0.0
    assert m.epsilon * c.L_tilde == 0.25
    assert c.L == 1.0 and c.C_hat == 0.0


def test_gaussian_target_reduces_to_standard_normal():
    # V(x) + eps E_{y~N(0,1)} W(x, y) = x^2/2, by Gauss-Hermite quadrature
    ref = reference(gaussian_model(0.25))
    nodes, weights = np.polynomial.hermite.hermgauss(64)
    y = np.sqrt(2.0) * nodes
    w = weights / np.sqrt(np.pi)
    for x in (-2.0, -0.3, 0.0, 1.1, 3.0):
        integral = np.sum(w * ref.epsilon * ref.W(np.array([x]), y[:, None]))
        total = ref.V(np.array([x])) + integral
        assert total == pytest.approx(0.5 * x * x, abs=1e-8)


# --- multiwell model --------------------------------------------------------

def test_multiwell_constants_at_a1():
    c = multiwell_model(1.0).constants
    assert c.K == 0.25 and c.L2 == 2.0 and c.L1 == 2.0
    assert c.R_conv == pytest.approx(4.0 / np.sqrt(np.e), rel=1e-12)


def test_multiwell_flat_bump():
    m = multiwell_model(0.0)
    x = np.array([0.7])
    assert reference(m).V(x) == pytest.approx(0.5 * 0.49 + 1.0, abs=1e-15)
    # no interaction, so the force is grad_V
    assert np.allclose(m.grad_U_all(x[None]), x)
    assert m.constants.R_conv == 0.0


def test_multiwell_gradient_at_origin():
    m = multiwell_model(1.0)
    assert np.allclose(m.grad_U_all(np.zeros((1, 1))), 0.0)


def test_multiwell_interaction_modes():
    none = multiwell_model(1.0, dim=2)
    quad = multiwell_model(1.0, dim=2, epsilon=0.3, interaction="quadratic")
    x = np.array([0.4, -1.0])
    y = np.array([1.0, 0.2])
    assert reference(none).W(x, y) == 0.0
    assert reference(quad).W(x, y) == pytest.approx(0.5 * np.sum((x - y) ** 2))
    assert none.constants.L_tilde == 0.0
    assert quad.constants.L_tilde == 1.0
    with pytest.raises(ValueError, match="unknown interaction 'cubic'"):
        multiwell_model(1.0, interaction="cubic")
    with pytest.raises(ValueError, match="a must be finite and nonnegative, got a=-1.0"):
        multiwell_model(-1.0)


# --- shallow-net model ------------------------------------------------------

def _sigmoid_features(s):
    """The sigmoid features of parameters (1, s) against the one datum z = 1,
    which the feature pass takes negated and transposed."""
    s = np.asarray(s, dtype=float)
    x = np.stack([np.ones_like(s), s], axis=-1)
    return models._ridge_features(x, np.array([[-1.0]]))[1][..., 0]


def _ulps_apart(a, b):
    # nonnegative floats are ordered as their int64 bit patterns are
    return np.abs(a.view(np.int64) - b.view(np.int64))


def test_shallow_net_sigmoid_matches_expit_within_four_ulp():
    # Premise, checked first: numpy's exp and the C library's, which expit
    # calls, are at most 1 ulp apart.  With u = 2**-53, ulp(v) lies in
    # (u v, 2u v], so the two values of e = exp(-s) differ by at most 2u e,
    # the exact sums 1 + e by less than 2 ulp(1 + e), and the rounded sums
    # by at most 2 ulp, a relative 4u.  The exact quotients 1 / (1 + e)
    # then differ by 4u sigma < 4 ulp(sigma) to first order, and the
    # rounded ones by at most 4 ulp.
    grid = np.linspace(-800.0, 800.0, 160_001)
    finite = grid[grid > -709.0]
    libm = np.array([math.exp(-v) for v in finite])
    assert _ulps_apart(np.exp(-finite), libm).max() <= 1
    assert _ulps_apart(_sigmoid_features(grid), expit(grid)).max() <= 4
    special = np.array([np.inf, -np.inf, 0.0, -0.0])
    assert np.array_equal(_sigmoid_features(special), expit(special))
    assert np.isnan(_sigmoid_features(np.nan)) and np.isnan(expit(np.nan))


def test_shallow_net_sigmoid_underflows_to_zero_without_warning():
    # exp(-s) overflows for s < -709.78; expit returns 0 there
    s = np.array([-745.5, -1e4, -np.finfo(float).max])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(_sigmoid_features(s), np.zeros(3))


def test_shallow_net_force_is_finite_where_every_feature_underflows():
    data = ShallowNetDataset(inputs=np.array([[1.0], [2.0]]),
                             outputs=np.array([1.0, -1.0]))
    m = shallow_net_model(data, epsilon=0.5)
    q = np.array([[3.0, -800.0], [-2.0, -1000.0]])   # alpha z_m <= -800
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = m.grad_U_all(q)
    # sigma = 0 zeroes every ridge term, leaving the regularizer's q
    assert np.array_equal(g, q)


def test_shallow_net_zero_outputs_reduce_to_regularizer():
    rng = np.random.default_rng(1)
    data = ShallowNetDataset(inputs=rng.normal(size=(30, 3)),
                             outputs=np.zeros(30))
    ref = reference(shallow_net_model(data), data)
    x = rng.normal(size=4)
    assert ref.V(x) == pytest.approx(0.5 * np.sum(x * x), abs=1e-12)


def test_shallow_net_single_datum_value():
    # one point (y=1, z=0): sigmoid(0) = 1/2, so V(x) = |x|^2/2 + beta
    data = ShallowNetDataset(inputs=np.zeros((1, 1)), outputs=np.ones(1))
    ref = reference(shallow_net_model(data), data)
    for beta, alpha in [(0.3, -1.2), (-2.0, 0.5)]:
        x = np.array([beta, alpha])
        assert ref.V(x) == pytest.approx(0.5 * (beta**2 + alpha**2) + beta, abs=1e-12)


def test_shallow_net_self_interaction_nonnegative():
    rng = np.random.default_rng(2)
    data = ShallowNetDataset(inputs=rng.normal(size=(25, 2)),
                             outputs=rng.normal(size=25))
    ref = reference(shallow_net_model(data), data)
    for _ in range(50):
        x = rng.normal(size=3)
        assert ref.W(x, x) >= 0.0


def test_shallow_net_validation():
    with pytest.raises(ValueError, match="dataset must contain at least one point"):
        ShallowNetDataset(inputs=np.zeros((0, 2)), outputs=np.zeros(0))
    with pytest.raises(ValueError, match="dataset entries must be finite"):
        ShallowNetDataset(inputs=np.array([[np.inf, 0.0]]), outputs=np.ones(1))
    with pytest.raises(ValueError, match=r"inputs must be a 2-d array \(M, d-1\)"):
        ShallowNetDataset(inputs=np.zeros(3), outputs=np.zeros(3))
    with pytest.raises(ValueError, match="outputs must have one entry per input row"):
        ShallowNetDataset(inputs=np.zeros((3, 2)), outputs=np.zeros(2))
    rng = np.random.default_rng(3)
    data = ShallowNetDataset(inputs=rng.normal(size=(5, 2)),
                             outputs=rng.normal(size=5))
    m = shallow_net_model(data)
    with pytest.raises(ValueError, match=r"\(\.\.\., N, 3\)"):
        mean_field_grad_all(m, np.zeros((2, 5)))  # parameter dim is 3


def _reference_constants(data, d2_max=1.0 / (6.0 * math.sqrt(3.0)), radius=4.0):
    """The shallow-net box bounds of ``models._box_constants``, one data
    point at a time; ``d2_max`` bounds |sigma''|."""
    m_count, dim = data.count, 1 + data.input_dim
    norms = [math.sqrt(sum(v * v for v in z)) for z in data.inputs]
    hess = [n / 4.0 + radius * d2_max * n * n for n in norms]
    grad2 = [1.0 + (radius * n / 4.0) ** 2 for n in norms]
    s = 2.0 / m_count * sum(abs(y) * h for y, h in zip(data.outputs, hess))
    if s < 1.0:
        m0, upsilon = 1.0 - s, 0.0
    else:
        m0, upsilon = 0.5, (s - 0.5) * 4.0 * radius**2 * dim
    return {"K": m0 / 4.0, "L1": 1.0 + s, "L2": 4.0 * (1.0 + s) ** 2 / m0,
            "L_tilde": 2.0 / m_count * max(radius * sum(hess), sum(grad2)),
            "R_conv": math.sqrt(2.0 * upsilon / m0), "W0": 0.0}


def _in_box_excess(m, ref, constants, seed, pairs=100_000, block=10_000):
    """How far pairs inside the box of model ``m`` exceed the bounds in
    ``constants``, on the V and W of its reference ``ref``.

    Returns the largest grad_V difference quotient, grad1_W quotient (in
    the metric |x - y| + |xt - yt|) and convexity defect
    m0 |x - y|^2 - <x - y, grad_V(x) - grad_V(y)>, each less its bound
    (L1, L_tilde and Upsilon = (m0/2) R_conv^2 with m0 = 4K) and relative
    to it (to 1 where Upsilon is 0).  x and xt are uniform in the box; y and
    yt lie a log-uniform fraction in [1e-3, 1] of the way to a second
    uniform point, so short pairs see the local curvature.
    """
    rng = np.random.default_rng(seed)
    box = m.params["box_radius"]
    m0 = 4.0 * constants["K"]
    upsilon = 0.5 * m0 * constants["R_conv"] ** 2
    bounds = np.array([constants["L1"], constants["L_tilde"], max(upsilon, 1.0)])
    excess = np.full(3, -np.inf)
    for _ in range(pairs // block):
        x, w, xt, wt = rng.uniform(-box, box, size=(4, block, m.dim))
        frac = 10.0 ** rng.uniform(-3.0, 0.0, size=(2, block, 1))
        y, yt = x + frac[0] * (w - x), xt + frac[1] * (wt - xt)
        dist = np.linalg.norm(x - y, axis=-1)
        dg = ref.grad_V(x) - ref.grad_V(y)
        dgw = ref.grad1_W(x, xt) - ref.grad1_W(y, yt)
        worst = [
            (np.linalg.norm(dg, axis=-1) / dist).max() - constants["L1"],
            (np.linalg.norm(dgw, axis=-1)
             / (dist + np.linalg.norm(xt - yt, axis=-1))).max() - constants["L_tilde"],
            (m0 * dist**2 - np.sum((x - y) * dg, axis=-1)).max() - upsilon]
        excess = np.maximum(excess, np.array(worst) / bounds)
    return excess


def _shallow_net_data(count, inputs, scale):
    rng = np.random.default_rng(count + inputs)
    return ShallowNetDataset(inputs=rng.normal(size=(count, inputs)),
                             outputs=scale * rng.normal(size=count))


# outputs scaled by 0.2 keep S = (2/M) sum_m |y_m| H_m below 1 (V strongly
# convex on the box); scaled by 20 they take it past 1 (R_conv > 0)
_BOX_DATASETS = [(5, 2, 0.2), (5, 2, 20.0), (20, 2, 0.2), (60, 3, 20.0)]


@pytest.mark.parametrize("count, inputs, scale", _BOX_DATASETS)
def test_shallow_net_constants_bound_every_in_box_pair(count, inputs, scale):
    data = _shallow_net_data(count, inputs, scale)
    m = shallow_net_model(data)
    assert (m.constants.R_conv > 0.0) == (scale > 1.0)
    excess = _in_box_excess(m, reference(m, data), vars(m.constants), seed=count)
    assert (excess <= 1e-12).all(), excess


@pytest.mark.parametrize("count, inputs, scale", _BOX_DATASETS[:2])
def test_shallow_net_bounds_without_the_sigma_curvature_fail_the_in_box_check(
        count, inputs, scale):
    # dropping the beta sigma'' z z^T block of phi's Hessian leaves bounds
    # that some in-box pair exceeds, on either convexity branch
    data = _shallow_net_data(count, inputs, scale)
    m = shallow_net_model(data)
    excess = _in_box_excess(m, reference(m, data),
                            _reference_constants(data, d2_max=0.0), seed=count)
    assert (excess > 0.0).any(), excess


def test_shallow_net_constants_overflow_to_infinity_not_nan():
    # |z|^2 overflows at the first point; the force and a sample do not read
    # the constants, so the model must still build.  With a zero output there
    # the point adds nothing to S, and V stays strongly convex on the box.
    inputs = np.array([[1e200], [1.0]])
    for outputs in ([0.0, 0.5], [1.0, 0.5]):
        c = shallow_net_model(ShallowNetDataset(inputs, np.array(outputs))).constants
        assert not any(math.isnan(v) for v in vars(c).values())
        assert c.L_tilde == math.inf
        assert c.R_conv == (0.0 if outputs[0] == 0.0 else math.inf)


def test_shallow_net_build_memory_stays_flat():
    # the build holds O(M d) values: no array of force evaluations at many
    # points, whose (points, M) features would grow with the dataset
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


def _ridge_sum_bound(data, epsilon, x):
    """Bound on |contraction form - elementwise form| of grad_U_all(x), each
    entry.

    Both forms take every entry as a sum over m (and, through S, over the
    particles j) of products of the same inputs: beta, sigma, y, z, eps/N,
    2/M and q.  Along any term there are at most k = M + N + 8 roundings
    (N in S, two for w, one for 1 - sigma, three products, M - 1 additions
    over m, the scale 2/M and the addition of q), so by the standard
    error bound of a sum of products (Higham, Accuracy and Stability of
    Numerical Algorithms, sec. 3.1), in any order of summation and with or
    without fused multiply-adds, each form lies within gamma_k * sum |term|
    of the exact value, gamma_k = k u / (1 - k u).  The two forms then
    differ by at most 2 gamma_k * sum |term|, which is the force on the
    absolute values of its terms.
    """
    z, y, m_count = data.inputs, data.outputs, data.count
    x = np.asarray(x, dtype=float)
    n = x.shape[-2]
    beta = np.abs(x[..., 0])
    sig = 1.0 / (1.0 + np.exp(-(x[..., 1:] @ z.T)))
    wt = (np.abs(y) + (epsilon / n) * (beta[..., None, :] @ sig)).swapaxes(-1, -2)
    terms = np.concatenate(
        [sig @ wt, ((1.0 - sig) * sig) @ (wt * np.abs(z)) * beta[..., None]], axis=-1)
    k = m_count + n + 8
    u = np.finfo(float).eps / 2
    return 2.0 * (k * u / (1.0 - k * u)) * (np.abs(x) + (2.0 / m_count) * terms)


_FORCE_DATASETS = [(256, 3, 1.0), (256, 1, 20.0), (40, 2, 1.0)]


@pytest.mark.parametrize("count, inputs, scale", _FORCE_DATASETS)
def test_shallow_net_rewrite_matches_reference_bit_for_bit(count, inputs, scale):
    rng = np.random.default_rng(count + inputs)
    data = ShallowNetDataset(inputs=rng.normal(size=(count, inputs)),
                             outputs=scale * rng.normal(size=count))
    m = shallow_net_model(data, epsilon=0.5)
    grad_U_all = reference_shallow_net(data, 0.5).grad_U_all
    assert vars(m.constants) == {
        k: pytest.approx(v, rel=1e-14) for k, v in _reference_constants(data).items()}
    for shape in [(1, m.dim), (64, m.dim), (3, 64, m.dim), (2, 1, 5, m.dim)]:
        q = 2.0 * rng.normal(size=shape)
        assert np.array_equal(m.grad_U_all(q), grad_U_all(q)), shape


@pytest.mark.parametrize("count, inputs, scale", _FORCE_DATASETS)
def test_shallow_net_contractions_within_dot_product_bound_of_elementwise_form(
        count, inputs, scale):
    rng = np.random.default_rng(count + inputs)
    data = ShallowNetDataset(inputs=rng.normal(size=(count, inputs)),
                             outputs=scale * rng.normal(size=count))
    m = shallow_net_model(data, epsilon=0.5)
    grad_U_all = reference_shallow_net(data, 0.5, elementwise=True).grad_U_all
    for shape in [(1, m.dim), (64, m.dim), (3, 64, m.dim), (2, 1, 5, m.dim)]:
        q = 2.0 * rng.normal(size=shape)
        bound = _ridge_sum_bound(data, 0.5, q)
        assert (np.abs(m.grad_U_all(q) - grad_U_all(q)) <= bound).all(), shape


@pytest.mark.parametrize("count, inputs", [(256, 3), (40, 2), (256, 1), (1000, 5)])
def test_shallow_net_batched_force_matches_per_replica_calls(count, inputs):
    # each replica's matmuls hold the same rows whether it is called alone
    # or in a batch, so no row is re-blocked and no bit moves
    data = _shallow_net_data(count, inputs, 1.0)
    m = shallow_net_model(data, epsilon=0.5)
    rng = np.random.default_rng(count * inputs)
    for shape in [(3, 64, m.dim), (2, 3, 17, m.dim)]:
        q = 2.0 * rng.normal(size=shape)
        batched = m.grad_U_all(q)
        for idx in np.ndindex(shape[:-2]):
            assert np.array_equal(batched[idx], m.grad_U_all(q[idx])), (shape, idx)


def test_shallow_net_force_is_thread_safe():
    # scratch arrays cached on the model or its closure would let one
    # thread's call overwrite the other's partial results
    rng = np.random.default_rng(17)
    data = ShallowNetDataset(inputs=rng.normal(size=(256, 3)),
                             outputs=rng.normal(size=256))
    m = shallow_net_model(data, epsilon=0.5)
    inputs = 2.0 * rng.normal(size=(2, 64, m.dim))
    expected = [m.grad_U_all(q) for q in inputs]
    start = threading.Barrier(2)

    def calls(q):
        start.wait()
        return [m.grad_U_all(q) for _ in range(50)]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(calls, inputs, timeout=60))
    finally:
        sys.setswitchinterval(switch)
    for got, want in zip(results, expected):
        assert all(np.array_equal(g, want) for g in got)


def test_shallow_net_force_leaves_read_only_inputs_unchanged():
    # read-only inputs and data make any write raise; the copies check the
    # values, and no result may share memory with an input, as the forces
    # finish their sums in arrays of their own
    rng = np.random.default_rng(23)
    z0, y0 = rng.normal(size=(40, 3)), rng.normal(size=40)
    z, y = read_only(z0, y0)
    m = shallow_net_model(ShallowNetDataset(inputs=z, outputs=y), epsilon=0.5)
    q0 = 2.0 * rng.normal(size=(3, 8, m.dim))
    (q,) = read_only(q0)
    results = [m.grad_U_all(q), mean_field_grad_all(m, q), m.grad_U_all(q[0])]
    assert np.array_equal(results[0], m.grad_U_all(q0))
    for frozen, copy in ((q, q0), (z, z0), (y, y0)):
        assert np.array_equal(frozen, copy)
        assert not any(np.shares_memory(r, frozen) for r in results)


def test_shallow_net_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    data = ShallowNetDataset(inputs=rng.normal(size=(12, 3)),
                             outputs=rng.normal(size=12))
    path = tmp_path / "data.csv"
    lines = ["y,z1,z2,z3"] + [",".join(repr(float(v)) for v in (y, *z))
                              for y, z in zip(data.outputs, data.inputs)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    back = ShallowNetDataset.from_csv(path)
    assert np.array_equal(back.inputs, data.inputs)
    assert np.array_equal(back.outputs, data.outputs)
    # a UTF-8 byte-order mark, as a spreadsheet's "CSV UTF-8" export writes
    marked = tmp_path / "bom.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    back = ShallowNetDataset.from_csv(marked)
    assert np.array_equal(back.inputs, data.inputs)
    assert np.array_equal(back.outputs, data.outputs)
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match=r"expected header 'y,z1,\.\.\.', got \['a', 'b'\]"):
        ShallowNetDataset.from_csv(bad)
    for text, message in [("", "empty file"), ("y,z1\n", "no data rows")]:
        bad.write_text(text)
        with pytest.raises(ValueError) as err:
            ShallowNetDataset.from_csv(bad)
        assert str(err.value) == f"{bad}: {message}"


# --- shared invariants ------------------------------------------------------

def test_pair_interaction_symmetry():
    rng = np.random.default_rng(6)
    for m, ref in _builtin_models():
        for _ in range(25):
            x = rng.normal(size=m.dim)
            y = rng.normal(size=m.dim)
            assert ref.W(x, y) == pytest.approx(ref.W(y, x), rel=1e-13, abs=1e-13)


def test_gradients_match_central_differences():
    rng = np.random.default_rng(7)
    for m, ref in _builtin_models():
        for _ in range(100):
            x = rng.normal(size=m.dim)
            y = rng.normal(size=m.dim)
            gv = np.atleast_1d(ref.grad_V(x))
            fd = central_diff_grad(lambda t: float(ref.V(t)), x)
            assert np.abs(gv - fd).max() <= 1e-5 * max(1.0, np.abs(gv).max())
            g1 = np.atleast_1d(ref.grad1_W(x, y))
            fd1 = central_diff_grad(lambda t: float(ref.W(t, y)), x)
            assert np.abs(g1 - fd1).max() <= 1e-5 * max(1.0, np.abs(g1).max())


@pytest.mark.parametrize("lead", [(), (3,)])
def test_force_is_the_gradient_of_the_pair_sum_potential(lead):
    # grad_U_all against central differences of the pair-sum
    # U = sum_i V(x^i) + (eps/2N) sum_ij W(x^i, x^j) of the references: the
    # direct link from the force every sampler calls to the target's V and
    # W.  A batch sums its replicas' potentials, whose gradients are disjoint
    rng = np.random.default_rng(12)
    models = _builtin_models() + [
        (m, reference(m)) for m in (gaussian_model(0.0), multiwell_model(
            2.0, dim=3, epsilon=1.5, interaction="quadratic"))]
    for m, ref in models:
        q = rng.normal(size=lead + (4, m.dim))
        force = mean_field_grad_all(m, q)
        fd = central_diff_grad(lambda t: float(pair_sum_potential(ref, t).sum()), q)
        assert np.abs(force - fd).max() <= 1e-6 * max(1.0, np.abs(force).max()), m.name


def _probe_points(m, rng, sets):
    """``sets`` arrays of 1000 points: standard normal, or uniform in the box
    of a model whose constants hold only there (``box_radius`` in params)."""
    box = m.params.get("box_radius")
    if box is None:
        return rng.normal(size=(sets, 1000, m.dim))
    return rng.uniform(-box, box, size=(sets, 1000, m.dim))


def test_interaction_gradient_lipschitz_probes():
    rng = np.random.default_rng(8)
    for m, ref in _builtin_models():
        lt = m.constants.L_tilde
        x, y, xt, yt = _probe_points(m, rng, 4)
        lhs = np.linalg.norm(ref.grad1_W(x, y) - ref.grad1_W(xt, yt), axis=-1)
        rhs = lt * (np.linalg.norm(x - xt, axis=-1) + np.linalg.norm(y - yt, axis=-1))
        assert (lhs <= rhs * (1 + 1e-9) + 1e-12).all()


def test_confinement_gradient_lipschitz_probes():
    rng = np.random.default_rng(9)
    for m, ref in _builtin_models():
        l1 = m.constants.L1
        x, y = _probe_points(m, rng, 2)
        lhs = np.linalg.norm(ref.grad_V(x) - ref.grad_V(y), axis=-1)
        rhs = l1 * np.linalg.norm(x - y, axis=-1)
        assert (lhs <= rhs * (1 + 1e-9)).all()
        assert np.isfinite(ref.grad_V(np.zeros(m.dim))).all()


def test_grad_all_matches_pairwise_and_single():
    rng = np.random.default_rng(10)
    for m, ref in _builtin_models():
        q = rng.normal(size=(7, m.dim))
        fast = mean_field_grad_all(m, q)
        assert np.allclose(fast, pairwise_grad_all(ref, q), rtol=1e-12, atol=1e-12)
        # batched (R, N, d): each replica is its own N-particle system
        qb = rng.normal(size=(3, 5, m.dim))
        fast = mean_field_grad_all(m, qb)
        assert fast.shape == qb.shape
        assert np.allclose(fast, pairwise_grad_all(ref, qb), rtol=1e-12, atol=1e-12)
        for r in range(3):
            assert np.allclose(fast[r], mean_field_grad_all(m, qb[r]),
                               rtol=1e-12, atol=1e-12)


def _assert_fast_force_matches_pairwise(m, ref, seed, n, replicas):
    rng = np.random.default_rng(seed)
    for shape in [(n, m.dim), (replicas, n, m.dim)]:
        q = rng.uniform(-3.0, 3.0, size=shape)
        fast = mean_field_grad_all(m, q)
        assert fast.shape == q.shape
        assert rel_err(fast, pairwise_grad_all(ref, q)) <= 1e-12


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
    _assert_fast_force_matches_pairwise(m, reference(m, data), seed, n, replicas)


@settings(max_examples=100, deadline=None)
@given(a=st.floats(0.0, 5.0), eps=st.floats(0.0, 2.0), dim=st.integers(1, 3),
       interaction=st.sampled_from([None, "quadratic"]), seed=_seeds,
       n=st.integers(1, 9), replicas=st.integers(1, 4))
def test_multiwell_fast_force_matches_pairwise(a, eps, dim, interaction, seed, n, replicas):
    m = multiwell_model(a, dim=dim, epsilon=eps, interaction=interaction)
    _assert_fast_force_matches_pairwise(m, reference(m), seed, n, replicas)


@settings(max_examples=100, deadline=None)
@given(a=st.floats(0.0, 5.0), eps=st.floats(0.0, 2.0), dim=st.integers(1, 9),
       interaction=st.sampled_from([None, "quadratic"]), seed=_seeds,
       n=st.integers(1, 9), replicas=st.integers(1, 4))
def test_multiwell_force_matches_expression_form_bit_for_bit(a, eps, dim, interaction,
                                                              seed, n, replicas):
    # the force as numpy broadcasts: the reference's grad_V(x) =
    # x (1 - a exp(-(a/2)|x|^2)) plus eps (q - particle mean) with the
    # quadratic pair term.  The mean is the force's own contraction of the
    # flat (replicas, n*dim) rows with the 0/1 selector, so every operation
    # after it stays pinned
    m = multiwell_model(a, dim=dim, epsilon=eps, interaction=interaction)
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(replicas, n, dim)) * 10.0 ** rng.uniform(-3.0, 1.0)
    want = reference(m).grad_V(q)
    if interaction is not None:
        selector = np.tile(np.eye(dim), (n, 1))
        mean = q.reshape(replicas, n * dim) @ selector / n
        want = want + eps * (q - mean[:, None, :])
    assert _same_bits(mean_field_grad_all(m, q), want)


@settings(max_examples=100, deadline=None)
@given(a=st.floats(0.0, 5.0), eps=st.floats(0.0, 2.0), dim=st.integers(1, 9),
       seed=_seeds, n=st.integers(1, 70),
       lead=st.sampled_from([(), (1,), (5,), (2, 3)]))
def test_multiwell_force_within_sum_bound_of_sequential_mean(a, eps, dim, seed, n, lead):
    # The force's particle mean is a BLAS contraction, summed in the BLAS's
    # order, which may depend on how many rows the call holds.  Against
    # the form with numpy's sequential mean, each entry of grad_V(q) +
    # eps (q - mean) is a sum of products of the same inputs with at most
    # k = n + 4 roundings along any term (n - 1 additions, the division by
    # n, the subtraction, the product with eps and the addition of grad_V,
    # whose value both forms share).
    # By the error bound of a sum of products (Higham, Accuracy and
    # Stability of Numerical Algorithms, sec. 3.1), in any order and with
    # or without fused multiply-adds, each form lies within gamma_k times
    # the sum of the terms' absolute values, so the two differ by at most
    # twice that.
    m = multiwell_model(a, dim=dim, epsilon=eps, interaction="quadratic")
    rng = np.random.default_rng(seed)
    q = rng.normal(size=lead + (n, dim)) * 10.0 ** rng.uniform(-3.0, 1.0)
    grad_v = reference(m).grad_V(q)
    want = grad_v + eps * (q - np.add.reduce(q, axis=-2, keepdims=True) / n)
    k, u = n + 4, np.finfo(float).eps / 2
    gamma = k * u / (1.0 - k * u)
    mean_abs = np.add.reduce(np.abs(q), axis=-2, keepdims=True) / n
    bound = 2.0 * gamma * (np.abs(grad_v) + eps * (np.abs(q) + mean_abs))
    assert (np.abs(mean_field_grad_all(m, q) - want) <= bound).all()


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
    assert mean_field_grad_all(m, q) == pytest.approx(np.full((4, 1), 0.75))
    mw = multiwell_model(1.0)
    assert np.allclose(mean_field_grad_all(mw, np.zeros((1, 1))), 0.0)
    # at eps = 0 the gaussian force is grad_V(q) = q
    neutral = gaussian_model(0.0)
    q = np.array([[0.3], [-1.2]])
    assert np.allclose(mean_field_grad_all(neutral, q), q)


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


@settings(max_examples=150, deadline=None)
@given(arrays=_particle_arrays(count=3))
def test_columnwise_and_row_selection_match_broadcasts(arrays):
    x, y, z = arrays
    per_particle = y[..., 0]
    assert _same_bits(models._columnwise(np.multiply, x, per_particle),
                      x * per_particle[..., None])
    # masked division into a prepared output, as the velocity coupling does
    mask = per_particle > 0
    got = np.zeros_like(x)
    want = np.zeros_like(x)
    models._columnwise(np.divide, x, per_particle, out=got, where=mask)
    np.divide(x, per_particle[..., None], out=want, where=mask[..., None])
    assert _same_bits(got, want)
    rows = z[..., 0] > 0
    got = x.copy()
    models._put_rows(rows, got, y)
    assert _same_bits(got, np.where(rows[..., None], y, x))
