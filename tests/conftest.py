import warnings
from types import SimpleNamespace

import numpy as np

from meanfield_hmc.statistics import _SQRT2PI, silverman_bandwidth

# hypothesis's pytest plugin imports this module to print a patch for a
# failing property test; its import (through libcst) raises a
# DeprecationWarning, which the "error" warning filter would turn into an
# INTERNALERROR that ends the session.  Imported here once with that
# warning ignored, the module is cached and the plugin's import is silent.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass  # no libcst: hypothesis prints no patch and imports nothing


def central_diff_grad(f, x, h=1e-6):
    """Central finite-difference gradient of a scalar function at x, an
    array of any shape."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e.flat[i] = h
        g.flat[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


# --- the built-in models' V and W in expression form -------------------------
# A model carries only its force.  These references state the V and W that
# each builder's docstring gives, with their gradients grad_V and grad1_W
# (the gradient of W in its first argument), as numpy expressions on
# (..., d) points; the pair functions broadcast their two arguments.  The
# checks of the force and of the constants read them.


def _quadratic_pair(x, y):
    return 0.5 * np.sum((x - y) ** 2, axis=-1)


def _zero_pair(x, y):
    return np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y))[:-1])


def _zero_pair_grad(x, y):
    return np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)))


def _reference_gaussian(epsilon):
    """V(x) = (1 - eps) x^2 / 2 and W(x, y) = ((x - y)^2 - 1) / 2."""
    return SimpleNamespace(
        epsilon=epsilon,
        V=lambda x: 0.5 * (1.0 - epsilon) * np.sum(x * x, axis=-1),
        grad_V=lambda x: (1.0 - epsilon) * x,
        W=lambda x, y: _quadratic_pair(x, y) - 0.5,
        grad1_W=lambda x, y: x - y)


def _reference_multiwell(a, epsilon=0.0, interaction=None):
    """V(x) = |x|^2/2 + exp(-(a/2)|x|^2), and W = 0 or, with the quadratic
    interaction, W(x, y) = |x - y|^2 / 2."""
    def V(x):
        sq = np.sum(x * x, axis=-1)
        return 0.5 * sq + np.exp(-0.5 * a * sq)

    def grad_V(x):
        return x * (1.0 - a * np.exp(-0.5 * a * np.sum(x * x, axis=-1)))[..., None]

    if interaction is None:
        W, grad1_W = _zero_pair, _zero_pair_grad
    else:
        W, grad1_W = _quadratic_pair, lambda x, y: x - y
    return SimpleNamespace(epsilon=epsilon, V=V, grad_V=grad_V, W=W, grad1_W=grad1_W)


def reference_shallow_net(data, epsilon, elementwise=False):
    """V(x) = |x|^2/2 + (2/M) sum_m y_m phi(x, z_m) and
    W(x, xt) = (2/M) sum_m phi(x, z_m) phi(xt, z_m), phi(x, z) =
    beta sigmoid(alpha . z) with x = (beta, alpha), and grad_U_all, all in
    expression form: one temporary per expression and the sigmoid as one
    numpy expression.

    By default the sums are the force's contractions: the particle sum
    S = beta @ sigma, then sigma @ w^T and ((1 - sigma) sigma) @ (w^T z) beta
    over the data, where w = y + (eps/N) S is shared by the rows of a block.
    With ``elementwise`` they are the form the force took before: elementwise
    products summed by numpy, and w beta sigma (1 - sigma) @ z."""
    z, y, m_count = data.inputs, data.outputs, data.count

    def features(x):
        x = np.asarray(x, dtype=float)
        return x[..., 0], 1.0 / (1.0 + np.exp(-(x[..., 1:] @ z.T)))

    def ridge_sum(beta, sig, w):
        # rows of sig (..., K, M) share the weights w (..., 1, M)
        if elementwise:
            dbeta = np.sum(w * sig, axis=-1)[..., None]
            dalpha = (w * beta[..., None] * sig * (1.0 - sig)) @ z
        else:
            dbeta = sig @ w.swapaxes(-1, -2)
            dalpha = ((1.0 - sig) * sig) @ (w.swapaxes(-1, -2) * z) * beta[..., None]
        return np.concatenate([dbeta, dalpha], axis=-1)

    def phi(x):
        beta, sig = features(x)
        return beta[..., None] * sig

    def V(x):
        return 0.5 * np.sum(x * x, axis=-1) + (2.0 / m_count) * (phi(x) @ y)

    def grad_V(x):
        x = np.asarray(x, dtype=float)
        return x + (2.0 / m_count) * ridge_sum(*features(x), y[None, :])

    def W(x, xt):
        return (2.0 / m_count) * np.sum(phi(x) * phi(xt), axis=-1)

    def grad1_W(x, xt):
        # each row is a block of one, with weights phi(xt) of its own
        x = np.asarray(x, dtype=float) + np.zeros_like(np.asarray(xt, dtype=float))
        beta, sig = features(x)
        r = ridge_sum(beta[..., None], sig[..., None, :], phi(xt)[..., None, :])
        return (2.0 / m_count) * r[..., 0, :]

    def grad_U_all(q):
        n = q.shape[-2]
        beta, sig = features(q)
        if elementwise:
            s = (beta[..., None] * sig).sum(axis=-2, keepdims=True)
        else:
            s = beta[..., None, :] @ sig
        return q + (2.0 / m_count) * ridge_sum(beta, sig, y + (epsilon / n) * s)

    return SimpleNamespace(epsilon=epsilon, V=V, grad_V=grad_V, W=W, grad1_W=grad1_W,
                           grad_U_all=grad_U_all)


def reference(model, data=None):
    """The expression-form V and W of a built-in model, read off its params;
    a shallow-net model also needs the ``data`` it was built on."""
    p = model.params
    if model.name == "gaussian":
        return _reference_gaussian(p["epsilon"])
    if model.name == "multiwell":
        return _reference_multiwell(p["a"], p["epsilon"], p["interaction"])
    return reference_shallow_net(data, p["epsilon"])


def pair_sum_potential(ref, q):
    """U(q) = sum_i V(q^i) + (eps / 2N) sum_ij W(q^i, q^j) of a reference on
    (..., N, d) ``q``, in O(N^2 d): one value per N-particle system."""
    q = np.asarray(q, dtype=float)
    pair = ref.W(q[..., :, None, :], q[..., None, :, :]).sum(axis=(-2, -1))
    return ref.V(q).sum(axis=-1) + (ref.epsilon / (2 * q.shape[-2])) * pair


def pairwise_grad_all(ref, q):
    """The N-particle force as the O(N^2 d) pair sum of a reference's
    grad_V and grad1_W: grad_V(q^i) + (eps / N) sum_j grad1_W(q^i, q^j) on
    (..., N, d) ``q``.  The reference for every model's grad_U_all."""
    q = np.asarray(q, dtype=float)
    pair = ref.grad1_W(q[..., :, None, :], q[..., None, :, :])
    return ref.grad_V(q) + (ref.epsilon / q.shape[-2]) * pair.sum(axis=-2)


def reference_randomized_step(model, q, p, h, u):
    """One randomized step in expression form, the arithmetic the golden
    files were recorded with: the force -grad U at q + (h u) p, then
    q' = q + h p + (h^2/2) force and p' = p + h force.  ``u`` is a scalar
    or one uniform per batch element.  No divergence check."""
    hu = h * u
    if np.ndim(hu):
        hu = hu[..., None, None]
    force = -model.grad_U_all(q + hu * p)
    return q + h * p + (0.5 * h * h) * force, p + h * force


def harmonic_step_maps(omega2, h):
    """(M0, M1) with M0 + u M1 the randomized step's map of (q, p) under the
    force -omega2 q: q' = q + h p - (h^2/2) omega2 (q + h u p) and
    p' = p - h omega2 (q + h u p)."""
    m0 = np.array([[1 - omega2 * h * h / 2, h], [-omega2 * h, 1.0]])
    m1 = np.array([[0.0, -omega2 * h**3 / 2], [0.0, -omega2 * h * h]])
    return m0, m1


def read_only(*arrays):
    """Read-only float copies of ``arrays``, so that any write into them
    raises."""
    out = []
    for a in arrays:
        a = np.array(a, dtype=float)
        a.flags.writeable = False
        out.append(a)
    return out


def rel_err(approx, exact):
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    scale = max(1.0, float(np.abs(exact).max()))
    return float(np.abs(approx - exact).max()) / scale


def reference_gaussian_kde_on_grid(samples, grid):
    """The Gaussian KDE in expression form, the arithmetic the bias-scan
    golden files were recorded with: one (n_chunk, n_grid) kernel matrix
    per chunk of 16384 samples, summed over its samples and added to the
    running total."""
    a = np.asarray(samples, dtype=float)
    grid = np.asarray(grid, dtype=float)
    bw = silverman_bandwidth(a)
    out = np.zeros_like(grid)
    # chunked so the (n_chunk, n_grid) kernel matrix stays small
    for start in range(0, len(a), 16384):
        block = a[start:start + 16384]
        t = (grid[None, :] - block[:, None]) / bw
        out += np.exp(-0.5 * t * t).sum(axis=0)
    return out / (len(a) * bw * _SQRT2PI)
