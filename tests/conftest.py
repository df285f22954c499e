import warnings

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
    """Central finite-difference gradient of a scalar function at x."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def pairwise_grad_all(model, q):
    """The N-particle force as the O(N^2 d) pair sum of the model's own
    grad_V and grad1_W: grad_V(q^i) + (eps / N) sum_j grad1_W(q^i, q^j) on
    (..., N, d) ``q``.  The reference for every model's grad_U_all."""
    q = np.asarray(q, dtype=float)
    pair = model.grad1_W(q[..., :, None, :], q[..., None, :, :])
    return model.grad_V(q) + (model.epsilon / q.shape[-2]) * pair.sum(axis=-2)


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
