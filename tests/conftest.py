import numpy as np


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


def rel_err(approx, exact):
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    scale = max(1.0, float(np.abs(exact).max()))
    return float(np.abs(approx - exact).max()) / scale
