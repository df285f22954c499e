"""Mean-field model abstraction and the built-in model instances.

A model bundles a confinement potential V, a symmetric pair interaction W,
their gradients, and the regularity constants the convergence-rate
machinery needs.  The N-particle potential behind every sampler here is

    U(x) = sum_i [ V(x^i) + (eps / 2N) * sum_j W(x^i, x^j) ],

whose per-particle gradient reduces, by symmetry of W, to

    grad_i U(x) = grad_V(x^i) + (eps / N) * sum_j grad1_W(x^i, x^j).

All model callables are vectorized over leading batch axes: ``grad_V``
maps (..., d) -> (..., d) and ``V`` maps (..., d) -> (...); the pair
functions broadcast their two arguments.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.special import expit

from .rng import RngStream


class InvalidModelError(ValueError):
    """Model parameters outside their valid range."""


@dataclass(frozen=True)
class AssumptionConstants:
    """Regularity and convexity constants attached to a model.

    K: strong co-coercivity rate of the confinement gradient outside
       radius ``R_conv`` (K <= L2 always).
    L1: gradient-Lipschitz constant of the confinement.
    L2: co-coercivity constant paired with K.
    L_tilde: gradient-Lipschitz constant of the interaction.
    R_conv: radius outside which strong co-coercivity holds (0 means
       globally).
    W0: norm of the interaction gradient at the origin.
    certified: False when the values are numerical estimates rather than
       closed forms.
    """

    K: float
    L1: float
    L2: float
    L_tilde: float
    R_conv: float
    W0: float
    certified: bool = True

    def __post_init__(self):
        if not self.K > 0:
            raise InvalidModelError("K must be positive")
        if not self.L2 > 0:
            raise InvalidModelError("L2 must be positive")
        if self.K > self.L2 * (1 + 1e-12):
            raise InvalidModelError("K must not exceed L2")
        for name in ("L1", "L_tilde", "R_conv", "W0"):
            if getattr(self, name) < 0:
                raise InvalidModelError(f"{name} must be nonnegative")

    @property
    def L(self) -> float:
        """max(L1, L2): single Lipschitz/co-coercivity constant."""
        return max(self.L1, self.L2)

    @property
    def C_hat(self) -> float:
        """(2L + K) * R_conv**2: co-coercivity defect inside the ball."""
        return (2.0 * self.L + self.K) * self.R_conv**2


@dataclass(frozen=True)
class MeanFieldModel:
    """A mean-field sampling target.

    ``epsilon`` is the interaction strength multiplying the W-term of the
    particle potential.  ``grad_U_all``, when present, evaluates the full
    per-particle gradient in one pass that avoids the O(N^2 d) pair sum:
    O(N d) for the gaussian and multiwell models, O(N d M) for the
    shallow-net model on M data points.  Every built-in model sets it; the
    generic pairwise pass serves models without it.  Instances are
    immutable and safe to share across threads.
    """

    name: str
    dim: int
    epsilon: float
    grad_V: Callable[[np.ndarray], np.ndarray]
    grad1_W: Callable[[np.ndarray, np.ndarray], np.ndarray]
    V: Callable[[np.ndarray], np.ndarray]
    W: Callable[[np.ndarray, np.ndarray], np.ndarray]
    constants: AssumptionConstants
    grad_U_all: Optional[Callable[[np.ndarray], np.ndarray]] = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidModelError("dim must be a positive integer")
        if self.epsilon < 0:
            raise InvalidModelError("epsilon must be nonnegative")


# ---------------------------------------------------------------------------
# all-particle gradients


def mean_field_grad_all(model: MeanFieldModel, positions: np.ndarray, *,
                        pairwise: bool = False) -> np.ndarray:
    """Gradient of the N-particle potential for every particle.

    ``positions`` has shape (..., N, d); the result has the same shape.
    Uses the model's fast path unless ``pairwise`` forces the generic
    O(N^2 d) double sum.
    """
    q = np.asarray(positions, dtype=float)
    if q.ndim < 2 or q.shape[-1] != model.dim:
        raise ValueError(f"positions must have shape (..., N, {model.dim})")
    if not pairwise and model.grad_U_all is not None:
        return model.grad_U_all(q)
    grad = model.grad_V(q)
    if model.epsilon == 0.0:
        return grad
    n = q.shape[-2]
    xi = q[..., :, None, :]
    xj = q[..., None, :, :]
    pair = model.grad1_W(xi, xj)
    return grad + (model.epsilon / n) * pair.sum(axis=-2)


def mean_field_grad(model: MeanFieldModel, positions: np.ndarray, i: int) -> np.ndarray:
    """Gradient of the N-particle potential in the ``i``-th particle (0-based)."""
    q = np.asarray(positions, dtype=float)
    if q.ndim != 2 or q.shape[1] != model.dim:
        raise ValueError(f"positions must have shape (N, {model.dim})")
    n = q.shape[0]
    if not 0 <= i < n:
        raise IndexError(f"particle index {i} out of range for N={n}")
    grad = model.grad_V(q[i])
    if model.epsilon == 0.0:
        return grad
    return grad + (model.epsilon / n) * model.grad1_W(q[i], q).sum(axis=0)


def potential_energy(model: MeanFieldModel, positions: np.ndarray) -> np.ndarray:
    """N-particle potential U at ``positions`` of shape (..., N, d)."""
    q = np.asarray(positions, dtype=float)
    n = q.shape[-2]
    total = model.V(q).sum(axis=-1)
    if model.epsilon != 0.0:
        xi = q[..., :, None, :]
        xj = q[..., None, :, :]
        total = total + (model.epsilon / (2.0 * n)) * model.W(xi, xj).sum(axis=(-2, -1))
    return total


# ---------------------------------------------------------------------------
# built-in model: 1-d quadratic confinement + mean-attracting pair term


def gaussian_model(epsilon: float) -> MeanFieldModel:
    """1-d model with V(x) = x^2 (1 - eps)/2 and W(x, y) = eps ((x-y)^2 - 1)/2.

    The per-particle force is -q^i + (eps/N) sum_j q^j and the
    single-particle target reduces exactly to N(0, 1).  ``eps`` lives
    inside W, so the model's interaction-strength field is 1.
    """
    if not 0.0 <= epsilon < 1.0:
        raise InvalidModelError(
            "epsilon must lie in [0, 1); at 1 the target loses integrability "
            "along the mean direction")
    eps = float(epsilon)

    def V(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * (1.0 - eps) * np.sum(x * x, axis=-1)

    def grad_V(x):
        return (1.0 - eps) * np.asarray(x, dtype=float)

    def W(x, y):
        diff = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
        return 0.5 * eps * (np.sum(diff * diff, axis=-1) - 1.0)

    def grad1_W(x, y):
        return eps * (np.asarray(x, dtype=float) - np.asarray(y, dtype=float))

    def grad_U_all(q):
        # grad_i U = q^i - (eps/N) sum_j q^j, via the shared particle sum;
        # add.reduce / N is the arithmetic of q.mean without its wrapper
        return q - eps * (np.add.reduce(q, axis=-2, keepdims=True) / q.shape[-2])

    constants = AssumptionConstants(
        K=1.0 - eps, L1=1.0, L2=1.0, L_tilde=eps, R_conv=0.0, W0=0.0)
    return MeanFieldModel(
        name="gaussian", dim=1, epsilon=1.0,
        grad_V=grad_V, grad1_W=grad1_W, V=V, W=W,
        constants=constants, grad_U_all=grad_U_all,
        params={"epsilon": eps})


# ---------------------------------------------------------------------------
# built-in model: quadratic well with a Gaussian bump at the origin


def multiwell_model(a: float, dim: int = 1, epsilon: float = 0.0,
                    interaction: Optional[str] = None) -> MeanFieldModel:
    """V(x) = |x|^2/2 + exp(-(a/2)|x|^2); non-convex at the origin for a >= 1.

    ``interaction`` is ``None`` (no pair term) or ``"quadratic"`` for
    W(x, y) = |x - y|^2 / 2 with strength ``epsilon``.
    """
    if a < 0:
        raise InvalidModelError("a must be nonnegative")
    a = float(a)
    dim = int(dim)

    def V(x):
        x = np.asarray(x, dtype=float)
        sq = np.sum(x * x, axis=-1)
        return 0.5 * sq + np.exp(-0.5 * a * sq)

    def grad_V(x):
        x = np.asarray(x, dtype=float)
        sq = np.sum(x * x, axis=-1, keepdims=True)
        return x * (1.0 - a * np.exp(-0.5 * a * sq))

    if interaction is None:
        W = _zero_pair(dim)
        grad1_W = _zero_pair_grad(dim)
        l_tilde = 0.0
        # W = 0, so epsilon scales nothing and the force is grad_V alone
        grad_U_all = grad_V
    elif interaction == "quadratic":
        def W(x, y):
            diff = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
            return 0.5 * np.sum(diff * diff, axis=-1)

        def grad1_W(x, y):
            return np.asarray(x, dtype=float) - np.asarray(y, dtype=float)

        l_tilde = 1.0
        eps = float(epsilon)

        def grad_U_all(q):
            # sum_j (q^i - q^j) = N q^i - sum_j q^j
            return grad_V(q) + eps * (q - np.add.reduce(q, axis=-2, keepdims=True) / q.shape[-2])
    else:
        raise InvalidModelError(f"unknown interaction {interaction!r}")

    constants = AssumptionConstants(
        K=0.25, L1=1.0 + a, L2=2.0, L_tilde=l_tilde,
        R_conv=float(4.0 * np.sqrt(a / np.e)), W0=0.0)
    return MeanFieldModel(
        name="multiwell", dim=dim, epsilon=float(epsilon),
        grad_V=grad_V, grad1_W=grad1_W, V=V, W=W,
        constants=constants, grad_U_all=grad_U_all,
        params={"a": a, "epsilon": float(epsilon), "interaction": interaction})


def _zero_pair(dim):
    def W(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        shape = np.broadcast_shapes(x.shape, y.shape)
        return np.zeros(shape[:-1])
    return W


def _zero_pair_grad(dim):
    def grad1_W(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.zeros(np.broadcast_shapes(x.shape, y.shape))
    return grad1_W


# ---------------------------------------------------------------------------
# built-in model: shallow network ridge functions against a dataset


@dataclass(frozen=True)
class ShallowNetDataset:
    """Regression data (z_m, y_m) feeding the shallow-network model.

    ``inputs`` has shape (M, d-1) and ``outputs`` shape (M,).
    """

    inputs: np.ndarray
    outputs: np.ndarray

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=float)
        outputs = np.asarray(self.outputs, dtype=float)
        if inputs.ndim != 2:
            raise InvalidModelError("inputs must be a 2-d array (M, d-1)")
        if outputs.shape != (inputs.shape[0],):
            raise InvalidModelError("outputs must have one entry per input row")
        if inputs.shape[0] < 1:
            raise InvalidModelError("dataset must contain at least one point")
        if not (np.isfinite(inputs).all() and np.isfinite(outputs).all()):
            raise InvalidModelError("dataset entries must be finite")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)

    @property
    def count(self) -> int:
        return self.inputs.shape[0]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]

    @classmethod
    def from_csv(cls, path) -> "ShallowNetDataset":
        """Load from CSV with header ``y,z1,...,z{d-1}`` (UTF-8, '.' decimals)."""
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise InvalidModelError(f"{path}: empty file") from None
            header = [h.strip() for h in header]
            if not header or header[0] != "y" or len(header) < 2:
                raise InvalidModelError(
                    f"{path}: expected header 'y,z1,...', got {header!r}")
            rows = [[float(v) for v in row] for row in reader if row]
        if not rows:
            raise InvalidModelError(f"{path}: no data rows")
        arr = np.asarray(rows, dtype=float)
        if arr.shape[1] != len(header):
            raise InvalidModelError(f"{path}: ragged rows")
        return cls(inputs=arr[:, 1:], outputs=arr[:, 0])

    def to_csv(self, path) -> None:
        """Write in the same format :meth:`from_csv` reads."""
        cols = ["y"] + [f"z{i + 1}" for i in range(self.input_dim)]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(cols) + "\n")
            for y, z in zip(self.outputs, self.inputs):
                fh.write(",".join(repr(float(v)) for v in (y, *z)) + "\n")


_PROBE_PAIRS = 10_000
_PROBE_SEED = 0x5EED_CAFE
# feature values (probe rows x data points) one probe block may hold
_PROBE_BLOCK = 1 << 16


def shallow_net_model(data: ShallowNetDataset, activation: str = "sigmoid",
                      epsilon: float = 1.0, probe_radius: float = 4.0) -> MeanFieldModel:
    """Data-driven model with ridge features phi(x, z) = beta * sigmoid(alpha . z).

    The parameter vector is x = (beta, alpha) in R^d with d = 1 + input_dim,
    and with nu the empirical measure of ``data``:

        V(x)       = |x|^2/2 + 2 * mean_m [ y_m * phi(x, z_m) ]
        W(x, xt)   = 2 * mean_m [ phi(x, z_m) * phi(xt, z_m) ]

    The regularity constants cannot be certified globally for a sigmoid
    activation; they are estimated from finite-difference quotients over
    random probe pairs in a box of radius ``probe_radius`` and flagged
    ``certified=False``.
    """
    if activation != "sigmoid":
        raise InvalidModelError(f"unsupported activation {activation!r}")
    eps = float(epsilon)
    z = data.inputs          # (M, d-1)
    y = data.outputs         # (M,)
    m_count = data.count
    dim = 1 + data.input_dim

    def _features(x):
        # x: (..., d) -> sigma(alpha . z_m): (..., M) and beta: (...,)
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != dim:
            raise InvalidModelError(
                f"parameter dimension {x.shape[-1]} does not match dataset "
                f"(expected {dim})")
        beta = x[..., 0]
        alpha = x[..., 1:]
        sig = expit(alpha @ z.T)
        return beta, sig

    def phi(x):
        beta, sig = _features(x)
        return beta[..., None] * sig

    def V(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * np.sum(x * x, axis=-1) + (2.0 / m_count) * (phi(x) @ y)

    def _weighted(beta, sig, weights):
        # sum_m weights[..., m] * grad_x phi(x, z_m), shape (..., d), from
        # the features (beta, sig) of x; weights broadcasts against sig
        dbeta = np.sum(weights * sig, axis=-1)
        coef = weights * beta[..., None] * sig * (1.0 - sig)
        dalpha = coef @ z
        return np.concatenate([dbeta[..., None], dalpha], axis=-1)

    def grad_V(x):
        x = np.asarray(x, dtype=float)
        return x + (2.0 / m_count) * _weighted(*_features(x), y)

    def W(x, xt):
        return (2.0 / m_count) * np.sum(phi(x) * phi(xt), axis=-1)

    def grad1_W(x, xt):
        x = np.asarray(x, dtype=float) + np.zeros_like(np.asarray(xt, dtype=float))
        return (2.0 / m_count) * _weighted(*_features(x), phi(xt))

    def grad_U_all(q):
        # one feature pass serves the V term and the shared sums
        # S_m = sum_j phi(q^j, z_m) through which the interaction enters
        n = q.shape[-2]
        beta, sig = _features(q)
        s = (beta[..., None] * sig).sum(axis=-2, keepdims=True)
        inter = (2.0 / m_count) * _weighted(beta, sig, s)
        return q + (2.0 / m_count) * _weighted(beta, sig, y) + (eps / n) * inter

    constants = _estimate_constants(grad_V, grad1_W, dim, probe_radius, m_count)
    return MeanFieldModel(
        name="shallow-net", dim=dim, epsilon=eps,
        grad_V=grad_V, grad1_W=grad1_W, V=V, W=W,
        constants=constants, grad_U_all=grad_U_all,
        params={"epsilon": eps, "activation": activation, "M": m_count,
                "input_dim": data.input_dim, "probe_radius": float(probe_radius)})


def _estimate_constants(grad_V, grad1_W, dim, probe_radius, m_count):
    """Probe-based constant estimates for models without closed forms.

    L1 and L_tilde are maxima of difference quotients over random pairs in
    the probe box.  Asymptotic strong convexity is probed around half the
    quadratic regularizer's curvature (m0 = 1/2), its worst defect Upsilon
    mapped to (K, L2, R_conv) = (m0/4, 4 L1^2/m0, sqrt(2 Upsilon/m0)).

    The gradients are evaluated in blocks of max(1, _PROBE_BLOCK // m_count)
    probe rows, ``m_count`` being the features per row (the dataset size M),
    and only their (pairs, d) differences are kept.  Each (rows, M) feature
    array of a block holds at most max(_PROBE_BLOCK, M) values, 512 KiB for
    M <= 65536, so the build's memory does not grow with the dataset.  A
    BLAS matmul may round a row differently depending on how many rows one
    call holds, so the maxima can depend on the block size in the last ulp,
    far below the sampling error of these uncertified estimates.
    """
    stream = RngStream(_PROBE_SEED)
    box = float(probe_radius)
    xs = box * (2.0 * stream.uniforms(_PROBE_PAIRS * dim).reshape(_PROBE_PAIRS, dim) - 1.0)
    ys = box * (2.0 * stream.uniforms(_PROBE_PAIRS * dim).reshape(_PROBE_PAIRS, dim) - 1.0)
    rows = max(1, _PROBE_BLOCK // m_count)

    def blocked(diff):
        # diff(rows slice) -> (block, d) gradient difference, stacked over blocks
        return np.concatenate([diff(slice(i, i + rows))
                               for i in range(0, _PROBE_PAIRS, rows)])

    dx = xs - ys
    norms = np.linalg.norm(dx, axis=-1)
    keep = norms > 1e-8
    dg = blocked(lambda b: grad_V(xs[b]) - grad_V(ys[b]))
    quot = np.linalg.norm(dg, axis=-1)[keep] / norms[keep]
    l1 = max(1.0, float(quot.max()))

    inner = np.sum(dx * dg, axis=-1)
    m0 = 0.5
    upsilon = max(0.0, float((m0 * norms**2 - inner).max()))
    k = m0 / 4.0
    l2 = 4.0 * l1**2 / m0
    r_conv = np.sqrt(2.0 * upsilon / m0)

    xt = box * (2.0 * stream.uniforms(_PROBE_PAIRS * dim).reshape(_PROBE_PAIRS, dim) - 1.0)
    yt = box * (2.0 * stream.uniforms(_PROBE_PAIRS * dim).reshape(_PROBE_PAIRS, dim) - 1.0)
    dgw = np.linalg.norm(blocked(lambda b: grad1_W(xs[b], ys[b]) - grad1_W(xt[b], yt[b])),
                         axis=-1)
    denom = np.linalg.norm(xs - xt, axis=-1) + np.linalg.norm(ys - yt, axis=-1)
    ok = denom > 1e-8
    l_tilde = float((dgw[ok] / denom[ok]).max())

    w0 = float(np.linalg.norm(grad1_W(np.zeros(dim), np.zeros(dim))))
    return AssumptionConstants(
        K=k, L1=l1, L2=l2, L_tilde=l_tilde, R_conv=float(r_conv), W0=w0,
        certified=False)
