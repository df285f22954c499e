"""Mean-field model abstraction and the built-in model instances.

A model is its force, its constants and its params.  Each builder's
docstring states a confinement V and a symmetric pair interaction W; the
N-particle potential behind every sampler here is

    U(x) = sum_i [ V(x^i) + (eps / 2N) * sum_j W(x^i, x^j) ],

and by symmetry of W the force, the per-particle gradient of U, is

    grad_i U(x) = grad V(x^i) + (eps / N) * sum_j grad_1 W(x^i, x^j),

which a model computes in one pass without the pair sum.  The private
helpers under "reductions and broadcasts over the coordinate axis" serve
the forces and the coupling metric on (..., N, d) arrays, bit for bit as
numpy would.  The one exception is the particle mean of the
quadratic-interaction multiwell force, a BLAS contraction: its last bits
depend on how many rows the call holds, not on the BLAS thread count.
"""

from __future__ import annotations

import csv
import functools
import math
from typing import Callable, Optional

import numpy as np


class _Frozen:
    """Base of the package's immutable value classes.

    A subclass's ``__init__`` names its fields as its parameters and hands
    them, as ``locals()`` holding nothing else, to ``_set``; so ``vars()``
    of an instance is its field dict, in parameter order.  Assigning or
    deleting any attribute raises AttributeError.
    """

    def _set(self, fields):
        vars(self).update(fields)
        del vars(self)["self"]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"


class AssumptionConstants(_Frozen):
    """Regularity and convexity constants attached to a model.

    K: strong co-coercivity rate of the confinement gradient outside
       radius ``R_conv`` (K <= L2 always).
    L1: gradient-Lipschitz constant of the confinement.
    L2: co-coercivity constant paired with K.
    L_tilde: gradient-Lipschitz constant of the interaction.
    R_conv: radius outside which strong co-coercivity holds (0 means
       globally).
    W0: norm of the interaction gradient at the origin.
    """

    def __init__(self, K: float, L1: float, L2: float, L_tilde: float,
                 R_conv: float, W0: float):
        self._set(locals())
        if not self.K > 0:
            raise ValueError("K must be positive")
        if not self.L2 > 0:
            raise ValueError("L2 must be positive")
        if self.K > self.L2 * (1 + 1e-12):
            raise ValueError("K must not exceed L2")
        for name in ("L1", "L_tilde", "R_conv", "W0"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative")

    @property
    def L(self) -> float:
        """max(L1, L2): single Lipschitz/co-coercivity constant."""
        return max(self.L1, self.L2)

    @property
    def C_hat(self) -> float:
        """(2L + K) * R_conv**2: co-coercivity defect inside the ball."""
        return (2.0 * self.L + self.K) * self.R_conv**2


class MeanFieldModel(_Frozen):
    """A mean-field sampling target: its force, its constants and its params.

    ``grad_U_all`` is the force every sampler calls: the per-particle
    gradient of U, (..., N, d) -> (..., N, d), in one pass that avoids the
    O(N^2 d) pair sum: O(N d) for the gaussian and multiwell models,
    O(N d M) for the shallow-net model on M data points.  The integrator
    relies on its contract: it returns an array of q's shape that callers
    only read, and it may alias its input (return q itself, or a view of
    it).  ``epsilon`` scales W in U, and ``constants`` bound the V and W
    whose gradient the force is.  ``params`` (a new empty dict by default)
    names the model's parameters.  Instances are immutable and safe to
    share across threads.
    """

    def __init__(self, name: str, dim: int, epsilon: float,
                 constants: AssumptionConstants,
                 grad_U_all: Callable[[np.ndarray], np.ndarray],
                 params: Optional[dict] = None):
        if params is None:
            params = {}
        self._set(locals())
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if not 0 <= self.epsilon < np.inf:
            raise ValueError(
                f"epsilon must be finite and nonnegative, got epsilon={self.epsilon}")


# ---------------------------------------------------------------------------
# reductions and broadcasts over the coordinate axis
#
# numpy runs a reduction or a broadcast over the last axis of an (..., N, d)
# array as one inner-loop call per length-d row, which at small d costs far
# more than the arithmetic.  These helpers loop over the d columns instead
# and keep numpy's order of summation, so each result equals the numpy
# expression it replaces bit for bit (tests/test_models.py pins them).  The
# sum over the particle axis has no such helper: the multiwell force takes
# it as one BLAS contraction of the flat (..., N*d) rows (see
# _particle_selector), whose order of summation is the BLAS's.

# numpy sums a row of at most 7 values one by one from the first, and
# longer rows pairwise in unrolled blocks
_SEQUENTIAL_SUM_MAX = 7


def _dot_last(x, y):
    """np.sum(x * y, axis=-1), one column at a time for d <= 7."""
    d = x.shape[-1]
    if d > _SEQUENTIAL_SUM_MAX:
        return np.sum(x * y, axis=-1)
    out = x[..., 0] * y[..., 0]
    for j in range(1, d):
        out += x[..., j] * y[..., j]
    return out


def _norm_last(x):
    """np.linalg.norm(x, axis=-1), which is the root of the summed squares."""
    return np.sqrt(_dot_last(x, x))


def _columnwise(ufunc, x, y, out=None, **kwargs):
    """ufunc(x, y[..., None]) on (..., N, d) ``x`` and per-particle ``y``
    (..., N), one length-N column at a time.

    The ufunc acts elementwise, so the result is exact.  ``out`` (default a
    new array of x's shape) is filled column by column; ``kwargs`` such as
    ``where`` go to every call.
    """
    if out is None:
        out = np.empty(x.shape)
    for j in range(x.shape[-1]):
        ufunc(x[..., j], y, out=out[..., j], **kwargs)
    return out


@functools.lru_cache(maxsize=16)
def _particle_selector(n, d):
    """The read-only 0/1 matrix np.tile(np.eye(d), (n, 1)), (n*d, d): a flat
    row of n length-d particles times it is their sum.  Every caller shares
    the cached array, so it is never written."""
    sel = np.tile(np.eye(d), (n, 1))
    sel.flags.writeable = False
    return sel


def _put_rows(mask, dst, src):
    """np.copyto(dst, src, where=mask[..., None]) for (..., N, d) ``dst``
    and ``src``: the rows of ``src`` where ``mask`` holds replace those of
    ``dst`` in place.

    Each length-d row moves as one opaque item, so the copy is exact; the
    rows of both arrays must be contiguous.
    """
    row = np.dtype((np.void, dst.shape[-1] * dst.itemsize))
    np.copyto(dst.view(row)[..., 0], src.view(row)[..., 0], where=mask)


# ---------------------------------------------------------------------------
# all-particle gradients


def mean_field_grad_all(model: MeanFieldModel, positions: np.ndarray) -> np.ndarray:
    """Gradient of the N-particle potential for every particle.

    ``positions`` has shape (..., N, d); the result has the same shape.
    """
    q = np.asarray(positions, dtype=float)
    if q.ndim < 2 or q.shape[-1] != model.dim:
        raise ValueError(f"positions must have shape (..., N, {model.dim})")
    return model.grad_U_all(q)


# ---------------------------------------------------------------------------
# built-in model: 1-d quadratic confinement + mean-attracting pair term


def _check_quadratic_epsilon(epsilon: float) -> None:
    """Raise ValueError unless 0 <= epsilon < 1, the range of the
    gaussian model, its exact flow and its stationary sampler."""
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(
            f"epsilon must lie in [0, 1), got epsilon={epsilon}; at 1 the "
            "target loses integrability along the mean direction")


def gaussian_model(epsilon: float) -> MeanFieldModel:
    """1-d model with V(x) = x^2 (1 - eps)/2 and W(x, y) = ((x-y)^2 - 1)/2
    at strength eps.

    The per-particle force is -q^i + (eps/N) sum_j q^j and the
    single-particle target reduces exactly to N(0, 1).
    """
    _check_quadratic_epsilon(epsilon)
    eps = float(epsilon)

    def grad_U_all(q):
        # grad_i U = q^i - (eps/N) sum_j q^j, via the shared particle sum;
        # add.reduce / N is the arithmetic of q.mean without its wrapper
        return q - eps * (np.add.reduce(q, axis=-2, keepdims=True) / q.shape[-2])

    constants = AssumptionConstants(
        K=1.0 - eps, L1=1.0, L2=1.0, L_tilde=1.0, R_conv=0.0, W0=0.0)
    return MeanFieldModel(
        name="gaussian", dim=1, epsilon=eps,
        constants=constants, grad_U_all=grad_U_all,
        params={"epsilon": eps})


# ---------------------------------------------------------------------------
# built-in model: quadratic well with a Gaussian bump at the origin


def multiwell_model(a: float = 1.0, dim: int = 1, epsilon: float = 0.0,
                    interaction: Optional[str] = None) -> MeanFieldModel:
    """V(x) = |x|^2/2 + exp(-(a/2)|x|^2); non-convex at the origin for a >= 1,
    and a = 1 by default.

    ``interaction`` is ``None`` for W = 0, where ``epsilon`` scales nothing,
    or ``"quadratic"`` for W(x, y) = |x - y|^2 / 2 with strength ``epsilon``.
    """
    if not 0 <= a < np.inf:
        raise ValueError(f"a must be finite and nonnegative, got a={a}")
    a = float(a)
    dim = int(dim)

    def grad_V(x):
        return _columnwise(np.multiply, x, 1.0 - a * np.exp(-0.5 * a * _dot_last(x, x)))

    if interaction is None:
        l_tilde = 0.0
        # W = 0, so the force is grad_V alone
        grad_U_all = grad_V
    elif interaction == "quadratic":
        l_tilde = 1.0
        eps = float(epsilon)

        def grad_U_all(q):
            # sum_j (q^i - q^j) = N q^i - sum_j q^j; the result is
            # grad_V(q) + eps * (q - mean), summed into grad_V's array.
            # The mean is one matmul of the flat (rows, N*d) view with the
            # particle selector, and q - mean one contiguous pass against
            # the mean tiled N times along the row
            n, d = q.shape[-2:]
            flat = q.reshape(-1, n * d)
            mean = flat @ _particle_selector(n, d)
            mean /= n
            pull = np.tile(mean, n)
            np.subtract(flat, pull, out=pull)
            np.multiply(eps, pull, out=pull)
            out = grad_V(q)
            out += pull.reshape(q.shape)
            return out
    else:
        raise ValueError(f"unknown interaction {interaction!r}")

    constants = AssumptionConstants(
        K=0.25, L1=1.0 + a, L2=2.0, L_tilde=l_tilde,
        R_conv=float(4.0 * np.sqrt(a / np.e)), W0=0.0)
    return MeanFieldModel(
        name="multiwell", dim=dim, epsilon=float(epsilon),
        constants=constants, grad_U_all=grad_U_all,
        params={"a": a, "epsilon": float(epsilon), "interaction": interaction})


# ---------------------------------------------------------------------------
# built-in model: shallow network ridge functions against a dataset


def _csv_float(text, where):
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{where}: {text!r} is not a number") from None
    if not math.isfinite(value):
        raise ValueError(f"{where}: {text!r} is not a finite number")
    return value


class ShallowNetDataset(_Frozen):
    """Regression data (z_m, y_m) feeding the shallow-network model.

    ``inputs`` has shape (M, d-1) and ``outputs`` shape (M,), both kept
    as float arrays.
    """

    def __init__(self, inputs: np.ndarray, outputs: np.ndarray):
        inputs = np.asarray(inputs, dtype=float)
        outputs = np.asarray(outputs, dtype=float)
        if inputs.ndim != 2:
            raise ValueError("inputs must be a 2-d array (M, d-1)")
        if outputs.shape != (inputs.shape[0],):
            raise ValueError("outputs must have one entry per input row")
        if inputs.shape[0] < 1:
            raise ValueError("dataset must contain at least one point")
        if not (np.isfinite(inputs).all() and np.isfinite(outputs).all()):
            raise ValueError("dataset entries must be finite")
        self._set(locals())

    @property
    def count(self) -> int:
        return self.inputs.shape[0]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]

    @classmethod
    def from_csv(cls, path) -> "ShallowNetDataset":
        """Load from CSV with header ``y,z1,...,z{d-1}`` (UTF-8, '.' decimals).

        A leading byte-order mark, as spreadsheet "CSV UTF-8" exports
        write, is skipped.
        """
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ValueError(f"{path}: empty file") from None
            header = [h.strip() for h in header]
            if not header or header[0] != "y" or len(header) < 2:
                raise ValueError(
                    f"{path}: expected header 'y,z1,...', got {header!r}")
            rows = []
            for row in filter(None, reader):
                where = f"{path}: line {reader.line_num}"
                if len(row) != len(header):
                    raise ValueError(
                        f"{where}: ragged rows, {len(row)} values under a "
                        f"{len(header)}-column header")
                rows.append([_csv_float(v, where) for v in row])
        if not rows:
            raise ValueError(f"{path}: no data rows")
        arr = np.asarray(rows, dtype=float)
        return cls(inputs=arr[:, 1:], outputs=arr[:, 0])


# the shallow-net model's one activation, and the radius R of the box
# |x_j| <= R on which its constants are closed-form bounds (see
# _box_constants); both are recorded in the model's params
_ACTIVATION = "sigmoid"
_BOX_RADIUS = 4.0
# max |sigma'| and max |sigma''| of the sigmoid sigma, the latter where
# sigma = 1/2 +- 1/(2 sqrt 3)
_SIGMOID_D1_MAX = 0.25
_SIGMOID_D2_MAX = 1.0 / (6.0 * math.sqrt(3.0))


def _ridge_features(x, neg_zt):
    """beta (...,) and sigma(alpha . z_m) (..., M) of parameters x = (beta, alpha),
    given the data negated and transposed, ``neg_zt`` = (-z).T (d-1, M).

    The sigmoid is 1 / (1 + exp(-s)), scipy's ``expit`` formula, in numpy
    ufuncs in place on the matmul output.  The matmul against the negated
    data gives -s itself: negation is exact and rounding is symmetric in
    sign, so alpha . (-z_m) is -(alpha . z_m) bit for bit, and (-z).T has
    the strides of z.T, so the BLAS takes the same kernel.  Where exp(-s)
    overflows (s < -709.78) the feature is 0, as in ``expit``, without a
    warning; -inf, inf and nan map to 0, 1 and nan.  numpy's exp may
    differ from the C library's in the last bit, so a feature may differ
    from ``expit``'s by a few ulp, and numpy picks its exp kernel by CPU.
    """
    sig = np.matmul(x[..., 1:], neg_zt)
    with np.errstate(over="ignore"):
        np.exp(sig, out=sig)
    sig += 1.0
    return x[..., 0], np.divide(1.0, sig, out=sig)


def _ridge_sum(beta, sig, wt, z):
    """sum_m w_m * grad_x phi(x, z_m) for each row x of a block, (..., K, d).

    ``beta`` (..., K) and ``sig`` (..., K, M) are the rows' features, and
    the column ``wt`` (..., M, 1) holds the weights every row shares.  With
    grad_beta phi = sigma and grad_alpha phi = beta sigma (1 - sigma) z the
    sum is sigma @ w and beta * ((1 - sigma) sigma) @ (w z), each written
    into its columns of one new array, which the caller may finish in place.
    """
    coef = np.subtract(1.0, sig)
    coef *= sig
    out = np.empty(sig.shape[:-1] + (1 + z.shape[1],))
    np.matmul(sig, wt, out=out[..., :1])
    dalpha = np.matmul(coef, wt * z, out=out[..., 1:])
    dalpha *= beta[..., None]
    return out


def shallow_net_model(data: ShallowNetDataset, epsilon: float = 1.0) -> MeanFieldModel:
    """Data-driven model with ridge features phi(x, z) = beta * sigmoid(alpha . z).

    The parameter vector is x = (beta, alpha) in R^d with d = 1 + input_dim,
    and with nu the empirical measure of ``data``:

        V(x)       = |x|^2/2 + 2 * mean_m [ y_m * phi(x, z_m) ]
        W(x, xt)   = 2 * mean_m [ phi(x, z_m) * phi(xt, z_m) ]

    No global regularity constants exist, because the Hessian of phi grows
    with |beta|.  The model's constants are closed-form bounds that hold
    on the box |x_j| <= 4 (``box_radius`` in its params; see
    ``_box_constants``), and are certified there.

    The force is one feature pass, two elementwise passes and three BLAS
    contractions: S = beta @ sigma, then ``_ridge_sum`` with the weights
    w_m = y_m + (eps/N) S_m that every particle of a replica shares.  Its
    last bits depend on the BLAS's order of summation, as they already did,
    and on the CPU's exp kernel (see ``_ridge_features``).
    """
    eps = float(epsilon)
    z = data.inputs          # (M, d-1)
    y = data.outputs         # (M,)
    neg_zt = (-z).T          # (d-1, M), for the feature pass
    m_count = data.count

    def grad_U_all(q):
        beta, sig = _ridge_features(q, neg_zt)
        weights = beta[..., None, :] @ sig
        weights *= eps / q.shape[-2]
        weights += y
        r = _ridge_sum(beta, sig, weights.swapaxes(-1, -2), z)
        # q + (2/M) r, finished in r, which _ridge_sum allocated
        np.multiply(2.0 / m_count, r, out=r)
        return np.add(q, r, out=r)

    constants = _box_constants(z, y)
    return MeanFieldModel(
        name="shallow-net", dim=1 + data.input_dim, epsilon=eps,
        constants=constants, grad_U_all=grad_U_all,
        params={"epsilon": eps, "activation": _ACTIVATION, "M": m_count,
                "input_dim": data.input_dim, "box_radius": _BOX_RADIUS})


def _box_constants(z, y):
    """Closed-form constants of the shallow-net model on data (z, y), valid
    on the box |x_j| <= R = _BOX_RADIUS.

    The Hessian of phi = beta sigma(alpha . z) is
    [[0, sigma' z^T], [sigma' z, beta sigma'' z z^T]].  On the box, for
    each data point m,

        |phi| <= R,   |grad phi|^2 <= G_m^2 = 1 + R^2 |z_m|^2 / 16,
        |hess phi| <= H_m = |z_m| / 4 + R |z_m|^2 / (6 sqrt 3),

    the last from the norms of the Hessian's two blocks.  The Hessian of V
    is I + (2/M) sum_m y_m hess phi_m, so L1 = 1 + S with
    S = (2/M) sum_m |y_m| H_m.  Splitting
    phi(xt) grad phi(x) - phi(xt') grad phi(x') at phi(xt) grad phi(x')
    bounds grad1_W's differences in the metric |x - x'| + |xt - xt'| by
    L_tilde = (2/M) max(R sum_m H_m, sum_m G_m^2).

    The Hessian of V is at least (1 - S) I on the box.  If S < 1, V is
    (1 - S)-strongly convex there: m0 = 1 - S and the convexity defect
    Upsilon is 0.  Otherwise m0 = 1/2, and the defect
    m0 |x - x'|^2 - <x - x', grad V(x) - grad V(x')> is at most (S - 1/2)
    times the box's squared diameter 4 R^2 d.  Either way (K, L2, R_conv) =
    (m0/4, 4 L1^2/m0, sqrt(2 Upsilon/m0)).  W0 = |grad1_W(0, 0)| is 0,
    because phi(0, z) = 0 * sigma(0) = 0 makes every weight of the sum zero.
    Inputs so large that a bound overflows give infinite constants, which
    bound nothing but are not wrong; H_m is capped at the largest float so
    that a zero output times it adds 0 to S, not nan.
    """
    m_count, dim = z.shape[0], 1 + z.shape[1]
    r = _BOX_RADIUS
    with np.errstate(over="ignore"):
        norm2 = np.sum(z * z, axis=1)
        hess = np.minimum(_SIGMOID_D1_MAX * np.sqrt(norm2) + (r * _SIGMOID_D2_MAX) * norm2,
                          np.finfo(float).max)
        grad2 = 1.0 + (r * _SIGMOID_D1_MAX) ** 2 * norm2
        scale = 2.0 / m_count
        s = scale * float(np.abs(y) @ hess)
        l_tilde = scale * max(r * float(hess.sum()), float(grad2.sum()))
    if s < 1.0:
        m0, upsilon = 1.0 - s, 0.0
    else:
        m0, upsilon = 0.5, (s - 0.5) * 4.0 * r * r * dim
    l1 = 1.0 + s
    return AssumptionConstants(
        K=m0 / 4.0, L1=l1, L2=4.0 * l1 * l1 / m0, L_tilde=l_tilde,
        R_conv=math.sqrt(2.0 * upsilon / m0), W0=0.0)
