"""Distance and density estimators for sample ensembles.

Ensembles are plain arrays: (n,) or (n, d) with one sample per row.
The 1-d Wasserstein-1 distance is computed exactly by sorting; the
density diagnostic is a Gaussian kernel estimate compared with the
standard normal density in relative grid-L1 error.
"""

from __future__ import annotations

import numpy as np

_SQRT2PI = np.sqrt(2.0 * np.pi)


def _as_1d(samples) -> np.ndarray:
    a = np.asarray(samples, dtype=float)
    if a.ndim == 2 and a.shape[1] == 1:
        a = a[:, 0]
    if a.ndim != 1:
        raise ValueError("expected a one-dimensional sample ensemble")
    if a.size == 0:
        raise ValueError("empty ensemble")
    if not np.isfinite(a).all():
        raise ValueError("ensemble entries must be finite")
    return a


def _match_counts(a: np.ndarray, b: np.ndarray):
    # deterministic stride subsample of the larger ensemble
    if len(a) == len(b):
        return a, b
    big, small = (a, b) if len(a) > len(b) else (b, a)
    idx = (np.arange(len(small)) * len(big)) // len(small)
    big = big[idx]
    return (big, small) if len(a) > len(b) else (small, big)


def wasserstein1_1d(a, b) -> float:
    """Exact empirical Wasserstein-1 distance between two 1-d ensembles.

    Sorts both samples and averages the absolute differences of order
    statistics.  Unequal counts are reconciled by a deterministic stride
    subsample of the larger ensemble.
    """
    a = _as_1d(a)
    b = _as_1d(b)
    a, b = _match_counts(a, b)
    return float(np.mean(np.abs(np.sort(a) - np.sort(b))))


def silverman_bandwidth(samples) -> float:
    """1.06 * sigma_hat * n^(-1/5)."""
    a = _as_1d(samples)
    sigma = a.std(ddof=1)
    if sigma == 0:
        raise ValueError("degenerate sample: zero variance")
    return 1.06 * float(sigma) * len(a) ** (-0.2)


def gaussian_kde_on_grid(samples, grid, bandwidth: float | None = None) -> np.ndarray:
    """Gaussian-kernel density estimate evaluated on ``grid``."""
    a = _as_1d(samples)
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("empty grid")
    bw = silverman_bandwidth(a) if bandwidth is None else float(bandwidth)
    if bw <= 0:
        raise ValueError("bandwidth must be positive")
    out = np.zeros_like(grid)
    # chunked so the (n_chunk, n_grid) kernel matrix stays small
    for start in range(0, len(a), 16384):
        block = a[start:start + 16384]
        t = (grid[None, :] - block[:, None]) / bw
        out += np.exp(-0.5 * t * t).sum(axis=0)
    return out / (len(a) * bw * _SQRT2PI)


def standard_normal_pdf(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x) / _SQRT2PI


def kde_relative_error(samples, bandwidth: float | None = None,
                       grid_lo: float = -4.0, grid_hi: float = 4.0,
                       grid_n: int = 401) -> float:
    """Relative grid-L1 error of a KDE against the standard normal density.

    Returns sum_grid |p_hat - phi| / sum_grid phi on a uniform grid
    (Silverman bandwidth unless overridden).  Requires >= 100 samples.
    """
    a = _as_1d(samples)
    if len(a) < 100:
        raise ValueError("need at least 100 samples for a density estimate")
    if grid_n < 2:
        raise ValueError("grid must contain at least 2 points")
    grid = np.linspace(grid_lo, grid_hi, grid_n)
    p_hat = gaussian_kde_on_grid(a, grid, bandwidth)
    phi = standard_normal_pdf(grid)
    return float(np.abs(p_hat - phi).sum() / phi.sum())


def loglog_slope(xs, ys):
    """Least-squares slope of log(y) on log(x).

    Returns (slope, intercept, residual_rms); requires >= 3 strictly
    positive points.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1 or len(xs) < 3:
        raise ValueError("need at least 3 paired points")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log fit requires strictly positive data")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    return float(slope), float(intercept), float(np.sqrt(np.mean(resid**2)))
