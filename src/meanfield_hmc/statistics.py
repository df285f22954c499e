"""Distance and density estimators for sample ensembles.

Ensembles are plain one-dimensional arrays of n samples.
The 1-d Wasserstein-1 distance is computed exactly by sorting; the
density diagnostic is a Gaussian kernel estimate compared with the
standard normal density in relative grid-L1 error.

The KDE's order of summation is part of its output, and the bias-scan
golden files pin it: the kernel values of the samples are added one sample
after another, in sample order, within each chunk of ``_KDE_CHUNK``
samples, and the chunk sums are then added in order to a zero start.  The
kernel rows are computed ``_KDE_ROWS`` samples at a time in two buffers
that the call allocates, so memory stays flat in the sample count, and the
running sum of a chunk rides in the first row of each block.
"""

from __future__ import annotations

import numpy as np

_SQRT2PI = np.sqrt(2.0 * np.pi)
KDE_MIN_SAMPLES = 100
_KDE_CHUNK = 16384  # samples per partial sum; fixes the rounding
_KDE_ROWS = 64  # rows per block; 32-128 ran fastest of 16-512 at n = 2250


def _as_1d(samples) -> np.ndarray:
    a = np.asarray(samples, dtype=float)
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
    sigma = a.std(ddof=1) if len(a) > 1 else 0.0
    if sigma == 0:
        raise ValueError("degenerate sample: zero variance or fewer than two samples")
    return 1.06 * float(sigma) * len(a) ** (-0.2)


def gaussian_kde_on_grid(samples, grid) -> np.ndarray:
    """Gaussian-kernel density estimate, at the Silverman bandwidth,
    evaluated on the one-dimensional ``grid``."""
    a = _as_1d(samples)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1:
        raise ValueError("expected a one-dimensional grid")
    if grid.size == 0:
        raise ValueError("empty grid")
    bw = silverman_bandwidth(a)
    out = np.zeros_like(grid)
    # t holds (grid - x) / bw for a block of samples and k their kernel
    # values in rows 1.., under the chunk's running sum in row 0.  numpy
    # sums a C-ordered block over axis 0 one row after another, so each
    # sample is added in the order the whole-chunk sum added it.
    t = np.empty((_KDE_ROWS, grid.size))
    k = np.empty((_KDE_ROWS + 1, grid.size))
    acc = np.empty_like(grid)
    for start in range(0, len(a), _KDE_CHUNK):
        chunk = a[start:start + _KDE_CHUNK]
        acc.fill(0.0)  # 0 + x is exactly x
        for j in range(0, len(chunk), _KDE_ROWS):
            block = chunk[j:j + _KDE_ROWS]
            b = len(block)
            tb, kb = t[:b], k[1:b + 1]
            np.subtract(grid, block[:, None], out=tb)
            tb /= bw
            np.multiply(-0.5, tb, out=kb)
            kb *= tb
            np.exp(kb, out=kb)
            k[0] = acc
            np.add.reduce(k[:b + 1], axis=0, out=acc)
        out += acc
    return out / (len(a) * bw * _SQRT2PI)


def standard_normal_pdf(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x) / _SQRT2PI


def kde_relative_error(samples) -> float:
    """Relative grid-L1 error of a KDE against the standard normal density.

    Returns sum_grid |p_hat - phi| / sum_grid phi on 401 evenly spaced
    points of [-4, 4].  Requires at least KDE_MIN_SAMPLES samples.
    """
    a = _as_1d(samples)
    if len(a) < KDE_MIN_SAMPLES:
        raise ValueError(f"need at least {KDE_MIN_SAMPLES} samples for a density estimate")
    grid = np.linspace(-4.0, 4.0, 401)
    p_hat = gaussian_kde_on_grid(a, grid)
    phi = standard_normal_pdf(grid)
    return float(np.abs(p_hat - phi).sum() / phi.sum())

