"""Correctness gates for the benchmark workloads.

Each gate reads the CSV text one CLI call wrote and returns a list of
failure messages; an empty list means the output passed.  A gate never
skips: a missing or unparsable field is itself a failure.
"""

from __future__ import annotations

import functools
import json
import math

# chaos-wide: tolerance, in standard errors, between each estimate and its
# exact stationary value.  Six comparisons per run; at 4 SE a false alarm
# has probability about 4e-4 per run if the standard errors are right.
# The tolerance also admits the exact finite-chain bias of the two
# variance estimators (see chaos_estimator_bias), which at 200 steps is
# up to 2 SE and would otherwise fail about one seed in ten.
CHAOS_SE_TOL = 4.0

# bias-chain: the chain's KDE error may exceed the iid noise floor because
# consecutive kernel steps are correlated (lag-1 correlation of the first
# coordinate is about cos(T) = 0.54 at T = 1, which inflates the standard
# error by sqrt((1 + rho) / (1 - rho)) = 1.8) and because the chain is
# biased.  The gate allows KDE_FLOOR_FACTOR times the mean iid floor.
KDE_FLOOR_FACTOR = 4.0
KDE_FLOOR_REPLICATES = 8
KDE_FLOOR_SEED = 20230822


class ParsedCsv:
    """Comment lines before the column header, columns, rows and footer."""

    def __init__(self, header, columns, rows, footer):
        self.header = header
        self.columns = columns
        self.rows = rows
        self.footer = footer

    def header_value(self, key):
        return _value(self.header, key)

    def footer_value(self, key):
        return _value(self.footer, key)


def _value(lines, key):
    prefix = key + ": "
    for line in lines:
        if line.startswith(prefix):
            return line[len(prefix):]
    raise KeyError(key)


def parse_csv(text: str) -> ParsedCsv:
    """Split CLI CSV output into '#' header lines, columns, rows and '#' footer."""
    header, footer, rows = [], [], []
    columns = None
    for line in text.splitlines():
        if line.startswith("#"):
            (footer if columns is not None else header).append(line[1:].strip())
        elif columns is None:
            columns = line.split(",")
        elif line:
            if footer:
                raise ValueError("data row after footer")
            rows.append(line.split(","))
    if columns is None:
        raise ValueError("no column header")
    return ParsedCsv(header, columns, rows, footer)


def _guarded(check):
    """Turn parse errors inside a gate into failure messages."""
    def gate(text, **spec):
        try:
            return check(parse_csv(text), **spec)
        except (ValueError, KeyError, IndexError, TypeError) as err:
            return [f"unreadable output: {type(err).__name__}: {err}"]
    gate.__name__ = check.__name__
    gate.__doc__ = check.__doc__
    return gate


def chaos_estimator_bias(n, m, epsilon, T):
    """Exact bias of chaos-scan's two variance estimates after m exact steps.

    Started in stationarity, the particle mean of the exact kernel is an
    AR(1) sequence with variance s2 = 1 / ((1 - eps) N) and lag-1
    correlation rho = cos(sqrt(1 - eps) T).  Its ddof-1 sample variance over
    m steps has mean s2 (1 - 2 S / (m (m - 1))) with
    S = sum_{k<m} (m - k) rho^k.  The pooled per-coordinate variance
    subtracts the grand mean, whose variance is s2 (m + 2 S) / m^2, and is
    scaled by C / (C - 1) with C = m N.  Returns (var bias, mean-coordinate
    variance bias).
    """
    rho = math.cos(math.sqrt(1.0 - epsilon) * T)
    s2 = 1.0 / ((1.0 - epsilon) * n)
    weighted = sum((m - k) * rho ** k for k in range(1, m))
    marginal = 1.0 + epsilon / (n * (1.0 - epsilon))
    count = m * n
    var_bias = count / (count - 1) * (marginal - s2 * (m + 2.0 * weighted) / m**2) - marginal
    return var_bias, -s2 * 2.0 * weighted / (m * (m - 1))


@_guarded
def gate_chaos(csv, *, n_list):
    """Every N: variance and particle-mean variance within 4 SE of exact,
    plus the estimators' exact finite-chain bias."""
    config = json.loads(csv.header_value("config"))
    detail = json.loads(csv.footer_value("detail"))
    fails = []
    if [d["N"] for d in detail] != list(n_list):
        fails.append(f"detail covers N={[d['N'] for d in detail]}, expected {list(n_list)}")
    if len(csv.rows) != len(n_list):
        fails.append(f"{len(csv.rows)} rows, expected {len(n_list)}")
    for d in detail:
        biases = chaos_estimator_bias(d["N"], config["m"], config["epsilon"], config["T"])
        for (est, exact, se), bias in zip(
                (("var_hat", "analytic_var", "var_se"),
                 ("mean_coord_var", "analytic_mean_coord_var", "mean_coord_var_se")),
                biases):
            dev, tol = abs(d[est] - d[exact]), CHAOS_SE_TOL * d[se] + abs(bias)
            if not (math.isfinite(dev) and d[se] > 0 and dev <= tol):
                fails.append(f"N={d['N']}: |{est} - {exact}| = {dev!r} "
                             f"> {CHAOS_SE_TOL} * {se} + |bias| = {tol!r}")
    return fails


@functools.lru_cache(maxsize=None)
def kde_noise_floor(n: int) -> float:
    """Mean relative grid-L1 KDE error of an iid N(0, 1) sample of size n.

    Computed independently of the package: Silverman bandwidth, Gaussian
    kernel, uniform grid of 401 points on [-4, 4].
    """
    import numpy as np

    grid = np.linspace(-4.0, 4.0, 401)
    phi = np.exp(-0.5 * grid * grid) / math.sqrt(2.0 * math.pi)
    rng = np.random.default_rng([KDE_FLOOR_SEED, n])
    errs = []
    for _ in range(KDE_FLOOR_REPLICATES):
        a = rng.standard_normal(n)
        bw = 1.06 * a.std(ddof=1) * n ** -0.2
        dens = np.zeros_like(grid)
        for start in range(0, n, 4096):
            t = (grid[None, :] - a[start:start + 4096, None]) / bw
            dens += np.exp(-0.5 * t * t).sum(axis=0)
        dens /= n * bw * math.sqrt(2.0 * math.pi)
        errs.append(np.abs(dens - phi).sum() / phi.sum())
    return float(np.mean(errs))


@_guarded
def gate_bias(csv, *, k_max, kept):
    """k_max rows, each KDE error finite and below the iid floor times a factor."""
    fails = []
    if len(csv.rows) != k_max:
        fails.append(f"{len(csv.rows)} rows, expected {k_max}")
    col = csv.columns.index("kde_rel_error")
    bound = KDE_FLOOR_FACTOR * kde_noise_floor(kept)
    for row in csv.rows:
        err = float(row[col])
        if not (math.isfinite(err) and 0.0 < err < bound):
            fails.append(f"k={row[0]}: kde_rel_error {err!r} outside (0, {bound!r})")
    return fails


@_guarded
def gate_contraction(csv, *, steps):
    """Decay factor in (0, 1); mean distance at the last step below step 0."""
    fails = []
    if len(csv.rows) != steps + 1:
        fails.append(f"{len(csv.rows)} rows, expected {steps + 1}")
    factor = float(csv.footer_value("fitted_decay_factor"))
    if not 0.0 < factor < 1.0:
        fails.append(f"fitted_decay_factor {factor!r} outside (0, 1)")
    col = csv.columns.index("mean_rhoN")
    first, last = float(csv.rows[0][col]), float(csv.rows[-1][col])
    if not last < first:
        fails.append(f"mean_rhoN at the last step {last!r} is not below step 0 {first!r}")
    return fails


@_guarded
def gate_sample(csv, *, steps, thin):
    """steps/thin + 1 rows, every value finite, constants footer present."""
    fails = []
    expected = steps // thin + 1
    if len(csv.rows) != expected:
        fails.append(f"{len(csv.rows)} rows, expected {expected}")
    width = len(csv.columns)
    bad = sum(1 for row in csv.rows
              if len(row) != width or not all(math.isfinite(float(v)) for v in row))
    if bad:
        fails.append(f"{bad} rows with a wrong width or a non-finite value")
    json.loads(csv.footer_value("constants"))
    return fails
