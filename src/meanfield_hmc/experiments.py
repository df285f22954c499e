"""Experiment drivers: bias scaling, chaos scan, contraction estimation,
integrator order check, and generic sampling, with CSV/SVG output.

Every chain runs through :func:`kernels.run_chain`: an experiment supplies
the kernel step and what to record along the chain, and reduces the
records to its estimates.  The three scans share one skeleton,
:func:`_scan`, which gives each scan point its own substream of the base
seed, so results are identical whether points run sequentially or on a
thread pool, and two runs with the same seed emit byte-identical files.
"""

from __future__ import annotations

import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .couplings import CouplingParams, coupled_uhmc_step, rho_N
from .integrators import (_integral_steps, exact_gaussian_flow_arrays,
                          randomized_flow_arrays)
from .kernels import (KernelParams, run_chain, stationary_gaussian_sample_arrays,
                      draw_initial_positions, uhmc_step_arrays,
                      xhmc_step_gaussian_arrays)
from .models import (MeanFieldModel, ShallowNetDataset, gaussian_model,
                     multiwell_model, shallow_net_model)
from .rng import RngStream
from .statistics import kde_relative_error, loglog_slope, wasserstein1_1d
from .theory import compute_constants, constants_table

W1_SUBSAMPLE_CAP = 200_000


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


def build_model(name: str, epsilon: float = 0.25, a: float = 1.0,
                dim: int | None = None, interaction: str | None = None,
                data_path: str | None = None) -> MeanFieldModel:
    """Construct a built-in model from CLI-style parameters.

    ``dim`` (default 1) applies to multiwell only; the gaussian model is
    1-d and shallow-net takes its dimension from the data.
    """
    if dim is not None and name != "multiwell":
        raise ConfigError(f"--dim applies to the multiwell model only, not {name}")
    if name == "gaussian":
        return gaussian_model(epsilon)
    if name == "multiwell":
        return multiwell_model(a, dim=1 if dim is None else dim, epsilon=epsilon,
                               interaction=interaction)
    if name == "shallow-net":
        if data_path is None:
            raise ConfigError("shallow-net model requires --data <csv>")
        return shallow_net_model(ShallowNetDataset.from_csv(data_path), epsilon=epsilon)
    raise ConfigError(f"unknown model {name!r}")


def snap_step_size(T: float, h_raw: float) -> float:
    """Largest h <= h_raw with T/h integral."""
    if not 0 < h_raw:
        raise ConfigError("step size must be positive")
    return T / math.ceil(T / h_raw - 1e-12)


def _scan(one_point, points, seed: int, threads: int):
    """Run ``one_point(stream, point)``, which returns (row, detail), for
    each point on substream i of ``seed``; return (rows, detail) in input
    order.  ``threads`` > 1 runs the points on a thread pool."""
    base = RngStream(seed)
    streams = [base.substream(i) for i in range(len(points))]
    if threads <= 1:
        results = list(map(one_point, streams, points))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one_point, streams, points))
    return [row for row, _ in results], [detail for _, detail in results]


def _slope(xs, ys) -> float:
    """Log-log slope of ``ys`` on ``xs``; nan below 3 points or at a
    non-positive value."""
    if len(xs) < 3 or min(*xs, *ys) <= 0:
        return float("nan")
    return loglog_slope(xs, ys)[0]


# ---------------------------------------------------------------------------
# CSV / SVG output


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def json_safe(value):
    """``value`` with a non-finite float replaced by None (JSON null)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def config_json(config: dict) -> str:
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def header_lines(command: str, seed: int, config: dict) -> list:
    return [
        f"meanfield-hmc {__version__}",
        f"command: {command}",
        f"seed: {seed}",
        f"config: {config_json(config)}",
    ]


def write_csv(path, columns, rows, header, footer=()):
    """Write comment-prefixed header lines, a CSV header, rows, then footer lines."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in header:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
        for line in footer:
            fh.write(f"# {line}\n")


def write_scaling_svg(path, xs, ys, *, xlabel: str, ylabel: str, title: str,
                      guide_factor: float | None = None):
    """Minimal deterministic SVG: log2(y) against x with an optional dashed
    guide line through the first point whose slope is log2(guide_factor)
    per unit x."""
    xs = [float(x) for x in xs]
    ly = [math.log2(float(y)) for y in ys]
    w, h, margin = 480, 360, 56
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ly), max(ly)
    if guide_factor is not None:
        guide = [ly[0] + math.log2(guide_factor) * (x - xs[0]) for x in xs]
        y_lo = min(y_lo, *guide)
        y_hi = max(y_hi, *guide)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def px(x):
        return margin + (x - x_lo) / x_span * (w - 2 * margin)

    def py(y):
        return h - margin - (y - y_lo) / y_span * (h - 2 * margin)

    def polyline(points, color, dash=""):
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in points)
        return (f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'{dash}points="{pts}"/>')

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{w / 2:.0f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{title}</text>',
        f'<line x1="{margin}" y1="{h - margin}" x2="{w - margin}" '
        f'y2="{h - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{h - margin}" stroke="black"/>',
        f'<text x="{w / 2:.0f}" y="{h - 16}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">{xlabel}</text>',
        f'<text x="16" y="{h / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11" '
        f'transform="rotate(-90 16 {h / 2:.0f})">{ylabel} (log2)</text>',
        polyline(list(zip(xs, ly)), "#1f5fa8"),
    ]
    for x, y in zip(xs, ly):
        parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="#1f5fa8"/>')
    if guide_factor is not None:
        parts.append(polyline(list(zip(xs, guide)), "#888888",
                              dash='stroke-dasharray="6 4" '))
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(parts) + "\n")


@dataclass(frozen=True)
class ScanResult:
    """Outcome of a scan over one parameter.

    ``rows`` holds one CSV row per scan point, ``detail`` one dict per
    point with the estimates the rows leave out, ``slope`` the log-log
    slope of the scanned error (nan when it cannot be fitted), and
    ``config`` the settings written to the CSV header.
    """

    rows: list
    detail: list
    slope: float
    config: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# bias scaling


BIAS_COLUMNS = ("k", "eps_acc", "N", "h", "steps", "kde_rel_error")
_H_RULES = ("eps23", "eps12", "fixed")
# bias-scan runs gcd(steps, _BIAS_REPLICAS) replicas: 10 for every step count
# in use (tests 120, benchmark 2500, default 200000), fewer for any other
_BIAS_REPLICAS = 10


def bias_scan(k_max: int = 3, steps: int = 200_000, h_rule: str = "eps23",
              epsilon: float = 0.25, T: float = 1.0, seed: int = 0,
              burn_in: float = 0.1, h_fixed: float | None = None,
              threads: int = 1) -> ScanResult:
    """Stationary-density error of the unadjusted chain at accuracies 2^-k.

    For each k: the accuracy is eps_acc = 2^-k, the particle count
    N = eps_acc^-2, and the step size eps_acc^(2/3) (rule ``eps23``),
    eps_acc^(1/2) (``eps12``) or ``h_fixed``, snapped so T/h is integral.
    R = gcd(steps, 10) chains, each started from the exact N-particle
    stationary measure, run as one (R, N, 1) batch for steps / R kernel
    steps, so the kernel steps per k stay ``steps``.  Each replica drops
    its first ``burn_in`` fraction of steps; the pooled first-coordinate
    samples of all replicas are scored against the standard normal
    density.  The detail records give the pooled sample count ``kept``
    and ``first_var``, the replica mean of the kept samples' second moment
    about the known mean 0, with its standard error across replicas (nan
    when R is 1).
    """
    if not 1 <= k_max <= 5:
        raise ConfigError("k_max must lie in 1..5")
    if steps < 10:
        raise ConfigError("steps must be at least 10")
    if h_rule not in _H_RULES:
        raise ConfigError(f"h rule must be one of {_H_RULES}")
    if h_rule == "fixed" and not h_fixed:
        raise ConfigError("h rule 'fixed' requires an explicit step size")
    if not 0 <= burn_in < 1:
        raise ConfigError("burn-in fraction must lie in [0, 1)")
    if not T > 0:
        raise ConfigError(f"T must be positive, got T={T}")
    model = gaussian_model(epsilon)
    replicas = math.gcd(steps, _BIAS_REPLICAS)
    per = steps // replicas
    burn = int(round(burn_in * per))

    def one_k(stream, k):
        eps_acc = 2.0 ** (-k)
        n_particles = int(round(eps_acc ** -2))
        if h_rule == "eps23":
            h_raw = eps_acc ** (2.0 / 3.0)
        elif h_rule == "eps12":
            h_raw = eps_acc ** 0.5
        else:
            h_raw = h_fixed
        h = snap_step_size(T, h_raw)
        params = KernelParams(T=T, h=h)
        q = stationary_gaussian_sample_arrays(
            epsilon, (replicas, n_particles), stream)[..., None]
        first = run_chain(lambda v: uhmc_step_arrays(model, v, params, stream),
                          q, per, lambda v: v[:, 0, 0])
        kept = first[1 + burn:]
        err = kde_relative_error(kept.reshape(-1))
        var_r = (kept * kept).mean(axis=0)
        var_se = (float(var_r.std(ddof=1) / np.sqrt(replicas))
                  if replicas > 1 else float("nan"))
        detail = {"k": k, "kept": int(kept.size),
                  "first_var": float(var_r.mean()), "first_var_se": var_se}
        return (k, eps_acc, n_particles, h, steps, err), detail

    rows, detail = _scan(one_k, range(1, k_max + 1), seed, threads)
    slope = _slope([r[1] for r in rows], [r[5] for r in rows])
    config = {"k_max": k_max, "steps": steps, "h_rule": h_rule,
              "epsilon": epsilon, "T": T, "burn_in": burn_in,
              "h_fixed": h_fixed}
    return ScanResult(rows=rows, detail=detail, slope=slope, config=config)


# ---------------------------------------------------------------------------
# propagation-of-chaos scan


CHAOS_COLUMNS = ("N", "var_err", "mean_coord_var", "w1_marginal")


def chaos_scan(N_list=(16, 64, 256), m: int = 1500, replicas: int = 200,
               epsilon: float = 0.25, T: float = 1.0, seed: int = 0,
               threads: int = 1) -> ScanResult:
    """Finite-N marginal bias of the exact kernel started in stationarity.

    For each N the per-coordinate variance of the pooled chain output is
    compared with the single-particle target variance 1; the exact
    stationary value is 1 + eps/(N (1 - eps)), so the error scales like
    1/N.  Also reports the variance of the particle-mean coordinate, taken
    about its known mean 0, and the Wasserstein-1 distance of the pooled
    first-coordinate marginal from fresh standard normal draws.
    """
    if any(n < 2 for n in N_list):
        raise ConfigError("each N must be at least 2")
    if m < 1 or replicas < 2:
        raise ConfigError("m must be >= 1 and replicas >= 2")
    if not T > 0:
        raise ConfigError(f"T must be positive, got T={T}")

    def one_n(stream, n_particles):
        q = stationary_gaussian_sample_arrays(epsilon, (replicas, n_particles), stream)
        # per step and replica: particle sum, sum of squares, first coordinate
        records = run_chain(lambda v: xhmc_step_gaussian_arrays(epsilon, v, T, stream),
                            q, m, lambda v: (v.sum(axis=1), (v * v).sum(axis=1), v[:, 0]))
        rowsum, sumsq, first_track = np.moveaxis(records[1:], 1, 0)
        s1 = rowsum.sum(axis=0)
        s2 = sumsq.sum(axis=0)
        mean_track = rowsum / n_particles
        count = m * n_particles
        var_r = (s2 / count - (s1 / count) ** 2) * count / (count - 1)
        var_hat = float(var_r.mean())
        var_se = float(var_r.std(ddof=1) / np.sqrt(replicas))
        mc_var_r = (mean_track * mean_track).mean(axis=0)
        mc_var = float(mc_var_r.mean())
        mc_var_se = float(mc_var_r.std(ddof=1) / np.sqrt(replicas))

        pooled = first_track.reshape(-1)
        ref = stream.normal_vector(min(pooled.size, W1_SUBSAMPLE_CAP))
        w1 = wasserstein1_1d(pooled, ref)

        analytic = 1.0 + epsilon / (n_particles * (1.0 - epsilon))
        detail = {"N": n_particles, "var_hat": var_hat, "var_se": var_se,
                  "analytic_var": analytic,
                  "mean_coord_var": mc_var, "mean_coord_var_se": mc_var_se,
                  "analytic_mean_coord_var": 1.0 / ((1.0 - epsilon) * n_particles),
                  "w1_marginal": w1}
        row = (n_particles, abs(var_hat - 1.0), mc_var, w1)
        return row, detail

    rows, detail = _scan(one_n, list(N_list), seed, threads)
    slope = _slope([r[0] for r in rows], [r[1] for r in rows])
    config = {"N_list": list(N_list), "m": m, "replicas": replicas,
              "epsilon": epsilon, "T": T}
    return ScanResult(rows=rows, detail=detail, slope=slope, config=config)


# ---------------------------------------------------------------------------
# contraction experiment


@dataclass(frozen=True)
class ContractionExperimentResult:
    """Coupled-distance decay table with a fitted per-step factor.

    ``mean_rho[k]`` averages rho_N over replicas after k coupled steps and
    ``stderr[k]`` is its standard error; ``rows`` pairs them with k.  The
    decay factor is exp(slope) of a log-linear fit of ``mean_rho``, and
    its standard error comes from refitting on CONTRACTION_BLOCKS disjoint
    replica groups.  ``c_uhmc`` and ``A`` are the theory's rate and
    envelope constant; ``condition_warnings`` names the admissibility
    conditions that failed.
    """

    rows: list                      # (step, mean_rhoN, stderr)
    mean_rho: np.ndarray
    stderr: np.ndarray
    decay_factor: float
    decay_factor_se: float
    c_uhmc: float
    A: float
    condition_warnings: list
    config: dict = field(default_factory=dict)


CONTRACTION_COLUMNS = ("step", "mean_rhoN", "stderr")
CONTRACTION_BLOCKS = 10


def _fit_factor(mean_rho: np.ndarray) -> float:
    steps = np.arange(len(mean_rho))
    good = mean_rho > 0
    if good.sum() < 2:
        return 0.0
    slope = np.polyfit(steps[good], np.log(mean_rho[good]), 1)[0]
    return float(np.exp(slope))


def contraction_experiment(model: MeanFieldModel, T: float, h: float,
                           m: int = 50, replicas: int = 1000, N: int = 8,
                           seed: int = 0, offset: float = 1.0,
                           synchronous: bool = False) -> ContractionExperimentResult:
    """Coupled-chain decay of the particle-averaged coupled distance.

    Initial pairs are x ~ product standard normal and x' = x + offset in
    every coordinate; each replica then runs ``m`` coupled steps.
    Admissibility of (T, eps) for the discretized kernel is checked first;
    failures warn and proceed.
    """
    if m < 1:
        raise ConfigError("m must be a positive integer")
    if replicas < 2:
        raise ConfigError("replicas must be at least 2")
    if N < 1:
        raise ConfigError(f"N must be a positive integer, got {N}")
    if not h > 0:
        raise ConfigError(f"the coupled kernel needs h > 0, got h={h}")
    params = KernelParams(T=T, h=h)
    tc = compute_constants(model, T)
    warnings = [name for name in ("cond_CT", "cond_Cepsi")
                if not tc.conditions[name].passed]
    for name in warnings:
        rep = tc.conditions[name]
        print(f"warning: {name} fails (lhs={rep.lhs:.6g} > rhs={rep.rhs:.6g}); "
              f"proceeding anyway", file=sys.stderr)
    cp = CouplingParams(R_tilde=tc.R_tilde, T=T)
    stream = RngStream(seed)

    x = stream.normal_vector(replicas * N * model.dim).reshape(replicas, N, model.dim)
    rho = run_chain(
        lambda pair: coupled_uhmc_step(model, *pair, params, cp, stream,
                                       synchronous=synchronous),
        (x, x + offset), m, lambda pair: rho_N(*pair, tc.R1, T))

    mean_rho = rho.mean(axis=1)
    stderr = rho.std(axis=1, ddof=1) / np.sqrt(replicas)
    blocks = np.array_split(np.arange(replicas), min(CONTRACTION_BLOCKS, replicas))
    refits = np.array([_fit_factor(rho[:, idx].mean(axis=1)) for idx in blocks])
    rows = [(k, mean_rho[k], stderr[k]) for k in range(m + 1)]
    config = {"model": model.name, "model_params": model.params, "T": T,
              "h": h, "m": m, "replicas": replicas, "N": N,
              "offset": offset, "synchronous": synchronous}
    return ContractionExperimentResult(
        rows=rows, mean_rho=mean_rho, stderr=stderr,
        decay_factor=_fit_factor(mean_rho),
        decay_factor_se=float(refits.std(ddof=1) / np.sqrt(len(blocks))),
        c_uhmc=tc.c_uhmc, A=tc.A, condition_warnings=warnings, config=config)


# ---------------------------------------------------------------------------
# integrator order check


ORDER_COLUMNS = ("h", "mean_weighted_error")


def order_check(h_list=(1 / 8, 1 / 16, 1 / 32, 1 / 64, 1 / 128), T: float = 1.0,
                N: int = 64, epsilon: float = 0.25, replicas: int = 1000,
                seed: int = 0, threads: int = 1) -> ScanResult:
    """Strong error of the randomized integrator against the exact flow.

    Starts every replica from stationary positions with fresh normal
    momenta, flows both integrators from the same state for duration T,
    and averages the particle-mean weighted phase-space error
    mean_i sqrt(|dq_i|^2 + |dp_i|^2 / L_e).  The expected log-log slope
    in h is 3/2.
    """
    if replicas < 2:
        raise ConfigError("replicas must be at least 2")
    if N < 1:
        raise ConfigError(f"N must be a positive integer, got {N}")
    model = gaussian_model(epsilon)
    for h in h_list:
        if not h > 0:
            raise ConfigError(f"each h must be positive, got h={h}")
        try:
            _integral_steps(T, h)
        except ValueError as err:
            raise ConfigError(str(err)) from None
    l_e = compute_constants(model, T).L_e

    def one_h(stream, h):
        q0 = stationary_gaussian_sample_arrays(epsilon, (replicas, N), stream)
        p0 = stream.normal_vector(replicas * N).reshape(replicas, N)
        q_exact, p_exact = exact_gaussian_flow_arrays(epsilon, q0, p0, T)
        q_num, p_num = randomized_flow_arrays(
            model, q0[..., None], p0[..., None], T, h, stream)
        dq = q_num[..., 0] - q_exact
        dp = p_num[..., 0] - p_exact
        err = np.sqrt(dq**2 + dp**2 / l_e).mean(axis=1)
        return ((h, float(err.mean())),
                {"h": h, "stderr": float(err.std(ddof=1) / np.sqrt(replicas))})

    rows, detail = _scan(one_h, list(h_list), seed, threads)
    slope = _slope([r[0] for r in rows], [r[1] for r in rows])
    config = {"h_list": [float(h) for h in h_list], "T": T, "N": N,
              "epsilon": epsilon, "replicas": replicas}
    return ScanResult(rows=rows, detail=detail, slope=slope, config=config)


# ---------------------------------------------------------------------------
# generic sampling


@dataclass(frozen=True)
class SampleResult:
    rows: list
    columns: tuple
    constants_footer: list
    config: dict = field(default_factory=dict)


def sample_command(model: MeanFieldModel, N: int, T: float, h: float,
                   m: int, thin: int = 1, init: str = "normal", seed: int = 0,
                   columns: int | None = None) -> SampleResult:
    """Generic chain run returning thinned positions as CSV rows.

    ``h = 0`` selects the exact kernel (gaussian model only).  ``columns``
    (at least 1) caps the number of coordinates written per row for large
    systems.
    """
    if m < 1:
        raise ConfigError("steps must be a positive integer")
    if N < 1:
        raise ConfigError("N must be a positive integer")
    if columns is not None and columns < 1:
        raise ConfigError(f"columns must be a positive integer, got {columns}")
    try:
        params = KernelParams(T=T, h=h)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    if h == 0 and model.name != "gaussian":
        raise ConfigError("the exact kernel is implemented only for the gaussian model")
    stream = RngStream(seed)
    x0 = draw_initial_positions(model, N, init, stream)
    total = N * model.dim
    n_cols = total if columns is None else min(int(columns), total)
    if h == 0:
        # the exact flow of the 1-d model acts on (N,) arrays
        eps = model.params["epsilon"]
        step = lambda q: xhmc_step_gaussian_arrays(eps, q, T, stream)
        state = x0[:, 0]
    else:
        step = lambda q: uhmc_step_arrays(model, q, params, stream)
        state = x0
    recorded = run_chain(step, state, m, lambda q: q.reshape(-1)[:n_cols], thin)
    col_names = ("step",) + tuple(f"x_{i + 1}" for i in range(n_cols))
    rows = [(idx * thin, *r) for idx, r in enumerate(recorded)]
    tc = compute_constants(model, T, m2_init=float((x0 * x0).sum(axis=-1).mean()))
    footer = ["constants: " + config_json(
        {name: json_safe(val) for name, val, _ in constants_table(tc)})]
    config = {"model": model.name, "model_params": model.params, "N": N,
              "T": T, "h": h, "steps": m, "thin": thin, "init": init,
              "columns": n_cols}
    return SampleResult(rows=rows, columns=col_names,
                        constants_footer=footer, config=config)
