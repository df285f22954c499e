"""Experiment drivers: bias scaling, chaos scan, contraction estimation,
integrator order check, and generic sampling, with CSV/SVG output.

Every chain runs through :func:`kernels.run_chain`: an experiment supplies
the kernel step and what to record along the chain, and reduces the
records to its estimates.  The three scans share one skeleton,
:func:`_scan`, which gives each scan point its own substream of the base
seed, so results are identical whether points run sequentially or on a
thread pool, and two runs with the same seed emit byte-identical files.

Each experiment returns one :class:`Report`: its CSV columns and rows, the
configuration for the CSV header, and, next to the estimates they
describe, its footer values (the run's one record, which the ``--json``
line prints too) and its plot.  The CLI only writes a Report; it knows
nothing of any one experiment's results.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from . import __version__
from .couplings import CouplingParams, coupled_uhmc_step, rho_N
from .integrators import (DIVERGENCE_LIMIT, _check_duration, _integral_steps,
                          _snap_step_size, exact_gaussian_flow_arrays,
                          lockstep_flow_arrays)
from .kernels import (run_chain, stationary_gaussian_sample_arrays,
                      draw_initial_positions, uhmc_step_arrays,
                      xhmc_step_gaussian_arrays)
from .models import MeanFieldModel, _Frozen, gaussian_model
from .rng import RngStream, ndtri
from .statistics import KDE_MIN_SAMPLES, kde_relative_error, wasserstein1_1d
from .theory import compute_constants, constants_table


def _check_count(flag: str, value: int, least: int = 1) -> None:
    """A ValueError naming ``flag`` and ``value`` unless value >= least."""
    if value < least:
        rule = "a positive integer" if least == 1 else f"at least {least}"
        raise ValueError(f"{flag} must be {rule}, got {value}")


def _scan(one_point, points, seed: int, threads: int):
    """Run ``one_point(stream, point)``, which returns (row, detail), for
    each point on substream i of ``seed``; return (rows, detail) in input
    order.  ``threads`` > 1 runs the points on a thread pool, whose modules
    (``concurrent.futures``, ``logging``, ``queue``) are imported on first
    use, so a one-thread scan never pays for them."""
    base = RngStream(seed)
    streams = [base.substream(i) for i in range(len(points))]
    if threads <= 1:
        results = list(map(one_point, streams, points))
    else:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one_point, streams, points))
    return [row for row, _ in results], [detail for _, detail in results]


def _slope(xs, ys) -> float:
    """Least-squares slope of log(ys) on log(xs); nan below 3 points, below
    2 distinct xs or at a non-positive value."""
    if len(xs) < 3 or len(set(xs)) < 2 or min(*xs, *ys) <= 0:
        return float("nan")
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


# ---------------------------------------------------------------------------
# CSV / SVG output


def json_safe(value):
    """``value`` with every non-finite float, at any depth of dicts and
    lists (or tuples, which come back as lists), replaced by None (JSON
    null): the one non-finite rule of every JSON output."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(item) for item in value]
    return value


def config_json(value) -> str:
    """Compact JSON of ``value`` with sorted keys, under :func:`json_safe`."""
    return json.dumps(json_safe(value), sort_keys=True, separators=(",", ":"))


def write_csv(path, report, command: str, seed: int):
    """Write ``report`` as the one CSV layout of every experiment: four '#'
    header lines (version, command, seed, config as JSON), the column
    header, the rows, then one '# key: value' line per footer entry, whose
    value is compact JSON for a dict or list and its repr otherwise.

    A row value is an integer (Python or numpy) or a float64 (Python float
    or ``np.float64``), and ``str`` writes it as str(int(v)) or
    repr(float(v)): under numpy's default print options a float64 prints
    in Python's shortest form.  So a row is formatted by one map in C."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# meanfield-hmc {__version__}\n# command: {command}\n"
                 f"# seed: {seed}\n# config: {config_json(report.config)}\n")
        fh.write(",".join(report.columns) + "\n")
        for row in report.rows:
            fh.write(",".join(map(str, row)) + "\n")
        for key, value in report.footer.items():
            text = config_json(value) if isinstance(value, (dict, list)) else repr(value)
            fh.write(f"# {key}: {text}\n")


def write_scaling_svg(path, xs, ys, *, xlabel: str, ylabel: str, title: str,
                      guide_factor: float):
    """Minimal deterministic SVG: log2(y) against x with a dashed guide line
    through the first point whose slope is log2(guide_factor) per unit x.
    Without points only the frame, labels and title are drawn."""
    xs = [float(x) for x in xs]
    ly = [math.log2(float(y)) for y in ys]
    w, h, margin = 480, 360, 56
    guide = [ly[0] + math.log2(guide_factor) * (x - xs[0]) for x in xs]
    x_lo, x_hi = min(xs, default=0.0), max(xs, default=1.0)
    y_lo, y_hi = min(ly + guide, default=0.0), max(ly + guide, default=1.0)
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
    ]
    if xs:
        parts.append(polyline(list(zip(xs, ly)), "#1f5fa8"))
    for x, y in zip(xs, ly):
        parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="#1f5fa8"/>')
    if guide:
        parts.append(polyline(list(zip(xs, guide)), "#888888",
                              dash='stroke-dasharray="6 4" '))
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(parts) + "\n")


class Report(_Frozen):
    """What one experiment run writes.

    ``columns`` and ``rows`` are the CSV table and ``config`` the settings
    in its header.  ``footer`` maps each trailing '#' line's key to a plain
    value; a scan's last entry is ``detail``, one dict per row with the
    estimates the rows leave out; the ``--json`` line prints the same
    entries.  ``plot`` holds the keywords of :func:`write_scaling_svg` for
    ``--plot``, or None where the command draws nothing.  :func:`write_csv`
    and :func:`config_json` alone format these values.
    """

    def __init__(self, columns: tuple, rows: list, config: dict, footer: dict,
                 plot: dict | None = None):
        self._set(locals())


# ---------------------------------------------------------------------------
# bias scaling


BIAS_COLUMNS = ("k", "eps_acc", "N", "h", "steps", "kde_rel_error")
_H_RULES = ("eps23", "eps12", "fixed")
# Every bias-scan replica starts from the exact stationary measure and loses
# its start at about 0.648 per kernel step, so a long chain buys nothing that
# more replicas would not, and a wide batch costs far fewer Python calls per
# step.  bias-scan therefore runs the widest replica count R that divides
# --steps, is at most _BIAS_MAX_REPLICAS and leaves each replica at least
# _BIAS_MIN_REPLICA_STEPS kernel steps: 1000 replicas of 200 steps at the
# default 200,000, 125 of 20 at 2500 and 6 of 20 at 120.
_BIAS_MAX_REPLICAS = 1000
_BIAS_MIN_REPLICA_STEPS = 20


def _bias_replicas(steps: int, burn_in: float):
    """(R, per, burn) for ``steps`` kernel steps per k: the widest divisor R
    of ``steps`` up to min(_BIAS_MAX_REPLICAS, steps // _BIAS_MIN_REPLICA_STEPS)
    whose replicas of ``per = steps // R`` steps, after dropping the first
    ``burn = round(burn_in * per)`` of each, keep at least KDE_MIN_SAMPLES
    samples in all.  A ValueError, naming the most any of them keeps, when
    none does."""
    # below _BIAS_MIN_REPLICA_STEPS steps, one chain (too short to keep enough)
    cap = max(1, min(_BIAS_MAX_REPLICAS, steps // _BIAS_MIN_REPLICA_STEPS))
    most = 0
    for replicas in range(cap, 0, -1):
        if steps % replicas:
            continue
        per = steps // replicas
        burn = int(round(burn_in * per))
        kept = replicas * (per - burn)
        if kept >= KDE_MIN_SAMPLES:
            return replicas, per, burn
        most = max(most, kept)
    raise ValueError(
        f"--steps {steps} with --burn-in {burn_in} keeps {most} samples "
        f"per k; the density estimate needs at least {KDE_MIN_SAMPLES}")


def bias_scan(k_max: int = 3, steps: int = 200_000, h_rule: str = "eps23",
              epsilon: float = 0.25, T: float = 1.0, seed: int = 0,
              burn_in: float = 0.1, h_fixed: float | None = None,
              threads: int = 1) -> Report:
    """Stationary-density error of the unadjusted chain at accuracies 2^-k.

    For each k: the accuracy is eps_acc = 2^-k, the particle count
    N = eps_acc^-2, and the step size eps_acc^(2/3) (rule ``eps23``),
    eps_acc^(1/2) (``eps12``) or ``h_fixed``, snapped so T/h is integral.
    The ``steps`` kernel steps per k are split over R stationary replicas
    (see :func:`_bias_replicas`): each starts from the exact N-particle
    stationary measure, and all run as one (R, N, 1) batch for
    per = steps / R kernel steps.  Each replica drops its first
    round(burn_in * per) steps; the pooled first-coordinate samples of all
    replicas are scored against the standard normal density.  The detail
    records give R, the pooled sample count ``kept`` and ``first_var``, the
    replica mean of the kept samples' second moment about the known mean
    0, with its standard error across replicas (nan when R is 1).
    ``h_fixed`` is an error under any rule but ``fixed``, and so is a
    ``burn_in`` under which no admissible R keeps as many samples as the
    density estimate needs; both are found before any step runs.
    """
    _check_count("steps", steps)
    if not 1 <= k_max <= 5:
        raise ValueError(f"k_max must lie in 1..5, got {k_max}")
    if h_rule not in _H_RULES:
        raise ValueError(f"h rule must be one of {_H_RULES}")
    if h_rule == "fixed" and h_fixed is None:
        raise ValueError("h rule 'fixed' requires an explicit step size")
    if h_rule != "fixed" and h_fixed is not None:
        raise ValueError(f"--h applies to --h-rule fixed only, not {h_rule}")
    if not 0 <= burn_in < 1:
        raise ValueError(f"burn-in fraction must lie in [0, 1), got {burn_in}")
    _check_duration(T)
    model = gaussian_model(epsilon)
    replicas, per, burn = _bias_replicas(steps, burn_in)

    def one_k(stream, k):
        eps_acc = 2.0 ** (-k)
        n_particles = int(round(eps_acc ** -2))
        if h_rule == "eps23":
            h_raw = eps_acc ** (2.0 / 3.0)
        elif h_rule == "eps12":
            h_raw = eps_acc ** 0.5
        else:
            h_raw = h_fixed
        h = _snap_step_size(T, h_raw)
        q = stationary_gaussian_sample_arrays(
            epsilon, (replicas, n_particles), stream)[..., None]
        first = run_chain(lambda v: uhmc_step_arrays(model, v, T, h, stream),
                          q, per, lambda v: v[:, 0, 0])
        kept = first[1 + burn:]
        err = kde_relative_error(kept.reshape(-1))
        var_r = (kept * kept).mean(axis=0)
        var_se = (float(var_r.std(ddof=1) / np.sqrt(replicas))
                  if replicas > 1 else float("nan"))
        detail = {"k": k, "replicas": replicas, "kept": int(kept.size),
                  "first_var": float(var_r.mean()), "first_var_se": var_se}
        return (k, eps_acc, n_particles, h, steps, err), detail

    rows, detail = _scan(one_k, range(1, k_max + 1), seed, threads)
    errors = [r[5] for r in rows]
    slope = _slope([r[1] for r in rows], errors)
    config = {"k_max": k_max, "steps": steps, "h_rule": h_rule,
              "epsilon": epsilon, "T": T, "burn_in": burn_in,
              "h_fixed": h_fixed}
    return Report(
        BIAS_COLUMNS, rows, config,
        {"loglog_slope_vs_eps_acc": slope, "detail": detail},
        dict(xs=[r[0] for r in rows], ys=errors, xlabel="k (accuracy 2^-k)",
             ylabel="density error", title="stationary density error vs accuracy",
             guide_factor=0.5))


# ---------------------------------------------------------------------------
# propagation-of-chaos scan


CHAOS_COLUMNS = ("N", "var_err", "mean_coord_var", "w1_marginal")


def chaos_scan(N_list=(16, 64, 256), m: int = 1500, replicas: int = 200,
               epsilon: float = 0.25, T: float = 1.0, seed: int = 0,
               threads: int = 1) -> Report:
    """Finite-N marginal bias of the exact kernel started in stationarity.

    For each N the per-coordinate variance of the pooled chain output is
    compared with the single-particle target variance 1; the exact
    stationary value is 1 + eps/(N (1 - eps)), so the error scales like
    1/N.  Also reports the variance of the particle-mean coordinate; both
    variances are taken about the known mean 0.  The Wasserstein-1
    distance of the pooled first-coordinate marginal is taken from the
    standard normal's quantiles at n bin midpoints, n the pooled count.
    """
    for n in N_list:
        _check_count("N", n, 2)
    _check_count("steps", m)
    _check_count("replicas", replicas, 2)
    _check_duration(T)

    def one_n(stream, n_particles):
        q = stationary_gaussian_sample_arrays(epsilon, (replicas, n_particles), stream)
        # per step and replica: particle sum, sum of squares, first coordinate
        records = run_chain(lambda v: xhmc_step_gaussian_arrays(epsilon, v, T, stream),
                            q, m, lambda v: (v.sum(axis=1), (v * v).sum(axis=1), v[:, 0]))
        rowsum, sumsq, first_track = np.moveaxis(records[1:], 1, 0)
        mean_track = rowsum / n_particles
        var_r = sumsq.sum(axis=0) / (m * n_particles)
        var_hat = float(var_r.mean())
        var_se = float(var_r.std(ddof=1) / np.sqrt(replicas))
        mc_var_r = (mean_track * mean_track).mean(axis=0)
        mc_var = float(mc_var_r.mean())
        mc_var_se = float(mc_var_r.std(ddof=1) / np.sqrt(replicas))

        pooled = first_track.reshape(-1)
        w1 = wasserstein1_1d(pooled, ndtri((np.arange(pooled.size) + 0.5) / pooled.size))

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
    return Report(
        CHAOS_COLUMNS, rows, config,
        {"loglog_slope_vs_N": slope, "detail": detail},
        dict(xs=[math.log2(r[0]) for r in rows], ys=[r[1] for r in rows],
             xlabel="log2 N", ylabel="variance error",
             title="marginal variance error vs particle count", guide_factor=0.5))


# ---------------------------------------------------------------------------
# contraction experiment


CONTRACTION_COLUMNS = ("step", "mean_rhoN", "stderr")
CONTRACTION_BLOCKS = 10


def _fit_factor(mean_rho: np.ndarray) -> float:
    # nan when fewer than two means are positive: nothing was measured
    steps = np.arange(len(mean_rho))
    good = mean_rho > 0
    if good.sum() < 2:
        return math.nan
    slope = np.polyfit(steps[good], np.log(mean_rho[good]), 1)[0]
    return float(np.exp(slope))


def contraction_experiment(model: MeanFieldModel, T: float, h: float,
                           m: int = 50, replicas: int = 1000, N: int = 8,
                           seed: int = 0, offset: float = 1.0,
                           synchronous: bool = False) -> Report:
    """Coupled-chain decay of the particle-averaged coupled distance.

    Initial pairs are x ~ product standard normal and x' = x + offset in
    every coordinate, with |offset| below ``DIVERGENCE_LIMIT``; each
    replica then runs ``m`` coupled steps.
    Admissibility of (T, eps) for the discretized kernel is checked first;
    failures warn and proceed.  Row k holds the replica mean of rho_N after
    k coupled steps and its standard error.  The footer's decay factor is
    exp(slope) of a log-linear fit of the means, and its standard error
    comes from refitting on CONTRACTION_BLOCKS disjoint replica groups;
    the footer adds the theory's rate c_uhmc and envelope constant A.
    """
    _check_count("steps", m)
    _check_count("replicas", replicas, 2)
    _check_count("N", N)
    _integral_steps(T, h)
    if not math.isfinite(offset):
        raise ValueError(f"offset must be finite, got offset={offset}")
    if abs(offset) >= DIVERGENCE_LIMIT:
        # such a copy starts past the bound that ends every trajectory
        raise ValueError(f"|offset| must be below the divergence limit "
                         f"{DIVERGENCE_LIMIT:g}, got offset={offset}")
    tc = compute_constants(model, T)
    for name in ("cond_CT", "cond_Cepsi"):
        rep = tc.conditions[name]
        if not rep.passed:
            print(f"warning: {name} fails (lhs={rep.lhs:.6g} > rhs={rep.rhs:.6g}); "
                  f"proceeding anyway", file=sys.stderr)
    cp = CouplingParams(R_tilde=tc.R_tilde, T=T)
    stream = RngStream(seed)

    x = stream.normal_vector((replicas, N, model.dim))
    rho = run_chain(
        lambda pair: coupled_uhmc_step(model, *pair, h, cp, stream,
                                       synchronous=synchronous),
        (x, x + offset), m, lambda pair: rho_N(*pair, tc.R1, T))

    mean_rho = rho.mean(axis=1)
    stderr = rho.std(axis=1, ddof=1) / np.sqrt(replicas)
    if not stderr[1:].any() and mean_rho[1:].all():
        # every replica read the same positive rho_N: pairs far apart
        # against T sit where metric_f is flat, T to rounding
        print(f"warning: rho_N saturates (stderr 0 after step 0; offset={offset:.6g}, "
              f"T={T:.6g}); the fitted decay factor measures nothing", file=sys.stderr)
    blocks = np.array_split(np.arange(replicas), min(CONTRACTION_BLOCKS, replicas))
    refits = np.array([_fit_factor(rho[:, idx].mean(axis=1)) for idx in blocks])
    rows = [(k, mean_rho[k], stderr[k]) for k in range(m + 1)]
    config = {"model": model.name, "model_params": model.params, "T": T,
              "h": h, "m": m, "replicas": replicas, "N": N,
              "offset": offset, "synchronous": synchronous}
    factor = _fit_factor(mean_rho)
    factor_se = float(refits.std(ddof=1) / np.sqrt(len(blocks)))
    positive = [(k, v) for k, v, _ in rows if v > 0]
    return Report(
        CONTRACTION_COLUMNS, rows, config,
        {"fitted_decay_factor": factor, "fitted_decay_factor_se": factor_se,
         "c_uhmc": tc.c_uhmc, "one_minus_c_uhmc": 1.0 - tc.c_uhmc, "A": tc.A},
        dict(xs=[k for k, _ in positive], ys=[v for _, v in positive],
             xlabel="coupled step", ylabel="mean coupled distance",
             title="coupled-chain contraction", guide_factor=1.0 - tc.c_uhmc))


# ---------------------------------------------------------------------------
# integrator order check


ORDER_COLUMNS = ("h", "mean_weighted_error")


def order_check(h_list=(1 / 8, 1 / 16, 1 / 32, 1 / 64, 1 / 128), T: float = 1.0,
                N: int = 64, epsilon: float = 0.25, replicas: int = 1000,
                seed: int = 0, threads: int = 1) -> Report:
    """Strong error of the randomized integrator against the exact flow.

    Starts every replica from stationary positions with fresh normal
    momenta, flows both integrators from the same state for duration T,
    and averages the particle-mean weighted phase-space error
    mean_i sqrt(|dq_i|^2 + |dp_i|^2 / L_e).  The expected log-log slope
    in h is 3/2.  The footer's detail line gives each mean's standard
    error across replicas.
    """
    _check_count("replicas", replicas, 2)
    _check_count("N", N)
    model = gaussian_model(epsilon)
    for h in h_list:
        _integral_steps(T, h)
    l_e = compute_constants(model, T).L_e

    def one_h(stream, h):
        q0 = stationary_gaussian_sample_arrays(epsilon, (replicas, N), stream)
        p0 = stream.normal_vector((replicas, N))
        q_exact = exact_gaussian_flow_arrays(epsilon, q0, p0, T)
        # the momentum obeys the position's linear equation from (p0, -grad U(q0))
        force0 = -model.grad_U_all(q0[..., None])[..., 0]
        p_exact = exact_gaussian_flow_arrays(epsilon, p0, force0, T)
        (q_num, p_num), = lockstep_flow_arrays(
            model, [(q0[..., None], p0[..., None])], T, h, stream)
        dq = q_num[..., 0] - q_exact
        dp = p_num[..., 0] - p_exact
        err = np.sqrt(dq**2 + dp**2 / l_e).mean(axis=1)
        return ((h, float(err.mean())),
                {"h": h, "stderr": float(err.std(ddof=1) / np.sqrt(replicas))})

    rows, detail = _scan(one_h, list(h_list), seed, threads)
    slope = _slope([r[0] for r in rows], [r[1] for r in rows])
    config = {"h_list": [float(h) for h in h_list], "T": T, "N": N,
              "epsilon": epsilon, "replicas": replicas}
    return Report(
        ORDER_COLUMNS, rows, config,
        {"loglog_slope_vs_h": slope, "detail": detail},
        dict(xs=[math.log2(h) for h, _ in rows], ys=[e for _, e in rows],
             xlabel="log2 h", ylabel="weighted error",
             title="randomized integrator strong error", guide_factor=2.0 ** 1.5))


# ---------------------------------------------------------------------------
# generic sampling


def sample_command(model: MeanFieldModel, N: int, T: float, h: float,
                   m: int, thin: int = 1, init: str = "normal", seed: int = 0,
                   columns: int | None = None) -> Report:
    """Generic chain run returning thinned positions as CSV rows.

    ``h = 0`` selects the exact kernel (gaussian model only).  ``columns``
    (at least 1) caps the number of coordinates written per row for large
    systems.
    """
    _check_count("steps", m)
    _check_count("N", N)
    _check_count("thin", thin)
    if thin > m:
        # the chain would run every step and record only its start
        raise ValueError(f"thin must not exceed steps, got thin={thin}, steps={m}")
    if columns is not None:
        _check_count("columns", columns)
    if h != 0:
        _integral_steps(T, h)
    else:
        _check_duration(T)
        if model.name != "gaussian":
            raise ValueError("the exact kernel is implemented only for the gaussian model")
    stream = RngStream(seed)
    x0 = draw_initial_positions(model, N, init, stream)
    # before the chain, so that constants out of floating-point range fail fast
    tc = compute_constants(model, T, m2_init=float((x0 * x0).sum(axis=-1).mean()))
    total = N * model.dim
    n_cols = total if columns is None else min(int(columns), total)
    if h == 0:
        # the exact flow of the 1-d model acts on (N,) arrays
        step = lambda q: xhmc_step_gaussian_arrays(model.epsilon, q, T, stream)
        state = x0[:, 0]
    else:
        step = lambda q: uhmc_step_arrays(model, q, T, h, stream)
        state = x0
    recorded = run_chain(step, state, m, lambda q: q.reshape(-1)[:n_cols], thin)
    col_names = ("step",) + tuple(f"x_{i + 1}" for i in range(n_cols))
    # Python floats, which write_csv formats fastest
    rows = [(idx * thin, *r) for idx, r in enumerate(recorded.tolist())]
    footer = {"constants": {name: val for name, val, _ in constants_table(tc)}}
    config = {"model": model.name, "model_params": model.params, "N": N,
              "T": T, "h": h, "steps": m, "thin": thin, "init": init,
              "columns": n_cols}
    return Report(col_names, rows, config, footer)
