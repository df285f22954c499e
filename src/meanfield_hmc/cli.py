"""Command-line interface.

    meanfield-hmc <subcommand> [flags]

Subcommands: sample, bias-scan, chaos-scan, contraction, order-check,
constants.  Exit codes: 0 success, 2 configuration error, 3 numerical
divergence.  All outputs are CSV with '#'-prefixed comment lines
carrying the seed, version, and full configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__
from .experiments import (BIAS_COLUMNS, CHAOS_COLUMNS, CONTRACTION_COLUMNS,
                          ORDER_COLUMNS, ConfigError, bias_scan, build_model,
                          chaos_scan, config_json, contraction_experiment,
                          header_lines, json_safe, order_check,
                          sample_command, write_csv, write_scaling_svg)
from .integrators import IntegrationDivergedError
from .models import InvalidModelError
from .theory import compute_constants, constants_table

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


def _add_model_flags(p):
    p.add_argument("--model", default="gaussian",
                   choices=["gaussian", "multiwell", "shallow-net"])
    p.add_argument("--eps", type=float, default=0.25,
                   help="interaction strength (model-specific meaning)")
    p.add_argument("--a", type=float, default=1.0,
                   help="multiwell bump sharpness")
    p.add_argument("--dim", type=int, default=None,
                   help="per-particle dimension (multiwell only; default 1)")
    p.add_argument("--interaction", default=None, choices=["quadratic"],
                   help="multiwell pair term (omit for no interaction)")
    p.add_argument("--data", default=None, metavar="CSV",
                   help="shallow-net dataset (header y,z1,...)")


def _add_common_flags(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, metavar="PATH")
    p.add_argument("--json", action="store_true",
                   help="print a machine-readable summary to stdout")
    p.add_argument("--threads", type=int, default=1)


def _add_plot_flag(p):
    p.add_argument("--plot", action="store_true",
                   help="also write an SVG plot next to the CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meanfield-hmc",
        description="Sample mean-field measures with unadjusted HMC and "
                    "verify contraction, chaos-propagation, accuracy, and "
                    "bias properties at desk scale.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="run one chain and write thinned positions")
    _add_model_flags(p)
    p.add_argument("--N", type=int, default=16)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--h", type=float, default=0.25,
                   help="inner step size; 0 selects the exact kernel")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--thin", type=int, default=1)
    p.add_argument("--init", default="normal",
                   choices=["cold", "normal", "stationary"])
    p.add_argument("--columns", type=int, default=None,
                   help="write only the first k coordinates")
    _add_common_flags(p)

    p = sub.add_parser("bias-scan", help="stationary density error at accuracies 2^-k")
    p.add_argument("--k-max", type=int, default=3)
    p.add_argument("--steps", type=int, default=200_000)
    p.add_argument("--h-rule", default="eps23", choices=["eps23", "eps12", "fixed"])
    p.add_argument("--h", type=float, default=None, help="step size for --h-rule fixed")
    p.add_argument("--eps", type=float, default=0.25)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--burn-in", type=float, default=0.1)
    _add_common_flags(p)
    _add_plot_flag(p)

    p = sub.add_parser("chaos-scan", help="finite-N marginal bias of the exact kernel")
    p.add_argument("--N-list", default="16,64,256",
                   help="comma-separated particle counts")
    p.add_argument("--steps", type=int, default=1500)
    p.add_argument("--replicas", type=int, default=200)
    p.add_argument("--eps", type=float, default=0.25)
    p.add_argument("--T", type=float, default=1.0)
    _add_common_flags(p)
    _add_plot_flag(p)

    p = sub.add_parser("contraction", help="coupled-chain distance decay")
    _add_model_flags(p)
    p.add_argument("--N", type=int, default=8)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--h", type=float, default=0.25)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--replicas", type=int, default=1000)
    p.add_argument("--offset", type=float, default=1.0)
    p.add_argument("--synchronous", action="store_true")
    _add_common_flags(p)
    _add_plot_flag(p)

    p = sub.add_parser("order-check", help="strong error of the randomized integrator")
    p.add_argument("--h-list", default="0.125,0.0625,0.03125,0.015625,0.0078125")
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--N", type=int, default=64)
    p.add_argument("--eps", type=float, default=0.25)
    p.add_argument("--replicas", type=int, default=1000)
    _add_common_flags(p)
    _add_plot_flag(p)

    p = sub.add_parser("constants", help="derived rates and condition margins")
    _add_model_flags(p)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--m2-init", type=float, default=0.0)
    p.add_argument("--B3", type=float, default=1.0)
    p.add_argument("--json", action="store_true",
                   help="print the constants and conditions as JSON")
    return parser


def _model_from_args(args):
    return build_model(args.model, epsilon=args.eps, a=args.a, dim=args.dim,
                       interaction=args.interaction, data_path=args.data)


def _parse_list(text: str, kind, flag: str) -> list:
    """Comma-separated values of ``kind``; a bad token or an empty list is a
    configuration error."""
    try:
        values = [kind(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"cannot parse {flag} {text!r}") from None
    if not values:
        raise ConfigError(f"{flag} {text!r} names no values")
    return values


def _write_outputs(args, result, columns, footer, summary, plot=None):
    """Write the CSV (``--out``, default the command name with '_' for '-'
    plus .csv), the ``--plot`` SVG from the ``plot`` keywords of
    :func:`write_scaling_svg` (commands without a plot pass none and have
    no ``--plot`` flag), and the ``--json`` line: the CSV path plus
    ``summary`` with non-finite values as null."""
    path = args.out or args.command.replace("-", "_") + ".csv"
    write_csv(path, columns, result.rows,
              header_lines(args.command, args.seed, result.config), footer)
    if plot is not None and args.plot:
        svg = path[:-4] + ".svg" if path.endswith(".csv") else path + ".svg"
        write_scaling_svg(svg, **plot)
    if args.json:
        summary = {key: json_safe(value) for key, value in summary.items()}
        print(config_json({"out": path, **summary}))
    return EXIT_OK


def _run_sample(args):
    model = _model_from_args(args)
    result = sample_command(model, N=args.N, T=args.T, h=args.h, m=args.steps,
                            thin=args.thin, init=args.init, seed=args.seed,
                            columns=args.columns)
    return _write_outputs(args, result, result.columns, result.constants_footer,
                          {"rows": len(result.rows)})


def _run_bias_scan(args):
    result = bias_scan(k_max=args.k_max, steps=args.steps, h_rule=args.h_rule,
                       epsilon=args.eps, T=args.T, seed=args.seed,
                       burn_in=args.burn_in, h_fixed=args.h,
                       threads=args.threads)
    errors = [r[5] for r in result.rows]
    detail = [{key: json_safe(value) for key, value in d.items()}
              for d in result.detail]
    return _write_outputs(
        args, result, BIAS_COLUMNS,
        [f"loglog_slope_vs_eps_acc: {result.slope!r}",
         "detail: " + config_json(detail)],
        {"slope": result.slope, "errors": errors},
        dict(xs=[r[0] for r in result.rows], ys=errors,
             xlabel="k (accuracy 2^-k)", ylabel="density error",
             title="stationary density error vs accuracy", guide_factor=0.5))


def _run_chaos_scan(args):
    n_list = _parse_list(args.N_list, int, "--N-list")
    result = chaos_scan(N_list=n_list, m=args.steps, replicas=args.replicas,
                        epsilon=args.eps, T=args.T, seed=args.seed,
                        threads=args.threads)
    return _write_outputs(
        args, result, CHAOS_COLUMNS,
        [f"loglog_slope_vs_N: {result.slope!r}",
         "detail: " + config_json(result.detail)],
        {"slope": result.slope, "detail": result.detail},
        dict(xs=[math.log2(r[0]) for r in result.rows],
             ys=[r[1] for r in result.rows],
             xlabel="log2 N", ylabel="variance error",
             title="marginal variance error vs particle count", guide_factor=0.5))


def _run_contraction(args):
    model = _model_from_args(args)
    result = contraction_experiment(model, T=args.T, h=args.h, m=args.steps,
                                    replicas=args.replicas, N=args.N,
                                    seed=args.seed, offset=args.offset,
                                    synchronous=args.synchronous)
    positive = [(k, v) for k, v, _ in result.rows if v > 0]
    return _write_outputs(
        args, result, CONTRACTION_COLUMNS,
        [f"fitted_decay_factor: {result.decay_factor!r}",
         f"fitted_decay_factor_se: {result.decay_factor_se!r}",
         f"c_uhmc: {result.c_uhmc!r}",
         f"one_minus_c_uhmc: {1.0 - result.c_uhmc!r}",
         f"A: {json_safe(result.A)!r}"],
        {"decay_factor": result.decay_factor,
         "decay_factor_se": result.decay_factor_se,
         "c_uhmc": result.c_uhmc, "warnings": result.condition_warnings},
        dict(xs=[k for k, _ in positive], ys=[v for _, v in positive],
             xlabel="coupled step", ylabel="mean coupled distance",
             title="coupled-chain contraction", guide_factor=1.0 - result.c_uhmc))


def _run_order_check(args):
    h_list = _parse_list(args.h_list, float, "--h-list")
    result = order_check(h_list=h_list, T=args.T, N=args.N, epsilon=args.eps,
                         replicas=args.replicas, seed=args.seed,
                         threads=args.threads)
    return _write_outputs(
        args, result, ORDER_COLUMNS, [f"loglog_slope_vs_h: {result.slope!r}"],
        {"slope": result.slope},
        dict(xs=[math.log2(h) for h, _ in result.rows],
             ys=[e for _, e in result.rows],
             xlabel="log2 h", ylabel="weighted error",
             title="randomized integrator strong error", guide_factor=2.0 ** 1.5))


def _run_constants(args):
    model = _model_from_args(args)
    tc = compute_constants(model, args.T, m2_init=args.m2_init, B3=args.B3)
    table = constants_table(tc)
    reports = tc.conditions
    if args.json:
        payload = {
            "model": model.name,
            "model_params": model.params,
            "certified": model.constants.certified,
            "constants": {name: json_safe(val) for name, val, _ in table},
            "conditions": {name: {"passed": rep.passed,
                                  "lhs": json_safe(rep.lhs),
                                  "rhs": json_safe(rep.rhs),
                                  "ratio": json_safe(rep.ratio)}
                           for name, rep in reports.items()},
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
        return EXIT_OK
    print(f"model: {model.name}  params: {config_json(model.params)}")
    if not model.constants.certified:
        print("note: constants are numerical estimates (not certified)")
    print(f"{'name':<16}{'value':<24}formula")
    for name, value, formula in table:
        print(f"{name:<16}{value:<24.12g}{formula}")
    print()
    print(f"{'condition':<18}{'status':<8}{'lhs':<14}{'rhs':<14}ratio")
    for name, rep in reports.items():
        status = "pass" if rep.passed else "FAIL"
        print(f"{name:<18}{status:<8}{rep.lhs:<14.6g}{rep.rhs:<14.6g}{rep.ratio:.6g}")
    return EXIT_OK


_RUNNERS = {
    "sample": _run_sample,
    "bias-scan": _run_bias_scan,
    "chaos-scan": _run_chaos_scan,
    "contraction": _run_contraction,
    "order-check": _run_order_check,
    "constants": _run_constants,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _RUNNERS[args.command](args)
        # surface a closed stdout here rather than in the interpreter's exit flush
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader stopped early (``| head``): not an error.  Point stdout
        # at devnull so the interpreter's final flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (ConfigError, InvalidModelError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrationDivergedError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DIVERGED
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
