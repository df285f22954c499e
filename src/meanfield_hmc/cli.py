"""Command-line interface.

    meanfield-hmc <subcommand> [flags]

Subcommands: sample, bias-scan, chaos-scan, contraction, order-check,
constants.  Exit codes: 0 success, 2 configuration error (an unreadable
``--data`` file or an unwritable ``--out`` path included), 3 numerical
divergence.

Each subcommand but ``constants`` maps its flags to one call of its
experiment, which returns an :class:`experiments.Report` of plain values;
:func:`experiments.write_csv` writes its CSV, and :func:`_write_outputs`
adds the ``--plot`` SVG and the ``--json`` line.
"""

from __future__ import annotations

import argparse
import json
# argparse's gettext imports locale when the first parser is built;
# importing it with the package keeps that cost out of the run
import locale  # noqa: F401
import os
import re
import sys

from . import __version__
from .experiments import (ConfigError, _check_count, bias_scan, chaos_scan,
                          config_json, contraction_experiment, json_safe,
                          order_check, sample_command, write_csv,
                          write_scaling_svg)
from .integrators import IntegrationDivergedError
from .models import (ShallowNetDataset, gaussian_model, multiwell_model,
                     shallow_net_model)
from .theory import (CONDITION_SETS, compute_constants, constants_table,
                     max_admissible_T)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


# argparse takes an argument that starts with '-' for a value only if it
# reads as -1, -1.5 or -.5; exponent forms such as -1e-3 and -inf would be
# taken for options.  No option of this CLI looks like a number, so every
# float spelling below reaches its option and then its value check.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|^-(inf|infinity|nan)$",
                              re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads every negative float spelling as a value;
    its subparsers are of the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


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
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads over the scan points of bias-scan, "
                        "chaos-scan and order-check; sample and contraction "
                        "accept the flag and ignore it")


def _add_plot_flag(p):
    p.add_argument("--plot", action="store_true",
                   help="also write an SVG plot next to the CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--steps", type=int, default=200_000,
                   help="kernel steps per k, split over up to 1000 stationary "
                        "replicas")
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
    """The built-in model the model flags name; ``--dim`` applies to
    multiwell only, and shallow-net takes its dimension from ``--data``."""
    if args.dim is not None and args.model != "multiwell":
        raise ConfigError(f"--dim applies to the multiwell model only, not {args.model}")
    if args.model == "gaussian":
        return gaussian_model(args.eps)
    if args.model == "multiwell":
        return multiwell_model(args.a, dim=1 if args.dim is None else args.dim,
                               epsilon=args.eps, interaction=args.interaction)
    if args.data is None:
        raise ConfigError("shallow-net model requires --data <csv>")
    return shallow_net_model(ShallowNetDataset.from_csv(args.data), epsilon=args.eps)


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


def _write_outputs(args, report):
    """Write the CSV to ``--out`` (default the command name with '_' for
    '-', plus .csv); write the ``--plot`` SVG next to it when the report
    has a plot (commands without one have no ``--plot`` flag); print the
    ``--json`` line, the CSV path plus the report's summary."""
    path = args.out or args.command.replace("-", "_") + ".csv"
    write_csv(path, report, args.command, args.seed)
    if report.plot is not None and args.plot:
        svg = path[:-4] + ".svg" if path.endswith(".csv") else path + ".svg"
        write_scaling_svg(svg, **report.plot)
    if args.json:
        print(config_json({"out": path, **report.summary}))
    return EXIT_OK


_EXPERIMENTS = {
    "sample": lambda a: sample_command(
        _model_from_args(a), N=a.N, T=a.T, h=a.h, m=a.steps, thin=a.thin,
        init=a.init, seed=a.seed, columns=a.columns),
    "bias-scan": lambda a: bias_scan(
        k_max=a.k_max, steps=a.steps, h_rule=a.h_rule, epsilon=a.eps, T=a.T,
        seed=a.seed, burn_in=a.burn_in, h_fixed=a.h, threads=a.threads),
    "chaos-scan": lambda a: chaos_scan(
        N_list=_parse_list(a.N_list, int, "--N-list"), m=a.steps,
        replicas=a.replicas, epsilon=a.eps, T=a.T, seed=a.seed, threads=a.threads),
    "contraction": lambda a: contraction_experiment(
        _model_from_args(a), T=a.T, h=a.h, m=a.steps, replicas=a.replicas, N=a.N,
        seed=a.seed, offset=a.offset, synchronous=a.synchronous),
    "order-check": lambda a: order_check(
        h_list=_parse_list(a.h_list, float, "--h-list"), T=a.T, N=a.N,
        epsilon=a.eps, replicas=a.replicas, seed=a.seed, threads=a.threads),
}


def _run_constants(args):
    model = _model_from_args(args)
    tc = compute_constants(model, args.T, m2_init=args.m2_init, B3=args.B3)
    table = constants_table(tc)
    t_max = {name: max_admissible_T(model, name) for name in CONDITION_SETS}
    if args.json:
        payload = {
            "model": model.name,
            "model_params": model.params,
            "constants": {name: val for name, val, _ in table},
            "conditions": {name: {"passed": rep.passed, "lhs": rep.lhs,
                                  "rhs": rep.rhs, "ratio": rep.ratio}
                           for name, rep in tc.conditions.items()},
            "max_admissible_T": t_max,
        }
        print(json.dumps(json_safe(payload), sort_keys=True, indent=2))
        return EXIT_OK
    print(f"model: {model.name}  params: {config_json(model.params)}")
    print(f"{'name':<16}{'value':<24}formula")
    for name, value, formula in table:
        print(f"{name:<16}{value:<24.12g}{formula}")
    print()
    print(f"{'condition':<18}{'status':<8}{'lhs':<14}{'rhs':<14}ratio")
    for name, rep in tc.conditions.items():
        status = "pass" if rep.passed else "FAIL"
        print(f"{name:<18}{status:<8}{rep.lhs:<14.6g}{rep.rhs:<14.6g}{rep.ratio:.6g}")
    print()
    print(f"{'condition set':<16}max_admissible_T")
    for name, t in t_max.items():
        print(f"{name:<16}{t:.12g}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "constants":
            code = _run_constants(args)
        else:
            _check_count("--threads", args.threads)
            code = _write_outputs(args, _EXPERIMENTS[args.command](args))
        # surface a closed stdout here rather than in the interpreter's exit flush
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader stopped early (``| head``): not an error.  Point stdout
        # at devnull so the interpreter's final flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except ValueError as err:
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
