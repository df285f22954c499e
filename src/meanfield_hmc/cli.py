"""Command-line interface.

    meanfield-hmc <subcommand> [flags]

Subcommands: sample, bias-scan, chaos-scan, contraction, order-check,
constants.  Exit codes: 0 success, 2 configuration error, 3 numerical
divergence.  Any ``ValueError``, ``OSError`` or ``MemoryError`` exits 2 with
one ``error:`` line: a bad flag, model parameter or ``--data`` row raises
``ValueError``, an unopenable ``--data`` file ``OSError``, an unwritable
``--out`` path (empty, a directory or in a missing one) the ``OSError`` of
``open``, before the experiment runs, and a size too large to allocate
``MemoryError``.

Each subcommand's flags feed one call of its experiment (for ``constants``,
:func:`theory.compute_constants`); a flag left out takes the default of the
function it feeds, the experiment or, for ``--a`` and ``--dim``, the model
builder.  Each but ``constants`` returns an :class:`experiments.Report`;
:func:`experiments.write_csv` writes its CSV, and :func:`_write_outputs`
adds the ``--json`` line and the ``--plot`` SVG, which order-check alone
draws.  Every JSON output goes through :func:`experiments.config_json`, the
CLI's one JSON writer.
"""

from __future__ import annotations

import argparse
import errno
import inspect
# argparse's gettext imports locale when the first parser is built;
# importing it with the package keeps that cost out of the run
import locale  # noqa: F401
import os
import re
import sys

from . import __version__
from .experiments import (_check_count, bias_scan, chaos_scan, config_json,
                          contraction_experiment, order_check, sample_command,
                          write_csv, write_scaling_svg)
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
                   help="interaction strength eps, the factor of the pair term W")
    p.add_argument("--a", type=float,
                   help="multiwell bump sharpness (multiwell only; default 1)")
    p.add_argument("--dim", type=int,
                   help="per-particle dimension (multiwell only; default 1)")
    p.add_argument("--interaction", choices=["quadratic"],
                   help="multiwell pair term (multiwell only; default none)")
    p.add_argument("--data", metavar="CSV",
                   help="shallow-net dataset (shallow-net only; header y,z1,...)")


def _add_common_flags(p, experiment):
    # bound when build_parser runs, so a wrapper set on this module is called
    p.set_defaults(experiment=experiment)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, metavar="PATH")
    p.add_argument("--json", action="store_true", default=False,
                   help="print the CSV path and its footer as one JSON line")
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads over the scan points of bias-scan, "
                        "chaos-scan and order-check; sample and contraction "
                        "accept the flag and ignore it")


def _add_sample_flags(p):
    _add_model_flags(p)
    p.add_argument("--N", type=int)
    p.add_argument("--T", type=float)
    p.add_argument("--h", type=float, help="inner step size; 0 selects the exact kernel")
    p.add_argument("--steps", dest="m", type=int)
    p.add_argument("--thin", type=int)
    p.add_argument("--init", choices=["cold", "normal", "stationary"])
    p.add_argument("--columns", type=int, help="write only the first k coordinates")
    _add_common_flags(p, sample_command)


def _add_bias_scan_flags(p):
    p.add_argument("--k-max", type=int)
    p.add_argument("--steps", type=int,
                   help="kernel steps per k, split over up to 1000 stationary replicas")
    p.add_argument("--h-rule", choices=["eps23", "eps12", "fixed"])
    p.add_argument("--h", dest="h_fixed", type=float, help="step size for --h-rule fixed")
    p.add_argument("--eps", dest="epsilon", type=float)
    p.add_argument("--T", type=float)
    p.add_argument("--burn-in", type=float)
    _add_common_flags(p, bias_scan)


def _add_chaos_scan_flags(p):
    p.add_argument("--N-list", help="comma-separated particle counts")
    p.add_argument("--steps", dest="m", type=int)
    p.add_argument("--replicas", type=int)
    p.add_argument("--eps", dest="epsilon", type=float)
    p.add_argument("--T", type=float)
    _add_common_flags(p, chaos_scan)


def _add_contraction_flags(p):
    _add_model_flags(p)
    p.add_argument("--N", type=int)
    p.add_argument("--T", type=float)
    p.add_argument("--h", type=float)
    p.add_argument("--steps", dest="m", type=int)
    p.add_argument("--replicas", type=int)
    p.add_argument("--offset", type=float)
    p.add_argument("--synchronous", action="store_true", help="couple every pair's "
                   "velocities synchronously: the coupling at R_tilde = 0")
    _add_common_flags(p, contraction_experiment)


def _add_order_check_flags(p):
    p.add_argument("--h-list")
    p.add_argument("--T", type=float)
    p.add_argument("--N", type=int)
    p.add_argument("--eps", dest="epsilon", type=float)
    p.add_argument("--replicas", type=int)
    _add_common_flags(p, order_check)
    p.add_argument("--plot", action="store_true", default=False,
                   help="also write an SVG plot next to the CSV")


def _add_constants_flags(p):
    p.set_defaults(experiment=compute_constants)
    _add_model_flags(p)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--m2-init", type=float)
    p.add_argument("--B3", type=float)
    p.add_argument("--json", action="store_true", default=False,
                   help="print the constants and conditions as one JSON line")


# each subcommand, its help line and the function that adds its flags
_SUBCOMMANDS = (
    ("sample", "run one chain and write thinned positions", _add_sample_flags),
    ("bias-scan", "stationary density error at accuracies 2^-k", _add_bias_scan_flags),
    ("chaos-scan", "finite-N marginal bias of the exact kernel", _add_chaos_scan_flags),
    ("contraction", "coupled-chain distance decay", _add_contraction_flags),
    ("order-check", "strong error of the randomized integrator", _add_order_check_flags),
    ("constants", "derived rates and condition margins", _add_constants_flags),
)


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The CLI's parser.  Every subcommand is registered, but only those
    named by a token of ``argv`` get their flags and their ``experiment``
    (all of them when ``argv`` is None); argparse parses no other
    subcommand's flags."""
    parser = _Parser(
        prog="meanfield-hmc",
        description="Sample mean-field measures with unadjusted HMC and "
                    "verify contraction, chaos-propagation, accuracy, and "
                    "bias properties at desk scale.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_line, add_flags in _SUBCOMMANDS:
        # a flag left out is absent from the namespace
        p = sub.add_parser(name, help=help_line, argument_default=argparse.SUPPRESS)
        if argv is None or name in argv:
            add_flags(p)
    return parser


# each model flag that one model alone reads, and that model
_MODEL_FLAG_OWNERS = {"a": "multiwell", "dim": "multiwell",
                      "interaction": "multiwell", "data": "shallow-net"}


def _model_from_args(args):
    """The built-in model the model flags name; a flag that another model
    owns is an error, and shallow-net takes its dimension from ``--data``.
    Only the flags given reach the builder."""
    given = {flag: getattr(args, flag) for flag in _MODEL_FLAG_OWNERS if flag in args}
    for flag, owner in _MODEL_FLAG_OWNERS.items():
        if flag in given and args.model != owner:
            raise ValueError(f"--{flag} applies to the {owner} model only, not {args.model}")
    if args.model == "gaussian":
        return gaussian_model(args.eps)
    if args.model == "multiwell":
        return multiwell_model(epsilon=args.eps, **given)
    if "data" not in given:
        raise ValueError("shallow-net model requires --data <csv>")
    return shallow_net_model(ShallowNetDataset.from_csv(args.data), epsilon=args.eps)


def _parse_list(text: str, kind, flag: str) -> list:
    """Comma-separated values of ``kind``; a bad token or an empty list is a
    configuration error."""
    try:
        values = [kind(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"cannot parse {flag} {text!r}") from None
    if not values:
        raise ValueError(f"{flag} {text!r} names no values")
    return values


def _out_path(args) -> str:
    """``--out``, default the command name ('_' for '-') plus .csv; raises the
    error of ``open(path, "w")`` if it is empty, a directory or in a missing one."""
    path = args.command.replace("-", "_") + ".csv" if args.out is None else args.out
    if not path or os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
        code = errno.EISDIR if os.path.isdir(path) else errno.ENOENT
        raise OSError(code, os.strerror(code), path)
    return path


def _write_outputs(args, path, report):
    """Write the CSV to ``path``, the ``--plot`` SVG next to it when the
    report has a plot (order-check alone has one, and the ``--plot`` flag),
    and the ``--json`` line: the CSV path under "out" plus the footer's
    entries."""
    write_csv(path, report, args.command, args.seed)
    if report.plot is not None and args.plot:
        svg = path[:-4] + ".svg" if path.endswith(".csv") else path + ".svg"
        write_scaling_svg(svg, **report.plot)
    if args.json:
        print(config_json({"out": path, **report.footer}))
    return EXIT_OK


def _experiment_kwargs(args) -> dict:
    """The keywords of ``args.experiment``: each parsed flag whose ``dest``
    is one of its parameters, the built model if it takes one, and the
    comma-separated list flags parsed.  A flag left out is not passed, so
    its parameter takes the experiment's default."""
    params = inspect.signature(args.experiment).parameters
    kwargs = {key: value for key, value in vars(args).items() if key in params}
    if "model" in params:
        kwargs["model"] = _model_from_args(args)
    for key, kind in (("N_list", int), ("h_list", float)):
        if key in kwargs:
            kwargs[key] = _parse_list(kwargs[key], kind, "--" + key.replace("_", "-"))
    return kwargs


def _run_constants(args):
    kwargs = _experiment_kwargs(args)
    model = kwargs["model"]
    tc = args.experiment(**kwargs)
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
        print(config_json(payload))
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
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    try:
        if args.command == "constants":
            code = _run_constants(args)
        else:
            _check_count("--threads", args.threads)
            path = _out_path(args)
            code = _write_outputs(args, path, args.experiment(**_experiment_kwargs(args)))
        # surface a closed stdout here rather than in the interpreter's exit flush
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader stopped early (``| head``): not an error.  Point stdout
        # at devnull so the interpreter's final flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (ValueError, OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrationDivergedError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
