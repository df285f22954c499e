import functools
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import meanfield_hmc
from meanfield_hmc import cli, rng
from meanfield_hmc.cli import main

GOLDEN = Path(__file__).parent / "golden"

# Each golden file is the CLI's output for these arguments at seed 0, at one
# and two --threads, so a byte difference is a change of output:
# - bias_scan.csv: bias-scan's rows and detail footer at two accuracies,
#   each split over 6 stationary replicas of 20 kernel steps;
# - chaos_scan.csv: the exact kernel's closed-form flow and the pooled
#   marginal estimates at N = 4, 8 and 16;
# - contraction.csv: coupled chains on the 1-d multiwell model without
#   interaction, with the fitted decay factor and the theory's c_uhmc and A;
# - contraction_multiwell_2d.csv: the one run with d > 1 and a pair
#   interaction, through the multiwell force and the velocity coupling;
# - order_check.csv: the randomized integrator's strong error against the
#   exact flow of position and momentum, with each error's standard error;
# - sample.csv: uHMC on the gaussian model, and its constants footer;
# - sample_exact.csv: the one run of the exact kernel through sample;
# - sample_shallow_net.csv: the shallow-net force and its closed-form box
#   constants, the same at one and two BLAS threads.
# shallow_net_data.csv is an input (12 points, 2 features), not an output.
GOLDEN_ARGS = {
    "bias_scan.csv": ["bias-scan", "--k-max", "2", "--steps", "120"],
    "chaos_scan.csv": ["chaos-scan", "--N-list", "4,8,16", "--steps", "30",
                       "--replicas", "4"],
    "contraction.csv": ["contraction", "--model", "multiwell", "--steps", "5",
                        "--replicas", "20"],
    "contraction_multiwell_2d.csv": ["contraction", "--model", "multiwell", "--a", "2",
                                     "--dim", "2", "--interaction", "quadratic",
                                     "--eps", "0.1", "--N", "8", "--replicas", "20",
                                     "--T", "0.5", "--h", "0.125", "--steps", "5"],
    "order_check.csv": ["order-check", "--h-list", "0.25,0.125,0.0625", "--N", "8",
                        "--replicas", "6"],
    "sample.csv": ["sample", "--model", "gaussian", "--steps", "20"],
    "sample_exact.csv": ["sample", "--model", "gaussian", "--h", "0", "--init",
                         "stationary", "--N", "8", "--steps", "10"],
    "sample_shallow_net.csv": ["sample", "--model", "shallow-net", "--data",
                               str(GOLDEN / "shallow_net_data.csv"), "--N", "8",
                               "--steps", "10"],
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(GOLDEN_ARGS))
def test_cli_output_matches_golden_file(tmp_path, name, threads):
    out = tmp_path / name
    argv = GOLDEN_ARGS[name] + ["--threads", str(threads), "--out", str(out)]
    assert main(argv) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


# constants_multiwell.txt: every constant with its formula, each condition's
# margin and the max_admissible_T table of `constants --model multiwell --a 2`
def test_constants_text_matches_golden_file(capsys):
    assert main(["constants", "--model", "multiwell", "--a", "2"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "constants_multiwell.txt").read_text()


# Each <name>.stdout golden file is the --json line of these arguments at
# seed 0: the CSV path under "out", then every footer entry of that CSV under
# its footer key, non-finite values as null.  <name>.svg is the --plot SVG,
# which order-check alone draws.  contraction_offset0_plot pins a run whose
# pairs start coalesced: every distance is 0, so the fitted decay factor and
# its standard error print as null.  sample_json pins the theory's constants
# as the one footer entry of sample.
PLOT_JSON_ARGS = {
    "bias_scan_plot": ["bias-scan", "--k-max", "3", "--steps", "120",
                       "--json", "--out", "bias_scan.csv"],
    "chaos_scan_plot": ["chaos-scan", "--N-list", "4,8,16", "--steps", "30",
                        "--replicas", "4", "--json",
                        "--out", "chaos_scan_plot.csv"],
    "contraction_plot": ["contraction", "--model", "multiwell", "--steps", "5",
                         "--replicas", "20", "--json",
                         "--out", "contraction_plot.csv"],
    "contraction_offset0_plot": ["contraction", "--offset", "0", "--steps", "5",
                                 "--replicas", "20", "--json",
                                 "--out", "contraction_offset0_plot.csv"],
    "order_check_plot": ["order-check", "--h-list", "0.25,0.125,0.0625", "--N", "8",
                         "--replicas", "6", "--plot", "--json",
                         "--out", "order_check_plot.csv"],
    "sample_json": ["sample", "--model", "gaussian", "--steps", "20", "--json",
                    "--out", "sample_json.csv"],
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(PLOT_JSON_ARGS))
def test_plot_and_json_match_golden_files(tmp_path, monkeypatch, capsys, name, threads):
    # a relative --out keeps the path printed by --json independent of tmp_path
    monkeypatch.chdir(tmp_path)
    assert main(PLOT_JSON_ARGS[name] + ["--threads", str(threads)]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.stdout").read_text()
    golden_svg = GOLDEN / f"{name}.svg"
    expected = [golden_svg.read_bytes()] if golden_svg.exists() else []
    assert [svg.read_bytes() for svg in tmp_path.glob("*.svg")] == expected


def test_golden_directory_holds_no_orphan_file():
    # a golden file that no test reads would outlive the run it pins
    expected = set(GOLDEN_ARGS) | {"constants_multiwell.txt", "shallow_net_data.csv"}
    expected |= {f"{name}.stdout" for name in PLOT_JSON_ARGS}
    expected |= {f"{name}.svg" for name, argv in PLOT_JSON_ARGS.items() if "--plot" in argv}
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(expected)


def _theory_range(T, model):
    return f"theory constants leave the floating-point range at T={T} for the {model}"


_GAUSSIAN = "gaussian model (epsilon=0.25)"
_MULTIWELL = "multiwell model (a={a}, epsilon={eps}, interaction={inter})"
_EPS_RANGE = ("epsilon must lie in [0, 1), got epsilon=1.0; "
              "at 1 the target loses integrability along the mean direction")


@pytest.mark.parametrize("argv, code, message", [
    (["chaos-scan", "--N-list", "4,x"], 2, "cannot parse --N-list '4,x'"),
    (["order-check", "--h-list", "0.5,y"], 2, "cannot parse --h-list '0.5,y'"),
    (["sample", "--h", "0.3"], 2, "T/h must be a positive integer, got T=1.0, h=0.3"),
    (["sample", "--eps", "0", "--T", "2500", "--h", "2.5", "--steps", "1"], 3,
     "chain diverged at kernel step 0 (inner step 186, replica 0)"),
    (["order-check", "--h-list", "0,0.5"], 2, "h must be finite and positive, got h=0.0"),
    (["chaos-scan", "--T", "0"], 2, "T must be finite and positive, got T=0.0"),
    (["bias-scan", "--T", "0"], 2, "T must be finite and positive, got T=0.0"),
    (["sample", "--columns", "0"], 2, "columns must be a positive integer, got 0"),
    (["sample", "--columns", "-2"], 2, "columns must be a positive integer, got -2"),
    (["chaos-scan", "--N-list", ","], 2, "--N-list ',' names no values"),
    (["order-check", "--h-list", ","], 2, "--h-list ',' names no values"),
    (["order-check", "--h-list", "0.3"], 2,
     "T/h must be a positive integer, got T=1.0, h=0.3"),
    # contraction checks its inputs before the condition warnings
    (["contraction", "--N", "0"], 2, "N must be a positive integer, got 0"),
    (["contraction", "--h", "0"], 2, "h must be finite and positive, got h=0.0"),
    (["contraction", "--h", "0.3"], 2,
     "T/h must be a positive integer, got T=1.0, h=0.3"),
    (["contraction", "--T", "0"], 2, "T must be finite and positive, got T=0.0"),
    (["contraction", "--dim", "2"], 2,
     "--dim applies to the multiwell model only, not gaussian"),
    (["sample", "--dim", "2"], 2,
     "--dim applies to the multiwell model only, not gaussian"),
    (["sample", "--model", "shallow-net", "--data", str(GOLDEN / "shallow_net_data.csv"),
      "--dim", "3"], 2, "--dim applies to the multiwell model only, not shallow-net"),
    (["order-check", "--N", "0"], 2, "N must be a positive integer, got 0"),
    # 50 replicas of 20 steps: enough kept samples to pass the checks
    (["bias-scan", "--k-max", "1", "--steps", "1000", "--h-rule", "fixed", "--h", "2.5",
      "--T", "2500", "--eps", "0"], 3,
     "k=1: chain diverged at kernel step 0 (inner step 178, replica 31)"),
    (["sample", "--model", "multiwell", "--h", "0"], 2,
     "the exact kernel is implemented only for the gaussian model"),
    (["bias-scan", "--h", "0.1"], 2, "--h applies to --h-rule fixed only, not eps23"),
    # the most any replica count keeps: 1000 replicas of 20 steps keep none,
    # 50 of 400 steps keep 50
    (["bias-scan", "--k-max", "3", "--steps", "20000", "--burn-in", "0.998"], 2,
     "--steps 20000 with --burn-in 0.998 keeps 50 samples per k; "
     "the density estimate needs at least 100"),
    (["bias-scan", "--steps", "10", "--burn-in", "0.95"], 2,
     "--steps 10 with --burn-in 0.95 keeps 0 samples per k; "
     "the density estimate needs at least 100"),
    (["bias-scan", "--steps", "-5"], 2, "steps must be a positive integer, got -5"),
    (["order-check", "--T", "0"], 2, "T must be finite and positive, got T=0.0"),
    (["order-check", "--T", "-1"], 2, "T must be finite and positive, got T=-1.0"),
    # a non-finite offset is an input error, not a divergence
    (["contraction", "--offset", "nan"], 2, "offset must be finite, got offset=nan"),
    (["contraction", "--offset", "inf"], 2, "offset must be finite, got offset=inf"),
    # non-finite model parameters fail validation, not the chain
    (["sample", "--model", "multiwell", "--a", "nan"], 2,
     "a must be finite and nonnegative, got a=nan"),
    (["sample", "--model", "multiwell", "--interaction", "quadratic", "--eps", "nan"], 2,
     "epsilon must be finite and nonnegative, got epsilon=nan"),
    (["sample", "--model", "multiwell", "--interaction", "quadratic", "--eps", "inf"], 2,
     "epsilon must be finite and nonnegative, got epsilon=inf"),
    (["sample", "--model", "shallow-net", "--data", str(GOLDEN / "shallow_net_data.csv"),
      "--eps", "nan"], 2, "epsilon must be finite and nonnegative, got epsilon=nan"),
    # an infinite duration or step size fails the one (T, h) rule before
    # any step runs, under either kernel
    (["bias-scan", "--T", "inf"], 2, "T must be finite and positive, got T=inf"),
    (["chaos-scan", "--T", "inf"], 2, "T must be finite and positive, got T=inf"),
    (["contraction", "--T", "inf"], 2, "T must be finite and positive, got T=inf"),
    (["order-check", "--T", "inf"], 2, "T must be finite and positive, got T=inf"),
    (["sample", "--T", "inf"], 2, "T must be finite and positive, got T=inf"),
    (["sample", "--h", "0", "--T", "inf"], 2, "T must be finite and positive, got T=inf"),
    (["bias-scan", "--h-rule", "fixed", "--h", "inf"], 2,
     "h must be finite and positive, got h=inf"),
    # a T^2 that overflows, or underflows to a zero divisor, in the theory
    (["constants", "--T", "1e200"], 2, _theory_range("1e+200", _GAUSSIAN)),
    (["constants", "--model", "multiwell", "--a", "1e300"], 2,
     _theory_range("1.0", _MULTIWELL.format(a="1e+300", eps="0.25", inter=None))),
    (["constants", "--model", "multiwell", "--interaction", "quadratic", "--eps", "1e300"],
     2, _theory_range("1.0", _MULTIWELL.format(a="1.0", eps="1e+300", inter="quadratic"))),
    (["contraction", "--T", "1e200", "--h", "1e200"], 2,
     _theory_range("1e+200", _GAUSSIAN)),
    (["contraction", "--model", "multiwell", "--a", "1e300", "--steps", "2",
      "--replicas", "2"], 2,
     _theory_range("1.0", _MULTIWELL.format(a="1e+300", eps="0.25", inter=None))),
    (["sample", "--model", "multiwell", "--a", "1e300", "--steps", "2"], 2,
     _theory_range("1.0", _MULTIWELL.format(a="1e+300", eps="0.25", inter=None))),
    (["order-check", "--T", "1e200", "--h-list", "1e200", "--replicas", "2", "--N", "2"],
     2, _theory_range("1e+200", _GAUSSIAN)),
    (["constants", "--T", "1e-200"], 2, _theory_range("1e-200", _GAUSSIAN)),
    (["contraction", "--T", "1e-300", "--h", "1e-300", "--steps", "2", "--replicas", "2"],
     2, _theory_range("1e-300", _GAUSSIAN)),
    (["sample", "--T", "1e-200", "--h", "1e-200", "--steps", "2"], 2,
     _theory_range("1e-200", _GAUSSIAN)),
    # T/h overflows for a subnormal h before the step size is snapped
    (["bias-scan", "--h-rule", "fixed", "--h", "1e-320"], 2,
     "T/h must be a positive integer, got T=1.0, h=1e-320"),
    # every count names its flag and value
    (["chaos-scan", "--steps", "0"], 2, "steps must be a positive integer, got 0"),
    (["chaos-scan", "--replicas", "1"], 2, "replicas must be at least 2, got 1"),
    (["chaos-scan", "--N-list", "1,4"], 2, "N must be at least 2, got 1"),
    (["contraction", "--steps", "0"], 2, "steps must be a positive integer, got 0"),
    (["contraction", "--replicas", "1"], 2, "replicas must be at least 2, got 1"),
    (["order-check", "--replicas", "1"], 2, "replicas must be at least 2, got 1"),
    (["sample", "--steps", "0"], 2, "steps must be a positive integer, got 0"),
    (["sample", "--N", "0"], 2, "N must be a positive integer, got 0"),
    (["sample", "--thin", "0"], 2, "thin must be a positive integer, got 0"),
    (["bias-scan", "--k-max", "9"], 2, "k_max must lie in 1..5, got 9"),
    (["bias-scan", "--burn-in", "1"], 2, "burn-in fraction must lie in [0, 1), got 1.0"),
    # the one interaction-strength range of the quadratic model
    (["sample", "--eps", "1"], 2, _EPS_RANGE),
    (["chaos-scan", "--eps", "1"], 2, _EPS_RANGE),
    # exponent forms and -inf reach their option and its value check
    (["contraction", "--offset", "-inf"], 2, "offset must be finite, got offset=-inf"),
    (["sample", "--eps", "-1e-3"], 2, _EPS_RANGE.replace("=1.0;", "=-0.001;")),
    # a thread count below 1 is an error, not a silent single-threaded run
    (["order-check", "--threads", "0"], 2, "--threads must be a positive integer, got 0"),
    (["sample", "--threads", "-3"], 2, "--threads must be a positive integer, got -3"),
    (["contraction", "--model", "shallow-net"], 2, "shallow-net model requires --data <csv>"),
    (["bias-scan", "--h-rule", "fixed"], 2, "h rule 'fixed' requires an explicit step size"),
    # an explicit 0 is a step size, so it fails the step-size check as
    # --h inf and --h 1e-320 do above
    (["bias-scan", "--h-rule", "fixed", "--h", "0"], 2,
     "h must be finite and positive, got h=0.0"),
    # a thinning step past the last step would record only the start
    (["sample", "--steps", "3", "--thin", "5"], 2,
     "thin must not exceed steps, got thin=5, steps=3"),
    # a copy that starts past the divergence limit is refused before any step
    (["contraction", "--offset", "1e200"], 2,
     "|offset| must be below the divergence limit 1e+100, got offset=1e+200"),
    (["contraction", "--offset", "-1e100"], 2,
     "|offset| must be below the divergence limit 1e+100, got offset=-1e+100"),
    (["sample", "--model", "multiwell", "--dim", "0"], 2, "dim must be a positive integer"),
    # a model flag that the chosen model ignores is refused, as --dim is
    (["sample", "--model", "gaussian", "--a", "2"], 2,
     "--a applies to the multiwell model only, not gaussian"),
    (["contraction", "--interaction", "quadratic"], 2,
     "--interaction applies to the multiwell model only, not gaussian"),
    (["sample", "--model", "gaussian", "--data", "/nonexistent.csv"], 2,
     "--data applies to the shallow-net model only, not gaussian"),
    (["constants", "--model", "shallow-net", "--a", "1"], 2,
     "--a applies to the multiwell model only, not shallow-net"),
    # 10^9 inner steps per kernel step is refused, not run for hours
    (["contraction", "--h", "1e-9", "--steps", "1", "--replicas", "2"], 2,
     "T/h must be at most the inner-step limit 1048576, got T=1.0, h=1e-09"),
    # the limit names the step size typed, not the one it snaps to
    (["bias-scan", "--h-rule", "fixed", "--h", "9.5e-7"], 2,
     "T/h must be at most the inner-step limit 1048576, got T=1.0, h=9.5e-07"),
    # a trajectory outside any chain names its inner step and replica too,
    # and a scan names the point that diverged
    (["order-check", "--h-list", "2.5", "--T", "2500", "--N", "4", "--replicas", "4"], 3,
     "h=2.5: trajectory diverged at inner step 193, replica 2"),
    (["order-check", "--h-list", "0.125,2.5", "--T", "2500", "--N", "4", "--replicas", "4"],
     3, "h=2.5: trajectory diverged at inner step 180, replica 0"),
    (["bias-scan", "--k-max", "2", "--steps", "1000", "--h-rule", "fixed", "--h", "2.5",
      "--T", "2500", "--eps", "0"], 3,
     "k=1: chain diverged at kernel step 0 (inner step 178, replica 31)"),
    # at two threads both k diverge, and the first in input order is named
    (["bias-scan", "--k-max", "2", "--steps", "1000", "--h-rule", "fixed", "--h", "2.5",
      "--T", "2500", "--eps", "0", "--threads", "2"], 3,
     "k=1: chain diverged at kernel step 0 (inner step 178, replica 31)"),
])
def test_error_exit_codes(tmp_path, capsys, argv, code, message):
    # constants writes no file and takes no --out
    out = [] if argv[0] == "constants" else ["--out", str(tmp_path / "out.csv")]
    assert main(argv + out) == code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("value, offset", [("-1e-3", -0.001), ("-2.5E+1", -25.0),
                                           ("-.5e1", -5.0), ("-1", -1.0)])
def test_negative_values_in_every_float_spelling_are_values(tmp_path, value, offset):
    # argparse alone reads only -1, -1.5 and -.5 as values
    out = tmp_path / "out.csv"
    argv = ["contraction", "--offset", value, "--steps", "2", "--replicas", "4",
            "--N", "2", "--out", str(out)]
    assert main(argv) == 0
    config = next(line for line in out.read_text().splitlines()
                  if line.startswith("# config: "))
    assert json.loads(config[len("# config: "):])["offset"] == offset


@pytest.mark.parametrize("flag, value", [("--eps", "nan"), ("--eps", "inf"),
                                         ("--a", "nan"), ("--a", "inf")])
def test_constants_rejects_non_finite_model_parameters(capsys, flag, value):
    assert main(["constants", "--model", "multiwell", flag, value]) == 2
    captured = capsys.readouterr()
    name = "epsilon" if flag == "--eps" else "a"
    assert captured.err == (f"error: {name} must be finite and nonnegative, "
                            f"got {name}={value}\n")
    assert captured.out == ""


@pytest.mark.parametrize("flag, value, message", [
    ("--T", "inf", "T must be finite and positive, got T=inf"),
    ("--m2-init", "nan", "m2_init must be finite and nonnegative, got m2_init=nan"),
    ("--m2-init", "-5", "m2_init must be finite and nonnegative, got m2_init=-5.0"),
    ("--B3", "nan", "B3 must be finite and positive, got B3=nan"),
])
def test_constants_rejects_bad_inputs(capsys, flag, value, message):
    assert main(["constants", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("text, message", [
    ("y,z1,z2\n1,2,3\n4,5\n", "line 3: ragged rows, 2 values under a 3-column header"),
    ("y,z1\n1,2\n\n3,4,5\n", "line 4: ragged rows, 3 values under a 2-column header"),
    ("y,z1,z2\n1,2,3\n4,abc,6\n", "line 3: 'abc' is not a number"),
    ("y,z1\n1,nan\n", "line 2: 'nan' is not a finite number"),
    ("y,z1\n1,2\n1e400,3\n", "line 3: '1e400' is not a finite number"),
])
def test_bad_data_file_exit_codes(tmp_path, capsys, text, message):
    # a malformed --data file names its path and the 1-based line at fault
    data = tmp_path / "data.csv"
    data.write_text(text)
    argv = ["sample", "--model", "shallow-net", "--data", str(data),
            "--out", str(tmp_path / "out.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {data}: {message}\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("model_args", [
    ["--model", "gaussian"],
    ["--model", "multiwell", "--a", "2"],
    ["--model", "multiwell", "--interaction", "quadratic", "--dim", "2"],
    ["--model", "shallow-net", "--data", str(GOLDEN / "shallow_net_data.csv")],
])
def test_constants_json_is_valid(capsys, model_args):
    assert main(["constants", *model_args, "--json"]) == 0
    out = capsys.readouterr().out
    # one line, as every --json output
    assert out.count("\n") == 1
    payload = _strict_json(out)
    assert payload["model"] == model_args[1]
    assert set(payload["conditions"]) and set(payload["constants"])
    assert set(payload["max_admissible_T"]) == {"nhmc", "strong-convex", "uhmc"}
    assert all(0 < t < 1 for t in payload["max_admissible_T"].values())


def test_constants_reports_the_largest_admissible_duration(capsys):
    # at a = 1e100 the nhmc and uhmc roots underflow to 0, so no duration
    # can be checked: nan in the table, null in the JSON
    argv = ["constants", "--model", "multiwell", "--a", "1e100"]
    assert main(argv + ["--json"]) == 0
    t_max = json.loads(capsys.readouterr().out)["max_admissible_T"]
    model = meanfield_hmc.multiwell_model(1e100)
    assert t_max == {"nhmc": None, "uhmc": None,
                     "strong-convex": meanfield_hmc.max_admissible_T(model, "strong-convex")}
    assert main(argv) == 0
    rows = capsys.readouterr().out.split("max_admissible_T\n")[1].splitlines()
    table = dict(row.split() for row in rows)
    assert table["nhmc"] == table["uhmc"] == "nan"
    assert float(table["strong-convex"]) == pytest.approx(t_max["strong-convex"], rel=1e-11)


def test_constants_json_reports_the_gaussian_interaction_strength(capsys):
    # epsilon is the model's interaction strength, W has unit strength
    assert main(["constants", "--model", "gaussian", "--eps", "0.25", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["model_params"] == {"epsilon": 0.25}
    assert payload["constants"]["epsilon"] == 0.25
    assert payload["constants"]["L_tilde"] == 1.0
    assert payload["constants"]["L_e"] == 1.5


@pytest.mark.parametrize("argv", [
    pytest.param(["sample", "--plot"], id="sample"),
    pytest.param(["bias-scan", "--plot"], id="bias-scan"),
    pytest.param(["chaos-scan", "--plot"], id="chaos-scan"),
    pytest.param(["contraction", "--plot"], id="contraction"),
    pytest.param(["constants", "--plot"], id="constants"),
    # constants writes no file and runs no scan
    pytest.param(["constants", "--threads", "1"], id="constants-threads"),
    pytest.param(["constants", "--seed", "1"], id="constants-seed"),
    pytest.param(["constants", "--out", "x.csv"], id="constants-out"),
])
def test_plot_rejected_where_no_svg_is_written(tmp_path, monkeypatch, capsys, argv):
    # a flag the subcommand does not take exits 2 before anything is
    # written, to the default output path included
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_unwritable_out_path_exits_with_one_error_line(tmp_path, monkeypatch, capsys):
    # a path in a missing directory, one that is a directory and an empty
    # one are refused before the experiment runs, with the error open would
    # raise; run from tmp_path, a write to the default sample.csv would show
    def refuse(*args, **kwargs):
        raise AssertionError("the experiment ran")
    monkeypatch.setattr(cli, "sample_command", refuse)
    monkeypatch.chdir(tmp_path)
    for out, errno_text in ((str(tmp_path / "missing" / "out.csv"), "[Errno 2] "),
                            (str(tmp_path), "[Errno 21] Is a directory"),
                            ("", "[Errno 2] ")):
        with pytest.raises(OSError) as opened:
            open(out, "w")
        assert main(["sample", "--steps", "2", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {opened.value}\n" and errno_text in err and out in err
    assert list(tmp_path.iterdir()) == []


def test_bias_scan_eps12_rule_snaps_the_step_size(tmp_path):
    # eps_acc^(1/2) is 0.707 at k = 1 and 0.5 at k = 2; both snap to T/2
    out = tmp_path / "bias.csv"
    argv = ["bias-scan", "--h-rule", "eps12", "--k-max", "2", "--steps", "120",
            "--out", str(out)]
    assert main(argv) == 0
    lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert [(row["k"], row["h"]) for row in rows] == [("1", "0.5"), ("2", "0.5")]


def test_bias_scan_kde_blocks_write_the_same_bytes_on_two_threads(tmp_path):
    # 2250 kept samples per k, about 36 blocks of kernel rows per density
    # estimate, with the three k run side by side on the thread pool
    argv = ["bias-scan", "--k-max", "3", "--steps", "2500"]
    outs = [tmp_path / f"bias{threads}.csv" for threads in (1, 2)]
    for threads, out in zip((1, 2), outs):
        assert main(argv + ["--threads", str(threads), "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_single_replica_detail_footer_is_valid_json(tmp_path):
    # at 111 steps no replica split keeps enough samples, so one chain runs
    # and the SE across replicas is nan; the footer must print it as null,
    # not as NaN, which json.loads would read back as a float
    out = tmp_path / "bias.csv"
    assert main(["bias-scan", "--k-max", "1", "--steps", "111", "--out", str(out)]) == 0
    last = out.read_text().splitlines()[-1]
    assert last.startswith("# detail: ")
    [detail] = json.loads(last[len("# detail: "):])
    assert detail["replicas"] == 1 and detail["first_var_se"] is None


# the dests of the flags the CLI reads itself: those of every subcommand, and
# the model flags where the experiment takes a model
_CLI_FLAGS = {"help", "seed", "out", "json", "threads", "plot"}
_MODEL_FLAGS = {"model", "eps", "a", "dim", "interaction", "data"}


@pytest.mark.parametrize("command", [name for name, _, _ in cli._SUBCOMMANDS])
def test_subcommand_flags_feed_their_experiment(capsys, command):
    # a flag whose dest is no parameter of the experiment would be dropped
    # without a word; a bare subcommand passes no experiment default, so
    # each one is stated once, in the experiment's signature
    parser = cli.build_parser([command])
    [sub] = [action for action in parser._actions if action.dest == "command"]
    params = inspect.signature(sub.choices[command].get_default("experiment")).parameters
    own = _CLI_FLAGS | (_MODEL_FLAGS if "model" in params else set())
    for action in sub.choices[command]._actions:
        assert action.dest in params or action.dest in own, action.option_strings
    kwargs = cli._experiment_kwargs(parser.parse_args([command]))
    assert set(kwargs) == ({"model", "T"} if command == "constants" else
                           {"model", "seed", "threads"} & set(params))
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"])
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: meanfield-hmc {command}")


def test_bias_scan_refuses_too_many_inner_steps_before_any_draw(tmp_path, monkeypatch,
                                                              capsys):
    # the fixed step size is snapped and bounded before the first step runs
    drawn = []
    monkeypatch.setattr(rng.RngStream, "uniforms",
                        lambda self, shape: drawn.append(shape))
    out = tmp_path / "out.csv"
    assert main(["bias-scan", "--h-rule", "fixed", "--h", "1e-9", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: T/h must be at most the inner-step limit 1048576, got T=1.0, h=1e-09\n")
    assert drawn == [] and not out.exists()


def test_memory_error_exits_2_with_one_error_line(tmp_path, monkeypatch, capsys):
    # a size too large to allocate is a configuration error; numpy's
    # _ArrayMemoryError is a MemoryError
    def allocate(**kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")
    monkeypatch.setattr(cli, "sample_command", functools.wraps(cli.sample_command)(allocate))
    assert main(["sample", "--out", str(tmp_path / "s.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: Unable to allocate 74.5 GiB for an array\n"
    assert captured.out == ""


def _strict_json(text):
    # json.loads reads NaN, Infinity and -Infinity unless told to refuse them
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def _footer(path):
    """The '# key: value' lines below the rows, in order, as (key, text)."""
    lines = path.read_text().splitlines()
    body = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    return [tuple(line[2:].split(": ", 1)) for line in lines[body:] if line.startswith("#")]


def test_overflowing_envelope_constant_prints_as_inf(tmp_path):
    # at a = 5 and T = 0.02 the theory's A overflows; a scalar footer value
    # is its repr, so A reads inf like every other non-finite scalar
    out = tmp_path / "c.csv"
    argv = ["contraction", "--model", "multiwell", "--a", "5", "--T", "0.02", "--h", "0.01",
            "--replicas", "3", "--steps", "2", "--out", str(out)]
    assert main(argv) == 0
    footer = _footer(out)
    assert footer[-1] == ("A", "inf")
    assert [key for key, _ in footer] == ["fitted_decay_factor", "fitted_decay_factor_se",
                                          "c_uhmc", "one_minus_c_uhmc", "A"]
    for _, text in footer:
        float(text)  # raises on a text such as None


@pytest.mark.parametrize("argv, last", [
    # one k: nan slope, and one replica, so a nan SE in the detail
    (["bias-scan", "--k-max", "1", "--steps", "111"], "detail"),
    # two N: nan slope
    (["chaos-scan", "--N-list", "4,8", "--steps", "5", "--replicas", "2"], "detail"),
    (["order-check", "--h-list", "0.5,0.25", "--N", "2", "--replicas", "2"], "detail"),
    # A and C overflow in the constants footer
    (["sample", "--model", "multiwell", "--a", "5", "--T", "0.02", "--h", "0.01",
      "--steps", "2"], "constants"),
])
def test_json_outputs_print_non_finite_values_as_null(tmp_path, capsys, argv, last):
    out = tmp_path / "out.csv"
    assert main(argv + ["--json", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert _strict_json(stdout)["out"] == str(out)
    key, text = _footer(out)[-1]
    assert key == last and out.read_text().splitlines()[-1] == f"# {key}: {text}"
    _strict_json(text)
    assert "null" in stdout + text


@pytest.mark.parametrize("name", ["bias_scan.csv", "chaos_scan.csv", "contraction.csv",
                                  "order_check.csv", "sample.csv"])
def test_json_line_is_out_plus_the_csv_footer(tmp_path, capsys, name):
    # the footer is the run's one record: --json prints the CSV path and
    # each footer entry under its key, a non-finite value as null
    out = tmp_path / name
    assert main(GOLDEN_ARGS[name] + ["--json", "--out", str(out)]) == 0
    line = capsys.readouterr().out
    assert line.count("\n") == 1 and line.endswith("\n")
    record = _strict_json(line)
    footer = _footer(out)
    assert list(record) == sorted(["out", *(key for key, _ in footer)])
    assert record["out"] == str(out)
    for key, text in footer:
        if text[0] in "[{":
            assert record[key] == _strict_json(text)
        else:
            value = float(text)
            assert record[key] == (value if math.isfinite(value) else None)


@pytest.mark.parametrize("argv, key", [
    (["chaos-scan", "--N-list", "16,16,16", "--steps", "3", "--replicas", "4"],
     "loglog_slope_vs_N"),
    (["order-check", "--h-list", "0.5,0.5,0.5", "--N", "2", "--replicas", "4"],
     "loglog_slope_vs_h"),
])
def test_scan_over_one_repeated_point_has_no_slope(tmp_path, capsys, argv, key):
    # three rows at one x fit no line; numpy would warn and fit noise
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert dict(_footer(out))[key] == "nan"


def test_constants_json_prints_non_finite_values_as_null(capsys):
    assert main(["constants", "--model", "multiwell", "--a", "5", "--T", "0.02", "--json"]) == 0
    payload = _strict_json(capsys.readouterr().out)
    assert payload["constants"]["A"] is None and payload["constants"]["C"] is None


def test_closed_stdout_exits_cleanly():
    # the reader is gone before the first write, as with `| head -c 10`
    src = str(Path(meanfield_hmc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    with subprocess.Popen(
            [sys.executable, "-m", "meanfield_hmc", "constants", "--model",
             "gaussian", "--T", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    assert err == b""


@pytest.mark.parametrize("name", ["sample_shallow_net.csv", "contraction_multiwell_2d.csv"])
def test_golden_bytes_at_two_blas_threads(tmp_path, name):
    # the shallow-net force and the interacting multiwell force take sums
    # with BLAS, which reads its thread count from the environment at
    # import: a fresh process at 2 threads must write the golden bytes
    # recorded at 1
    src = str(Path(meanfield_hmc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
    out = tmp_path / name
    proc = subprocess.run(
        [sys.executable, "-m", "meanfield_hmc", *GOLDEN_ARGS[name], "--out", str(out)],
        capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


# coupled-nonconvex's arguments in perfbench/workloads.py
_COUPLED_NONCONVEX = ["contraction", "--model", "multiwell", "--a", "2", "--dim", "2",
                      "--interaction", "quadratic", "--eps", "0.1", "--N", "32",
                      "--replicas", "500", "--T", "0.5", "--h", "0.125", "--steps", "50"]


@pytest.mark.parametrize("argv, saturates", [
    (["contraction", "--model", "multiwell", "--a", "5", "--T", "0.02", "--h", "0.01",
      "--replicas", "3", "--steps", "2"], True),
    (GOLDEN_ARGS["contraction.csv"], False),
    (_COUPLED_NONCONVEX, False),
    # coalesced pairs read rho_N = 0 in every replica: a measurement
    (["contraction", "--offset", "0", "--steps", "5", "--replicas", "20"], False),
])
def test_contraction_warns_where_its_metric_saturates(tmp_path, capsys, argv, saturates):
    # at offset 1 against T = 0.02 every replica reads rho_N = T to rounding
    out = tmp_path / "contraction.csv"
    assert main(argv + ["--out", str(out)]) == 0
    err = capsys.readouterr().err
    warning = ("warning: rho_N saturates (stderr 0 after step 0; offset=1, T=0.02); "
               "the fitted decay factor measures nothing\n")
    assert err.count("rho_N saturates") == saturates
    if saturates:
        assert warning in err
        rows = [line.split(",") for line in out.read_text().splitlines()[5:8]]
        assert [float(r[2]) for r in rows] == [0.0] * 3


README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
# README's subcommand table: one (name, example) row per subcommand
README_EXAMPLES = re.findall(r"^\| `([\w-]+)` \| [^|]+ \| `([^`]+)` \|$", README,
                             re.MULTILINE)


def test_readme_examples_parse():
    # each example's flags the parser must take; nothing runs
    assert [name for name, _ in README_EXAMPLES] == [name for name, _, _ in cli._SUBCOMMANDS]
    for name, example in README_EXAMPLES:
        argv = example.split()
        assert cli.build_parser(argv).parse_args(argv).command == name


def test_readme_examples_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for _, example in README_EXAMPLES:
        assert main(example.split()) == 0, example
    assert sorted(os.listdir()) == ["b.csv", "c.csv", "k.csv", "o.csv", "s.csv"]


def test_readme_json_example_prints_the_line_it_shows(tmp_path, monkeypatch, capsys):
    shown = re.search(r"`order-check`'s example above with `--json` prints\n\n```\n(.+)\n```",
                      README).group(1)
    example = dict(README_EXAMPLES)["order-check"]
    monkeypatch.chdir(tmp_path)
    assert main(example.split() + ["--json"]) == 0
    assert capsys.readouterr().out == shown + "\n"


def test_module_entry_point_prints_the_version():
    src = str(Path(meanfield_hmc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "meanfield_hmc", "--version"],
                          capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.decode() == f"{meanfield_hmc.__version__}\n" == "0.1.0\n"


def test_overflowing_metric_slope_prints_only_the_error_line():
    # R1/T overflows in the metric's slope exp(-R1/T) before the theory
    # leaves the float range; numpy must not warn ahead of the one message
    src = str(Path(meanfield_hmc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "meanfield_hmc", "constants",
         "--model", "multiwell", "--a", "1e300", "--T", "1e-100"],
        capture_output=True, env=env, timeout=60)
    assert proc.returncode == 2
    message = _theory_range("1e-100", _MULTIWELL.format(a="1e+300", eps="0.25", inter=None))
    assert proc.stderr.decode() == f"error: {message}\n"
    assert proc.stdout == b""
