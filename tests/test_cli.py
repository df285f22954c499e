import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import meanfield_hmc
from meanfield_hmc.cli import main

GOLDEN = Path(__file__).parent / "golden"

# Each golden file is the CLI's output for these arguments at seed 0.  The
# contraction and sample files were recorded before the RNG buffer and the
# lean integrator loop existed, the shallow-net sample file before its force
# shared one feature pass, and the multiwell constants file before the object
# API and the coupled step's own loop were removed, so a byte difference is a
# change of output, not of speed or structure.  The three bias-scan files
# were re-recorded when bias-scan moved from one chain to a batch of
# stationary-started replicas, an intended change of output.  The chaos-scan
# and order-check files were last re-recorded when the exact flow of the
# quadratic model became a closed form in the particle means, which moved
# their values in the 14th-16th significant digit (the old mode transform's
# prefix sum rounded more).  contraction_multiwell_2d.csv, the one run with
# d > 1 and a pair interaction, was recorded before the multiwell force and
# the velocity coupling moved their coordinate-axis reductions and
# broadcasts into column loops.  shallow_net_data.csv is an input (12
# points, 2 features), not an output.
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


def test_constants_text_matches_golden_file(capsys):
    assert main(["constants", "--model", "multiwell", "--a", "2"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "constants_multiwell.txt").read_text()


@pytest.mark.parametrize("threads", [1, 2])
def test_plot_and_json_match_golden_files(tmp_path, monkeypatch, capsys, threads):
    # a relative --out keeps the path printed by --json independent of tmp_path
    monkeypatch.chdir(tmp_path)
    argv = ["bias-scan", "--k-max", "3", "--steps", "120", "--plot", "--json",
            "--threads", str(threads), "--out", "bias_scan.csv"]
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / "bias_scan_plot.stdout").read_text()
    svg = (tmp_path / "bias_scan.svg").read_bytes()
    assert svg == (GOLDEN / "bias_scan_plot.svg").read_bytes()


@pytest.mark.parametrize("argv, code, message", [
    (["chaos-scan", "--N-list", "4,x"], 2, "cannot parse --N-list '4,x'"),
    (["order-check", "--h-list", "0.5,y"], 2, "cannot parse --h-list '0.5,y'"),
    (["sample", "--h", "0.3"], 2, "T/h must be a positive integer, got T=1.0, h=0.3"),
    (["sample", "--eps", "0", "--T", "2500", "--h", "2.5", "--steps", "1"], 3,
     "chain diverged at kernel step 0 (inner step 186)"),
    (["order-check", "--h-list", "0,0.5"], 2, "each h must be positive, got h=0.0"),
    (["chaos-scan", "--T", "0"], 2, "T must be positive, got T=0.0"),
    (["bias-scan", "--T", "0"], 2, "T must be positive, got T=0.0"),
    (["sample", "--columns", "0"], 2, "columns must be a positive integer, got 0"),
    (["sample", "--columns", "-2"], 2, "columns must be a positive integer, got -2"),
    (["chaos-scan", "--N-list", ","], 2, "--N-list ',' names no values"),
    (["order-check", "--h-list", ","], 2, "--h-list ',' names no values"),
    (["order-check", "--h-list", "0.3"], 2,
     "T/h must be a positive integer, got T=1.0, h=0.3"),
    # contraction checks its inputs before the condition warnings
    (["contraction", "--N", "0"], 2, "N must be a positive integer, got 0"),
    (["contraction", "--h", "0"], 2, "the coupled kernel needs h > 0, got h=0.0"),
    (["contraction", "--h", "0.3"], 2,
     "T/h must be a positive integer, got T=1.0, h=0.3"),
    (["contraction", "--T", "0"], 2, "T must be positive"),
    (["contraction", "--dim", "2"], 2,
     "--dim applies to the multiwell model only, not gaussian"),
    (["sample", "--dim", "2"], 2,
     "--dim applies to the multiwell model only, not gaussian"),
    (["sample", "--model", "shallow-net", "--data", str(GOLDEN / "shallow_net_data.csv"),
      "--dim", "3"], 2, "--dim applies to the multiwell model only, not shallow-net"),
    (["order-check", "--N", "0"], 2, "N must be a positive integer, got 0"),
    (["bias-scan", "--k-max", "1", "--steps", "10", "--h-rule", "fixed", "--h", "2.5",
      "--T", "2500", "--eps", "0"], 3, "chain diverged at kernel step 0 (inner step 188)"),
    (["sample", "--model", "multiwell", "--h", "0"], 2,
     "the exact kernel is implemented only for the gaussian model"),
])
def test_error_exit_codes(tmp_path, capsys, argv, code, message):
    assert main(argv + ["--out", str(tmp_path / "out.csv")]) == code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("model_args", [
    ["--model", "gaussian"],
    ["--model", "multiwell", "--a", "2"],
    ["--model", "multiwell", "--interaction", "quadratic", "--dim", "2"],
    ["--model", "shallow-net", "--data", str(GOLDEN / "shallow_net_data.csv")],
])
def test_constants_json_is_valid(capsys, model_args):
    assert main(["constants", *model_args, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["model"] == model_args[1]
    assert set(payload["conditions"]) and set(payload["constants"])


@pytest.mark.parametrize("argv", [
    pytest.param(["sample", "--plot"], id="sample"),
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
