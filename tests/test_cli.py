import os
import subprocess
import sys
from pathlib import Path

import pytest

import meanfield_hmc
from meanfield_hmc.cli import main

GOLDEN = Path(__file__).parent / "golden"

# Each golden file is the CLI's output for these arguments at seed 0.  They
# were recorded before the RNG buffer and the lean integrator loop existed,
# so a byte difference is a change of output, not of speed.
GOLDEN_ARGS = {
    "bias_scan.csv": ["bias-scan", "--k-max", "2", "--steps", "120"],
    "contraction.csv": ["contraction", "--model", "multiwell", "--steps", "5",
                        "--replicas", "20"],
    "sample.csv": ["sample", "--model", "gaussian", "--steps", "20"],
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(GOLDEN_ARGS))
def test_cli_output_matches_golden_file(tmp_path, name, threads):
    out = tmp_path / name
    argv = GOLDEN_ARGS[name] + ["--threads", str(threads), "--out", str(out)]
    assert main(argv) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_closed_stdout_exits_cleanly():
    # the reader is gone before the first write, as with `| head -c 10`
    src = str(Path(meanfield_hmc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "meanfield_hmc", "constants", "--model", "gaussian",
         "--T", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 0
    assert err == b""
