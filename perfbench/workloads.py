"""Benchmark workloads: CLI arguments, generated inputs and gates.

Each workload is one CLI subcommand at a fixed size.  The benchmark seed
becomes ``--seed`` and also seeds any generated input file.  Sizes are
chosen so that one call takes about a second on a 2-core x86 VM, which
leaves room for about ten calls in a 25-second run.  ``scale`` multiplies
the step counts; the benchmark uses 1 and its tests less.  README.md in
this directory says why each workload was chosen.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from . import gates

BIAS_STEPS = 2500
BIAS_K_MAX = 3
BIAS_BURN_IN = 0.1

CHAOS_STEPS = 200
CHAOS_N_LIST = (16, 64, 256)

CONTRACTION_STEPS = 50

SAMPLE_STEPS = 100
SAMPLE_THIN = 5
SAMPLE_DATA_ROWS = 256
SAMPLE_DATA_INPUTS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[str, float], list]   # (data path, scale) -> subcommand argv
    gate: Callable[[str, float], list]   # (csv text, scale) -> failure messages
    needs_data: bool = False


def _steps(base: int, scale: float) -> int:
    return max(10, int(round(base * scale)))


def write_shallow_data(path, seed: int) -> None:
    """Regression data y = sigmoid(w . z) - 1/2 + noise, z ~ N(0, I_3)."""
    rng = random.Random(seed)
    w = (1.0, -0.5, 0.25)
    lines = ["y," + ",".join(f"z{i + 1}" for i in range(SAMPLE_DATA_INPUTS))]
    for _ in range(SAMPLE_DATA_ROWS):
        z = [rng.gauss(0.0, 1.0) for _ in range(SAMPLE_DATA_INPUTS)]
        s = sum(wi * zi for wi, zi in zip(w, z))
        y = 1.0 / (1.0 + math.exp(-s)) - 0.5 + 0.1 * rng.gauss(0.0, 1.0)
        lines.append(",".join(repr(v) for v in (y, *z)))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _bias_kept(scale):
    steps = _steps(BIAS_STEPS, scale)
    return steps - int(round(BIAS_BURN_IN * steps))


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="bias-chain",
            argv=lambda data, scale: [
                "bias-scan", "--k-max", str(BIAS_K_MAX),
                "--steps", str(_steps(BIAS_STEPS, scale)),
                "--burn-in", repr(BIAS_BURN_IN)],
            gate=lambda text, scale: gates.gate_bias(
                text, k_max=BIAS_K_MAX, kept=_bias_kept(scale)),
        ),
        Workload(
            name="chaos-wide",
            argv=lambda data, scale: [
                "chaos-scan", "--N-list", ",".join(map(str, CHAOS_N_LIST)),
                "--steps", str(_steps(CHAOS_STEPS, scale)), "--replicas", "200"],
            gate=lambda text, scale: gates.gate_chaos(text, n_list=CHAOS_N_LIST),
        ),
        Workload(
            name="coupled-nonconvex",
            argv=lambda data, scale: [
                "contraction", "--model", "multiwell", "--a", "2", "--dim", "2",
                "--interaction", "quadratic", "--eps", "0.1", "--N", "32",
                "--replicas", "500", "--T", "0.5", "--h", "0.125",
                "--steps", str(_steps(CONTRACTION_STEPS, scale))],
            gate=lambda text, scale: gates.gate_contraction(
                text, steps=_steps(CONTRACTION_STEPS, scale)),
        ),
        Workload(
            name="shallow-sample",
            argv=lambda data, scale: [
                "sample", "--model", "shallow-net", "--data", data,
                "--eps", "0.5", "--N", "64", "--T", "1", "--h", "0.125",
                "--steps", str(_steps(SAMPLE_STEPS, scale)),
                "--thin", str(SAMPLE_THIN)],
            gate=lambda text, scale: gates.gate_sample(
                text, steps=_steps(SAMPLE_STEPS, scale), thin=SAMPLE_THIN),
            needs_data=True,
        ),
    )
}
