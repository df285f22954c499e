"""The traced run covers the layers each workload uses, and the harness
keeps its output contract.  Workloads run at a tenth of their size."""

import json
import shutil
import subprocess
import sys

import pytest

from perfbench import run
from perfbench.workloads import WORKLOADS

SCALE = 0.1

# Per workload, the per-layer metrics that must be non-zero: one or more
# for every layer README.md maps to that workload.
USES = {
    "bias-chain": ["rng.calls", "rng.variates", "models.grad_calls",
                   "integrators.inner_steps", "integrators.step_us_p50.N4",
                   "integrators.step_us_p50.N16", "integrators.step_us_p50.N64",
                   "kernels.uhmc_step_us_p50.N4", "kernels.uhmc_step_us_p50.N16",
                   "kernels.uhmc_step_us_p50.N64", "kernels.self_s",
                   "statistics.kde_s", "statistics.kde_kernel_evals",
                   "experiments.self_s", "experiments.csv_bytes"],
    "chaos-wide": ["rng.calls", "rng.ns_per_variate",
                   "integrators.exact_flow_us_p50.N16", "integrators.exact_flow_us_p50.N64",
                   "integrators.exact_flow_us_p50.N256", "integrators.exact_flow_self_s",
                   "kernels.xhmc_step_us_p50.N16", "kernels.xhmc_step_us_p50.N64",
                   "kernels.xhmc_step_us_p50.N256", "statistics.w1_s",
                   "experiments.self_s", "experiments.csv_bytes"],
    "coupled-nonconvex": ["rng.calls", "models.grad_calls", "models.grad_us_p50",
                          "integrators.inner_steps", "integrators.step_us_p50.N32",
                          "couplings.coupled_step_us_p50", "couplings.couple_us_p50",
                          "couplings.rho_us_p50", "couplings.self_s",
                          "couplings.coalescing_frac", "theory.constants_calls",
                          "experiments.csv_bytes"],
    "shallow-sample": ["rng.calls", "models.grad_calls", "models.grad_us_p99",
                       "models.build_s", "integrators.inner_steps",
                       "integrators.step_us_p50.N64", "kernels.uhmc_step_us_p50.N64",
                       "kernels.run_chain_self_s", "theory.constants_calls",
                       "experiments.csv_s", "experiments.csv_bytes"],
}


def per_layer_names():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)["per_layer"]}


@pytest.fixture(scope="module")
def traced_calls():
    out = {}
    for name, workload in WORKLOADS.items():
        work = run.WORK / "tests" / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        out[name] = run.Runner(workload, 3, work, scale=SCALE).call(traced=True)
    return out


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_call_passes_gate(traced_calls, name):
    rec = traced_calls[name]
    assert rec["ok"], rec["fails"]
    assert set(rec["imports"]) == {"cli.import_numpy_s", "cli.import_scipy_special_s",
                                   "cli.import_pkg_s"}
    assert rec["imports"]["cli.import_pkg_s"] > rec["imports"]["cli.import_numpy_s"] > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_call_reports_every_layer_it_uses(traced_calls, name):
    metrics = traced_calls[name]["layers"]["metrics"]
    computed_in_parent = {"experiments.threads2_speedup", "trace.overhead_frac",
                          "cli.import_numpy_s", "cli.import_scipy_special_s",
                          "cli.import_pkg_s"}
    assert set(metrics) | computed_in_parent == per_layer_names()
    zero = [m for m in USES[name] if not metrics[m] > 0]
    assert not zero, f"{name}: zero for {zero}"
    assert metrics["integrators.divergences"] == 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_self_times_sum_to_at_most_run_s(traced_calls, name):
    layers = traced_calls[name]["layers"]
    self_s = layers["layer_self_s"]
    assert all(v >= 0 for v in self_s.values())
    assert 0 < sum(self_s.values()) <= layers["run_s"]
    assert self_s["cli"] > 0


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_run_prints_the_contracted_metrics():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "coupled-nonconvex",
             "--seed", "5", "--seconds", "1", "--trace", str(trace)],
            cwd=run.ROOT, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        res = last_json(proc.stdout)
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert set(res["metrics"]) == {m["name"] for m in spec[key]}
        for m in spec[key]:
            assert res["metrics"][m["name"]]["unit"] == m["unit"]


def test_run_fails_without_the_program():
    bare = run.WORK / "tests" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bias-chain",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    shutil.rmtree(bare)
