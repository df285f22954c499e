"""Benchmark of the meanfield-hmc CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each timed call starts a fresh child
interpreter (perfbench/child.py) that imports ``meanfield_hmc.cli`` from
``src`` and calls ``cli.main(argv)`` with the workload's arguments,
``--seed N`` and ``--threads 1``; OPENBLAS_NUM_THREADS and OMP_NUM_THREADS
are pinned to 1.  Calls repeat for S seconds, and every call's CSV goes
through the workload's correctness gate.

--trace 0 reports the end-to-end metrics as medians over the calls:
setup_s (spawn until the package import returns), run_s (the
``cli.main`` call), both rescaled to reference machine speed (CAL_REF_S),
peak_rss_mb (the child's maximum RSS) and pass_rate (calls that exited 0
and passed the gate, over calls made).

--trace 1 alternates untraced calls at --threads 1 and 2 with traced
calls, whose spans give the per-layer metrics (see README.md).

``--workload all`` runs every workload in turn.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Everything is written under .perfbench_work/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT)]

from perfbench.workloads import WORKLOADS, write_shallow_data  # noqa: E402

CHILD = ROOT / "perfbench" / "child.py"
WORK = ROOT / ".perfbench_work"
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# One calibration pass (child.py) takes about this long on an idle 2-core
# x86 VM.  setup_s and run_s are wall times rescaled to that machine speed:
# on a shared machine single calls run up to twice as slow when another
# tenant loads the core, and the calibration made in the same child at the
# same moment slows alike.
CAL_REF_S = 0.1
# Children still running this long after a run started are killed, so a
# run ends within the 180 seconds the harness allows it.
RUN_LIMIT_S = 150.0

class BenchError(RuntimeError):
    """The benchmark cannot run here (no result is printed)."""


# ---------------------------------------------------------------------------
# child processes


def _child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(BLAS_PINS)
    return env


def _wait(proc, timeout):
    """Reap ``proc`` with os.wait4; kill it after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            _, status, rusage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, rusage


class Runner:
    """Spawns children for one workload and seed inside one work directory."""

    def __init__(self, workload, seed, work_dir, scale=1.0):
        self.workload = workload
        self.seed = seed
        self.work = work_dir
        self.scale = scale
        self.env = _child_env()
        self.count = 0
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.data = None
        if workload.needs_data:
            self.data = str(work_dir / "data.csv")
            write_shallow_data(self.data, seed)

    def cli_argv(self, out_path, threads):
        return [*self.workload.argv(self.data, self.scale), "--seed", str(self.seed),
                "--threads", str(threads), "--out", str(out_path)]

    def spawn(self, cli_argv=(), *, spans_path=None, importtime=False):
        """Run one child; returns its result record (timings, exit code, logs)."""
        self.count += 1
        tag = f"child{self.count:03d}"
        result_path = self.work / f"{tag}.json"
        cmd = [sys.executable]
        if importtime:
            cmd += ["-X", "importtime"]
        cmd += [str(CHILD), str(result_path)]
        if spans_path is not None:
            cmd += ["--trace", str(spans_path)]
        if cli_argv:
            cmd += ["--", *cli_argv]
        stderr_path = self.work / f"{tag}.stderr"
        with open(self.work / f"{tag}.stdout", "wb") as out, open(stderr_path, "wb") as err:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env,
                                    stdout=out, stderr=err)
            code, rusage = _wait(proc, max(1.0, self.deadline - time.monotonic()))
        rec = {"tag": tag, "exit_code": code, "peak_rss_mb": rusage.ru_maxrss / 1024.0}
        try:
            with open(result_path, encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            payload = None
        if payload is None:
            rec["error"] = "child wrote no result"
            return rec
        rec.update(payload)
        rec["setup_s"] = payload["t_imported"] - t_spawn
        if "cal_s" in payload:
            speed = CAL_REF_S / payload["cal_s"]
            rec["setup_ref_s"] = rec["setup_s"] * speed
            rec["run_ref_s"] = payload["run_s"] * speed
        if not Path(payload["pkg_file"]).resolve().is_relative_to(ROOT / "src"):
            rec["error"] = f"package imported from {payload['pkg_file']}, not from src"
        if importtime:
            rec["imports"] = _import_times(stderr_path.read_text(errors="replace"))
        return rec

    def call(self, threads=1, traced=False):
        """One gated workload call; the record gets 'ok', 'fails' and 'csv_sha256'."""
        out_path = self.work / f"out{self.count + 1:03d}.csv"
        spans = WORK / f"spans-{self.workload.name}.csv" if traced else None
        rec = self.spawn(self.cli_argv(out_path, threads), spans_path=spans,
                         importtime=traced)
        rec["threads"] = threads
        rec["traced"] = traced
        fails = []
        if rec.get("error"):
            fails.append(rec["error"].strip().splitlines()[-1])
        if rec["exit_code"] != 0:
            fails.append(f"exit code {rec['exit_code']}")
        try:
            data = out_path.read_bytes()
        except OSError:
            fails.append("no CSV written")
        else:
            rec["csv_sha256"] = hashlib.sha256(data).hexdigest()
            rec["csv_bytes"] = len(data)
            fails += self.workload.gate(data.decode("utf-8", "replace"), self.scale)
            out_path.unlink()
        rec["fails"] = fails
        rec["ok"] = not fails and "run_s" in rec
        return rec


def _import_times(stderr_text):
    """Cumulative -X importtime seconds of numpy, scipy.special and the package."""
    cumulative = {}
    pkg = 0.0
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        seconds = int(parts[1]) / 1e6
        cumulative.setdefault(name.strip(), seconds)
        if name.startswith(" meanfield_hmc"):
            pkg += seconds
    return {"cli.import_numpy_s": cumulative.get("numpy", 0.0),
            "cli.import_scipy_special_s": cumulative.get("scipy.special", 0.0),
            "cli.import_pkg_s": pkg}


# ---------------------------------------------------------------------------
# one benchmark run


def _median(records, key):
    values = [r[key] for r in records if key in r]
    return statistics.median(values) if values else float("nan")


def _repeat(round_fn, seconds):
    """Call ``round_fn`` (which returns a list of call records) at least
    once and then for ``seconds``: no new round starts that would, at the
    median round length so far, end after the deadline."""
    calls, lengths = [], []
    t0 = time.monotonic()
    while True:
        start = time.monotonic()
        if lengths and start - t0 + statistics.median(lengths) > seconds:
            return calls
        calls += round_fn()
        lengths.append(time.monotonic() - start)


def _run_untraced(runner, seconds):
    calls = _repeat(lambda: [runner.call()], seconds)
    metrics = {
        "setup_s": _median(calls, "setup_ref_s"),
        "run_s": _median(calls, "run_ref_s"),
        "peak_rss_mb": _median(calls, "peak_rss_mb"),
        "pass_rate": sum(r["ok"] for r in calls) / len(calls),
    }
    units = _units("end_to_end")
    return calls, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def _run_traced(runner, seconds):
    calls = _repeat(lambda: [runner.call(threads=1), runner.call(threads=2),
                             runner.call(traced=True)], seconds)
    plain = [r for r in calls if not r["traced"] and r["threads"] == 1]
    wide = [r for r in calls if r["threads"] == 2]
    traced = sorted((r for r in calls if r["traced"] and "layers" in r),
                    key=lambda r: r["run_ref_s"])
    if not traced:
        return calls, None
    pick = traced[(len(traced) - 1) // 2]
    metrics = dict(pick["layers"]["metrics"])
    metrics["experiments.threads2_speedup"] = (_median(plain, "run_ref_s")
                                               / _median(wide, "run_ref_s"))
    metrics.update(pick["imports"])
    metrics["trace.overhead_frac"] = _median(traced, "run_ref_s") / _median(plain, "run_ref_s") - 1.0
    units = _units("per_layer")
    return calls, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def _units(section):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None
    return {"git_sha": _git_sha(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "blas_pins": BLAS_PINS, "seed": seed, "machine": platform.machine()}


def run_workload(name, seed, seconds, trace):
    """One benchmark run of workload ``name``; returns the result record.

    The run's work directory (child logs and outputs) is removed when every
    call passed and kept for inspection otherwise."""
    workload = WORKLOADS[name]
    work_dir = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    runner = Runner(workload, seed, work_dir)
    warm = runner.spawn()          # compiles bytecode and warms the page cache
    if warm.get("error") or warm["exit_code"] != 0:
        raise BenchError(f"package import failed: {warm.get('error') or warm['exit_code']}")
    calls, metrics = (_run_traced if trace else _run_untraced)(runner, seconds)
    hashes = sorted({r["csv_sha256"] for r in calls if "csv_sha256" in r})
    failed = sum(not r["ok"] for r in calls)
    if not failed:
        shutil.rmtree(work_dir)
    return {
        "workload": name, "trace": bool(trace), "seconds": seconds,
        "environment": environment(seed),
        "correct": failed == 0 and metrics is not None,
        "attempted": len(calls), "failed": failed,
        "fail_rate": failed / len(calls),
        "csv_sha256": hashes[0] if len(hashes) == 1 else hashes,
        "csv_identical": len(hashes) == 1,
        "wall_setup_s": _median(calls, "setup_s"),
        "wall_run_s": _median([r for r in calls if r["threads"] == 1 and not r["traced"]],
                              "run_s"),
        "cal_s": _median(calls, "cal_s"),
        "calls": [{k: v for k, v in r.items() if k not in ("layers", "t_imported")}
                  for r in calls],
        "layer_self_s": [r["layers"]["layer_self_s"] for r in calls if "layers" in r],
        "metrics": metrics or {},
    }


def _print_report(res):
    print(f"== {res['workload']} (trace={int(res['trace'])}): "
          f"{res['attempted'] - res['failed']}/{res['attempted']} calls passed")
    for r in res["calls"]:
        for msg in r["fails"]:
            print(f"  FAIL {r['tag']}: {msg}")
    for name, m in res["metrics"].items():
        print(f"  {name:<40} {m['value']:<24.10g} {m['unit']}")
    print(f"  wall clock: setup {res['wall_setup_s']:.6g} s, run {res['wall_run_s']:.6g} s, "
          f"calibration pass {res['cal_s']:.6g} s (reference {CAL_REF_S} s)")
    print(f"  csv_sha256 {res['csv_sha256']} identical={res['csv_identical']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "meanfield_hmc" / "cli.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'meanfield_hmc'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, args.trace)
            (WORK / "results").mkdir(exist_ok=True)
            path = WORK / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(res, indent=1))
            _print_report(res)
            results.append(res)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print("environment: " + json.dumps(results[0]["environment"], sort_keys=True))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
