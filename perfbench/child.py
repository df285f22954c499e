"""One timed CLI call in a fresh interpreter.

    python3 perfbench/child.py RESULT_JSON [--trace SPANS_CSV] [-- CLI_ARGS...]

Imports ``meanfield_hmc.cli`` from the checkout's ``src``, records the
monotonic time at which the import returned (the parent subtracts its
spawn time to get the set-up time), then times ``cli.main(CLI_ARGS)``.
A fixed calibration workload runs just before and just after the call;
its mean time tells the parent how fast the machine ran at that moment.
Without CLI arguments it only imports the package.  With ``--trace`` the
package's public functions are wrapped in spans first, and the layer
metrics and the spans are written out after the call.  Only the standard
library is imported before the package.
"""

import json
import os
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[0:1] = [os.path.join(ROOT, "src"), ROOT]


def main(argv):
    result_path = argv[0]
    rest = argv[1:]
    spans_path = None
    if rest[:1] == ["--trace"]:
        spans_path, rest = rest[1], rest[2:]
    cli_argv = rest[1:] if rest[:1] == ["--"] else rest

    import meanfield_hmc.cli as cli
    t_imported = time.monotonic()
    out = {"t_imported": t_imported, "pkg_file": cli.__file__}
    if not cli_argv:
        _dump(result_path, out)
        return 0

    tracer = None
    if spans_path is not None:
        from perfbench.tracer import Tracer
        tracer = Tracer()
        tracer.install()
    error = None
    cal_before = _calibrate()
    t0 = time.perf_counter()
    try:
        code = cli.main(cli_argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        code, error = 1, traceback.format_exc()
    out["run_s"] = time.perf_counter() - t0
    out["exit_code"] = code
    out["cal_s"] = (cal_before + _calibrate()) / 2
    out["error"] = error
    if tracer is not None:
        out["layers"] = tracer.metrics(out["run_s"])
        tracer.write_spans(spans_path)
    _dump(result_path, out)
    return code


def _calibrate():
    """Fixed reference work, independent of the package: small-array numpy
    calls in a Python loop, then vector arithmetic on larger arrays."""
    import numpy as np
    t0 = time.perf_counter()
    x = np.linspace(-1.0, 1.0, 16)
    for _ in range(10000):
        x = np.sin(x) * 0.5 + x * 0.25
    v = np.linspace(-1.0, 1.0, 1 << 16)
    for _ in range(50):
        v = np.cos(v) * 0.5 + v * v * 0.25
    return time.perf_counter() - t0


def _dump(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
