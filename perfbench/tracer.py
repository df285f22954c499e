"""Span tracing of the package's layers, installed from outside the package.

Every public function of each layer module, and every public method of
``RngStream``, is replaced by a wrapper wherever it is looked up: in the
defining module, in every package module that imported it by name (for
example ``experiments.uhmc_step_arrays`` or ``couplings.randomized_step_arrays``)
and on the class.  A wrapper records one span: name, layer, parent span,
start and end.  Spans stay in memory; :meth:`Tracer.metrics` reduces them
to the per-layer metrics and :meth:`Tracer.write_spans` writes them out
after the run.  Tracing assumes one thread (the traced call uses
``--threads 1``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import time

PACKAGE = "meanfield_hmc"
LAYERS = ("rng", "models", "integrators", "kernels", "couplings",
          "statistics", "theory", "experiments", "cli")
TRACED_CLASSES = {"rng": ("RngStream",)}

# Functions whose second positional argument is a particle array, and the
# axis of that array that counts particles.
PARTICLE_AXIS = {
    "mean_field_grad_all": -2,
    "randomized_step_arrays": -2,
    "uhmc_step_arrays": -2,
    "exact_gaussian_flow_arrays": -1,
    "xhmc_step_gaussian_arrays": -1,
}

STEP_BUCKETS = (4, 16, 32, 64)
EXACT_BUCKETS = (16, 64, 256)

# span fields
NAME, LAYER, PARENT, START, END, PARTICLES = range(6)


class Tracer:
    """Spans and counters of one traced call."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.streams = []
        self.diverged = set()
        self.near_pairs = 0
        self.coalescing_near_pairs = 0
        self.kde_kernel_evals = 0
        self.csv_bytes = 0

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every public function and RngStream method of the package."""
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrapped[id(obj)] = self._wrap(obj, layer, name)
            for cls_name in TRACED_CLASSES.get(layer, ()):
                self._wrap_class(getattr(mod, cls_name), layer)
        for mod in [importlib.import_module(PACKAGE), *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])

    def _wrap_class(self, cls, layer):
        for name, obj in list(vars(cls).items()):
            if inspect.isfunction(obj) and not name.startswith("_"):
                setattr(cls, name, self._wrap(obj, layer, name))
        init = cls.__init__
        streams = self.streams

        @functools.wraps(init)
        def registering_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            streams.append(obj)
        cls.__init__ = registering_init

    def _wrap(self, fn, layer, name):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns
        axis = PARTICLE_AXIS.get(name)
        after = {"write_csv": self._after_write_csv,
                 "gaussian_kde_on_grid": self._after_kde,
                 "couple_velocities_batch": self._after_couple}.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            particles = 0
            if axis is not None and len(args) > 1:
                shape = getattr(args[1], "shape", ())
                if len(shape) >= -axis:
                    particles = shape[axis]
            span = [name, layer, stack[-1] if stack else -1, 0, 0, particles]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                if type(err).__name__ == "IntegrationDivergedError":
                    self.diverged.add(id(err))
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result
        return traced

    def _after_write_csv(self, args, result):
        self.csv_bytes += os.path.getsize(args[0])

    def _after_kde(self, args, result):
        self.kde_kernel_evals += len(args[0]) * len(args[1])

    def _after_couple(self, args, result):
        near = ~result.synchronous
        self.near_pairs += int(near.sum())
        self.coalescing_near_pairs += int((result.coalescing & near).sum())

    # -- reduction --------------------------------------------------------

    def self_times(self):
        """Per span: own time (duration minus direct children) and layer time
        (own time plus that of descendants reached through the same layer)."""
        spans = self.spans
        dur = [s[END] - s[START] for s in spans]
        own = dur[:]
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                own[s[PARENT]] -= dur[i]
        in_layer = own[:]
        for i in range(len(spans) - 1, -1, -1):
            p = spans[i][PARENT]
            if p >= 0 and spans[p][LAYER] == spans[i][LAYER]:
                in_layer[p] += in_layer[i]
        return dur, own, in_layer

    def metrics(self, run_s):
        """Per-layer metrics (seconds, microseconds and counts) of the run."""
        spans = self.spans
        dur, own, in_layer = self.self_times()

        def pick(pred):
            # spans matching pred whose parent span does not match it
            return [i for i, s in enumerate(spans)
                    if pred(s) and (s[PARENT] < 0 or not pred(spans[s[PARENT]]))]

        def named(*names):
            return lambda s: s[NAME] in names

        def us(idx, q):
            if not idx:
                return 0.0
            vals = sorted(dur[i] for i in idx)
            if q == 50:
                return statistics.median(vals) / 1e3
            return vals[max(0, -(-len(vals) * q // 100) - 1)] / 1e3

        def sec(values):
            return sum(values) / 1e9

        def bucket(idx, n):
            return [i for i in idx if spans[i][PARTICLES] == n]

        layer_self = {layer: sec(in_layer[i] for i in pick(lambda s, l=layer: s[LAYER] == l))
                      for layer in LAYERS}

        rng_calls = len(pick(lambda s: s[LAYER] == "rng"))
        variates = sum(s.counter for s in self.streams)
        grad = pick(named("mean_field_grad_all", "mean_field_grad"))
        builds = pick(lambda s: s[LAYER] == "models" and s[NAME].endswith("_model"))
        step = pick(named("randomized_step_arrays"))
        exact = pick(named("exact_gaussian_flow_arrays"))
        uhmc = pick(named("uhmc_step_arrays"))
        xhmc = pick(named("xhmc_step_gaussian_arrays"))
        chain = pick(named("run_chain"))
        coupled = pick(named("coupled_uhmc_step"))
        couple = pick(lambda s: s[NAME].startswith("couple_velocities"))
        rho = pick(named("rho_N"))
        kde = pick(lambda s: s[LAYER] == "statistics" and "kde" in s[NAME])
        w1 = pick(named("wasserstein1_1d"))
        constants = pick(named("compute_constants"))
        csv = pick(named("write_csv"))

        m = {
            "rng.calls": rng_calls,
            "rng.variates": variates,
            "rng.variates_per_call": variates / rng_calls if rng_calls else 0.0,
            "rng.self_s": layer_self["rng"],
            "rng.ns_per_variate": layer_self["rng"] * 1e9 / variates if variates else 0.0,
            "models.grad_calls": len(grad),
            "models.grad_us_p50": us(grad, 50),
            "models.grad_us_p99": us(grad, 99),
            "models.grad_self_s": sec(in_layer[i] for i in grad),
            "models.build_s": sec(dur[i] for i in builds),
            "integrators.inner_steps": len(step),
        }
        for n in STEP_BUCKETS:
            m[f"integrators.step_us_p50.N{n}"] = us(bucket(step, n), 50)
        m["integrators.step_self_s"] = sec(in_layer[i] for i in step)
        for n in EXACT_BUCKETS:
            m[f"integrators.exact_flow_us_p50.N{n}"] = us(bucket(exact, n), 50)
        m["integrators.exact_flow_self_s"] = sec(in_layer[i] for i in exact)
        m["integrators.divergences"] = len(self.diverged)
        for n in STEP_BUCKETS:
            if n != 32:
                m[f"kernels.uhmc_step_us_p50.N{n}"] = us(bucket(uhmc, n), 50)
        m["kernels.uhmc_step_us_p99"] = us(uhmc, 99)
        m["kernels.self_s"] = layer_self["kernels"]
        for n in EXACT_BUCKETS:
            m[f"kernels.xhmc_step_us_p50.N{n}"] = us(bucket(xhmc, n), 50)
        m.update({
            "kernels.run_chain_self_s": sec(own[i] for i in chain),
            "couplings.coupled_step_us_p50": us(coupled, 50),
            "couplings.couple_us_p50": us(couple, 50),
            "couplings.rho_us_p50": us(rho, 50),
            "couplings.self_s": layer_self["couplings"],
            "couplings.coalescing_frac": (self.coalescing_near_pairs / self.near_pairs
                                          if self.near_pairs else 0.0),
            "statistics.kde_s": sec(dur[i] for i in kde),
            "statistics.kde_kernel_evals": self.kde_kernel_evals,
            "statistics.w1_s": sec(dur[i] for i in w1),
            "theory.constants_calls": len(constants),
            "theory.constants_s": sec(dur[i] for i in constants),
            "experiments.self_s": layer_self["experiments"],
            "experiments.csv_s": sec(dur[i] for i in csv),
            "experiments.csv_bytes": self.csv_bytes,
        })
        return {"metrics": m, "layer_self_s": layer_self,
                "spans": len(spans), "run_s": run_s}

    def write_spans(self, path):
        """Write the spans as CSV, one line per span, in start order."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("id,name,layer,parent,start_ns,end_ns,particles\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[NAME]},{s[LAYER]},{s[PARENT]},"
                         f"{s[START]},{s[END]},{s[PARTICLES]}\n")
