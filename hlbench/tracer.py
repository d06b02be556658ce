"""Span tracer that wraps hermanlab's module-level functions from outside.

Nothing under ``src/`` knows about tracing.  ``Tracer.install`` replaces,
in every loaded ``hermanlab`` module, each attribute that holds a traced
function with a wrapper that records a span: name, start, end and parent,
under the tracer's run id.  Callers look these attributes up at call time
(``_kernels.orbit`` through the module, ``convergents`` through the module
that imported it by name), so every call goes through the wrapper.
``RationalMap.eval`` runs hundreds of thousands of times per run, so it
gets a call counter and a summed time instead of one span per call.

Spans stay in memory; ``dump`` writes them out when the run has ended.
A span's self time is its duration minus the time its child spans and
counted hot calls cover.
"""

import functools
import importlib
import inspect
import json
import time
import types
from collections import defaultdict

# modules whose public functions are traced, in layer order
MODULES = ["_kernels", "maps", "rotation", "cfrac", "curve", "renorm", "julia", "cli"]
LAYERS = [m.lstrip("_") for m in MODULES]
# private functions that mark a boundary worth a span of their own
EXTRA = {"rotation": ["_newton_polish"]}
HOT = "maps.eval"


def layer_of(name):
    return name.split(".", 1)[0]


def _add(counts, key, n):
    counts[key] += int(n)


def _probe_classify(counts, bound, out):
    labels, iters = out
    _add(counts, "kernels.classify_kernel.pixel_iterates", iters.sum(dtype="int64"))
    _add(counts, "kernels.classify_kernel.pixels", labels.size)
    _add(counts, "kernels.classify_kernel.undecided", (labels == 2).sum())


# work counted from a traced call's arguments or result:
# span name -> probe(counts, bound arguments, result)
PROBES = {
    "kernels.tune_residual": lambda c, b, out: _add(
        c, "kernels.tune_residual.iterates", b.arguments["qm"]),
    "kernels.orbit": lambda c, b, out: _add(c, "kernels.orbit.iterates", b.arguments["n"]),
    "kernels.orbit_samples": lambda c, b, out: _add(
        c, "kernels.orbit_samples.iterates", b.arguments["ks"][-1]),
    "kernels.classify_kernel": _probe_classify,
    "rotation._newton_polish": lambda c, b, out: _add(c, "rotation.newton_steps", out[2]),
    "rotation.tune_lift_family": lambda c, b, out: _add(c, "rotation.bisection_iters", out[2]),
}


def _python_function(obj):
    """The python function behind obj (a compiled dispatcher keeps it as py_func)."""
    fn = getattr(obj, "py_func", obj)
    return fn if isinstance(fn, types.FunctionType) else None


class Tracer:
    """Records spans and hot-call counters for one run of one workload."""

    def __init__(self, run_id):
        self.run_id = run_id
        # span: [name, start, end, parent index or -1, time covered by children]
        self.spans = []
        self.counts = defaultdict(int)
        self.hot_calls = 0
        self.hot_s = 0.0
        self.hot_outside_s = 0.0
        self._stack = []
        self._restore = []

    def _span_wrapper(self, name, fn):
        spans, stack, clock, counts = self.spans, self._stack, time.perf_counter, self.counts
        probe = PROBES.get(name)
        sig = inspect.signature(_python_function(fn))

        @functools.wraps(_python_function(fn))
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, clock(), 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += rec[2] - rec[1]
            if probe is not None:
                probe(counts, sig.bind(*args, **kwargs), out)
            return out

        return wrapper

    def _hot_wrapper(self, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self.hot_calls += 1
                self.hot_s += dt
                if stack:
                    spans[stack[-1]][4] += dt
                else:
                    self.hot_outside_s += dt

        return wrapper

    def install(self):
        """Wrap the traced functions wherever a hermanlab module holds them."""
        import hermanlab
        from hermanlab import maps

        mods = [importlib.import_module("hermanlab." + m) for m in MODULES]
        wrappers = {}  # id(original) -> (original, wrapper)
        for mod, layer in zip(mods, LAYERS):
            names = [a for a in vars(mod) if not a.startswith("_")]
            for attr in names + EXTRA.get(layer, []):
                obj = getattr(mod, attr)
                fn = _python_function(obj)
                if fn is not None and fn.__module__ == mod.__name__ and id(obj) not in wrappers:
                    wrappers[id(obj)] = (obj, self._span_wrapper(layer + "." + attr, obj))
        for mod, layer in zip([hermanlab] + mods, [None] + LAYERS):
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                # private aliases stay unwrapped: _kernels._orbit calls _horner,
                # the same object as the public horner, once per map evaluation
                public = not attr.startswith("_") or attr in EXTRA.get(layer, [])
                if hit is not None and hit[0] is obj and public:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        self._restore.append((maps.RationalMap, "eval", maps.RationalMap.eval))
        maps.RationalMap.eval = self._hot_wrapper(maps.RationalMap.eval)

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    @staticmethod
    def self_time(rec):
        return (rec[2] - rec[1]) - rec[4]

    def summary(self, wall_s):
        """Per-span-name calls and inclusive seconds, per-layer self times, counters."""
        spans = defaultdict(lambda: {"calls": 0, "s": 0.0})
        layer_self = dict.fromkeys(LAYERS, 0.0)
        covered = self.hot_outside_s
        for rec in self.spans:
            spans[rec[0]]["calls"] += 1
            spans[rec[0]]["s"] += rec[2] - rec[1]
            layer_self[layer_of(rec[0])] += self.self_time(rec)
            if rec[3] < 0:
                covered += rec[2] - rec[1]
        layer_self[layer_of(HOT)] += self.hot_s
        return {
            "spans": dict(spans),
            "layer_self_s": layer_self,
            "hot": {"calls": self.hot_calls, "s": self.hot_s},
            "counts": dict(self.counts),
            "wall_s": wall_s,
            "unspanned_s": wall_s - covered,
        }

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({
                "run_id": self.run_id,
                "spans": [{"name": r[0], "start": r[1], "end": r[2], "parent": r[3],
                           "self_s": self.self_time(r)} for r in self.spans],
                "hot": {HOT: {"calls": self.hot_calls, "s": self.hot_s}},
            }, fh)


# inclusive span seconds reported as "<span name>.s"
TIMED_SPANS = [
    "curve.trace", "curve.critical_angle", "curve.bounded_turning",
    "renorm.scaling_ratios", "renorm.self_similarity",
    "julia.classify", "julia.box_dimension", "julia.porosity_profile",
    "julia.render", "julia.save_grid", "julia.load_grid",
]


def layer_metrics(s):
    """Named per-layer metrics from one traced run's ``Tracer.summary``."""
    spans, counts = s["spans"], s["counts"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def secs(name):
        return spans.get(name, {}).get("s", 0.0)

    def ns_per(seconds, n):
        return seconds * 1e9 / n if n else 0.0

    m = {}
    for k in ("tune_residual", "orbit", "orbit_samples"):
        iterates = counts.get("kernels.%s.iterates" % k, 0)
        m["kernels.%s.iterates" % k] = iterates
        m["kernels.%s.ns_per_iterate" % k] = ns_per(secs("kernels." + k), iterates)
    pixel_iterates = counts.get("kernels.classify_kernel.pixel_iterates", 0)
    pixels = counts.get("kernels.classify_kernel.pixels", 0)
    m["kernels.classify_kernel.pixel_iterates"] = pixel_iterates
    m["kernels.classify_kernel.ns_per_pixel_iterate"] = ns_per(
        secs("kernels.classify_kernel"), pixel_iterates)
    m["kernels.classify_kernel.undecided_frac"] = (
        counts.get("kernels.classify_kernel.undecided", 0) / pixels if pixels else 0.0)

    evals = calls("kernels.tune_residual")
    steps = counts.get("rotation.newton_steps", 0)
    m["rotation.residual_evals"] = evals
    m["rotation.newton_steps"] = steps
    m["rotation.ladder_levels"] = calls("rotation._newton_polish")
    m["rotation.step_accept_ratio"] = steps / evals if evals else 0.0
    m["rotation.sign_tests"] = calls("rotation.sign_rho_vs_theta")
    m["rotation.bisection_iters"] = counts.get("rotation.bisection_iters", 0)

    m["maps.eval_calls"] = s["hot"]["calls"]
    m["maps.ns_per_eval"] = ns_per(s["hot"]["s"], s["hot"]["calls"])
    m["cfrac.convergents.calls"] = calls("cfrac.convergents")
    m["cfrac.convergents.s"] = secs("cfrac.convergents")
    for name in TIMED_SPANS:
        m[name + ".s"] = secs(name)
    for layer, v in s["layer_self_s"].items():
        m[layer + ".self_s"] = v
    m["trace.unspanned_s"] = s["unspanned_s"]
    m["trace.wall_s"] = s["wall_s"]
    return m
