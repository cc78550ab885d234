"""Outside-in span tracer for the blab layers.

`Tracer.install()` replaces every public function of each layer module, and
every public method of the classes those modules define, by a timing wrapper.
Functions are replaced at every import site (each `blab*` module namespace
that holds the same object), methods once on their class. `uninstall()` puts
the originals back. Nothing inside `src/` changes, and the wrappers pass
arguments and results through untouched, so traced and untraced runs compute
the same numbers.

A span's self time is its duration minus the time spent in spans of *other*
layers below it, so a layer function that delegates to a helper of the same
layer keeps that helper's time (`fileio.write_report` keeps its JSON encoding
and file write). Counters are collected at the same boundaries.
"""
from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time
import weakref
from collections import defaultdict

import numpy as np

LAYERS = ("products", "regions", "bounds", "critical", "means", "fileio", "cli")


class _Frame:
    __slots__ = ("name", "layer", "foreign", "nodes", "passes", "last", "draws")

    def __init__(self, name, layer):
        self.name = name
        self.layer = layer
        self.foreign = 0.0  # time inside spans of other layers below this one
        self.nodes = 0  # quadrature nodes handed to B' under this span
        self.passes = 0  # B' calls under this span (one per quadrature pass)
        self.last = 0  # nodes of the latest pass: the accepted one on success
        self.draws = 0  # membership tests under a sample_zeros span


def _targets():
    """(layer, span name, owner, attribute, original) for every public callable."""
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"blab.{layer}"]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((layer, f"{layer}.{attr}", None, attr, obj))
            elif inspect.isclass(obj):
                for meth, fn in vars(obj).items():
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        out.append((layer, f"{layer}.{meth}", obj, meth, fn))
    return out


class Tracer:
    """Collects per-function spans and counters while installed."""

    def __init__(self):
        self.stack = []
        self.stats = defaultdict(lambda: defaultdict(float))
        self.critical_runs = []  # (degree, seconds) of successful solves
        self._patches = []
        self._segment_counts = weakref.WeakKeyDictionary()

    # -- installation -------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [m for name, m in list(sys.modules.items())
                      if m is not None and (name == "blab" or name.startswith("blab."))]
        for layer, name, owner, attr, fn in _targets():
            wrapper = self._wrap(layer, name, fn)
            if owner is not None:
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is fn:
                        self._patches.append((ns, key, fn))
                        setattr(ns, key, wrapper)

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # -- spans --------------------------------------------------------------

    def _wrap(self, layer, name, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self.stack
            # a module function delegating to the method of the same name
            # (regions.neighborhood_measure) is one span, not two
            if stack and stack[-1].name == name:
                return fn(*args, **kwargs)
            frame = _Frame(name, layer)
            stack.append(frame)
            result = None
            ok = False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent.foreign += dur if parent.layer != layer else frame.foreign
                st = self.stats[name]
                st["calls"] += 1
                st["self_s"] += dur - frame.foreign
                st["ok" if ok else "failures"] += 1
                if hook is not None:
                    hook(self, frame, args, kwargs, result, ok, dur)

        return traced

    def segment_count(self, boundary_set):
        """Arcs plus isolated points of a boundary set, cached per object."""
        count = self._segment_counts.get(boundary_set)
        if count is None:
            count = len(boundary_set.segments) + int(np.size(boundary_set.point_angles))
            self._segment_counts[boundary_set] = count
        return count


# ---------------------------------------------------------------------------
# counters, one hook per span name; each runs after the span has closed


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _product_evals(tracer, frame, args, kwargs, result, ok, dur):
    pts = int(np.size(_arg(args, kwargs, 1, "z")))
    tracer.stats[frame.name]["factor_evals"] += pts * args[0].degree
    if frame.name == "products.derivative" and tracer.stack:
        parent = tracer.stack[-1]
        parent.nodes += pts
        parent.passes += 1
        parent.last = pts


def _distance(tracer, frame, args, kwargs, result, ok, dur):
    pts = int(np.size(_arg(args, kwargs, 1, "z")))
    tracer.stats[frame.name]["point_segments"] += pts * tracer.segment_count(args[0])


def _in_stolz(tracer, frame, args, kwargs, result, ok, dur):
    if tracer.stack and tracer.stack[-1].name == "regions.sample_zeros":
        tracer.stack[-1].draws += 1


def _sample_zeros(tracer, frame, args, kwargs, result, ok, dur):
    st = tracer.stats[frame.name]
    st["draws"] += frame.draws
    if ok:
        st["zeros"] += len(result)


def _lemma_check(tracer, frame, args, kwargs, result, ok, dur):
    if ok:
        tracer.stats[frame.name]["samples"] += result.samples


def _envelope_fit(tracer, frame, args, kwargs, result, ok, dur):
    if ok:
        tracer.stats[frame.name]["grid_points"] += result.grid_size


def _critical_points(tracer, frame, args, kwargs, result, ok, dur):
    if ok:
        tracer.stats[frame.name]["roots"] += result.count
        tracer.stats[frame.name]["ok_self_s"] += dur - frame.foreign
        tracer.critical_runs.append((result.degree, dur))


def _quadrature(tracer, frame, args, kwargs, result, ok, dur):
    st = tracer.stats[frame.name]
    st["nodes"] += frame.nodes
    st["passes"] += frame.passes
    if ok:
        st["accepted_nodes"] += frame.last
        st["ok_nodes"] += frame.nodes


def _write_report(tracer, frame, args, kwargs, result, ok, dur):
    if ok:
        tracer.stats[frame.name]["bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


_HOOKS = {
    "products.derivative": _product_evals,
    "products.evaluate": _product_evals,
    "regions.distance": _distance,
    "regions.in_stolz": _in_stolz,
    "regions.sample_zeros": _sample_zeros,
    "bounds.lemma_check": _lemma_check,
    "bounds.envelope_fit": _envelope_fit,
    "critical.critical_points": _critical_points,
    "means.hardy_mean": _quadrature,
    "means.bergman_integral": _quadrature,
    "fileio.write_report": _write_report,
}


# ---------------------------------------------------------------------------
# per-layer metrics


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


def combine(setup, batch, batches):
    """Set-up stats once plus batch stats averaged over `batches` traced batches."""
    out = defaultdict(lambda: defaultdict(float))
    for stats, scale in ((setup.stats, 1.0), (batch.stats, 1.0 / batches)):
        for name, counters in stats.items():
            for key, val in counters.items():
                out[name][key] += val * scale
    return out


# counters reported as they are, per span name
_COUNTERS = {
    "products.derivative": ("calls", "self_s", "factor_evals"),
    "products.evaluate": ("calls", "self_s", "factor_evals"),
    "regions.distance": ("calls", "self_s", "point_segments"),
    "regions.sample_zeros": ("calls", "self_s", "zeros"),
    "regions.neighborhood_measure": ("calls", "self_s"),
    "regions.type_beta": ("self_s",),
    "bounds.lemma_check": ("self_s",),
    "bounds.theorem_check": ("self_s",),
    "bounds.envelope_grid": ("self_s",),
    "bounds.envelope_fit": ("self_s", "grid_points"),
    "critical.critical_points": ("calls", "self_s", "failures"),
    "critical.argument_principle_count": ("calls",),
    "critical.critical_sum": ("self_s",),
    "means.hardy_mean": ("calls", "self_s", "failures", "nodes"),
    "means.bergman_integral": ("calls", "self_s", "failures", "nodes"),
    "fileio.write_report": ("calls", "self_s", "bytes"),
    "fileio.read_zeros": ("calls", "self_s"),
    "cli.main": ("self_s",),
}

# metric -> (span name, numerator counter, denominator counter)
_RATIOS = {
    "products.derivative.factor_evals_per_s": ("products.derivative", "factor_evals", "self_s"),
    "regions.distance.point_segments_per_s": ("regions.distance", "point_segments", "self_s"),
    "regions.sample_zeros.draws_per_zero": ("regions.sample_zeros", "draws", "zeros"),
    "bounds.lemma_check.samples_per_s": ("bounds.lemma_check", "samples", "self_s"),
    "critical.critical_points.success_frac": ("critical.critical_points", "ok", "calls"),
    "critical.critical_points.roots_per_s": ("critical.critical_points", "roots", "ok_self_s"),
    "means.hardy_mean.passes_per_call": ("means.hardy_mean", "passes", "calls"),
    "means.hardy_mean.node_efficiency": ("means.hardy_mean", "accepted_nodes", "ok_nodes"),
}


def layer_metrics(stats, critical_runs):
    """Per-layer metric values from combined span stats."""

    def get(name, key):
        return stats[name][key] if name in stats else 0.0

    m = {f"{name}.{key}": get(name, key) for name, keys in _COUNTERS.items() for key in keys}
    for metric, (name, num, den) in _RATIOS.items():
        m[metric] = _ratio(get(name, num), get(name, den))
    m["critical.critical_points.time_vs_degree_slope"] = _loglog_slope(critical_runs)
    return m


def unit_of(name):
    """Unit of a per-layer metric, from its name."""
    last = name.rsplit(".", 1)[1]
    if last.endswith("_per_s"):
        return "1/s"
    if last.endswith("_s"):
        return "s"
    if last.endswith("digits"):
        return "digits"
    if last == "bytes":
        return "B"
    if last.endswith(("frac", "efficiency", "slope", "per_call", "per_zero")):
        return "ratio"
    return "count"


def _loglog_slope(runs):
    """Least-squares slope of log(seconds) on log(degree); 0 below two degrees."""
    if len({d for d, _ in runs}) < 2:
        return 0.0
    deg = np.log([d for d, _ in runs])
    sec = np.log([max(t, 1e-9) for _, t in runs])
    slope = float(np.polyfit(deg, sec, 1)[0])
    return slope if math.isfinite(slope) else 0.0
