"""Outside-in tracing of photonsphere, installed from the benchmark.

``install`` replaces the public functions named below, at every module
attribute they are bound to, with wrappers that record a span per call
(name, start, end, parent span, case id).  The hot scalar profile methods
run hundreds of thousands of times per case, so they are only counted:
timing them would cost more than the work they do.  Spans stay in memory;
``layer_metrics`` turns them into per-layer figures after the run.
"""

import functools
import math
import sys
import time
from collections import Counter

import numpy as np

from stats import self_times

PACKAGE = "photonsphere"

TIMED = {
    "calculus": ("metric_taylor", "curvature", "scalar_taylor"),
    "hypersurfaces": ("shape", "normal_data"),
    "quadrature": ("sphere_laplacian", "level_derivative"),
    "israel": ("build_foliation", "mass_flux", "boundary_constraints",
               "identity_residuals", "inequality_slacks", "reconstruct_lapse"),
    "geodesics": ("integrate_null", "tangency_persistence"),
    "photon": ("locate_photon_sphere", "certify_photon_surface"),
    "cli": ("main",),
}
TIMED_METHODS = {("spacetimes", "MetricSampler"): ("components",)}
COUNTED_PROFILE_METHODS = ("metric_factors_d1", "lapse_d1")

# Spans that record how many counted calls happened inside them.
ATTRIBUTED = frozenset({"israel.build_foliation", "geodesics.integrate_null"})


def _nodes(point):
    coords = point.coords4() if hasattr(point, "coords4") else tuple(point)
    return math.prod(np.broadcast_shapes(*(np.shape(c) for c in coords)))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Extra counters taken from a call's arguments or result.
ON_RESULT = {
    "calculus.curvature": lambda counts, args, kwargs, result: counts.update(
        {"calculus.curvature.nodes": _nodes(_arg(args, kwargs, 1, "point"))}),
    "israel.build_foliation": lambda counts, args, kwargs, result: counts.update(
        {"israel.levels": len(result)}),
    "geodesics.integrate_null": lambda counts, args, kwargs, result: counts.update(
        {"geodesics.accepted_steps": len(result.samples) - 1}),
}


class Tracer:
    """Spans and counters of one traced batch."""

    def __init__(self):
        # [name, start, end, parent index, case id, counts inside or None]
        self.spans = []
        self.counts = Counter()
        self.case = None
        self._stack = []

    def timed(self, name, fn):
        on_result = ON_RESULT.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                    self.case, dict(self.counts) if name in ATTRIBUTED else None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            self.counts[name] += 1
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if span[5] is not None:
                    before = span[5]
                    span[5] = {k: v - before.get(k, 0)
                               for k, v in self.counts.items()
                               if v != before.get(k, 0)}
            if on_result is not None:
                on_result(self.counts, args, kwargs, result)
            return result
        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def to_json(self):
        return {"fields": ["name", "start", "end", "parent", "case", "counts"],
                "spans": self.spans, "counts": dict(self.counts)}


def _rebind(modules, original, replacement):
    for mod in modules:
        for key in [k for k, v in vars(mod).items() if v is original]:
            setattr(mod, key, replacement)


def install(tracer):
    """Wrap the traced functions of the already imported package."""
    modules = [m for name, m in list(sys.modules.items())
               if name == PACKAGE or name.startswith(PACKAGE + ".")]
    for short, attrs in TIMED.items():
        mod = sys.modules[f"{PACKAGE}.{short}"]
        for attr in attrs:
            fn = getattr(mod, attr)
            _rebind(modules, fn, tracer.timed(f"{short}.{attr}", fn))
    for (short, cls_name), attrs in TIMED_METHODS.items():
        cls = getattr(sys.modules[f"{PACKAGE}.{short}"], cls_name)
        for attr in attrs:
            setattr(cls, attr, tracer.timed(f"{short}.{attr}", vars(cls)[attr]))
    spacetimes = sys.modules[f"{PACKAGE}.spacetimes"]
    for cls in list(vars(spacetimes).values()):
        if isinstance(cls, type) and issubclass(cls, spacetimes.RadialProfile):
            for attr in COUNTED_PROFILE_METHODS:
                if attr in vars(cls):
                    setattr(cls, attr,
                            tracer.counted(f"spacetimes.{attr}", vars(cls)[attr]))


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, sphere_grid_hits, sphere_grid_misses):
    """Per-layer figures of a traced batch, by name, as (value, unit).

    Counts are integers and every other figure a float, zero where the
    batch never entered the layer.
    """
    spans = tracer.spans
    own = self_times([(s[1], s[2], s[3]) for s in spans])
    total, self_s = Counter(), Counter()
    inside = Counter()
    for span, own_s in zip(spans, own):
        total[span[0]] += span[2] - span[1]
        self_s[span[0]] += own_s
        if span[5]:
            for key, n in span[5].items():
                inside[(span[0], key)] += n
    c = tracer.counts
    levels = c["israel.levels"]
    steps = c["geodesics.accepted_steps"]
    s, n, one = "s", "count", "1"
    figures = {
        "calculus.metric_taylor.calls": (c["calculus.metric_taylor"], n),
        "calculus.metric_taylor.self_s": (self_s["calculus.metric_taylor"], s),
        "calculus.curvature.calls": (c["calculus.curvature"], n),
        "calculus.curvature.self_s": (self_s["calculus.curvature"], s),
        "calculus.curvature.nodes": (c["calculus.curvature.nodes"], n),
        "calculus.curvature.nodes_per_s": (
            _ratio(c["calculus.curvature.nodes"], total["calculus.curvature"]), "1/s"),
        "calculus.scalar_taylor.calls": (c["calculus.scalar_taylor"], n),
        "calculus.scalar_taylor.self_s": (self_s["calculus.scalar_taylor"], s),
        "hypersurfaces.shape.calls": (c["hypersurfaces.shape"], n),
        "hypersurfaces.shape.self_s": (self_s["hypersurfaces.shape"], s),
        "hypersurfaces.normal_data.calls": (c["hypersurfaces.normal_data"], n),
        "hypersurfaces.normal_data.self_s": (self_s["hypersurfaces.normal_data"], s),
        "spacetimes.components.calls": (c["spacetimes.components"], n),
        "spacetimes.components.self_s": (self_s["spacetimes.components"], s),
        "spacetimes.metric_factors_d1.calls": (c["spacetimes.metric_factors_d1"], n),
        "spacetimes.lapse_d1.calls": (c["spacetimes.lapse_d1"], n),
        "quadrature.sphere_laplacian.self_s": (self_s["quadrature.sphere_laplacian"], s),
        "quadrature.level_derivative.self_s": (self_s["quadrature.level_derivative"], s),
        "quadrature.sphere_grid.hit_ratio": (
            _ratio(sphere_grid_hits, sphere_grid_hits + sphere_grid_misses), one),
        "israel.build_foliation.s": (total["israel.build_foliation"], s),
        "israel.build_foliation.self_s": (self_s["israel.build_foliation"], s),
        "israel.leaf_ms": (1e3 * _ratio(total["israel.build_foliation"], levels), "ms"),
        "israel.metric_evals_per_leaf": (
            _ratio(inside[("israel.build_foliation", "calculus.metric_taylor")],
                   levels), one),
        "israel.mass_flux.s": (total["israel.mass_flux"], s),
        "israel.boundary_constraints.s": (total["israel.boundary_constraints"], s),
        "israel.identity_residuals.s": (total["israel.identity_residuals"], s),
        "israel.inequality_slacks.s": (total["israel.inequality_slacks"], s),
        "israel.reconstruct_lapse.s": (total["israel.reconstruct_lapse"], s),
        "geodesics.integrate_null.calls": (c["geodesics.integrate_null"], n),
        "geodesics.integrate_null.s": (total["geodesics.integrate_null"], s),
        "geodesics.accepted_steps": (steps, n),
        "geodesics.steps_per_s": (_ratio(steps, total["geodesics.integrate_null"]), "1/s"),
        "geodesics.rhs_evals_per_step": (
            _ratio(inside[("geodesics.integrate_null", "spacetimes.metric_factors_d1")],
                   steps), one),
        "geodesics.tangency_persistence.s": (total["geodesics.tangency_persistence"], s),
        "photon.locate_photon_sphere.s": (total["photon.locate_photon_sphere"], s),
        "photon.certify_photon_surface.self_s": (
            self_s["photon.certify_photon_surface"], s),
        "cli.main.self_s": (self_s["cli.main"], s),
    }
    return {k: (int(v) if u == n else float(v), u) for k, (v, u) in figures.items()}
