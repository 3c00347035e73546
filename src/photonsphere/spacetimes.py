"""Static spherically symmetric spacetimes on radial charts.

A spacetime is assembled from a radial profile (lapse N(r) and radial
metric factor g_rr(r)) as the block metric

    -N(r)^2 dt^2 + g_rr(r) dr^2 + r^2 (dtheta^2 + sin^2(theta) dphi^2)

in geometric units G = c = 1; the mass parameter carries length units.
Profiles can be closed-form, interpolated tables, or parsed arithmetic
expressions, and all of them evaluate transparently on floats, arrays and
jets (for derivatives).
"""

import ast
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .jets import Dual1, Jet, compose_scalar, value_of

HORIZON_EDGE_RTOL = 1e-9  # evaluation rejected within this * m of r = 2m


class DomainError(ValueError):
    """Raised when a chart point lies outside a metric's domain."""


@dataclass(frozen=True)
class ChartPoint:
    """Point on the (t, r, theta, phi) chart.

    r is the areal/radial coordinate (length), theta the polar angle;
    poles are excluded because the angular metric degenerates there.
    """

    t: float = 0.0
    r: float = 1.0
    theta: float = math.pi / 2
    phi: float = 0.0

    def __post_init__(self):
        if not self.r > 0.0:
            raise DomainError(f"r must be positive, got {self.r}")
        if not 0.0 < self.theta < math.pi:
            raise DomainError(f"theta must lie strictly in (0, pi), got {self.theta}")

    def coords4(self):
        return (self.t, self.r, self.theta, self.phi)

    def coords3(self):
        return (self.r, self.theta, self.phi)


class RadialProfile:
    """Base class: lapse N(r) > 0 and radial factor g_rr(r) > 0 on (r_min, inf).

    Subclasses implement ``lapse`` and ``radial_factor`` so that they accept
    floats, numpy arrays, Jet and Dual1 inputs alike.
    """

    r_min = 0.0
    mass_hint = None

    def lapse(self, r):
        raise NotImplementedError

    def radial_factor(self, r):
        raise NotImplementedError

    def lapse_d1(self, r):
        """(N, dN/dr) at a float radius or an array of radii."""
        d = _dual(self.lapse(Dual1(r, 1.0)), r)
        return d.val, d.dot

    def metric_factors_d1(self, r):
        """(A, A', B, B') with A = N^2, B = g_rr, at a float radius.

        This is the hot path of the geodesic integrator, which passes one
        radius per trajectory of its batch as an array: each entry equals
        the float evaluation bit for bit, and an entry whose value is not
        real or lies outside a table comes back non-finite instead of
        raising.  Subclasses with closed forms override it.
        """
        a = _dual(self.lapse(Dual1(r, 1.0)), r)
        b = _dual(self.radial_factor(Dual1(r, 1.0)), r)
        return a.val * a.val, 2.0 * a.val * a.dot, b.val, b.dot

    def check_point(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r <= self.r_min):
            raise DomainError(
                f"r = {r} outside profile domain (r_min = {self.r_min:.12g})")

    def describe(self):
        return {"kind": "custom", "r_min": self.r_min}


def _dual(x, r):
    """A profile value at r as a Dual1 (a constant expression gives a float)."""
    return x if isinstance(x, Dual1) else Dual1(x + 0.0 * r, 0.0 * r)


@dataclass(frozen=True)
class SchwarzschildProfile(RadialProfile):
    """Schwarzschild family of mass m (any sign); m = 0 is Minkowski.

    For m > 0 the domain is r > 2m (with a guard band of HORIZON_EDGE_RTOL*m
    to avoid lapse-degenerate arithmetic); for m <= 0 it is r > 0.
    """

    m: float = 1.0

    @property
    def r_min(self):
        return self.m * (2.0 + HORIZON_EDGE_RTOL) if self.m > 0 else 0.0

    @property
    def mass_hint(self):
        return self.m

    def lapse(self, r):
        if self.m == 0.0:
            return 1.0 + 0.0 * r if not isinstance(r, (float, int)) else 1.0
        return np.sqrt(1.0 - 2.0 * self.m / r)

    def radial_factor(self, r):
        if self.m == 0.0:
            return 1.0 + 0.0 * r if not isinstance(r, (float, int)) else 1.0
        return 1.0 / (1.0 - 2.0 * self.m / r)

    def lapse_d1(self, r):
        if self.m == 0.0:
            return (np.ones_like(r), np.zeros_like(r)) if np.ndim(r) else (1.0, 0.0)
        n = (np.sqrt if np.ndim(r) else math.sqrt)(1.0 - 2.0 * self.m / r)
        return n, self.m / (r * r * n)

    def metric_factors_d1(self, r):
        m = self.m
        a = 1.0 - 2.0 * m / r
        ap = 2.0 * m / (r * r)
        return a, ap, 1.0 / a, -ap / (a * a)

    def describe(self):
        return {"kind": "schwarzschild", "m": self.m}


@dataclass(frozen=True)
class CallableProfile(RadialProfile):
    """Profile from user callables; they must accept jets/arrays."""

    lapse_fn: object
    radial_factor_fn: object
    r_min: float = 0.0
    mass_hint: float = None
    name: str = "callable"

    def lapse(self, r):
        return self.lapse_fn(r)

    def radial_factor(self, r):
        return self.radial_factor_fn(r)

    def describe(self):
        return {"kind": "callable", "name": self.name, "r_min": self.r_min}


# ---------------------------------------------------------------------------
# Expression profiles: a small arithmetic grammar over the variable r
# ---------------------------------------------------------------------------

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_ALLOWED_FUNCS = {"sqrt"}


def _validate_expr(node, source):
    if isinstance(node, ast.Expression):
        return _validate_expr(node.body, source)
    if isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_BINOPS):
        _validate_expr(node.left, source)
        _validate_expr(node.right, source)
        return
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        _validate_expr(node.operand, source)
        return
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        node.value = float(node.value)  # '^' is never an unbounded integer power
        return
    if isinstance(node, ast.Name) and node.id == "r":
        return
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _ALLOWED_FUNCS and len(node.args) == 1
            and not node.keywords):
        _validate_expr(node.args[0], source)
        return
    raise ValueError(f"disallowed construct {ast.dump(node)} in expression {source!r}; "
                     "grammar allows +, -, *, /, ^, sqrt, numeric constants and r")


def compile_expression(source):
    """Compile '^'-style arithmetic in the variable r to a fast callable.

    Constants are floats; an evaluation that overflows raises ValueError.
    """
    tree = ast.parse(source.replace("^", "**"), mode="eval")
    try:
        _validate_expr(tree, source)
    except OverflowError as exc:
        raise ValueError(f"constant too large in expression {source!r}") from exc
    code = compile(tree, "<profile expression>", "eval")
    env = {"sqrt": np.sqrt, "__builtins__": {}}

    def evaluate(r):
        try:
            return eval(code, env, {"r": r})
        except OverflowError as exc:
            raise ValueError(f"expression {source!r} overflows: {exc}") from exc
    return evaluate


@dataclass(frozen=True)
class ExpressionProfile(RadialProfile):
    """Profile defined by arithmetic expression strings in r."""

    lapse_src: str
    radial_factor_src: str
    r_min: float = 0.0
    mass_hint: float = None
    _fns: tuple = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        fns = (compile_expression(self.lapse_src),
               compile_expression(self.radial_factor_src))
        object.__setattr__(self, "_fns", fns)

    def lapse(self, r):
        return self._fns[0](r)

    def radial_factor(self, r):
        return self._fns[1](r)

    def describe(self):
        return {"kind": "expression", "lapse": self.lapse_src,
                "radial_factor": self.radial_factor_src, "r_min": self.r_min}


class TableProfile(RadialProfile):
    """Profile from sampled (r, N, g_rr) rows with cubic interpolation.

    Rows must be strictly increasing in r; evaluation is restricted to the
    sampled range.
    """

    def __init__(self, samples, mass_hint=None):
        from scipy.interpolate import CubicSpline

        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 2 or samples.shape[1] != 3 or len(samples) < 4:
            raise ValueError("table profile needs >= 4 rows of [r, N, g_rr]")
        r = samples[:, 0]
        if not np.all(np.diff(r) > 0):
            raise ValueError("table profile radii must be strictly increasing")
        if np.any(samples[:, 1] <= 0) or np.any(samples[:, 2] <= 0):
            raise ValueError("table profile N and g_rr must be positive")
        self._r = r
        self._n = CubicSpline(r, samples[:, 1])
        self._b = CubicSpline(r, samples[:, 2])
        self.r_min = float(r[0])
        self.r_max = float(r[-1])
        self.mass_hint = mass_hint
        self._samples = samples

    def _eval(self, spline, r):
        v = value_of(r) if isinstance(r, Jet) else (r.val if isinstance(r, Dual1) else r)
        v = np.asarray(v, dtype=float)
        outside = (v < self._r[0]) | (v > self._r[-1])
        if isinstance(r, Dual1) and v.shape:
            v = np.where(outside, np.nan, v)  # one entry per trajectory
        elif np.any(outside):
            raise DomainError(f"r outside table range [{self._r[0]}, {self._r[-1]}]")
        if isinstance(r, Jet):
            return compose_scalar(r, spline(v), spline(v, 1), spline(v, 2))
        if isinstance(r, Dual1):
            if v.shape:
                return Dual1(spline(v), spline(v, 1) * r.dot)
            return Dual1(float(spline(v)), float(spline(v, 1)) * r.dot)
        return spline(v) if v.shape else float(spline(v))

    def lapse(self, r):
        return self._eval(self._n, r)

    def radial_factor(self, r):
        return self._eval(self._b, r)

    def describe(self):
        return {"kind": "table", "rows": len(self._r),
                "r_min": self.r_min, "r_max": self.r_max}


def load_profile(spec):
    """Build a profile from a JSON dict, a JSON string, or a file path."""
    if isinstance(spec, str):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError:
            with open(spec) as fh:
                spec = json.load(fh)
    kind = spec.get("kind")
    if kind == "schwarzschild":
        return SchwarzschildProfile(float(spec["m"]))
    if kind == "table":
        return TableProfile(spec["samples"], mass_hint=spec.get("m"))
    if kind == "expression":
        return ExpressionProfile(spec["lapse"], spec["radial_factor"],
                                 r_min=float(spec.get("r_min", 0.0)),
                                 mass_hint=spec.get("m"))
    raise ValueError(f"unknown profile kind {kind!r}")


# ---------------------------------------------------------------------------
# Metric samplers and the spacetime wrapper
# ---------------------------------------------------------------------------

class MetricSampler:
    """A metric as a function of chart coordinates.

    ``components(coords)`` takes a sequence of ``dim`` coordinate objects
    (floats, arrays or jets) and returns the ``dim x dim`` symmetric matrix
    of components as a nested list; entries may be plain numbers where the
    component is constant.
    """

    def __init__(self, dim, components, name="metric", coord_names=None):
        self.dim = dim
        self._components = components
        self.name = name
        self.coord_names = coord_names

    def components(self, coords):
        return self._components(coords)


def _block_metric4(profile):
    def components(coords):
        t, r, theta, phi = coords
        n = profile.lapse(r)
        return [[-(n * n), 0.0, 0.0, 0.0],
                [0.0, profile.radial_factor(r), 0.0, 0.0],
                [0.0, 0.0, r * r, 0.0],
                [0.0, 0.0, 0.0, r * r * np.sin(theta) ** 2]]
    return components


def _slice_metric3(profile):
    def components(coords):
        r, theta, phi = coords
        return [[profile.radial_factor(r), 0.0, 0.0],
                [0.0, r * r, 0.0],
                [0.0, 0.0, r * r * np.sin(theta) ** 2]]
    return components


@dataclass(frozen=True)
class StaticSpacetime:
    """Static spacetime -N^2 dt^2 + g assembled from a radial profile.

    Immutable and side-effect free; safe to share across threads.
    """

    profile: RadialProfile

    @staticmethod
    def schwarzschild(m):
        return StaticSpacetime(SchwarzschildProfile(m))

    @property
    def metric4(self):
        return MetricSampler(4, _block_metric4(self.profile), name="spacetime",
                             coord_names=("t", "r", "theta", "phi"))

    @property
    def metric3(self):
        return MetricSampler(3, _slice_metric3(self.profile), name="time slice",
                             coord_names=("r", "theta", "phi"))

    def lapse_field3(self):
        """The lapse as a scalar field over slice coordinates (r, theta, phi)."""
        return lambda coords: self.profile.lapse(coords[0])

    def metric_at(self, point):
        """4-metric components at a ChartPoint, with domain validation."""
        self.profile.check_point(point.r)
        g = self.metric4.components(point.coords4())
        out = np.array([[float(value_of(g[i][j])) for j in range(4)] for i in range(4)])
        if not np.all(np.isfinite(out)):
            raise DomainError(f"metric evaluation not finite at {point}")
        return out

    def slice_metric_at(self, point):
        self.profile.check_point(point.r)
        g = self.metric3.components(point.coords3())
        return np.array([[float(value_of(g[i][j])) for j in range(3)] for i in range(3)])


def schwarzschild_metric(m, point):
    """Schwarzschild metric components diag(-N^2, N^-2, r^2, r^2 sin^2 theta)."""
    return StaticSpacetime.schwarzschild(m).metric_at(point)


def assemble_static(profile, point):
    """Block metric -N^2 dt^2 + g_rr dr^2 + r^2 Omega at a chart point."""
    return StaticSpacetime(profile).metric_at(point)


# ---------------------------------------------------------------------------
# Asymptotic decay fit
# ---------------------------------------------------------------------------

MACHINE_FLOOR = 1e-13


@dataclass(frozen=True)
class DecayReport:
    """Least-squares decay diagnostics of a lapse profile at large radius."""

    mass_estimate: float
    exponent_lapse: float          # log-log slope of |N - 1|
    exponent_residual: float       # log-log slope of |N - (1 - m_hat/r)|
    schwarzschildean: bool         # residual decays at least like r^-2
    status: str                    # "ok" | "machine-floor" | "fit-unreliable"


def _loglog_slope(r, y):
    mask = y > MACHINE_FLOOR
    if mask.sum() < 3:
        return None
    return float(np.polyfit(np.log(r[mask]), np.log(y[mask]), 1)[0])


def asymptotics_fit(profile, r_samples):
    """Fit the far-field decay of N - 1 and extract the mass parameter.

    The mass estimate comes from a least-squares fit of N - 1 against the
    basis (1/r, 1/r^2, 1/r^3); the decay exponents from log-log slopes.
    Requires >= 8 radii spanning at least two decades.
    """
    r = np.asarray(r_samples, dtype=float)
    if len(r) < 8 or np.any(np.diff(r) <= 0):
        raise ValueError("need >= 8 strictly increasing sample radii")
    if r[-1] / r[0] < 100.0:
        raise ValueError("sample radii must span at least two decades")
    n = np.asarray([float(value_of(profile.lapse(ri))) for ri in r])
    dev = n - 1.0

    if np.max(np.abs(dev)) <= MACHINE_FLOOR:
        return DecayReport(0.0, None, None, True, "machine-floor")

    # half-integer powers keep slower-than-Schwarzschildean tails out of the
    # fitted 1/r coefficient
    basis = np.stack([r ** p for p in (-1.0, -1.5, -2.0, -2.5, -3.0)], axis=1)
    coef, *_ = np.linalg.lstsq(basis, dev, rcond=None)
    m_hat = -float(coef[0])

    abs_dev = np.abs(dev)
    if not np.all(np.diff(abs_dev) < 0):
        return DecayReport(m_hat, None, None, False, "fit-unreliable")

    e_lapse = _loglog_slope(r, abs_dev)
    resid = np.abs(n - (1.0 - m_hat / r))
    if np.max(resid) <= MACHINE_FLOOR:
        return DecayReport(m_hat, e_lapse, None, True, "ok")
    e_resid = _loglog_slope(r, resid)
    schw = e_resid is not None and e_resid <= -2.0 + 0.1
    return DecayReport(m_hat, e_lapse, e_resid, schw, "ok")
