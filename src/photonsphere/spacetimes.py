"""Static spherically symmetric spacetimes on radial charts.

A spacetime is assembled from a radial profile (lapse N(r) and radial
metric factor g_rr(r)) as the block metric

    -N(r)^2 dt^2 + g_rr(r) dr^2 + r^2 (dtheta^2 + sin^2(theta) dphi^2)

in geometric units G = c = 1; the mass parameter carries length units.
Profiles can be closed-form, interpolated tables, or parsed arithmetic
expressions, and all of them evaluate transparently on floats, arrays and
jets (for derivatives).  Their slopes come from first-order jets, one
evaluation path for a float radius and an array of radii alike.
"""

import ast
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .jets import Jet, compose_scalar, lift, value_of, variables

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
    floats, numpy arrays and jets.
    """

    r_min = 0.0
    mass_hint = None

    def lapse(self, r):
        raise NotImplementedError

    def radial_factor(self, r):
        raise NotImplementedError

    def lapse_d1(self, r):
        """(N, dN/dr) at a float radius or an array of radii."""
        return self._d1(self.lapse, r)

    def metric_factors_d1(self, r):
        """(A, A', B, B') with A = N^2, B = g_rr, at a float radius or an
        array of radii.

        This is the hot path of the geodesic integrator, which calls it
        once per stage at a float radius.  Each entry of an array
        evaluation equals the float evaluation bit for bit.  A value that
        is not real comes back nan.  A float radius outside a table raises
        DomainError, and one where a closed form divides by zero raises
        ZeroDivisionError; an array entry there comes back non-finite.
        Subclasses with closed forms override it.
        """
        n, n1 = self._d1(self.lapse, r)
        b, b1 = self._d1(self.radial_factor, r)
        with np.errstate(all="ignore"):
            return n * n, 2.0 * n * n1, b, b1

    def _d1(self, fn, r):
        """(f, df/dr) of ``self.lapse`` or ``self.radial_factor`` at r."""
        return _slope(fn, r)

    def check_point(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r <= self.r_min):
            raise DomainError(
                f"r = {r} outside profile domain (r_min = {self.r_min:.12g})")


def _slope(fn, r):
    """(f, df/dr) of a profile function at r, through a first-order jet.

    Floats come back as floats and arrays as arrays.  A value that is not
    real or not finite comes back as nan or inf in its own entry, with no
    floating-point warning or error.
    """
    (x,) = variables([r], order=1)
    with np.errstate(all="ignore"):
        f = lift(fn(x), x)
    if f.val.ndim:
        return f.val, f.grad[..., 0]
    return float(f.val), float(f.grad[0])


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
        return np.sqrt(1.0 - 2.0 * self.m / r)

    def radial_factor(self, r):
        return 1.0 / (1.0 - 2.0 * self.m / r)

    def lapse_d1(self, r):
        n = (np.sqrt if np.ndim(r) else math.sqrt)(1.0 - 2.0 * self.m / r)
        return n, self.m / (r * r * n)

    def metric_factors_d1(self, r):
        m = self.m
        a = 1.0 - 2.0 * m / r
        ap = 2.0 * m / (r * r)
        return a, ap, 1.0 / a, -ap / (a * a)


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


def _check_constants(tree, env, source):
    """Evaluate every sub-expression free of r once, when it is compiled.

    One that divides by zero, overflows or is not real raises ValueError
    naming the expression, instead of failing later inside an evaluation.
    """
    for node in ast.walk(tree):
        if not isinstance(node, (ast.BinOp, ast.UnaryOp, ast.Call)) or any(
                isinstance(n, ast.Name) and n.id == "r" for n in ast.walk(node)):
            continue
        part = ast.unparse(node).replace("**", "^")
        try:
            with np.errstate(all="ignore"):
                value = eval(compile(ast.Expression(node), "<constant>", "eval"), env)
        except (ZeroDivisionError, OverflowError) as exc:
            raise ValueError(f"constant {part} in expression {source!r}: {exc}") from exc
        if isinstance(value, complex) or not math.isfinite(value):
            raise ValueError(f"constant {part} in expression {source!r} "
                             "is not real or not finite")


def compile_expression(source):
    """Compile '^'-style arithmetic in the variable r to a fast callable.

    Constants are floats.  A malformed expression, or a constant part that
    divides by zero, overflows or is not real, raises ValueError here; an
    evaluation that overflows raises ValueError.
    """
    try:
        tree = ast.parse(source.replace("^", "**"), mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"malformed expression {source!r}: {exc.msg}") from exc
    try:
        _validate_expr(tree, source)
    except OverflowError as exc:
        raise ValueError(f"constant too large in expression {source!r}") from exc
    env = {"sqrt": np.sqrt, "__builtins__": {}}
    _check_constants(tree.body, env, source)
    code = compile(tree, "<profile expression>", "eval")

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


class _CubicSpline:
    """Not-a-knot cubic spline through (x, y), x strictly increasing, >= 4 knots.

    The knot slopes solve de Boor's tridiagonal system (A Practical Guide to
    Splines, 1978, ch. IV).  Each not-a-knot end row is subtracted from its
    neighbour, which leaves a diagonally dominant system for the interior
    slopes, swept once each way: time and memory are O(n).
    """

    def __init__(self, x, y):
        h = np.diff(x)
        m = np.diff(y) / h
        # row k: h[k+1] s_k + 2 (h[k] + h[k+1]) s_{k+1} + h[k] s_{k+2}
        diag = 2.0 * (h[:-1] + h[1:])
        rhs = 3.0 * (h[1:] * m[:-1] + h[:-1] * m[1:])
        # the not-a-knot rows h1 s_0 + e0 s_1 = b0 and e1 s_{n-2} + h[-2] s_{n-1} = b1
        e0, e1 = h[0] + h[1], h[-2] + h[-1]
        b0 = ((h[0] + 2.0 * e0) * h[1] * m[0] + h[0] ** 2 * m[1]) / e0
        b1 = (h[-1] ** 2 * m[-2] + (2.0 * e1 + h[-1]) * h[-2] * m[-1]) / e1
        diag[0], rhs[0] = e0, rhs[0] - b0
        diag[-1], rhs[-1] = e1, rhs[-1] - b1
        diag, rhs, hl = diag.tolist(), rhs.tolist(), h.tolist()
        for k in range(1, len(diag)):
            f = hl[k + 1] / diag[k - 1]
            diag[k] -= f * hl[k - 1]
            rhs[k] -= f * rhs[k - 1]
        rhs[-1] /= diag[-1]
        for k in range(len(diag) - 2, -1, -1):
            rhs[k] = (rhs[k] - hl[k] * rhs[k + 1]) / diag[k]
        slope = np.array([(b0 - e0 * rhs[0]) / h[1], *rhs, (b1 - e1 * rhs[-1]) / h[-2]])
        t = (slope[:-1] + slope[1:] - 2.0 * m) / h
        self._x = x
        # local power-basis coefficients of each interval, highest power first
        self._c = (t / h, (m - slope[:-1]) / h - t, slope[:-1], y[:-1])

    def __call__(self, v):
        """Value, first and second derivative at v; nan where v is nan."""
        v = np.asarray(v, dtype=float)
        i = np.clip(np.searchsorted(self._x, v, side="right") - 1, 0, len(self._x) - 2)
        d = v - self._x[i]
        c3, c2, c1, c0 = (c[i] for c in self._c)
        return (((c3 * d + c2) * d + c1) * d + c0,
                (3.0 * c3 * d + 2.0 * c2) * d + c1,
                6.0 * c3 * d + 2.0 * c2)


class TableProfile(RadialProfile):
    """Profile from sampled (r, N, g_rr) rows with not-a-knot cubic splines.

    Rows must be strictly increasing in r; evaluation is restricted to the
    sampled range.
    """

    def __init__(self, samples, mass_hint=None):
        try:
            samples = np.asarray(samples, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"table profile samples must be rows of numbers: {exc}") from exc
        if samples.ndim != 2 or samples.shape[1] != 3 or len(samples) < 4:
            raise ValueError("table profile needs >= 4 rows of [r, N, g_rr]")
        if not np.all(np.isfinite(samples)):
            raise ValueError("table profile samples must be finite")
        r = samples[:, 0]
        if not np.all(np.diff(r) > 0):
            raise ValueError("table profile radii must be strictly increasing")
        if np.any(samples[:, 1] <= 0) or np.any(samples[:, 2] <= 0):
            raise ValueError("table profile N and g_rr must be positive")
        self._r = r
        self._n = _CubicSpline(r, samples[:, 1])
        self._b = _CubicSpline(r, samples[:, 2])
        self.r_min = float(r[0])
        self.r_max = float(r[-1])
        self.mass_hint = mass_hint
        self._samples = samples

    def _inside(self, v):
        """Radii outside the table raise DomainError."""
        if np.any((v < self._r[0]) | (v > self._r[-1])):
            raise DomainError(f"r outside table range [{self._r[0]}, {self._r[-1]}]")
        return v

    def _eval(self, spline, r):
        v = self._inside(value_of(r))
        f, f1, f2 = spline(v)
        if isinstance(r, Jet):
            return compose_scalar(r, f, f1, f2)
        return f if v.shape else float(f)

    def lapse(self, r):
        return self._eval(self._n, r)

    def radial_factor(self, r):
        return self._eval(self._b, r)

    def _d1(self, fn, r):
        """(f, f') from the spline: a float outside the table raises
        DomainError, and array entries outside it come back nan."""
        spline = self._n if fn.__name__ == "lapse" else self._b
        v = np.asarray(r, dtype=float)
        if not v.ndim:
            f, f1, _ = spline(self._inside(v))
            return float(f), float(f1)
        f, f1, _ = spline(np.where((v < self._r[0]) | (v > self._r[-1]), np.nan, v))
        return f, f1


_REQUIRED = object()


def _spec_number(spec, key, default=_REQUIRED):
    """Finite real number field of a profile spec; null counts as missing."""
    value = spec.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ValueError(f"profile field {key!r} is missing or null")
        return default
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:   # an integer beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise ValueError(f"profile field {key!r} must be a finite number, not {value!r}")


def _spec_expression(spec, key):
    if key not in spec:
        raise ValueError(f"profile field {key!r} is missing")
    value = spec[key]
    if not isinstance(value, str):
        raise ValueError(f"profile field {key!r} must be an expression string, "
                         f"not {value!r}")
    return value


def load_profile(spec):
    """Build a profile from a JSON dict, a JSON string, or a file path.

    A spec that is not an object, or a field that is missing or of the
    wrong type, raises ValueError naming the field.
    """
    if isinstance(spec, str):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError:
            with open(spec) as fh:
                spec = json.load(fh)
    if not isinstance(spec, dict):
        raise ValueError(f"profile must be a JSON object, not {type(spec).__name__}")
    kind = spec.get("kind")
    if kind == "schwarzschild":
        return SchwarzschildProfile(_spec_number(spec, "m"))
    if kind == "table":
        if "samples" not in spec:
            raise ValueError("profile field 'samples' is missing")
        return TableProfile(spec["samples"], mass_hint=_spec_number(spec, "m", None))
    if kind == "expression":
        return ExpressionProfile(_spec_expression(spec, "lapse"),
                                 _spec_expression(spec, "radial_factor"),
                                 r_min=_spec_number(spec, "r_min", 0.0),
                                 mass_hint=_spec_number(spec, "m", None))
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

    def __init__(self, dim, components):
        self.dim = dim
        self._components = components

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
        return MetricSampler(4, _block_metric4(self.profile))

    @property
    def metric3(self):
        return MetricSampler(3, _slice_metric3(self.profile))

    def lapse_field3(self):
        """The lapse as a scalar field over slice coordinates (r, theta, phi)."""
        return lambda coords: self.profile.lapse(coords[0])
