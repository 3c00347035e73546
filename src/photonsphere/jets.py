"""Forward-mode automatic differentiation on numpy arrays.

A :class:`Jet` carries the truncated Taylor data of a quantity with respect
to a fixed set of seed variables: the value, the gradient, and (optionally)
the Hessian.  Propagating this triple through arithmetic is equivalent to
nesting dual numbers twice, but stays fully vectorized: ``val`` may be any
numpy array, ``grad`` appends one axis of length ``nvars``, ``hess`` two.

Metric components, lapse profiles and normal fields are written as ordinary
numpy expressions; evaluated on jets they yield exact first and second
derivatives in one pass.
"""

import math

import numpy as np

_LINEAR_UFUNCS = (np.add, np.subtract, np.negative, np.positive)


def _asarray(x):
    return np.asarray(x, dtype=float)


class Jet:
    """Second-order (or first-order, if ``hess is None``) Taylor value.

    val  : array, shape S
    grad : array, shape S + (nvars,)
    hess : array, shape S + (nvars, nvars), or None for first-order jets
    """

    __slots__ = ("val", "grad", "hess")
    __array_priority__ = 100.0

    def __init__(self, val, grad, hess=None):
        self.val = _asarray(val)
        self.grad = _asarray(grad)
        self.hess = None if hess is None else _asarray(hess)

    @property
    def nvars(self):
        return self.grad.shape[-1]

    # -- construction ------------------------------------------------------

    @staticmethod
    def constant(value, nvars, order=2):
        value = _asarray(value)
        grad = np.zeros(value.shape + (nvars,))
        hess = None if order < 2 else np.zeros(value.shape + (nvars, nvars))
        return Jet(value, grad, hess)

    def zero_like(self, value=0.0):
        """Constant jet with this jet's shape and variable basis."""
        return Jet(np.full_like(self.val, value), np.zeros_like(self.grad),
                   None if self.hess is None else np.zeros_like(self.hess))

    # -- helpers -----------------------------------------------------------

    def _lift(self, other):
        if isinstance(other, Jet):
            return other
        return Jet.constant(np.broadcast_to(_asarray(other), self.val.shape),
                            self.nvars, order=1 if self.hess is None else 2)

    def _chain(self, f0, f1, f2):
        """Apply a scalar function via its derivatives at ``self.val``."""
        grad = f1[..., None] * self.grad
        hess = None
        if self.hess is not None:
            hess = (f1[..., None, None] * self.hess
                    + f2[..., None, None] * self.grad[..., :, None]
                    * self.grad[..., None, :])
        return Jet(f0, grad, hess)

    # -- arithmetic --------------------------------------------------------

    def __neg__(self):
        return Jet(-self.val, -self.grad,
                   None if self.hess is None else -self.hess)

    def __add__(self, other):
        other = self._lift(other)
        hess = None
        if self.hess is not None and other.hess is not None:
            hess = self.hess + other.hess
        return Jet(self.val + other.val, self.grad + other.grad, hess)

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(-self._lift(other))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = self._lift(other)
        val = self.val * other.val
        grad = (self.grad * other.val[..., None]
                + other.grad * self.val[..., None])
        hess = None
        if self.hess is not None and other.hess is not None:
            cross = self.grad[..., :, None] * other.grad[..., None, :]
            hess = (self.hess * other.val[..., None, None]
                    + other.hess * self.val[..., None, None]
                    + cross + np.swapaxes(cross, -1, -2))
        return Jet(val, grad, hess)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        val = self.val / other.val
        grad = (self.grad - val[..., None] * other.grad) / other.val[..., None]
        hess = None
        if self.hess is not None and other.hess is not None:
            cross = grad[..., :, None] * other.grad[..., None, :]
            hess = (self.hess - val[..., None, None] * other.hess
                    - cross - np.swapaxes(cross, -1, -2)) / other.val[..., None, None]
        return Jet(val, grad, hess)

    def __rtruediv__(self, other):
        return self._lift(other).__truediv__(self)

    def __pow__(self, p):
        if isinstance(p, Jet):
            return (p * self.log()).exp()
        p = float(p)
        if p == 0.0:
            return self.zero_like(1.0)
        if p == 1.0:
            return self
        if p == 2.0:
            return self * self
        v = self.val
        return self._chain(v ** p, p * v ** (p - 1), p * (p - 1) * v ** (p - 2))

    def __rpow__(self, base):
        return (self * np.log(base)).exp()

    # -- elementary functions ----------------------------------------------

    def sqrt(self):
        s = np.sqrt(self.val)
        return self._chain(s, 0.5 / s, -0.25 / (s * self.val))

    def exp(self):
        e = np.exp(self.val)
        return self._chain(e, e, e)

    def log(self):
        return self._chain(np.log(self.val), 1.0 / self.val,
                           -1.0 / self.val ** 2)

    def sin(self):
        s, c = np.sin(self.val), np.cos(self.val)
        return self._chain(s, c, -s)

    def cos(self):
        s, c = np.sin(self.val), np.cos(self.val)
        return self._chain(c, -s, -c)

    def tan(self):
        t = np.tan(self.val)
        return self._chain(t, 1.0 + t * t, 2.0 * t * (1.0 + t * t))

    # numpy ufunc protocol: lets samplers call np.sqrt etc. on jets
    _UNARY = None  # populated below

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__" or kwargs:
            return NotImplemented
        if ufunc in _LINEAR_UFUNCS or ufunc in (np.multiply, np.divide,
                                                np.true_divide, np.power):
            binops = {np.add: Jet.__add__, np.subtract: Jet.__rsub__,
                      np.multiply: Jet.__mul__, np.divide: Jet.__rtruediv__,
                      np.true_divide: Jet.__rtruediv__, np.power: Jet.__rpow__}
            if ufunc is np.negative:
                return -inputs[0]
            if ufunc is np.positive:
                return inputs[0]
            if isinstance(inputs[0], Jet):
                a, b = inputs[0], inputs[1] if len(inputs) > 1 else None
                return {np.add: a.__add__, np.subtract: a.__sub__,
                        np.multiply: a.__mul__, np.divide: a.__truediv__,
                        np.true_divide: a.__truediv__, np.power: a.__pow__}[ufunc](b)
            return binops[ufunc](inputs[1], inputs[0])
        handler = Jet._UNARY.get(ufunc)
        if handler is None:
            return NotImplemented
        return handler(inputs[0])

    def __repr__(self):
        return f"Jet(val={self.val!r}, nvars={self.nvars})"


Jet._UNARY = {np.sqrt: Jet.sqrt, np.exp: Jet.exp, np.log: Jet.log,
              np.sin: Jet.sin, np.cos: Jet.cos, np.tan: Jet.tan}


def variables(coords, order=2):
    """Seed a list of coordinates as jet variables of a common basis.

    Parameters
    ----------
    coords : sequence of floats or broadcastable arrays
    order : 1 or 2, derivative order carried

    Returns
    -------
    list of Jet, one per coordinate, sharing shape and nvars = len(coords).
    """
    n = len(coords)
    vals = np.broadcast_arrays(*[_asarray(c) for c in coords])
    shape = vals[0].shape
    out = []
    for i, v in enumerate(vals):
        grad = np.zeros(shape + (n,))
        grad[..., i] = 1.0
        hess = None if order < 2 else np.zeros(shape + (n, n))
        out.append(Jet(v.copy(), grad, hess))
    return out


def value_of(x):
    return x.val if isinstance(x, Jet) else _asarray(x)


def compose_scalar(x, f0, f1, f2=None):
    """Lift an externally differentiated scalar function onto a jet.

    ``f0, f1, f2`` are the function and its first two derivatives evaluated
    at ``value_of(x)``; used for table profiles backed by splines.
    """
    if not isinstance(x, Jet):
        return f0
    if x.hess is not None and f2 is None:
        raise ValueError("second derivative required for order-2 jets")
    return x._chain(_asarray(f0), _asarray(f1),
                    None if f2 is None else _asarray(f2))


def _libm_pow(x, p):
    """``x ** p`` through the libm ``pow`` of Python floats, elementwise.

    numpy's vectorized power differs from libm's in the last bit on some
    inputs, and a batch of geodesics must step exactly as single ones do.
    On arrays, a result that is not real comes back as nan and one that
    overflows (or divides by zero) as inf, so that a failure stays local to
    its entry.
    """
    if np.ndim(x) == 0:
        return x ** p
    out = []
    for v in np.ravel(x).tolist():
        try:
            w = v ** p
        except (OverflowError, ZeroDivisionError):
            w = math.inf
        out.append(w if isinstance(w, float) else math.nan)
    return np.reshape(out, np.shape(x))


class Dual1:
    """First-order dual number for hot loops (geodesic right-hand sides).

    ``val`` and ``dot`` are floats, or arrays holding one entry per
    trajectory of a batch; every entry is computed as the float would be.
    """

    __slots__ = ("val", "dot")

    def __init__(self, val, dot=0.0):
        self.val = val
        self.dot = dot

    def __add__(self, o):
        if isinstance(o, Dual1):
            return Dual1(self.val + o.val, self.dot + o.dot)
        return Dual1(self.val + o, self.dot)

    __radd__ = __add__

    def __sub__(self, o):
        if isinstance(o, Dual1):
            return Dual1(self.val - o.val, self.dot - o.dot)
        return Dual1(self.val - o, self.dot)

    def __rsub__(self, o):
        return Dual1(o - self.val, -self.dot)

    def __neg__(self):
        return Dual1(-self.val, -self.dot)

    def __mul__(self, o):
        if isinstance(o, Dual1):
            return Dual1(self.val * o.val, self.dot * o.val + self.val * o.dot)
        return Dual1(self.val * o, self.dot * o)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, Dual1):
            v = self.val / o.val
            return Dual1(v, (self.dot - v * o.dot) / o.val)
        return Dual1(self.val / o, self.dot / o)

    def __rtruediv__(self, o):
        v = o / self.val
        return Dual1(v, -v * self.dot / self.val)

    def __pow__(self, p):
        v = _libm_pow(self.val, p)
        return Dual1(v, p * _libm_pow(self.val, p - 1) * self.dot)

    def sqrt(self):
        s = _libm_pow(self.val, 0.5)
        return Dual1(s, 0.5 * self.dot / s)
