"""Forward-mode automatic differentiation on numpy arrays.

A :class:`Jet` carries the truncated Taylor data of a quantity with respect
to a fixed set of seed variables: the value, the gradient, and (optionally)
the Hessian.  Propagating this triple through arithmetic is equivalent to
nesting dual numbers twice, but stays fully vectorized: ``val`` may be any
numpy array, ``grad`` appends one axis of length ``nvars``, ``hess`` two.

It is the package's one differentiable number type.  Metric components,
lapse profiles and normal fields are written as ordinary numpy
expressions; evaluated on jets they yield exact first and (at order 2)
second derivatives in one pass.  Values stay numpy arrays, 0-d for a
float input, so an entry of a batch evaluation equals the float
evaluation of that entry bit for bit (numpy *scalar* arithmetic would
not: ``np.float64 ** 1.5`` may differ from the array loop in the last bit).

Jets broadcast lazily.  A seed keeps the shape of its coordinate, and
arithmetic broadcasts as numpy does, so a result has the broadcast shape
of the seeds it depends on: for a (levels, 1) radius against an (n_theta,)
theta axis, a quantity that reads only r is computed once per level.
Every entry equals the one a dense evaluation gives; a caller that needs
the full node grid broadcasts the result itself.
"""

import numpy as np


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

    def zero_like(self, value=0.0):
        """Constant jet with this jet's shape and variable basis."""
        return Jet(np.full_like(self.val, value), np.zeros_like(self.grad),
                   None if self.hess is None else np.zeros_like(self.hess))

    # -- helpers -----------------------------------------------------------

    def _lift(self, other):
        """``other`` as a jet over this jet's variables, of its own shape."""
        if isinstance(other, Jet):
            return other
        value = _asarray(other)
        grad = np.zeros(value.shape + (self.nvars,))
        hess = None if self.hess is None else np.zeros(grad.shape + (self.nvars,))
        return Jet(value, grad, hess)

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

    def __pos__(self):
        return self

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

    # numpy ufunc protocol: lets samplers call np.sqrt etc. on jets, and
    # numpy arrays and scalars combine with jets on either side
    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__" or kwargs:
            return NotImplemented
        if isinstance(inputs[0], Jet):
            handler = _UFUNC_METHODS.get(ufunc)
            return NotImplemented if handler is None else handler(*inputs)
        handler = _REFLECTED_UFUNC_METHODS.get(ufunc)
        return NotImplemented if handler is None else handler(inputs[1], inputs[0])

    def __repr__(self):
        return f"Jet(val={self.val!r}, nvars={self.nvars})"


# ufunc -> the Jet method for a jet first operand (unary or binary), and
# ufunc -> the reflected method for a jet second operand
_UFUNC_METHODS = {np.add: Jet.__add__, np.subtract: Jet.__sub__,
                  np.multiply: Jet.__mul__, np.divide: Jet.__truediv__,
                  np.power: Jet.__pow__, np.sqrt: Jet.sqrt, np.exp: Jet.exp,
                  np.log: Jet.log, np.sin: Jet.sin, np.cos: Jet.cos}
_REFLECTED_UFUNC_METHODS = {np.add: Jet.__radd__, np.subtract: Jet.__rsub__,
                            np.multiply: Jet.__rmul__,
                            np.divide: Jet.__rtruediv__, np.power: Jet.__rpow__}


def variables(coords, order=2):
    """Seed a list of coordinates as jet variables of a common basis.

    Parameters
    ----------
    coords : sequence of floats or mutually broadcastable arrays
    order : 1 or 2, derivative order carried

    Returns
    -------
    list of Jet, one per coordinate, with nvars = len(coords).  Each seed
    keeps its coordinate's own shape (no broadcasting against the others),
    so coordinate axes that broadcast against each other, such as a
    (levels, 1) radius and an (n_theta,) theta, stay apart through every
    expression that does not combine them.
    """
    n = len(coords)
    out = []
    for i, c in enumerate(coords):
        v = np.array(c, dtype=float)
        grad = np.zeros(v.shape + (n,))
        grad[..., i] = 1.0
        hess = None if order < 2 else np.zeros(v.shape + (n, n))
        out.append(Jet(v, grad, hess))
    return out


def lift(x, like):
    """``x`` as a jet over the variables of ``like``.

    A jet passes through; a constant (a float or an array broadcastable
    with ``like``) becomes a jet of their broadcast shape with zero
    derivatives.
    """
    if isinstance(x, Jet):
        return x
    return like.zero_like(0.0) + x


def value_of(x):
    return x.val if isinstance(x, Jet) else _asarray(x)


def compose_scalar(x, f0, f1, f2):
    """Lift an externally differentiated scalar function onto the jet ``x``.

    ``f0, f1, f2`` are the function and its first two derivatives evaluated
    at ``x.val``; used for table profiles backed by splines.
    """
    return x._chain(_asarray(f0), _asarray(f1), _asarray(f2))
