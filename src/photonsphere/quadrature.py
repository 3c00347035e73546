"""Spherical quadrature, differentiation and root bisection utilities.

Every leaf this package integrates is a round sphere {r = r0}, so the
pipelines sample each one at a single point (see
``hypersurfaces.sample``).  The Gauss-Legendre grid in x = cos(theta) and
the leaf Laplacian and gradient on it remain to show that this reduction
is exact: sampled on the grid, every leaf field is constant in theta to
rounding and those terms vanish.  Gauss-Legendre nodes never touch the
poles, respecting the chart's exclusion of theta in {0, pi}.

The same barycentric code differentiates and interpolates on Chebyshev
points: across the levels of the lapse foliation, which sit at Chebyshev
points of the level map, and where the rigidity ODE is collocated.

Roots (the photon-sphere radius, every leaf radius of the lapse
foliation) come from ``bisect``, which halves an array of brackets at once
until each is two adjacent floats.
"""

import math
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=16)
def sphere_grid(n):
    """Gauss-Legendre nodes and weights for integrals dx dphi of fields
    constant in phi.

    Returns (theta, x, w), each (n,) with theta increasing, and
    w = 2 pi times the Gauss-Legendre weights, such that
    Int f dmu = sum(f * jac * w),  jac = sqrt(det sigma)/sin(theta).
    """
    x, glw = np.polynomial.legendre.leggauss(n)
    order = np.argsort(-x)  # theta increasing
    x = x[order]
    return np.arccos(x), x, 2.0 * np.pi * glw[order]


def _barycentric(x):
    """x_i - x_j (ones on the diagonal) and the barycentric weights
    1 / prod_{j != i} (x_i - x_j) of distinct nodes x, all times one power
    of two.

    The differences enter the products scaled by the power of two nearest
    4 / (max x - min x), which keeps the weights of many nodes on a short
    interval inside the float range (Berrut & Trefethen 2004, sec. 7); the
    scale is exact, so no ratio of two weights changes by a bit.
    """
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    span = float(np.max(x) - np.min(x)) if len(x) > 1 else 4.0
    scale = 2.0 ** round(math.log2(4.0 / span))
    return diff, 1.0 / np.prod(diff * scale, axis=1)


def barycentric_diff_matrix(x):
    """Differentiation matrix d/dx of the interpolant on distinct nodes x.

    Off-diagonal entries are (w_j / w_i) / (x_i - x_j) (Berrut & Trefethen
    2004, eq. 9.4); each diagonal entry is minus its row sum, so constants
    differentiate to zero.
    """
    diff, w = _barycentric(x)
    d = (w[None, :] / w[:, None]) / diff
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -np.sum(d, axis=1))
    return d


def barycentric_interpolate(x, f, xi):
    """Values at xi of the polynomial interpolating f on distinct nodes x.

    The second barycentric form (Berrut & Trefethen 2004, eq. 4.2); a point
    of xi that equals a node takes that node's value.
    """
    _, w = _barycentric(x)
    diff = xi[:, None] - x[None, :]
    hit = diff == 0.0
    diff[hit] = 1.0
    c = w / diff
    out = (c @ f) / np.sum(c, axis=1)
    row, col = np.nonzero(hit)
    out[row] = f[col]
    return out


def chebyshev_nodes(n, a, b):
    """n Chebyshev points of the second kind on [a, b], from a to b."""
    x = np.cos(np.pi * np.arange(n) / (n - 1))
    return a + 0.5 * (b - a) * (1.0 - x)


@lru_cache(maxsize=16)
def diff_matrix(n):
    """Barycentric differentiation matrix d/dx on the Gauss-Legendre nodes."""
    _, x, _ = sphere_grid(n)
    return barycentric_diff_matrix(x)


def sphere_laplacian(f, x, r_area):
    """Laplace-Beltrami operator of a round sphere of radius r_area on a
    field constant in phi.

    In x = cos(theta):  Lap f = d/dx((1-x^2) df/dx) / r^2.  ``f`` is
    (..., n); leading axes stack leaves, each equal to the same leaf
    alone bit for bit (an einsum, not a matmul, which is not), and
    ``r_area`` broadcasts against ``f``.
    """
    d = diff_matrix(len(x))
    fx = np.einsum("ij,...j->...i", d, f)
    return np.einsum("ij,...j->...i", d, (1.0 - x ** 2) * fx) / r_area ** 2


def sphere_grad_sq(f, x, r_area):
    """|grad f|^2 on a round sphere of radius r_area; ``f`` and ``r_area``
    are shaped as for ``sphere_laplacian``."""
    d = diff_matrix(len(x))
    fx = np.einsum("ij,...j->...i", d, f)
    return (1.0 - x ** 2) * fx ** 2 / r_area ** 2


def level_derivative(values, d):
    """Apply the differentiation matrix ``d`` of the level nodes along axis
    0 (the level axis)."""
    return np.einsum("ij,j...->i...", d, values)


def bisect(f, a, b):
    """Roots of ``f`` in the brackets [a, b], bisected all at once.

    ``a <= b`` are 1-d arrays of bracket ends; ``f`` maps an array of
    points, one per bracket, to the values there.  Each bracket is halved
    until its midpoint rounds to one of its ends, so the returned point (that
    midpoint) has a sign change of ``f`` between it and an adjacent float; a
    bracket where ``f`` is exactly zero keeps that point.  No tolerance and
    no iteration cap: every halving drops at least one float from the
    bracket.  Raises ValueError naming the first bracket whose ends have the
    same sign (or a value that is not a number).
    """
    a, b = (np.array(v, dtype=float, ndmin=1)
            for v in np.broadcast_arrays(a, b))
    fa, fb = f(a), f(b)
    changes = ((fa <= 0) & (fb >= 0)) | ((fa >= 0) & (fb <= 0))
    if not np.all(changes):
        j = int(np.argmin(changes))
        raise ValueError(f"bracket {j}, [{float(a[j])!r}, {float(b[j])!r}], "
                         f"has no sign change: f = {float(fa[j])!r}, "
                         f"{float(fb[j])!r}")
    b[fa == 0] = a[fa == 0]
    a[fb == 0] = b[fb == 0]
    negative_at_a = fa < 0
    while True:
        mid = 0.5 * a + 0.5 * b
        live = (a < mid) & (mid < b)
        if not np.any(live):
            return mid
        fm = f(mid)
        to_a = live & ((fm < 0) == negative_at_a)
        to_b = live & ~to_a
        a[to_a] = mid[to_a]
        b[to_b] = mid[to_b]
        zero = live & (fm == 0)
        a[zero] = b[zero] = mid[zero]
