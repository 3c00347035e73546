"""Spherical quadrature and differentiation utilities.

Leaf integrals use Gauss-Legendre nodes in x = cos(theta) crossed with a
uniform periodic grid in phi (the trapezoid rule, which is spectrally
accurate for periodic integrands).  Gauss-Legendre nodes never touch the
poles, respecting the chart's exclusion of theta in {0, pi}.

Tangential derivatives on a leaf use the barycentric differentiation
matrix in x and FFT differentiation in phi; transverse (level-to-level)
derivatives use finite-difference stencils with Fornberg weights.  The
same barycentric code differentiates and interpolates on Chebyshev points,
where the rigidity ODE is collocated.
"""

from functools import lru_cache

import numpy as np

# Level-stencil widths: an eighth-order central rule inside, tenth-order
# one-sided/offset rules at the ends.  Narrower stencils (5/7, 7/9) leave the
# transverse identities of light masses above the default gate tolerance.
INTERIOR_WIDTH = 9
EDGE_WIDTH = 11


@lru_cache(maxsize=16)
def sphere_grid(n_theta, n_phi):
    """Quadrature nodes and combined weights for integrals dx dphi.

    Returns (theta (n_theta,), x (n_theta,), phi (n_phi,), w (n_theta, n_phi))
    such that  Int f dmu = sum(w * f * jac)  with jac = sqrt(det sigma)/sin(theta).
    """
    x, glw = np.polynomial.legendre.leggauss(n_theta)
    order = np.argsort(-x)  # theta increasing
    x = x[order]
    glw = glw[order]
    theta = np.arccos(x)
    phi = (np.arange(n_phi) + 0.5) * (2.0 * np.pi / n_phi)
    w = np.outer(glw, np.full(n_phi, 2.0 * np.pi / n_phi))
    return theta, x, phi, w


def _barycentric(x):
    """x_i - x_j (ones on the diagonal) and the barycentric weights
    1 / prod_{j != i} (x_i - x_j) of distinct nodes x."""
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    return diff, 1.0 / np.prod(diff, axis=1)


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
def diff_matrix(n_theta):
    """Barycentric differentiation matrix d/dx on the Gauss-Legendre nodes."""
    _, x, _, _ = sphere_grid(n_theta, 4)
    return barycentric_diff_matrix(x)


def phi_derivatives(f):
    """First and second phi-derivatives of a periodic (..., n_theta, n_phi)
    field.

    A length-1 phi axis means the field is constant in phi: its only
    wavenumber is 0, so both derivatives come out exact zeros of the
    field's shape.
    """
    n_phi = f.shape[-1]
    k = np.fft.rfftfreq(n_phi, d=1.0 / n_phi) * 1j
    fh = np.fft.rfft(f, axis=-1)
    d1 = np.fft.irfft(fh * k, n=n_phi, axis=-1)
    d2 = np.fft.irfft(fh * k * k, n=n_phi, axis=-1)
    return d1, d2


def sphere_laplacian(f, x, r_area):
    """Laplace-Beltrami operator of a round sphere of radius r_area.

    In x = cos(theta):  Lap f = [d/dx((1-x^2) df/dx) + f_phiphi/(1-x^2)] / r^2.
    ``f`` is (..., n_theta, n_phi), or (..., n_theta, 1) for a field constant
    in phi, whose Laplacian then has that shape too.  Leading axes stack
    leaves, each equal to the same leaf alone bit for bit (an einsum, not a
    matmul, which is not); ``r_area`` broadcasts against ``f``.
    """
    d = diff_matrix(len(x))
    fx = np.einsum("ij,...jk->...ik", d, f)
    term_theta = np.einsum("ij,...jk->...ik", d, (1.0 - x ** 2)[:, None] * fx)
    _, fpp = phi_derivatives(f)
    return (term_theta + fpp / (1.0 - x ** 2)[:, None]) / r_area ** 2


def sphere_grad_sq(f, x, r_area):
    """|grad f|^2 on a round sphere of radius r_area; ``f`` and ``r_area``
    are shaped as for ``sphere_laplacian``."""
    d = diff_matrix(len(x))
    fx = np.einsum("ij,...jk->...ik", d, f)
    fp, _ = phi_derivatives(f)
    return ((1.0 - x ** 2)[:, None] * fx ** 2
            + fp ** 2 / (1.0 - x ** 2)[:, None]) / r_area ** 2


def fornberg_weights(x0, xs, order):
    """Finite-difference weights for the m-th derivative at x0 on nodes xs.

    Classic recursion; exact for polynomials up to degree len(xs) - 1.
    """
    xs = np.asarray(xs, dtype=float)
    n = len(xs)
    c = np.zeros((n, order + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = xs[0] - x0
    for i in range(1, n):
        mn = min(i, order)
        c2 = 1.0
        c5 = c4
        c4 = xs[i] - x0
        for j in range(i):
            c3 = xs[i] - xs[j]
            c2 *= c3
            for m in range(mn, 0, -1):
                c[i, m] = c1 * (m * c[i - 1, m - 1] - c5 * c[i - 1, m]) / c2
            c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for m in range(mn, 0, -1):
                c[j, m] = (c4 * c[j, m] - m * c[j, m - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, order]


@lru_cache(maxsize=16)
def level_stencils(n_levels):
    """Per-level first-derivative stencils in the level index s (spacing 1).

    Interior levels use the eighth-order central rule on ``INTERIOR_WIDTH``
    points; the levels too near either end for it use one-sided/offset
    Fornberg stencils on ``EDGE_WIDTH`` points, whose higher order is needed
    because the one-sided error constants are several times the central
    ones.  Returns a tuple of (offsets, weights), cached: every derivative
    of one foliation shares it.
    """
    half = INTERIOR_WIDTH // 2
    central = fornberg_weights(0.0, np.arange(-half, half + 1), 1)
    out = []
    for j in range(n_levels):
        if half <= j < n_levels - half and n_levels >= INTERIOR_WIDTH:
            out.append((np.arange(-half, half + 1), central))
        else:
            width = min(EDGE_WIDTH, n_levels)
            start = min(max(0, j - width // 2), n_levels - width)
            offs = np.arange(start, start + width) - j
            out.append((offs, fornberg_weights(0.0, offs, 1)))
    return tuple(out)


def level_derivative(values, stencils):
    """Apply per-level stencils along axis 0 (the level axis)."""
    values = np.asarray(values)
    out = np.empty_like(values, dtype=float)
    for j, (offs, w) in enumerate(stencils):
        out[j] = np.tensordot(w, values[j + offs], axes=(0, 0))
    return out
