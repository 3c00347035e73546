"""Independent oracles: symbolic values and finite-difference derivatives.

The symbolic routines go through sympy's exact arithmetic with their own
index bookkeeping, deliberately separate from the package's numerics.  The
frozen constants below were produced by them; tests assert against the
literals and a few cheap tests re-derive them live.  The finite-difference
Taylor routines stand in for ``calculus.metric_taylor`` and
``calculus.scalar_taylor`` to cross-check the package's automatic
differentiation.  ``lower_riemann`` lowers a curvature bundle's Riemann
tensor, and ``tangent_null_seeds`` draws chart states tangent to a
cylinder, which the package's single tangent orbit stands for.
"""

import math

import numpy as np
import sympy as sp

from photonsphere.geodesics import GeodesicState
from photonsphere.spacetimes import ChartPoint

t, r, th, ph, m, q = sp.symbols("t r theta phi m q", positive=True)


def christoffel_sym(g, coords):
    n = len(coords)
    ginv = g.inv()
    return [[[sp.simplify(
        sum(ginv[a, d] * (sp.diff(g[d, b], coords[c])
                          + sp.diff(g[d, c], coords[b])
                          - sp.diff(g[b, c], coords[d])) for d in range(n)) / 2)
        for c in range(n)] for b in range(n)] for a in range(n)]


def riemann_sym(gamma, coords):
    """Rm[k][i][j][l]: the l-component of R(d_k, d_i) d_j."""
    n = len(coords)
    return [[[[sp.simplify(
        sp.diff(gamma[l][i][j], coords[k]) - sp.diff(gamma[l][k][j], coords[i])
        + sum(gamma[l][k][e] * gamma[e][i][j]
              - gamma[l][i][e] * gamma[e][k][j] for e in range(n)))
        for l in range(n)] for j in range(n)] for i in range(n)]
        for k in range(n)]


def ricci_sym(riemann, n):
    return sp.Matrix(n, n, lambda i, j: sp.simplify(
        sum(riemann[k][i][j][k] for k in range(n))))


def schwarzschild_4metric():
    n2 = 1 - 2 * m / r
    return sp.diag(-n2, 1 / n2, r ** 2, r ** 2 * sp.sin(th) ** 2), (t, r, th, ph)


def rn_slice_3metric():
    a = 1 - 2 / r + q / r ** 2
    return sp.diag(1 / a, r ** 2, r ** 2 * sp.sin(th) ** 2), (r, th, ph)


# ---------------------------------------------------------------------------
# Frozen values (derived with the routines above; see module docstring)
# ---------------------------------------------------------------------------

# Gamma^r_tt of Schwarzschild = m (r - 2m) / r^3; at m=1, r=3:
GAMMA_R_TT_M1_R3 = 1.0 / 27.0

# Minkowski spherical chart: Gamma^r_thth = -r, Gamma^th_rth = 1/r.

# Covariant Riemann component Rm_trt^l g_lr of Schwarzschild = 2m/r^3;
# the orthonormal-frame value coincides (|g_tt g_rr| = 1).  At m=1, r=4:
RIEMANN_TRTR_M1_R4 = 1.0 / 32.0

# Scalar curvature of the RN-like 3-slice (A = 1 - 2/r + q/r^2, g_rr = 1/A)
# is 2q/r^4; at q = 0.1, r = 3 this is 1/405:
RN_SLICE_SCALAR_Q01_R3 = 1.0 / 405.0

# Schwarzschild slice closed forms: nu(N) = m/r^2, rho = r^2/m, H = 2N/r.
# Photon-sphere boundary values at m = 1 (r0 = 3, N0 = 1/sqrt(3)):
N0_M1 = 0.5773502691896258          # 1/sqrt(3)
H0_M1 = 0.3849001794597505          # 2/(3 sqrt(3))
FRAKH_M1 = 0.5773502691896258       # 1/sqrt(3) = 3 H0 / 2
SCALAR_P_M1 = 2.0 / 9.0             # (2/3) frakH^2
NU_N0_M1 = 1.0 / 9.0                # m/r0^2

# Observed-energy ratio for a radial ray from r=10 to r=5 (m = 1):
# E(5)/E(10) = N(10)/N(5) = sqrt(0.8/0.6):
ENERGY_RATIO_10_TO_5 = 1.1547005383792515

# Impact-parameter extremum of the RN-like profile: r N' = N reduces to
# r^2 - 3r + 0.2 = 0, giving
RN_PHOTON_SPHERE_Q01 = 2.9317821063276353  # (3 + sqrt(8.2)) / 2


# ---------------------------------------------------------------------------
# Finite-difference Taylor data (fourth-order five-point central stencils)
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps
FD_STEP_FIRST = EPS ** (1.0 / 3.0)   # relative step for first derivatives
FD_STEP_SECOND = EPS ** (1.0 / 5.0)  # wider step: second derivatives lose h^2

# {offset: weight}, over 12 h^order.
_STENCILS = {1: {2: -1.0, 1: 8.0, -1: -8.0, -2: 1.0},
             2: {2: -1.0, 1: 16.0, 0: -30.0, -1: 16.0, -2: -1.0}}


def five_point(sample, x, axis, step, order=1):
    """Fourth-order central difference d^order/dx_axis^order of ``sample(x)``.

    ``sample`` maps a list of coordinate arrays to an array whose leading
    axes broadcast with ``step``; trailing axes (a tensor's indices) are
    carried through.
    """
    acc = 0.0
    for offset, weight in _STENCILS[order].items():
        pt = list(x)
        pt[axis] = pt[axis] + offset * step
        acc = acc + weight * np.asarray(sample(pt), dtype=float)
    denom = 12.0 * np.asarray(step, dtype=float) ** order
    return acc / np.reshape(denom, np.shape(denom) + (1,) * (acc.ndim - denom.ndim))


def _fd_taylor(sample, coords, tail_ndim):
    """Value, gradient and Hessian of ``sample`` by five-point stencils.

    Derivative indices are inserted before the ``tail_ndim`` trailing
    (tensor) axes of the sample.
    """
    x = [np.asarray(c, dtype=float) for c in coords]
    d = len(x)
    h1 = [FD_STEP_FIRST * np.maximum(1.0, np.abs(xi)) for xi in x]
    h2 = [FD_STEP_SECOND * np.maximum(1.0, np.abs(xi)) for xi in x]
    axis = -1 - tail_ndim
    df = np.stack([five_point(sample, x, a, h1[a]) for a in range(d)], axis=axis)
    rows = [[None] * d for _ in range(d)]
    for a in range(d):
        rows[a][a] = five_point(sample, x, a, h2[a], order=2)
        for b in range(a + 1, d):
            rows[a][b] = rows[b][a] = five_point(
                lambda y, b=b: five_point(sample, y, b, h2[b]), x, a, h2[a])
    ddf = np.stack([np.stack(row, axis=axis) for row in rows], axis=axis - 1)
    return np.asarray(sample(x), dtype=float), df, ddf


def _sample_matrix(sampler, coords):
    d = sampler.dim
    comp = sampler.components(list(coords))
    vals = [[np.asarray(comp[b][c], dtype=float) for c in range(d)] for b in range(d)]
    shape = np.broadcast_shapes(*(np.shape(v) for row in vals for v in row))
    return np.stack([np.stack([np.broadcast_to(v, shape)
                               for v in row], axis=-1) for row in vals], axis=-2)


def fd_metric_taylor(sampler, coords, order=2):
    """``calculus.metric_taylor`` by finite differences: (g, dg, ddg) at
    either ``order``."""
    return _fd_taylor(lambda pt: _sample_matrix(sampler, pt), coords, 2)


def fd_scalar_taylor(field, coords):
    """``calculus.scalar_taylor`` by finite differences: (f, df, ddf)."""
    return _fd_taylor(field, list(coords), 0)


# ---------------------------------------------------------------------------
# Helpers built on the package's results
# ---------------------------------------------------------------------------

def lower_riemann(bundle):
    """Rm_kijm = Rm_kij^l g_lm of a curvature bundle."""
    return np.einsum("...kijl,...lm->...kijm", bundle.riemann_dddu,
                     bundle.metric_dd)


def tangent_null_seeds(spacetime, r0, count, rng_seed):
    """Null chart states tangent to the cylinder {r = r0}.

    Base points are drawn from a seeded RNG, theta in (0.3 pi, 0.7 pi) and
    phi in [0, 2 pi); direction angles sit on a uniform grid offset by half
    a step, alpha = 2 pi (k + 1/2) / count, so an odd count has a polar
    orbit at alpha = pi.  Velocities are scaled to tdot = 1.
    """
    rng = np.random.default_rng(rng_seed)
    n0, _ = spacetime.profile.lapse_d1(r0)
    seeds = []
    for k in range(count):
        theta = math.pi * rng.uniform(0.3, 0.7)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        alpha = 2.0 * math.pi * (k + 0.5) / count
        vth = n0 * math.cos(alpha) / r0
        vph = n0 * math.sin(alpha) / (r0 * math.sin(theta))
        seeds.append(GeodesicState(ChartPoint(0.0, r0, theta, phi),
                                   (1.0, 0.0, vth, vph)))
    return seeds

