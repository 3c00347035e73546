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
``dense_dop853_step`` is the DOP853 step written over the dense tableau,
every weight visited, which the package's sparse step must match bit for
bit.
"""

import math

import numpy as np
import sympy as sp

from photonsphere import geodesics as geo
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


def tangent_null_seeds(profile, r0, count, rng_seed):
    """Null chart states tangent to the cylinder {r = r0}.

    Base points are drawn from a seeded RNG, theta in (0.3 pi, 0.7 pi) and
    phi in [0, 2 pi); direction angles sit on a uniform grid offset by half
    a step, alpha = 2 pi (k + 1/2) / count, so an odd count has a polar
    orbit at alpha = pi.  Velocities are scaled to tdot = 1.
    """
    rng = np.random.default_rng(rng_seed)
    n0, _ = profile.lapse_d1(r0)
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



# ---------------------------------------------------------------------------
# The DOP853 step over the dense tableau
# ---------------------------------------------------------------------------

def dense_combine(weights, stages):
    """The 6 components of sum_j weights[j] stages[j], each added left to
    right from 0.0.  A zero weight is skipped: a sum that starts at +0.0
    never reads -0.0, so adding 0 times a finite stage leaves it as it is."""
    s0 = s1 = s2 = s3 = s4 = s5 = 0.0
    for w, (k0, k1, k2, k3, k4, k5) in zip(weights, stages):
        if w:
            s0 += w * k0
            s1 += w * k1
            s2 += w * k2
            s3 += w * k3
            s4 += w * k4
            s5 += w * k5
    return s0, s1, s2, s3, s4, s5


def dense_dop853_step(profile, y, h, f, atol, rtol):
    """``geodesics._dop853_step`` with each sum taken by ``dense_combine``
    over a full row of the tableau and each stage's metric factors taken
    through ``geodesics._factors``: (increment, error norm, bad stage)."""
    stages = []
    for i, row in enumerate(geo._A):
        if i == 0:
            stage = f
        else:
            yi = [yc + h * s for yc, s in zip(y, dense_combine(row, stages))]
            stage = geo._rhs(profile, yi, geo._factors(profile, yi[1]))
        if not all(map(math.isfinite, stage)):
            return [0.0] * 6, 0.0, True
        stages.append(stage)
    incr = []
    e5_sq = e3_sq = 0.0
    for yc, b, e5, e3 in zip(y, dense_combine(geo._B, stages),
                             dense_combine(geo._E5, stages),
                             dense_combine(geo._E3, stages)):
        ic = h * b
        scale = atol + rtol * max(abs(yc + ic), abs(yc))
        e5, e3 = h * e5 / scale, h * e3 / scale
        e5_sq += e5 * e5
        e3_sq += e3 * e3
        incr.append(ic)
    denom = math.sqrt(6.0 * (e5_sq + 0.01 * e3_sq))
    return incr, (0.0 if denom == 0.0 else e5_sq / denom), False
