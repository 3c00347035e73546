"""Numerical tensor calculus on coordinate charts.

Index conventions
-----------------
Arrays carry explicit variance tags in their names: ``_dd`` two lower
indices, ``_dddu`` three lower and one upper, and so on.  The curvature
storage is

    riemann_dddu[k, i, j, l]  =  Rm_kij^l,  the l-component of R(e_k, e_i) e_j,

with R(X, Y) = nabla_X nabla_Y - nabla_Y nabla_X - nabla_[X,Y], so that the
Ricci tensor is the first-lower/last-upper contraction

    ricci_dd[i, j] = riemann_dddu[k, i, j, k]

(positive on round spheres).  Christoffel symbols are stored as
``gamma_udd[a, b, c] = Gamma^a_bc``.

Differentiation is forward-mode automatic (see :mod:`.jets`), exact to
roundoff; the tests cross-check it against fourth-order central
differences.
"""

from dataclasses import dataclass

import numpy as np

from . import jets
from .spacetimes import ChartPoint, DomainError


def metric_taylor(sampler, coords, order=2):
    """Metric components with first and second coordinate derivatives.

    Returns ``(g, dg, ddg)`` with shapes ``(..., d, d)``,
    ``(..., d, d, d)`` and ``(..., d, d, d, d)`` where
    ``dg[a, b, c] = d_a g_bc`` and ``ddg[a, b, c, d] = d_a d_b g_cd``;
    ``order`` 1 seeds first-order jets, the same ``g`` and ``dg`` and no ``ddg``.
    The leading shape ``...`` is the broadcast shape of the components,
    i.e. of the coordinates they actually read (see :mod:`.jets`): a
    (levels, 1) radius, an (n_theta,) theta and a scalar phi give
    ``(levels, n_theta)``.
    """
    d = sampler.dim
    xs = jets.variables(list(coords), order=order)
    comp = [[jets.lift(e, xs[0]) for e in row] for row in sampler.components(xs)]
    shape = np.broadcast_shapes(*(e.val.shape for row in comp for e in row))
    g = np.empty(shape + (d, d))
    dg = np.empty(shape + (d, d, d))
    ddg = np.empty(shape + (d, d, d, d)) if order == 2 else None
    for b in range(d):
        for c in range(d):
            e = comp[b][c]
            g[..., b, c] = e.val
            dg[..., :, b, c] = e.grad
            if ddg is not None:
                ddg[..., :, :, b, c] = e.hess
    return g, dg, ddg


def _inverse_metric(g):
    """g^-1; a singular or non-finite metric raises DomainError."""
    try:
        ginv = np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"metric is singular at the requested point ({exc})") from exc
    if not np.all(np.isfinite(ginv)):
        raise DomainError("metric is singular at the requested point")
    return ginv


def _christoffel_sum(dg):
    """d_b g_dc + d_c g_db - d_d g_bc at [..., d, b, c].

    Applied to ``ddg`` it gives the derivative d_e of the sum at
    [..., e, d, b, c].
    """
    return np.einsum("...bdc->...dbc", dg) + np.einsum("...cdb->...dbc", dg) - dg


def _contract_first(m, t):
    """sum_d m[..., a, d] t[..., d, ...] as one batched matmul over the nodes.

    The contracted index of ``t`` is its first tensor axis; the trailing
    axes are flattened onto the matmul column axis and restored.
    """
    out = m @ t.reshape(t.shape[:m.ndim - 2] + (m.shape[-1], -1))
    return out.reshape(out.shape[:-1] + t.shape[m.ndim - 1:])


def _christoffel_from(ginv, dg):
    # Gamma^a_bc = 1/2 g^ad (d_b g_dc + d_c g_db - d_d g_bc)
    # "...ad,...dbc->...abc"
    return 0.5 * _contract_first(ginv, _christoffel_sum(dg))


@dataclass(frozen=True)
class CurvatureBundle:
    """Curvature data of a metric at a chart point (or point grid)."""

    dim: int
    coords: tuple
    metric_dd: np.ndarray
    metric_uu: np.ndarray
    gamma_udd: np.ndarray
    riemann_dddu: np.ndarray
    ricci_dd: np.ndarray
    scalar: np.ndarray

    def frame(self):
        """Orthonormal frame E[A, a] with E^T g E = diag(signs)."""
        w, v = np.linalg.eigh(self.metric_dd)
        scale = 1.0 / np.sqrt(np.abs(w))
        e = v * scale[..., None, :]
        return np.swapaxes(e, -1, -2), np.sign(w)


def curvature(sampler, point):
    """Full curvature bundle (Christoffel, Riemann, Ricci, scalar) at a point."""
    coords = tuple(point)
    g, dg, ddg = metric_taylor(sampler, coords)
    ginv = _inverse_metric(g)
    gamma = _christoffel_from(ginv, dg)

    # d_e g^ad = -g^am (d_e g_mn) g^nd: "...am,...emn,...nd->...ead"
    gi = ginv[..., None, :, :]
    dginv = -(gi @ dg) @ gi
    # d_e Gamma^a_bc: "...ead,...dbc->...eabc" + "...ad,...edbc->...eabc"
    dgamma = (0.5 * _contract_first(dginv, _christoffel_sum(dg)[..., None, :, :, :])
              + 0.5 * _contract_first(gi, _christoffel_sum(ddg)))

    # Rm_kij^l = d_k Gamma^l_ij - d_i Gamma^l_kj + Gamma^l_ke Gamma^e_ij
    #            - Gamma^l_ie Gamma^e_kj
    # gg[l, k, i, j] = Gamma^l_ke Gamma^e_ij: "...lke,...eij->...lkij"
    d = sampler.dim
    gg = _contract_first(gamma.reshape(gamma.shape[:-3] + (d * d, d)), gamma)
    gg = gg.reshape(gg.shape[:-3] + (d, d, d, d))
    rm = (np.einsum("...klij->...kijl", dgamma)
          - np.einsum("...ilkj->...kijl", dgamma)
          + np.einsum("...lkij->...kijl", gg)
          - np.einsum("...likj->...kijl", gg))
    ricci = np.einsum("...kijk->...ij", rm)
    scal = np.einsum("...ij,...ij->...", ginv, ricci)
    return CurvatureBundle(sampler.dim, coords, g, ginv, gamma, rm,
                           ricci, scal)


# ---------------------------------------------------------------------------
# Scalar fields: covariant Hessian
# ---------------------------------------------------------------------------

def scalar_taylor(field, coords):
    """Value, gradient and coordinate Hessian of a scalar field."""
    xs = jets.variables(list(coords), order=2)
    f = jets.lift(field(xs), xs[0])
    return f.val, f.grad, f.hess


def hessian(field, bundle):
    """Value f and covariant Hessian (nabla^2 f)_ij = d_i d_j f - Gamma^k_ij d_k f
    of a scalar field at the points of a curvature bundle, whose Christoffel
    symbols it reads."""
    f, df, ddf = scalar_taylor(field, bundle.coords)
    return f, ddf - np.einsum("...kij,...k->...ij", bundle.gamma_udd, df)


# ---------------------------------------------------------------------------
# Static vacuum residuals, Eqs. N Ric = Hess N, R = 0, Lap N = 0 on the slice
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VacuumResidual:
    """Residuals of the static vacuum equations at a slice point.

    Components are measured in an orthonormal frame so the sup-norms are
    chart-scale free.
    """

    hessian_residual: float
    scalar_residual: float
    laplace_residual: float


def vacuum_residual(spacetime, point):
    """Residuals of N Ric - Hess N, |R| and |Lap N| on the time slice."""
    coords = point.coords3() if isinstance(point, ChartPoint) else tuple(point)
    spacetime.profile.check_point(coords[0])
    return vacuum_residual_general(spacetime.metric3, spacetime.lapse_field3(),
                                   coords)


def vacuum_residual_general(sampler, lapse, coords):
    """Same residuals for an arbitrary slice metric sampler and lapse field."""
    bundle = curvature(sampler, coords)
    n_val, hess = hessian(lapse, bundle)
    resid = n_val[..., None, None] * bundle.ricci_dd - hess
    e, _ = bundle.frame()
    resid_frame = np.einsum("...Aa,...ab,...Bb->...AB", e, resid, e)
    lap = np.einsum("...ij,...ij->...", bundle.metric_uu, hess)
    return VacuumResidual(float(np.max(np.abs(resid_frame))),
                          float(np.max(np.abs(bundle.scalar))),
                          float(np.max(np.abs(lap))))

