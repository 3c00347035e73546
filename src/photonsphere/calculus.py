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

Differentiation is forward-mode automatic by default (exact to roundoff);
a fourth-order central finite-difference scheme is available as an
independent cross-check.
"""

from dataclasses import dataclass

import numpy as np

from . import jets
from .spacetimes import ChartPoint, DomainError

EPS = np.finfo(float).eps
FD_STEP_FIRST = EPS ** (1.0 / 3.0)   # relative step for first derivatives
FD_STEP_SECOND = EPS ** (1.0 / 5.0)  # wider step: second derivatives lose h^2
TOL_DIFF = 1e-6                      # absolute, on unit-mass-scaled quantities


def _coords_of(point):
    if isinstance(point, ChartPoint):
        return point.coords4()
    return tuple(point)


def metric_taylor(sampler, coords, scheme="autodiff"):
    """Metric components with first and second coordinate derivatives.

    Returns ``(g, dg, ddg)`` with shapes ``(..., d, d)``,
    ``(..., d, d, d)`` and ``(..., d, d, d, d)`` where
    ``dg[a, b, c] = d_a g_bc`` and ``ddg[a, b, c, d] = d_a d_b g_cd``.
    The leading shape ``...`` is the broadcast shape of the components,
    i.e. of the coordinates they actually read (see :mod:`.jets`): sparse
    (theta, phi) axes give ``(n_theta, 1)`` for a metric that reads no phi.
    """
    if scheme != "autodiff":
        return _fd_taylor(lambda pt: _sample_matrix(sampler, pt), coords, 2, scheme)
    d = sampler.dim
    xs = jets.variables(list(coords), order=2)
    comp = [[jets.lift(e, xs[0]) for e in row] for row in sampler.components(xs)]
    shape = np.broadcast_shapes(*(e.val.shape for row in comp for e in row))
    g = np.empty(shape + (d, d))
    dg = np.empty(shape + (d, d, d))
    ddg = np.empty(shape + (d, d, d, d))
    for b in range(d):
        for c in range(d):
            e = comp[b][c]
            g[..., b, c] = e.val
            dg[..., :, b, c] = e.grad
            ddg[..., :, :, b, c] = e.hess
    return g, dg, ddg


def _sample_matrix(sampler, coords):
    d = sampler.dim
    comp = sampler.components(list(coords))
    vals = [[jets.value_of(comp[b][c]) for c in range(d)] for b in range(d)]
    shape = np.broadcast_shapes(*(np.shape(v) for row in vals for v in row))
    return np.stack([np.stack([np.broadcast_to(v, shape)
                               for v in row], axis=-1) for row in vals], axis=-2)


# Fourth-order five-point central stencils: {offset: weight}, over 12 h^order.
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


def _fd_taylor(sample, coords, tail_ndim, scheme):
    """Value, gradient and Hessian of ``sample`` by five-point stencils.

    Derivative indices are inserted before the ``tail_ndim`` trailing
    (tensor) axes of the sample.
    """
    if scheme != "finite-difference":
        raise ValueError(f"unknown scheme {scheme!r}")
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


def christoffel(sampler, point, scheme="autodiff"):
    """Christoffel symbols Gamma^a_bc of the Levi-Civita connection."""
    g, dg, _ = metric_taylor(sampler, _coords_of(point), scheme)
    return _christoffel_from(_inverse_metric(g), dg)


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
    riemann_dddd: np.ndarray
    ricci_dd: np.ndarray
    scalar: np.ndarray
    coord_names: tuple = None

    def frame(self):
        """Orthonormal frame E[A, a] with E^T g E = diag(signs)."""
        w, v = np.linalg.eigh(self.metric_dd)
        scale = 1.0 / np.sqrt(np.abs(w))
        e = v * scale[..., None, :]
        return np.swapaxes(e, -1, -2), np.sign(w)

    def symmetry_residuals(self):
        """Sup-norms of the antisymmetry and first-Bianchi defects of Rm."""
        rm = self.riemann_dddd
        antisym = np.max(np.abs(rm + np.einsum("...kijm->...ikjm", rm)))
        bianchi = np.max(np.abs(rm + np.einsum("...ijkm->...kijm", rm)
                                + np.einsum("...jkim->...kijm", rm)))
        return float(antisym), float(bianchi)

    def to_debug_dict(self):
        """Every independent component, indices fully written out."""
        names = self.coord_names or tuple(f"x{i}" for i in range(self.dim))
        d = self.dim
        out = {"dim": d, "coords": {names[i]: float(np.asarray(self.coords[i]).ravel()[0])
                                    for i in range(d)},
               "scalar": float(np.asarray(self.scalar).ravel()[0])}
        flat = lambda arr, idx: float(np.asarray(arr[(Ellipsis,) + idx]).ravel()[0])
        out["metric"] = {f"g_{names[a]}{names[b]}": flat(self.metric_dd, (a, b))
                         for a in range(d) for b in range(a, d)}
        out["christoffel"] = {f"Gamma^{names[a]}_{names[b]}{names[c]}":
                              flat(self.gamma_udd, (a, b, c))
                              for a in range(d) for b in range(d) for c in range(b, d)}
        out["ricci"] = {f"Ric_{names[a]}{names[b]}": flat(self.ricci_dd, (a, b))
                        for a in range(d) for b in range(a, d)}
        out["riemann"] = {f"Rm_{names[k]}{names[i]}{names[j]}^{names[l]}":
                          flat(self.riemann_dddu, (k, i, j, l))
                          for k in range(d) for i in range(d)
                          for j in range(d) for l in range(d)
                          if abs(flat(self.riemann_dddu, (k, i, j, l))) > 0.0}
        return out


def curvature(sampler, point, scheme="autodiff"):
    """Full curvature bundle (Christoffel, Riemann, Ricci, scalar) at a point."""
    coords = _coords_of(point)
    g, dg, ddg = metric_taylor(sampler, coords, scheme)
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
    # "...kijl,...lm->...kijm"
    rm_cov = (rm.reshape(rm.shape[:-4] + (d ** 3, d)) @ g).reshape(rm.shape)
    ricci = np.einsum("...kijk->...ij", rm)
    scal = np.einsum("...ij,...ij->...", ginv, ricci)
    names = getattr(sampler, "coord_names", None)
    return CurvatureBundle(sampler.dim, tuple(coords), g, ginv, gamma, rm,
                           rm_cov, ricci, scal, names)


# ---------------------------------------------------------------------------
# Scalar fields: covariant Hessian and Laplacian
# ---------------------------------------------------------------------------

def scalar_taylor(field, coords, dim, scheme="autodiff"):
    """Value, gradient and coordinate Hessian of a scalar field."""
    if scheme != "autodiff":
        return _fd_taylor(field, list(coords)[:dim], 0, scheme)
    xs = jets.variables(list(coords), order=2)
    f = jets.lift(field(xs), xs[0])
    return f.val, f.grad, f.hess


def hessian(field, sampler, point, scheme="autodiff"):
    """Covariant Hessian (nabla^2 f)_ij = d_i d_j f - Gamma^k_ij d_k f."""
    coords = _coords_of(point)
    _, df, ddf = scalar_taylor(field, coords, sampler.dim, scheme)
    gamma = christoffel(sampler, coords, scheme)
    return ddf - np.einsum("...kij,...k->...ij", gamma, df)


def laplacian(field, sampler, point, scheme="autodiff"):
    coords = _coords_of(point)
    g, dg, _ = metric_taylor(sampler, coords, scheme)
    ginv = _inverse_metric(g)
    hess = hessian(field, sampler, point, scheme)
    return np.einsum("...ij,...ij->...", ginv, hess)


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
    at: tuple

    def trace_bound(self, n_min, n_max, trace_r1):
        return abs(trace_r1) / n_min + self.scalar_residual * n_max


def vacuum_residual(spacetime, point, scheme="autodiff"):
    """Residuals of N Ric - Hess N, |R| and |Lap N| on the time slice."""
    coords = point.coords3() if isinstance(point, ChartPoint) else tuple(point)
    spacetime.profile.check_point(coords[0])
    return vacuum_residual_general(spacetime.metric3, spacetime.lapse_field3(),
                                   coords, scheme)


def vacuum_residual_general(sampler, lapse, coords, scheme="autodiff"):
    """Same residuals for an arbitrary slice metric sampler and lapse field."""
    bundle = curvature(sampler, coords, scheme)
    hess = hessian(lapse, sampler, coords, scheme)
    n_val = np.asarray(jets.value_of(lapse([np.asarray(c, dtype=float)
                                            for c in coords])))
    resid = n_val[..., None, None] * bundle.ricci_dd - hess
    e, _ = bundle.frame()
    resid_frame = np.einsum("...Aa,...ab,...Bb->...AB", e, resid, e)
    lap = np.einsum("...ij,...ij->...", bundle.metric_uu, hess)
    return VacuumResidual(float(np.max(np.abs(resid_frame))),
                          float(np.max(np.abs(bundle.scalar))),
                          float(np.max(np.abs(lap))),
                          tuple(coords))


def is_vacuum(spacetime, point, tol=TOL_DIFF, scheme="autodiff"):
    r = vacuum_residual(spacetime, point, scheme)
    return max(r.hessian_residual, r.scalar_residual, r.laplace_residual) < 10 * tol


# ---------------------------------------------------------------------------
# Kulkarni-Nomizu reconstruction of Rm from Ric in three dimensions
# ---------------------------------------------------------------------------

def kulkarni_reconstruct(bundle):
    """Rebuild Rm algebraically from Ric and the metric (3d, Weyl = 0).

    Returns the reconstructed ``riemann_dddu`` array and the sup-norm
    residual against the bundle's differentiated Riemann tensor, measured
    in an orthonormal frame.
    """
    if bundle.dim != 3:
        raise ValueError("Kulkarni-Nomizu reconstruction requires dimension 3")
    if np.any(np.min(np.linalg.eigvalsh(bundle.metric_dd), axis=-1) <= 0):
        raise ValueError("reconstruction requires a Riemannian metric")
    a = bundle.metric_dd
    ric = bundle.ricci_dd
    ric_mixed = np.einsum("...ik,...kl->...il", ric, bundle.metric_uu)
    scal = bundle.scalar
    eye = np.eye(3)
    rm = (np.einsum("...il,...jk->...ijkl", ric_mixed, a)
          - np.einsum("...ik,jl->...ijkl", ric, eye)
          - np.einsum("...jl,...ik->...ijkl", ric_mixed, a)
          + np.einsum("...jk,il->...ijkl", ric, eye)
          - 0.5 * scal[..., None, None, None, None]
          * (np.einsum("il,...jk->...ijkl", eye, a)
             - np.einsum("...ik,jl->...ijkl", a, eye)))
    diff = np.einsum("...ijkl,...lm->...ijkm", rm - bundle.riemann_dddu,
                     bundle.metric_dd)
    e, _ = bundle.frame()
    diff_frame = np.einsum("...Ai,...Bj,...Ck,...Dm,...ijkm->...ABCD",
                           e, e, e, e, diff)
    return rm, float(np.max(np.abs(diff_frame)))

