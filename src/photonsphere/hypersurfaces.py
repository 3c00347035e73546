"""Embedded hypersurface geometry: unit normals, second fundamental forms
and mean curvature.

Two embeddings appear, both coordinate-aligned on the radial chart and
both level sets of a radial function (r or the lapse N), so each has the
gradient unit normal:

* the cylinder ``R x {r = r0}`` inside the spacetime, a level set of r and
  the photon-surface candidate,
* a level set ``{N = N0}`` (the round sphere ``{r = r0}``) inside the time
  slice, a leaf of the lapse foliation.

The second fundamental form follows II(X, Y) = b(nabla_X eta, Y) with
spacelike unit normal eta, b(eta, eta) = +1.  The level function is
constant along the tangent coordinate axes, so d_a eta_b vanishes on the
tangent block and there II_ab = -Gamma^c_ab eta_c.  Frame components are
taken in the normalized coordinate frame (both chart metrics write 0 off
the diagonal of every tangent block), so sup-norms are chart-scale free.
"""

from dataclasses import dataclass

import numpy as np

from . import quadrature as quad
from .calculus import (_christoffel_from, _inverse_metric, curvature, metric_taylor,
                       scalar_taylor)
from .spacetimes import MetricSampler

FOLIATION_DN_FLOOR = 1e-12   # on r |dN| on a leaf, on |dr| on a cylinder
CYLINDER_THETA = 16   # Gauss-Legendre theta nodes of ``cylinder_sample``


class FoliationError(RuntimeError):
    """Raised when a level-set normal degenerates (|dN| too small)."""


def _asarrays(point):
    return tuple(np.asarray(c, dtype=float) for c in point)


# ---------------------------------------------------------------------------
# Surface descriptions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hypersurface:
    """An embedded hypersurface, described by its chart alignment.

    kind            : "cylinder", a level set of r in the spacetime, or
                      "level-set", a level set of the lapse in the slice
    spacetime       : ambient StaticSpacetime
    ambient         : MetricSampler of the ambient manifold
    tangent_axes    : ambient coordinate axes tangent to the surface
    level_value     : held coordinate value r0, or an array of them
    """

    kind: str
    spacetime: object
    ambient: MetricSampler
    tangent_axes: tuple
    level_value: float

    @property
    def surface_dim(self):
        return len(self.tangent_axes)

    @property
    def normal_axis(self):
        (axis,) = [a for a in range(self.ambient.dim) if a not in self.tangent_axes]
        return axis

    def embed(self, point):
        """Insert the held coordinate into surface coordinates (jets allowed)."""
        coords = [None] * self.ambient.dim
        for slot, axis in enumerate(self.tangent_axes):
            coords[axis] = point[slot]
        coords[self.normal_axis] = self.level_value
        return tuple(coords)

    def induced_sampler(self):
        axes = self.tangent_axes

        def components(ys):
            amb = self.ambient.components(self.embed(ys))
            return [[amb[a][b] for b in axes] for a in axes]

        return MetricSampler(self.surface_dim, components)


def cylinder(spacetime, r0):
    spacetime.profile.check_point(r0)
    return Hypersurface("cylinder", spacetime, spacetime.metric4, (0, 2, 3),
                        float(r0))


def lapse_level_set(spacetime, r0):
    """Level set of the lapse (a round sphere {r = r0}) inside the time
    slice; an array ``r0`` of shape (L, 1) stacks L of them."""
    spacetime.profile.check_point(r0)
    return Hypersurface("level-set", spacetime, spacetime.metric3, (1, 2),
                        np.asarray(r0, dtype=float))


# ---------------------------------------------------------------------------
# Normals and the second fundamental form
# ---------------------------------------------------------------------------

def _level_function(surface):
    """The name of the scalar field whose level set the surface is and the
    field over ambient coords: the lapse for a leaf, r for the cylinder."""
    r_axis = surface.normal_axis
    if surface.kind == "level-set":
        return "lapse", lambda coords: surface.spacetime.profile.lapse(coords[r_axis])
    return "r", lambda coords: coords[r_axis] + 0.0 * coords[r_axis]


def normal_data(surface, x, ginv):
    """Unit normal covector eta_a, unit normal vector eta^a and the
    gradient d_a f of the level function f of a level set.

    The gradient must clear ``FOLIATION_DN_FLOOR`` as a dimensionless
    number: |dr| on a cylinder, and r |dN| on a leaf, where |dN| has units
    of 1/length.
    """
    name, field = _level_function(surface)
    _, w, _ = scalar_taylor(field, x)
    # w^a = g^ab w_b and q = w_a w^a: "...ab,...a,...b->..."
    w_u = (ginv @ w[..., None])[..., 0]
    q = (w[..., None, :] @ w_u[..., None])[..., 0, 0]
    name, scale = f"|d{name}|", 1.0
    if surface.kind == "level-set":   # |dN| has units of 1/length
        name, scale = f"r {name}", x[surface.normal_axis] ** 2
    bad = np.abs(q) * scale < FOLIATION_DN_FLOOR ** 2
    if np.any(bad):
        level = np.broadcast_to(surface.level_value, bad.shape)[bad][0]
        raise FoliationError(
            f"foliation failure: {name} < {FOLIATION_DN_FLOOR} "
            f"on {surface.kind} at level {level}")
    eta_d = w / np.sqrt(q)[..., None]
    eta_u = np.einsum("...ab,...b->...a", ginv, eta_d)
    # outward orientation: eta(r) > 0
    sign = np.sign(eta_u[..., surface.normal_axis])
    return eta_d * sign[..., None], eta_u * sign[..., None], w


@dataclass(frozen=True)
class ShapeData:
    """Second fundamental form data at a surface point (or point grid).

    ``mean_curvature`` is the trace of II and ``tracefree_norm`` the
    Frobenius norm of II - (H/n) * induced in the normalized coordinate
    frame, which vanishes exactly on umbilic surfaces and equals the
    natural tensor norm in the Riemannian case.  ``metric_dd`` is the
    ambient metric g_ab at the embedded points, ``normal_u`` the unit
    normal eta^a and ``level_gradient`` the gradient d_a f of the level
    function it normalizes (dN on a lapse level set), so callers need not
    differentiate the metric or the level function again.
    """

    mean_curvature: np.ndarray
    tracefree_norm: np.ndarray
    metric_dd: np.ndarray
    normal_u: np.ndarray
    level_gradient: np.ndarray


def shape(surface, point):
    """Second fundamental form II(X,Y) = b(nabla_X eta, Y) at surface points.

    ``point`` is a tuple of surface coordinates; entries may be arrays for
    vectorized evaluation.  On the tangent block d_a eta_b = 0, so
    II_ab = -Gamma^c_ab eta_c there.
    """
    x = surface.embed(_asarrays(point))
    g, dg, _ = metric_taylor(surface.ambient, x, order=1)
    ginv = _inverse_metric(g)
    eta_d, eta_u, w = normal_data(surface, x, ginv)
    gamma = _christoffel_from(ginv, dg)
    axes = list(surface.tangent_axes)
    ii = -np.einsum("...cab,...c->...ab", gamma, eta_d)
    ii_coord = ii[..., axes, :][..., :, axes]

    gt_diag = np.einsum("...AA->...A", g[..., axes, :][..., :, axes])
    n = len(axes)
    # the signs of the normalized frame, those of its first point
    eps = np.reshape(np.sign(gt_diag), (-1, n))[0]
    frame_scale = 1.0 / np.sqrt(np.abs(gt_diag))
    ii_frame = ii_coord * frame_scale[..., :, None] * frame_scale[..., None, :]
    h = np.einsum("A,...AA->...", eps, ii_frame)
    tracefree = ii_frame - (h[..., None, None] / n) * np.diag(eps)
    tf_norm = np.sqrt(np.einsum("...AB,...AB->...", tracefree, tracefree))
    return ShapeData(h, tf_norm, g, eta_u, w)


def cylinder_sample(surface):
    """Shape data and the curvature bundle of the induced metric of a
    cylinder at t = 0 and phi = 0, each (CYLINDER_THETA,): one value per
    Gauss-Legendre theta node.  The cylinder of a radial profile is the same
    at every phi.
    """
    theta, _, _ = quad.sphere_grid(CYLINDER_THETA)
    point = (0.0, theta, 0.0)
    return shape(surface, point), curvature(surface.induced_sampler(), point)

