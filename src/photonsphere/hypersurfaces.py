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
``sample`` is the one place that samples a surface {r = r0}, a cylinder
or a stack of leaves: one guarded ``shape`` and induced ``curvature`` call.
"""

import math
from dataclasses import dataclass

import numpy as np

from .calculus import (_christoffel_from, _inverse_metric, curvature, metric_taylor,
                       scalar_taylor)
from .spacetimes import DomainError, MetricSampler, RadialProfile

FOLIATION_DN_FLOOR = 1e-12   # on r |dN| on a leaf, on |dr| on a cylinder


class FoliationError(DomainError):
    """Raised when a level-set normal degenerates (|dN| too small)."""


# ---------------------------------------------------------------------------
# Surface descriptions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hypersurface:
    """An embedded hypersurface, described by its chart alignment.

    kind            : "cylinder", a level set of r in the spacetime, or
                      "level-set", a level set of the lapse in the slice
    profile         : the radial profile, the spacetime that holds the surface
    ambient         : MetricSampler of the ambient manifold
    tangent_axes    : ambient coordinate axes tangent to the surface
    level_value     : held coordinate value r0, or an array of them
    """

    kind: str
    profile: RadialProfile
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


def cylinder(profile, r0):
    profile.check_point(r0)
    return Hypersurface("cylinder", profile, profile.metric4, (0, 2, 3), float(r0))


def lapse_level_set(profile, r0):
    """Level set of the lapse (a round sphere {r = r0}) inside the time
    slice; an array ``r0`` of shape (L,) stacks L of them."""
    profile.check_point(r0)
    return Hypersurface("level-set", profile, profile.metric3, (1, 2),
                        np.asarray(r0, dtype=float))


# ---------------------------------------------------------------------------
# Normals and the second fundamental form
# ---------------------------------------------------------------------------

def _level_function(surface):
    """The name of the scalar field whose level set the surface is and the
    field over ambient coords: the lapse for a leaf, r for the cylinder."""
    r_axis = surface.normal_axis
    if surface.kind == "level-set":
        return "lapse", lambda coords: surface.profile.lapse(coords[r_axis])
    return "r", lambda coords: coords[r_axis] + 0.0 * coords[r_axis]


def normal_data(surface, x, ginv):
    """Unit normal covector eta_a, unit normal vector eta^a and the
    gradient d_a f of the level function f of a level set.

    The gradient must clear ``FOLIATION_DN_FLOOR`` as a dimensionless
    number: |dr| on a cylinder, and r |dN| on a leaf, where |dN| has units
    of 1/length.
    """
    name, field = _level_function(surface)
    _, w, _ = scalar_taylor(field, x, order=1)
    # w^a = g^ab w_b and q = w_a w^a: "...ab,...a,...b->..."
    w_u = (ginv @ w[..., None])[..., 0]
    q = (w[..., None, :] @ w_u[..., None])[..., 0, 0]
    name, scale = f"|d{name}|", 1.0
    if surface.kind == "level-set":   # |dN| has units of 1/length
        name, scale = f"r {name}", x[surface.normal_axis] ** 2
    bad = np.abs(q) * scale < FOLIATION_DN_FLOOR ** 2
    if np.any(bad):
        r0 = float(np.broadcast_to(surface.level_value, bad.shape)[bad][0])
        raise FoliationError(
            f"foliation failure: {name} < {FOLIATION_DN_FLOOR} "
            f"on the {surface.kind} r0 = {r0!r}")
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
    natural tensor norm in the Riemannian case.  ``normal_rate`` is
    eta(f), the rate of the level function f along the unit normal (nu(N)
    on a lapse level set), so callers need not differentiate f again.
    """

    mean_curvature: np.ndarray
    tracefree_norm: np.ndarray
    normal_rate: np.ndarray


def shape(surface, point):
    """Second fundamental form II(X,Y) = b(nabla_X eta, Y) at surface points.

    ``point`` is a tuple of surface coordinates; entries may be arrays for
    vectorized evaluation.  On the tangent block d_a eta_b = 0, so
    II_ab = -Gamma^c_ab eta_c there.
    """
    x = surface.embed(point)
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
    return ShapeData(h, tf_norm, np.einsum("...a,...a->...", eta_u, w))


def require_finite(surface, what, *finite):
    """Raise DomainError naming, as one number, the first level value r0 at
    which one of the boolean fields ``finite`` is False: "the <kind> r0 =
    <r0> has <what>"."""
    level, ok = np.broadcast_arrays(surface.level_value,
                                    np.all(np.broadcast_arrays(*finite), axis=0))
    if not np.all(ok):
        raise DomainError(f"the {surface.kind} r0 = {float(level[~ok][0])!r} "
                          f"has {what}")


def sample(surface):
    """Shape data and the curvature bundle of the induced metric of a
    surface {r = r0} at its one point theta = pi/2, phi = 0 (and t = 0 on a
    cylinder): each field a number on one surface, (levels,) on a stack of
    leaves.  A radial profile's surface {r = r0} is round, and static on a
    cylinder, so every field is the same at each of its points; at theta =
    pi/2, sin(theta) is exactly 1.  The surface is sampled with
    floating-point warnings off, and shape data or an induced metric that
    is not finite raises DomainError naming the first r0 where it is not.
    """
    # the tangent coordinates end in (theta, phi); a cylinder's start with t
    point = (0.0,) * (surface.surface_dim - 2) + (0.5 * math.pi, 0.0)
    with np.errstate(all="ignore"):
        sd = shape(surface, point)
        induced = curvature(surface.induced_sampler(), point)
    require_finite(surface, "non-finite shape data or induced metric",
                   np.isfinite(sd.mean_curvature), np.isfinite(sd.tracefree_norm),
                   np.all(np.isfinite(induced.metric_dd), axis=(-2, -1)))
    return sd, induced
