"""Photon-surface detection and certification.

A timelike cylinder is certified as a photon surface when two independent
routes agree: the umbilicity criterion (second fundamental form pure
trace, sampled at one point of the static, round surface) and direct
tangency persistence of null
geodesics (the defining property).  Every null geodesic tangent to a
radial cylinder is a rotation of one orbit, so tangency is decided by
integrating that orbit.  For radial profiles the candidate
radius comes from a root scan of

    f(r) = r N'(r) - N(r),

the extremum condition of the impact-parameter potential b(r) = r / N(r)
for circular null orbits; the geodesic integrator doubles as the
brute-force oracle validating this locator condition.
"""

from dataclasses import dataclass

import numpy as np

from . import geodesics, hypersurfaces
from . import quadrature as quad
from .spacetimes import DomainError

TOL_CERT = 1e-7       # umbilicity: r0 |h_tracefree|
TOL_TANGENCY = 1e-4   # largest |r - r0| / r0 of an orbit that stays
SCAN_POINTS = 512


@dataclass(frozen=True)
class PhotonSphereLocation:
    """Roots of the circular-null-orbit condition inside a scan range."""

    r_ps: float          # smallest root, or None
    lapse_at_ps: float   # N(r_ps), or None
    roots: tuple

    @property
    def found(self):
        return self.r_ps is not None


def locate_photon_sphere(profile, scan):
    """Bracket and bisect the roots of f(r) = r N'(r) - N(r).

    Every sign change of f between neighbouring scan points is bisected
    to the last bit in one ``quad.bisect`` call; a scan point where f is
    exactly zero is a root as it stands.  Returns every root in the scan
    range; none found means no photon sphere (Minkowski and negative mass
    land here: f < 0 throughout).
    """
    r_lo, r_hi = float(scan[0]), float(scan[1])
    if not r_hi > r_lo:
        raise ValueError("scan range must be increasing")
    profile.check_point(r_lo)
    profile.check_point(r_hi)

    def f(r):
        # warnings off, as in spacetimes._slope: r * r overflows at a scan
        # end near the float range, and the check below names a bad point
        with np.errstate(all="ignore"):
            n, n1 = profile.lapse_d1(r)
            return r * n1 - n

    rs = np.linspace(r_lo, r_hi, SCAN_POINTS)
    vals = f(rs)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        raise DomainError(f"r N'(r) - N(r) is not real or not finite at "
                          f"r = {rs[bad][0]:.12g} of the scan {[r_lo, r_hi]}")
    change = np.sign(vals[:-1]) * np.sign(vals[1:]) < 0
    roots = tuple(sorted(rs[vals == 0.0].tolist() + quad.bisect(
        f, rs[:-1][change], rs[1:][change]).tolist()))
    if not roots:
        return PhotonSphereLocation(None, None, ())
    r_ps = roots[0]
    return PhotonSphereLocation(r_ps, float(profile.lapse_d1(r_ps)[0]), roots)


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhotonSurfaceCertificate:
    """Joint umbilicity / tangency verdict for a candidate surface.

    ``verdict`` is "certified" only when both routes agree within their
    tolerances and the tangent orbit integrated over the whole span;
    genuine disagreement, or tangency not shown, is reported as
    "inconclusive" with margins left for inspection.  The two gated values
    are dimensionless, so the verdict is the same at every mass scale:
    ``umbilicity_sup`` is r0 times the trace-free norm, and
    ``tangency_deviation`` is the orbit's largest |r - r0| / r0.  The
    ungated ``scalar_residual`` is dimensionless too, r0^2 times the
    distance of R_p from (2/3) H^2.  The surface is sampled at one point,
    where every field takes the value it has on the whole surface.
    """

    verdict: str                 # "certified" | "refuted" | "inconclusive"
    umbilicity_sup: float        # r0 |h_tracefree|
    mean_curvature: float
    scalar_curvature: float
    scalar_expected: float       # (2/3) frakH^2, the vacuum Einstein value
    scalar_residual: float       # r0^2 |R_p - (2/3) frakH^2|
    tangency: geodesics.TangencyReport
    tangency_deviation: float    # max |r - r0| / r0


def certify_photon_surface(surface, span):
    """Certify (or refute) a cylinder, which holds its profile, as a photon
    surface.

    Umbilicity is sampled through the hypersurface machinery, tangency by
    integrating the tangent null orbit over [0, span]; both must agree for
    a "certified" or "refuted" verdict.  The cylinder is timelike wherever
    ``hypersurfaces.sample`` returns: its induced metric diag(-N^2, r0^2,
    r0^2) is then finite, and N is not 0, since the ambient metric was
    invertible.
    """
    if surface.kind != "cylinder":
        raise ValueError("certification expects a cylinder hypersurface")
    sd, induced = hypersurfaces.sample(surface)

    r0 = surface.level_value
    umb_sup = r0 * float(sd.tracefree_norm)
    h = float(sd.mean_curvature)
    r_p = float(induced.scalar)
    expected_rp = (2.0 / 3.0) * h ** 2
    scalar_residual = r0 ** 2 * abs(r_p - expected_rp)

    tangency = geodesics.tangency_persistence(surface, span)
    deviation = tangency.max_deviation / r0

    umbilic = umb_sup < TOL_CERT
    # an orbit that stopped early has not shown that it stays, but one that
    # left the surface before stopping has shown that it does not
    tangent = deviation < TOL_TANGENCY and tangency.run.status == "completed"
    not_tangent = deviation >= TOL_TANGENCY
    if umbilic and tangent:
        verdict = "certified"
    elif not umbilic and not_tangent:
        verdict = "refuted"
    else:
        verdict = "inconclusive"

    return PhotonSurfaceCertificate(
        verdict=verdict,
        umbilicity_sup=umb_sup,
        mean_curvature=h,
        scalar_curvature=r_p,
        scalar_expected=expected_rp,
        scalar_residual=scalar_residual,
        tangency=tangency,
        tangency_deviation=deviation,
    )
