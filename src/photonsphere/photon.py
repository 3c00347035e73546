"""Photon-surface detection and certification.

A timelike cylinder is certified as a photon surface when two independent
routes agree: the umbilicity criterion (second fundamental form pure
trace, sampled over the surface) and direct tangency persistence of null
geodesics (the defining property).  For radial profiles the candidate
radius comes from a root scan of

    f(r) = r N'(r) - N(r),

the extremum condition of the impact-parameter potential b(r) = r / N(r)
for circular null orbits; the geodesic integrator doubles as the
brute-force oracle validating this locator condition.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from . import geodesics, hypersurfaces
from . import quadrature as quad
from .calculus import curvature, is_vacuum, metric_taylor
from .spacetimes import ChartPoint, DomainError

TOL_CERT = 1e-7
SCAN_POINTS = 512
BISECT_RTOL = 1e-12


@dataclass(frozen=True)
class PhotonSphereLocation:
    """Roots of the circular-null-orbit condition inside a scan range."""

    r_ps: float          # smallest root, or None
    lapse_at_ps: float   # N(r_ps), or None
    multiplicity: int
    roots: tuple
    scan: tuple

    @property
    def found(self):
        return self.r_ps is not None


def _bisect(f, a, b, fa, fb):
    while (b - a) > BISECT_RTOL * max(1.0, abs(a), abs(b)):
        mid = 0.5 * (a + b)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fa < 0) != (fm < 0):
            b, fb = mid, fm
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def locate_photon_sphere(profile, scan):
    """Bracket and bisect the roots of f(r) = r N'(r) - N(r).

    Returns every root in the scan range; none found means no photon
    sphere (Minkowski and negative mass land here: f < 0 throughout).
    """
    r_lo, r_hi = float(scan[0]), float(scan[1])
    if not r_hi > r_lo:
        raise ValueError("scan range must be increasing")
    profile.check_point(r_lo)
    profile.check_point(r_hi)

    def f(r):
        n, n1 = profile.lapse_d1(r)
        return r * n1 - n

    rs = np.linspace(r_lo, r_hi, SCAN_POINTS)
    vals = np.array([f(r) for r in rs])
    roots = []
    for i in range(len(rs) - 1):
        va, vb = vals[i], vals[i + 1]
        if va == 0.0:
            roots.append(float(rs[i]))
        elif (va < 0) != (vb < 0):
            roots.append(float(_bisect(f, rs[i], rs[i + 1], va, vb)))
    if vals[-1] == 0.0:
        roots.append(float(rs[-1]))
    roots = tuple(sorted(roots))
    if not roots:
        return PhotonSphereLocation(None, None, 0, (), (r_lo, r_hi))
    r_ps = roots[0]
    return PhotonSphereLocation(r_ps, float(profile.lapse_d1(r_ps)[0]),
                                len(roots), roots, (r_lo, r_hi))


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhotonSurfaceCertificate:
    """Joint umbilicity / tangency verdict for a candidate surface.

    ``verdict`` is "certified" only when both routes agree within their
    tolerances; genuine disagreement is reported as "inconclusive" with
    margins left for inspection.
    """

    surface: str
    r0: float
    verdict: str                 # "certified" | "refuted" | "inconclusive"
    umbilicity_sup: float
    mean_curvature: float
    mean_curvature_std: float
    scalar_curvature: float
    scalar_curvature_std: float
    scalar_expected: float       # (2/3) frakH^2, the vacuum Einstein value
    scalar_residual: float
    tangency_deviation: float
    tangency_span: float
    seed_count: int
    rng_seed: int
    photon_sphere: bool          # certified (radial cylinders are lapse level sets)
    tol_cert: float
    tol_tangency: float
    vacuum: bool
    tangency: geodesics.TangencyReport

    def to_json_dict(self):
        return {
            "surface": self.surface,
            "r0": self.r0,
            "verdict": self.verdict,
            "umbilicity_sup": self.umbilicity_sup,
            "mean_curvature": {"value": self.mean_curvature,
                               "stddev": self.mean_curvature_std},
            "scalar": {"value": self.scalar_curvature,
                       "stddev": self.scalar_curvature_std,
                       "expected": self.scalar_expected,
                       "residual": self.scalar_residual},
            "tangency": {"span": self.tangency_span,
                         "deviation": self.tangency_deviation,
                         "seeds": self.seed_count,
                         "rng_seed": self.rng_seed,
                         "per_seed": [
                             {"deviation": dev, "status": run.status,
                              "accepted_steps": run.accepted_steps,
                              "rejected_steps": run.rejected_steps,
                              "min_step": run.min_step}
                             for dev, run in zip(self.tangency.deviations,
                                                 self.tangency.runs)]},
            "photon_sphere": self.photon_sphere,
            "tolerances": {"certify": self.tol_cert,
                           "tangency": self.tol_tangency},
        }


def timelike_signature(surface, n_samples=64):
    """Eigenvalue signs of the induced metric at sample points."""
    n_theta = max(4, int(round(math.sqrt(n_samples / 2))))
    theta, _, phi, _ = quad.sphere_grid(n_theta, 2 * n_theta)
    theta, phi = np.meshgrid(theta, phi, indexing="ij")
    if surface.surface_dim == 3:
        pts = (np.zeros_like(theta), theta, phi)
    else:
        pts = (theta, phi)
    g, _, _ = metric_taylor(surface.induced_sampler(), pts)
    signs = np.sign(np.linalg.eigvalsh(g))
    return signs.reshape(-1, surface.surface_dim)


def certify_photon_surface(spacetime, surface, seeds=16, span=40.0,
                           rng_seed=20259121, n_theta=16, n_phi=32,
                           tol_cert=TOL_CERT,
                           tol_tangency=1e-4):
    """Certify (or refute) a cylinder as a photon surface.

    Umbilicity is sampled through the hypersurface machinery, tangency by
    integrating seeded null geodesics; both must agree for a "certified"
    or "refuted" verdict.  Non-timelike candidates are rejected outright.
    """
    if surface.kind != "cylinder":
        raise ValueError("certification expects a cylinder hypersurface")
    signs = timelike_signature(surface)
    expected = np.array([-1.0, 1.0, 1.0])
    if not np.all(signs == expected):
        raise DomainError(
            f"surface is not timelike: induced signature {signs[0].tolist()} "
            f"(expected (-,+,+))")

    r0 = surface.level_value
    theta, _, phi, _ = quad.sphere_grid(n_theta, n_phi)
    theta, phi = np.meshgrid(theta, phi, indexing="ij")
    sd = hypersurfaces.shape(surface, (np.zeros_like(theta), theta, phi))
    umb_sup = float(np.max(sd.tracefree_norm))
    h_mean = float(np.mean(sd.mean_curvature))
    h_std = float(np.std(sd.mean_curvature))

    ind = curvature(surface.induced_sampler(), (np.zeros_like(theta), theta, phi))
    rp_mean = float(np.mean(ind.scalar))
    rp_std = float(np.std(ind.scalar))
    expected_rp = (2.0 / 3.0) * h_mean ** 2
    scalar_residual = abs(rp_mean - expected_rp)

    seed_states = geodesics.tangent_null_seeds(spacetime, r0, seeds, rng_seed)
    tangency = geodesics.tangency_persistence(
        spacetime, surface, seed_states, span, rng_seed=rng_seed)

    vac = all(is_vacuum(spacetime, ChartPoint(r=r0, theta=float(t)))
              for t in np.unique(theta)[:3])

    umbilic = umb_sup < tol_cert and h_std < tol_cert
    tangent = tangency.max_deviation < tol_tangency
    if umbilic and tangent:
        verdict = "certified"
    elif not umbilic and not tangent:
        verdict = "refuted"
    else:
        verdict = "inconclusive"

    return PhotonSurfaceCertificate(
        surface=f"r-cylinder r0={r0:.12g}",
        r0=r0,
        verdict=verdict,
        umbilicity_sup=umb_sup,
        mean_curvature=h_mean,
        mean_curvature_std=h_std,
        scalar_curvature=rp_mean,
        scalar_curvature_std=rp_std,
        scalar_expected=expected_rp,
        scalar_residual=scalar_residual,
        tangency_deviation=tangency.max_deviation,
        tangency_span=span,
        seed_count=seeds,
        rng_seed=rng_seed,
        photon_sphere=verdict == "certified",
        tol_cert=tol_cert,
        tol_tangency=tol_tangency,
        vacuum=vac,
        tangency=tangency,
    )


def certificate_to_json(cert, path=None):
    text = json.dumps(cert.to_json_dict(), indent=2, sort_keys=True)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


# ---------------------------------------------------------------------------
# CMC and constant-scalar-curvature checks on certified surfaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CmcScalarCheck:
    mean_curvature_sup_dev: float
    scalar_residual: float
    warning: str = ""


def cmc_scalar_check(spacetime, surface, certificate, n_theta=16, n_phi=32):
    """Verify CMC and R_p = (2/3) frakH^2 on an umbilic surface in vacuum.

    Precondition: the certificate attests umbilicity.  A non-vacuum
    ambient downgrades the vacuum value to the general Einstein formula
    with an estimated Lambda, and flags the result with a warning.
    """
    if certificate.umbilicity_sup >= certificate.tol_cert:
        raise ValueError("cmc_scalar_check requires an umbilic-certified surface")
    theta, _, phi, _ = quad.sphere_grid(n_theta, n_phi)
    theta, phi = np.meshgrid(theta, phi, indexing="ij")
    sd = hypersurfaces.shape(surface, (np.zeros_like(theta), theta, phi))
    h = sd.mean_curvature
    h_mean = float(np.mean(h))
    sup_dev = float(np.max(np.abs(h - h_mean)))

    ind = curvature(surface.induced_sampler(), (np.zeros_like(theta), theta, phi))
    rp = float(np.mean(ind.scalar))

    warning = ""
    if certificate.vacuum:
        expected = (2.0 / 3.0) * h_mean ** 2
    else:
        amb = curvature(surface.ambient, surface.embed((0.0, float(theta[0, 0]),
                                                        float(phi[0, 0]))))
        lam_est = float(amb.scalar) / 4.0
        expected = einstein_scalar_formula(3, surface.tau, lam_est, h_mean)
        warning = ("ambient is not vacuum; compared against the general "
                   f"Einstein formula with Lambda ~ {lam_est:.6g}")
    return CmcScalarCheck(sup_dev, abs(rp - expected), warning)


def einstein_scalar_formula(n, tau, lam, h):
    """Scalar curvature of an umbilic hypersurface of an Einstein manifold.

    R_p = (n + 1 - 2 tau) Lambda + tau (n - 1)/n H^2;  for n = 3, tau = 1,
    Lambda = 0 this is the photon-surface value (2/3) H^2.
    """
    if n < 2:
        raise ValueError("formula requires hypersurface dimension n >= 2")
    return (n + 1 - 2 * tau) * lam + tau * (n - 1) / n * h ** 2
