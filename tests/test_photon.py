"""Photon-sphere location and certification tests."""

import math

import numpy as np
import pytest

import oracles
from photonsphere import geodesics as geo
from photonsphere import hypersurfaces as hs
from photonsphere import photon as ph
from photonsphere.spacetimes import (DomainError, ExpressionProfile,
                                     SchwarzschildProfile, TableProfile)

ST = SchwarzschildProfile(1.0)
RN_PROFILE = ExpressionProfile("sqrt(1 - 2/r + 0.1/r^2)",
                               "1/(1 - 2/r + 0.1/r^2)", r_min=1.95)


class TestLocator:
    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 10.0])
    def test_schwarzschild_root_at_3m(self, m):
        loc = ph.locate_photon_sphere(SchwarzschildProfile(m),
                                      (2.1 * m, 50.0 * m))
        assert loc.found and len(loc.roots) == 1
        assert abs(loc.r_ps - 3.0 * m) < 1e-8 * 3.0 * m
        assert abs(loc.lapse_at_ps - oracles.N0_M1) < 1e-9

    @pytest.mark.parametrize("m", [0.25, 1.0, 4.0])
    def test_schwarzschild_root_to_the_last_bits(self, m):
        # a bisection stopped short of adjacent floats left r_ps 4e-13
        # (relative) off 3m, which the photon-sphere instability amplifies
        # into the tangency deviation of the certificate
        loc = ph.locate_photon_sphere(SchwarzschildProfile(m),
                                      (2.1 * m, 50.0 * m))
        assert abs(loc.r_ps - 3.0 * m) <= 2 * np.spacing(3.0 * m)

    def test_minkowski_none(self):
        loc = ph.locate_photon_sphere(SchwarzschildProfile(0.0), (0.5, 50.0))
        assert not loc.found and len(loc.roots) == 0

    def test_negative_mass_none(self):
        loc = ph.locate_photon_sphere(SchwarzschildProfile(-1.0), (0.1, 50.0))
        assert not loc.found

    def test_rn_profile_root(self):
        loc = ph.locate_photon_sphere(RN_PROFILE, (2.0, 50.0))
        assert abs(loc.r_ps - oracles.RN_PHOTON_SPHERE_Q01) < 1e-9

    def test_invalid_scan_rejected(self):
        with pytest.raises(ValueError):
            ph.locate_photon_sphere(SchwarzschildProfile(1.0), (10.0, 5.0))
        with pytest.raises(DomainError):
            ph.locate_photon_sphere(SchwarzschildProfile(1.0), (1.0, 50.0))

    def test_scan_past_the_profile_is_a_domain_error(self):
        """A scan radius the profile cannot evaluate is no 'none found'."""
        rs = np.linspace(2.05, 2.9, 40)  # the table ends before r = 3
        table = TableProfile(np.stack([rs, np.sqrt(1 - 2 / rs),
                                       1 / (1 - 2 / rs)], axis=1))
        with pytest.raises(DomainError, match=r"r = 2\.9\d* of the scan"):
            ph.locate_photon_sphere(table, (2.2, 50.0))
        not_real = ExpressionProfile("sqrt(1 - 2/r)", "1", r_min=1.0)
        with pytest.raises(DomainError, match=r"r = 1\.5 of the scan"):
            ph.locate_photon_sphere(not_real, (1.5, 50.0))

    def test_locator_against_tangency_oracle(self):
        """The root of r N' = N is where geodesic tangency actually persists.

        Brute-force validation of the locator condition: the deviation
        after a fixed span is orders of magnitude smaller at the root than
        at any off-root radius.
        """
        loc = ph.locate_photon_sphere(SchwarzschildProfile(1.0), (2.2, 10.0))
        devs = {}
        for r0 in (2.5, 2.75, loc.r_ps, 3.25, 3.5):
            rep = geo.tangency_persistence(hs.cylinder(ST, r0), 20.0)
            devs[r0] = rep.max_deviation
        assert devs[loc.r_ps] < 1e-7
        for r0, dev in devs.items():
            if r0 != loc.r_ps:
                assert dev > 1e-2


@pytest.fixture(scope="module")
def cert3():
    return ph.certify_photon_surface(hs.cylinder(ST, 3.0), span=30.0)


class TestCertification:
    def test_photon_sphere_certified(self, cert3):
        assert cert3.verdict == "certified"
        assert cert3.umbilicity_sup < 1e-8

    def test_certified_values(self, cert3):
        assert abs(cert3.mean_curvature - oracles.FRAKH_M1) < 1e-10
        assert abs(cert3.scalar_curvature - oracles.SCALAR_P_M1) < 1e-10
        assert cert3.scalar_residual < 1e-10

    def test_off_sphere_refuted(self):
        cert = ph.certify_photon_surface(hs.cylinder(ST, 4.0), span=30.0)
        assert cert.verdict == "refuted"
        assert cert.umbilicity_sup > 1e-2
        assert cert.tangency.max_deviation > 1e-1

    def test_locator_certifier_agreement(self):
        loc = ph.locate_photon_sphere(RN_PROFILE, (2.0, 20.0))
        cert = ph.certify_photon_surface(hs.cylinder(RN_PROFILE, loc.r_ps),
                                         span=30.0)
        assert cert.verdict == "certified"
        for factor in (0.8, 1.2):
            cert_off = ph.certify_photon_surface(
                hs.cylinder(RN_PROFILE, loc.r_ps * factor), span=30.0)
            assert cert_off.verdict == "refuted"

    @pytest.mark.parametrize("seeds", [1, 3, 5, 7])
    def test_odd_seed_counts_certify(self, seeds):
        # an odd count of tangent seeds has one at direction angle pi, whose
        # orbit is polar: in its orbit plane it completes and stays like the
        # one orbit the certificate integrates
        cert = ph.certify_photon_surface(hs.cylinder(ST, 3.0), span=40.0)
        assert cert.tangency.run.status == "completed"
        assert cert.verdict == "certified"
        polar = oracles.tangent_null_seeds(ST, 3.0, seeds, seeds)[seeds // 2]
        assert abs(polar.velocity[3]) < 1e-16
        tr = geo.integrate_null(ST, polar, 40.0, geo.TANGENCY_TOL)
        assert tr.run.status == "completed"
        assert np.max(np.abs(tr.r - 3.0)) < ph.TOL_TANGENCY

    def test_non_timelike_rejected(self):
        with pytest.raises(ValueError, match="cylinder"):
            ph.certify_photon_surface(hs.lapse_level_set(ST, 3.0), 40.0)
