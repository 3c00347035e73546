"""Photon-sphere location and certification tests."""

import json
import math

import numpy as np
import pytest

import oracles
from photonsphere import geodesics as geo
from photonsphere import hypersurfaces as hs
from photonsphere import photon as ph
from photonsphere.spacetimes import (DomainError, ExpressionProfile,
                                     SchwarzschildProfile, StaticSpacetime)

ST = StaticSpacetime.schwarzschild(1.0)
RN_PROFILE = ExpressionProfile("sqrt(1 - 2/r + 0.1/r^2)",
                               "1/(1 - 2/r + 0.1/r^2)", r_min=1.95)


class TestLocator:
    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 10.0])
    def test_schwarzschild_root_at_3m(self, m):
        loc = ph.locate_photon_sphere(SchwarzschildProfile(m),
                                      (2.1 * m, 50.0 * m))
        assert loc.found and loc.multiplicity == 1
        assert abs(loc.r_ps - 3.0 * m) < 1e-8 * 3.0 * m
        assert abs(loc.lapse_at_ps - oracles.N0_M1) < 1e-9

    def test_minkowski_none(self):
        loc = ph.locate_photon_sphere(SchwarzschildProfile(0.0), (0.5, 50.0))
        assert not loc.found and loc.multiplicity == 0

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

    def test_locator_against_tangency_oracle(self):
        """The root of r N' = N is where geodesic tangency actually persists.

        Brute-force validation of the locator condition: the deviation
        after a fixed span is orders of magnitude smaller at the root than
        at any off-root radius.
        """
        loc = ph.locate_photon_sphere(SchwarzschildProfile(1.0), (2.2, 10.0))
        devs = {}
        for r0 in (2.5, 2.75, loc.r_ps, 3.25, 3.5):
            seeds = geo.tangent_null_seeds(ST, r0, 4, rng_seed=13)
            rep = geo.tangency_persistence(ST, hs.cylinder(ST, r0), seeds,
                                           20.0)
            devs[r0] = rep.max_deviation
        assert devs[loc.r_ps] < 1e-7
        for r0, dev in devs.items():
            if r0 != loc.r_ps:
                assert dev > 1e-2


@pytest.fixture(scope="module")
def cert3():
    return ph.certify_photon_surface(ST, hs.cylinder(ST, 3.0),
                                     seeds=8, span=30.0)


class TestCertification:
    def test_photon_sphere_certified(self, cert3):
        assert cert3.verdict == "certified"
        assert cert3.umbilicity_sup < 1e-8
        assert cert3.photon_sphere  # lapse constant on an r-cylinder
        assert cert3.vacuum

    def test_certified_values(self, cert3):
        assert abs(cert3.mean_curvature - oracles.FRAKH_M1) < 1e-10
        assert abs(cert3.scalar_curvature - oracles.SCALAR_P_M1) < 1e-10
        assert cert3.scalar_residual < 1e-10

    def test_off_sphere_refuted(self):
        cert = ph.certify_photon_surface(ST, hs.cylinder(ST, 4.0),
                                         seeds=8, span=30.0)
        assert cert.verdict == "refuted"
        assert cert.umbilicity_sup > 1e-2
        assert cert.tangency_deviation > 1e-1

    def test_locator_certifier_agreement(self):
        loc = ph.locate_photon_sphere(RN_PROFILE, (2.0, 20.0))
        strn = StaticSpacetime(RN_PROFILE)
        cert = ph.certify_photon_surface(strn, hs.cylinder(strn, loc.r_ps),
                                         seeds=8, span=30.0)
        assert cert.verdict == "certified"
        for factor in (0.8, 1.2):
            cert_off = ph.certify_photon_surface(
                strn, hs.cylinder(strn, loc.r_ps * factor), seeds=8, span=30.0)
            assert cert_off.verdict == "refuted"

    def test_non_timelike_rejected(self):
        with pytest.raises(ValueError):
            ph.certify_photon_surface(ST, hs.time_slice(ST))

    def test_certificate_json_schema(self, cert3, tmp_path):
        path = tmp_path / "cert.json"
        ph.certificate_to_json(cert3, path)
        d = json.loads(path.read_text())
        assert d["verdict"] == "certified"
        assert set(d["mean_curvature"]) == {"value", "stddev"}
        assert set(d["scalar"]) == {"value", "stddev", "expected", "residual"}
        assert set(d["tangency"]) == {"span", "deviation", "seeds", "rng_seed",
                                      "per_seed"}
        per_seed = d["tangency"]["per_seed"]
        assert len(per_seed) == d["tangency"]["seeds"]
        assert max(s["deviation"] for s in per_seed) == d["tangency"]["deviation"]
        assert {s["status"] for s in per_seed} == {"completed"}
        assert all(s["accepted_steps"] > 0 and s["rejected_steps"] >= 0
                   and s["min_step"] > 0.0 for s in per_seed)
        assert "tolerances" in d

    def test_umbilic_implies_cmc_in_vacuum(self, cert3):
        chk = ph.cmc_scalar_check(ST, hs.cylinder(ST, 3.0), cert3)
        assert chk.mean_curvature_sup_dev < 10 * ph.TOL_CERT
        assert chk.scalar_residual < ph.TOL_CERT
        assert not chk.warning

    def test_cmc_check_requires_umbilic(self):
        cert4 = ph.certify_photon_surface(ST, hs.cylinder(ST, 4.0),
                                          seeds=4, span=20.0)
        with pytest.raises(ValueError):
            ph.cmc_scalar_check(ST, hs.cylinder(ST, 4.0), cert4)


class TestEinsteinScalarFormula:
    def test_vacuum_photon_surface_value(self):
        h = oracles.FRAKH_M1
        assert np.isclose(ph.einstein_scalar_formula(3, 1, 0.0, h),
                          (2.0 / 3.0) * h ** 2)

    def test_zero_mean_curvature(self):
        assert ph.einstein_scalar_formula(3, 1, 0.0, 0.0) == 0.0

    def test_generic_arithmetic(self):
        # (n + 1 - 2 tau) Lambda + tau (n-1)/n H^2, n=2, tau=-1, L=1, H=2
        assert np.isclose(ph.einstein_scalar_formula(2, -1, 1.0, 2.0), 3.0)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            ph.einstein_scalar_formula(1, 1, 0.0, 1.0)

    def test_scaling_in_mass(self):
        # all boundary quantities scale as 1/m, 1/m^2
        for m in (2.0, 5.0):
            h = oracles.FRAKH_M1 / m
            assert np.isclose(ph.einstein_scalar_formula(3, 1, 0.0, h),
                              oracles.SCALAR_P_M1 / m ** 2)
