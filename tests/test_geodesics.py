"""Null geodesic integration: conservation laws, tangency, reversal."""

import math

import numpy as np
import pytest

import oracles
from photonsphere import geodesics as geo
from photonsphere import hypersurfaces as hs
from photonsphere.spacetimes import ChartPoint, StaticSpacetime

ST = StaticSpacetime.schwarzschild(1.0)
MINK = StaticSpacetime.schwarzschild(0.0)


def radial_null_state(spacetime, r0, ingoing=True):
    a = spacetime.profile.metric_factors_d1(r0)[0]
    vr = -a if ingoing else a
    return geo.GeodesicState(ChartPoint(0.0, r0, 1.2, 0.3), (1.0, vr, 0.0, 0.0))


class TestIntegration:
    def test_minkowski_straight_ray(self):
        s = geo.GeodesicState(ChartPoint(0.0, 5.0, 1.2, 0.3),
                              (1.0, 1.0, 0.0, 0.0))
        tr = geo.integrate_null(MINK, s, 20.0)
        assert tr.status == "completed"
        assert np.max(np.abs(tr.r - (5.0 + tr.affine))) < 1e-9
        assert np.max(np.abs(tr.energies - tr.energies[0])) < 1e-12

    def test_affine_parameters_strictly_increasing(self):
        tr = geo.integrate_null(ST, radial_null_state(ST, 10.0), 10.0)
        assert np.all(np.diff(tr.affine) > 0)

    def test_null_residual_after_projection(self):
        seeds = geo.tangent_null_seeds(ST, 3.0, 2, rng_seed=1)
        tr = geo.integrate_null(ST, seeds[0], 50.0)
        assert np.max(tr.null_residuals) < geo.TOL_NULL

    def test_non_null_seed_rejected(self):
        bad = geo.GeodesicState(ChartPoint(0.0, 10.0, 1.2, 0.3),
                                (1.0, -1.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            geo.integrate_null(ST, bad, 1.0)

    def test_domain_exit_toward_horizon(self):
        tr = geo.integrate_null(ST, radial_null_state(ST, 10.0), 50.0)
        assert tr.status == "domain-exit"
        assert tr.r[-1] < 2.1


class TestEnergyLaw:
    def test_energy_times_lapse_conserved_radially(self):
        tr = geo.integrate_null(ST, radial_null_state(ST, 10.0), 30.0)
        assert tr.energy_times_lapse_drift() < 1e-8

    def test_energy_ratio_matches_lapse_ratio(self):
        tr = geo.integrate_null(ST, radial_null_state(ST, 10.0), 30.0)
        n = tr.lapse_values
        mask = tr.r >= 4.0
        ratio = tr.energies[mask] / tr.energies[0]
        assert np.max(np.abs(ratio - n[0] / n[mask])) < 1e-8
        from scipy.interpolate import CubicSpline
        e_at_5 = CubicSpline(tr.r[::-1], tr.energies[::-1])(5.0)
        assert abs(e_at_5 / tr.energies[0]
                   - oracles.ENERGY_RATIO_10_TO_5) < 1e-6

    def test_verdict_photon_orbit_vs_radial(self):
        # the instability amplifies local error into lapse (hence energy)
        # variation, so the orbit needs the tangency-grade tolerance
        orbit = geo.integrate_null(ST, geo.tangent_null_seeds(ST, 3.0, 2, 7)[0],
                                   50.0, tol=geo.TANGENCY_TOL)
        v_orbit = geo.energy_constancy_verdict(orbit)
        assert v_orbit.constant and v_orbit.lapse_constant
        assert v_orbit.max_drift < 1e-8
        radial = geo.integrate_null(ST, radial_null_state(ST, 10.0), 30.0)
        v_rad = geo.energy_constancy_verdict(radial)
        assert not v_rad.constant and not v_rad.lapse_constant

    def test_minkowski_any_ray_constant(self):
        s = geo.null_state(MINK, ChartPoint(0.0, 5.0, 1.0, 0.0),
                           (0.4, 0.1, 0.05))
        tr = geo.integrate_null(MINK, s, 20.0)
        v = geo.energy_constancy_verdict(tr)
        assert v.constant and v.lapse_constant

    def test_angular_momentum_conserved(self):
        seeds = geo.tangent_null_seeds(ST, 3.0, 3, rng_seed=2)
        for s in seeds:
            tr = geo.integrate_null(ST, s, 50.0)
            ell = (tr.samples[:, 2] ** 2 * np.sin(tr.samples[:, 3]) ** 2
                   * tr.samples[:, 8])
            assert np.max(np.abs(ell - ell[0])) < 1e-8


class TestTimeReversal:
    @pytest.mark.parametrize("state,span", [
        (radial_null_state(ST, 10.0), 6.0),
        (geo.null_state(ST, ChartPoint(0.0, 8.0, 1.3, 0.2),
                        (0.3, 0.05, 0.08)), 25.0),
    ])
    def test_roundtrip_returns_to_start(self, state, span):
        fwd = geo.integrate_null(ST, state, span)
        end = fwd.final_state()
        back = geo.GeodesicState(end.position,
                                 tuple(-v for v in end.velocity), 0.0)
        bwd = geo.integrate_null(ST, back, fwd.affine[-1])
        err = np.abs(bwd.final_state().as_array()[:4] - state.as_array()[:4])
        assert np.max(err) < 1e-6

    def test_roundtrip_photon_orbit_short_span(self):
        # the circular orbit is exponentially unstable; round trips are only
        # meaningful within the e-fold budget of double precision
        s = geo.tangent_null_seeds(ST, 3.0, 2, rng_seed=4)[0]
        fwd = geo.integrate_null(ST, s, 10.0)
        end = fwd.final_state()
        back = geo.GeodesicState(end.position,
                                 tuple(-v for v in end.velocity), 0.0)
        bwd = geo.integrate_null(ST, back, fwd.affine[-1])
        err = np.abs(bwd.final_state().as_array()[:4] - s.as_array()[:4])
        assert np.max(err) < 1e-6


class TestTangency:
    def test_photon_sphere_seeds_stay(self):
        seeds = geo.tangent_null_seeds(ST, 3.0, 8, rng_seed=7)
        rep = geo.tangency_persistence(ST, hs.cylinder(ST, 3.0), seeds, 40.0)
        assert rep.max_deviation < 1e-6
        assert all(s == "completed" for s in rep.statuses)

    def test_off_sphere_seeds_leave(self):
        seeds = geo.tangent_null_seeds(ST, 4.0, 8, rng_seed=7)
        rep = geo.tangency_persistence(ST, hs.cylinder(ST, 4.0), seeds, 40.0,
                                       tol=1e-10)
        assert rep.max_deviation > 1e-1

    def test_minkowski_cylinder_deviation_grows_linearly(self):
        seeds = geo.tangent_null_seeds(MINK, 3.0, 4, rng_seed=3)
        r20 = geo.tangency_persistence(MINK, hs.cylinder(MINK, 3.0), seeds,
                                       20.0, tol=1e-10)
        r40 = geo.tangency_persistence(MINK, hs.cylinder(MINK, 3.0), seeds,
                                       40.0, tol=1e-10)
        assert r20.max_deviation > 1.0
        assert 1.5 < r40.max_deviation / r20.max_deviation < 2.5

    def test_lapse_level_cylinder_deviation_metric(self):
        surf = hs.cylinder(ST, 3.0, level_field="lapse")
        seeds = geo.tangent_null_seeds(ST, 3.0, 4, rng_seed=5)
        rep = geo.tangency_persistence(ST, surf, seeds, 20.0)
        assert rep.max_deviation < 1e-7  # |N - N0| stays small

    def test_seeds_are_null_and_tangent(self):
        seeds = geo.tangent_null_seeds(ST, 3.0, 16, rng_seed=11)
        for s in seeds:
            g = ST.metric_at(s.position)
            v = np.asarray(s.velocity)
            assert abs(v @ g @ v) < 1e-12
            assert v[1] == 0.0  # no radial component: tangent to the cylinder


def test_trajectory_csv_format(tmp_path):
    tr = geo.integrate_null(ST, radial_null_state(ST, 10.0), 5.0)
    path = tmp_path / "traj.csv"
    geo.trajectory_to_csv(tr, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "lambda,t,r,theta,phi,vt,vr,vtheta,vphi,null_residual,energy"
    assert len(lines) == len(tr.samples) + 1
    first = [float(x) for x in lines[1].split(",")]
    assert len(first) == 11 and first[2] == 10.0
    # full double precision round-trip
    assert float(lines[2].split(",")[2]) == tr.r[1]


def test_stiff_status_on_step_budget():
    tr = geo.integrate_null(ST, radial_null_state(ST, 10.0), 50.0,
                            max_steps=5)
    assert tr.status == "stiff"
    assert "step count" in tr.reason
