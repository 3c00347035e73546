"""Null geodesic integration: conservation laws, tangency, reversal.

The stepping loop, which integrates in each geodesic's orbit plane, is
checked against a scalar DOP853 loop over Python floats in the (theta, phi)
chart, kept below as an independent reference: the same ends, and for a
completed run end rows that agree to 1e-6 relative, angles modulo 2 pi.
The reference stops at its own pole guard, which the plane does not need.
Each trajectory is checked bit for bit against its equatorial twin, the
state with the same in-plane state, the tableau against its order of
convergence, and the step, whose sums visit only the nonzero weights,
against ``oracles.dense_dop853_step`` bit for bit.
"""

import json
import math

import numpy as np
import pytest

import oracles
from photonsphere import cli
from photonsphere import geodesics as geo
from photonsphere import hypersurfaces as hs
from photonsphere.calculus import metric_taylor
from photonsphere.geodesics import (_A, _B, _E3, _E5, DEFAULT_TOL,
                                    DOMAIN_GUARD_RTOL, TOL_NULL,
                                    GeodesicTrajectory, RunSummary)
from photonsphere.spacetimes import (ChartPoint, ExpressionProfile,
                                     SchwarzschildProfile, TableProfile)

ST = SchwarzschildProfile(1.0)
MINK = SchwarzschildProfile(0.0)
RNG_SEED = 20259121   # the criterion-2 seeds


def radial_null_state(profile, r0, ingoing=True):
    a = profile.metric_factors_d1(r0)[0]
    vr = -a if ingoing else a
    return geo.GeodesicState(ChartPoint(0.0, r0, 1.2, 0.3), (1.0, vr, 0.0, 0.0))


def chart_row(state):
    """(t, r, theta, phi, vt, vr, vtheta, vphi) of a chart state."""
    return np.array(state.position.coords4() + tuple(state.velocity))


def end_state(traj):
    """The chart state of a trajectory's last sample."""
    row = traj.samples[-1]
    return geo.GeodesicState(ChartPoint(*row[1:5]), tuple(row[5:9]))


# ---------------------------------------------------------------------------
# The scalar reference: one trajectory stepped by DOP853 over Python floats.
# Every sum over stages or components is added left to right by
# ``scalar_sum`` and the step factor's eighth root is taken by three square
# roots, as in the package: the error estimate cancels 12 terms down to the
# tolerance, so one last-bit difference in the increment or the step size
# moves the norm by 1e-10 relative and, on a horizon approach, flips an
# accept/reject decision.
# ---------------------------------------------------------------------------

THETA_GUARD = 1e-7  # the reference stops this close to a pole of its chart


def scalar_sum(terms):
    """Add floats left to right from 0.0.

    This is what the builtin sum() did up to CPython 3.11; from 3.12 on it
    compensates the rounding, so the reference spells the loop out and
    fixes one arithmetic on every supported interpreter.
    """
    acc = 0.0
    for term in terms:
        acc += term
    return acc


def scalar_rhs(profile, y):
    """Geodesic right-hand side for -A dt^2 + B dr^2 + r^2 Omega."""
    t, r, th, ph, vt, vr, vth, vph = y
    a, ap, b, bp = profile.metric_factors_d1(r)
    sth = math.sin(th)
    cth = math.cos(th)
    rvr = vr / r
    at = -(ap / a) * vt * vr
    ar = (-0.5 * ap / b * vt * vt - 0.5 * bp / b * vr * vr
          + (r / b) * (vth * vth + sth * sth * vph * vph))
    ath = -2.0 * rvr * vth + sth * cth * vph * vph
    aph = -2.0 * rvr * vph - 2.0 * (cth / sth) * vth * vph
    return (vt, vr, vth, vph, at, ar, ath, aph)


def scalar_null_project(profile, y, prev_vt_sign=1.0):
    """Re-solve tdot from g(v,v) = 0, keeping the spatial direction.

    Returns the projected state and the pre-projection constraint value.
    """
    t, r, th, ph, vt, vr, vth, vph = y
    a, _, b, _ = profile.metric_factors_d1(r)
    sth = math.sin(th)
    spatial = b * vr * vr + r * r * (vth * vth + sth * sth * vph * vph)
    residual = -a * vt * vt + spatial
    sign = math.copysign(1.0, vt) if vt != 0.0 else prev_vt_sign
    vt_new = sign * math.sqrt(spatial / a)
    return (t, r, th, ph, vt_new, vr, vth, vph), residual


def scalar_error_norm(e5, e3, y_old, y_new, atol, rtol):
    """Hairer's DOP853 norm |e5|^2 / sqrt(8 (|e5|^2 + 0.01 |e3|^2)) of
    the scaled fifth- and third-order estimates."""
    sc = [atol + rtol * max(abs(a_), abs(b_)) for a_, b_ in zip(y_old, y_new)]
    e5_sq = scalar_sum((e / s) ** 2 for e, s in zip(e5, sc))
    e3_sq = scalar_sum((e / s) ** 2 for e, s in zip(e3, sc))
    denom = math.sqrt(8.0 * (e5_sq + 0.01 * e3_sq))
    return 0.0 if denom == 0.0 else e5_sq / denom


def scalar_integrate_null(profile, initial, span, tol=DEFAULT_TOL, max_steps=2_000_000):
    """Integrate a null geodesic over an affine interval [0, span].

    The initial velocity is projected onto the null cone (rejected if the
    projection moves it by more than sqrt(tol_null) relative).  Terminates
    early with a descriptive status when the domain boundary or a pole is
    approached, or when the adaptive step underflows.
    """
    y = chart_row(initial).tolist()
    profile.check_point(y[1])
    y0 = tuple(y)
    y_proj0, res0 = scalar_null_project(profile, y0)
    y = list(y_proj0)
    vscale = max(abs(v) for v in y0[4:]) or 1.0
    if abs(y[4] - y0[4]) > math.sqrt(TOL_NULL) * vscale:
        raise ValueError(f"initial velocity is not null (projection moved tdot "
                         f"by {abs(y[4] - y0[4]):.3e})")

    r_stop = profile.r_min * (1.0 + DOMAIN_GUARD_RTOL) if profile.r_min > 0 else 0.0
    atol = rtol = tol
    lam = 0.0
    rows = [(lam,) + tuple(y)]
    residuals = [abs(res0)]

    f = scalar_rhs(profile, y)
    d0 = max(abs(v) for v in y) or 1.0
    d1 = max(abs(v) for v in f) or 1.0
    h = min(0.01 * d0 / d1, span)
    status, reason = "completed", ""
    steps = 0
    h_min = math.inf
    comp = [0.0] * 8  # Kahan compensation: unstable orbits amplify roundoff
    while lam < span:
        if steps >= max_steps:
            status, reason = "stiff", "max step count reached"
            break
        h = min(h, span - lam)
        if h < 1e-14 * max(1.0, span):
            status, reason = "stiff", "step size underflow"
            break
        k = [f]
        bad = False
        for i in range(1, 12):
            yi = [y[j] + h * scalar_sum(_A[i][m] * k[m][j] for m in range(i))
                  for j in range(8)]
            try:
                k.append(scalar_rhs(profile, yi))
            except (ValueError, ZeroDivisionError):
                bad = True
                break
        if bad:
            h *= 0.25
            steps += 1
            continue
        incr = [h * scalar_sum(_B[m] * k[m][j] for m in range(12))
                for j in range(8)]
        y_new = [y[j] + incr[j] for j in range(8)]
        e5 = [h * scalar_sum(_E5[m] * k[m][j] for m in range(12)) for j in range(8)]
        e3 = [h * scalar_sum(_E3[m] * k[m][j] for m in range(12)) for j in range(8)]
        enorm = scalar_error_norm(e5, e3, y, y_new, atol, rtol)
        if enorm <= 1.0:
            lam += h
            h_min = min(h_min, h)
            for j in range(8):
                dy = incr[j] + comp[j]
                t = y[j] + dy
                comp[j] = dy - (t - y[j])
                y[j] = t
            y_proj, resid = scalar_null_project(profile, tuple(y),
                                                math.copysign(1.0, y[4]))
            comp[4] = 0.0  # tdot replaced by the projection
            y = list(y_proj)
            rows.append((lam,) + tuple(y))
            residuals.append(abs(resid))
            steps += 1
            if y[1] <= r_stop * (1.0 + 1e-12) or (r_stop == 0.0 and y[1] < 1e-9):
                status, reason = "domain-exit", f"r reached {y[1]:.6g}"
                break
            th_mod = y[2] % math.pi
            if min(th_mod, math.pi - th_mod) < THETA_GUARD:
                status, reason = "pole", f"theta reached {y[2]:.6g}"
                break
            f = scalar_rhs(profile, y)
        else:
            steps += 1
        factor = 5.0 if enorm == 0.0 else 0.9 / math.sqrt(math.sqrt(math.sqrt(enorm)))
        h *= min(5.0, max(0.2, factor))

    samples = np.asarray(rows)
    lapse = np.asarray([profile.lapse_d1(r)[0] for r in samples[:, 2]])
    accepted = len(rows) - 1
    run = RunSummary(status, reason, accepted, steps - accepted,
                     h_min if accepted else None)
    return GeodesicTrajectory(samples, -lapse * samples[:, 5],
                              np.asarray(residuals), lapse, run)


class TestIntegration:
    def test_minkowski_straight_ray(self):
        s = geo.GeodesicState(ChartPoint(0.0, 5.0, 1.2, 0.3),
                              (1.0, 1.0, 0.0, 0.0))
        tr = geo.integrate_null(MINK, s, 20.0)
        assert tr.run.status == "completed"
        assert np.max(np.abs(tr.r - (5.0 + tr.samples[:, 0]))) < 1e-9
        assert np.max(np.abs(tr.energies - tr.energies[0])) < 1e-12

    def test_radial_ray_next_to_the_pole_has_zero_phi_rate(self):
        # at theta = 1e-300 the distance from the polar axis squares to 0:
        # the phi rate of a radial ray must still come out 0, not 0/0 with
        # a RuntimeWarning
        a = ST.metric_factors_d1(10.0)[0]
        s = geo.GeodesicState(ChartPoint(0.0, 10.0, 1e-300, 0.0),
                              (1.0, -a, 0.0, 0.0))
        tr = geo.integrate_null(ST, s, 5.0)
        assert tr.run.status == "completed"
        assert np.all(tr.samples[:, 3] == 1e-300)
        assert np.all(tr.samples[:, 8] == 0.0)

    def test_affine_parameters_strictly_increasing(self):
        tr = geo.integrate_null(ST, radial_null_state(ST, 10.0), 10.0)
        assert np.all(np.diff(tr.samples[:, 0]) > 0)

    def test_null_residual_after_projection(self):
        seeds = oracles.tangent_null_seeds(ST, 3.0, 2, rng_seed=1)
        tr = geo.integrate_null(ST, seeds[0], 50.0)
        assert np.max(tr.null_residuals) < geo.TOL_NULL

    def test_non_null_seed_rejected(self):
        bad = geo.GeodesicState(ChartPoint(0.0, 10.0, 1.2, 0.3),
                                (1.0, -1.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            geo.integrate_null(ST, bad, 1.0)

    def test_domain_exit_toward_horizon(self):
        tr = geo.integrate_null(ST, radial_null_state(ST, 10.0), 50.0)
        assert tr.run.status == "domain-exit"
        assert tr.r[-1] < 2.1


class TestEnergyLaw:
    def test_energy_times_lapse_conserved_radially(self):
        tr = geo.integrate_null(ST, radial_null_state(ST, 10.0), 30.0)
        assert tr.energy_times_lapse_drift() < 1e-8

    def test_energy_ratio_matches_lapse_ratio(self):
        tr = geo.integrate_null(ST, radial_null_state(ST, 10.0), 30.0)
        n = tr.lapse
        mask = tr.r >= 4.0
        ratio = tr.energies[mask] / tr.energies[0]
        assert np.max(np.abs(ratio - n[0] / n[mask])) < 1e-8
        # r falls linearly at the rate a = N(10)^2 = 0.8 on a radial ray, so a
        # ray of span 5/a ends at r = 5 and the endpoint gives E(5)
        a = ST.metric_factors_d1(10.0)[0]
        to_5 = geo.integrate_null(ST, radial_null_state(ST, 10.0), 5.0 / a)
        assert abs(to_5.r[-1] - 5.0) < 1e-9
        assert abs(to_5.energies[-1] / to_5.energies[0]
                   - oracles.ENERGY_RATIO_10_TO_5) < 1e-6

    def test_verdict_photon_orbit_vs_radial(self):
        # the instability amplifies local error into lapse (hence energy)
        # variation, so the orbit needs the tangency-grade tolerance
        orbit = geo.integrate_null(ST, oracles.tangent_null_seeds(ST, 3.0, 2, 7)[0],
                                   50.0, tol=geo.TANGENCY_TOL)
        v_orbit = geo.energy_constancy_verdict(orbit)
        assert v_orbit.constant and v_orbit.lapse_constant
        assert np.max(np.abs(orbit.energies - np.mean(orbit.energies))) < 1e-8
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
        seeds = oracles.tangent_null_seeds(ST, 3.0, 3, rng_seed=2)
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
        end = end_state(fwd)
        back = geo.GeodesicState(end.position, tuple(-v for v in end.velocity))
        bwd = geo.integrate_null(ST, back, fwd.samples[-1, 0])
        err = np.abs(chart_row(end_state(bwd))[:4] - chart_row(state)[:4])
        assert np.max(err) < 1e-6

    def test_roundtrip_photon_orbit_short_span(self):
        # the circular orbit is exponentially unstable; round trips are only
        # meaningful within the e-fold budget of double precision
        s = oracles.tangent_null_seeds(ST, 3.0, 2, rng_seed=4)[0]
        fwd = geo.integrate_null(ST, s, 10.0)
        end = end_state(fwd)
        back = geo.GeodesicState(end.position, tuple(-v for v in end.velocity))
        bwd = geo.integrate_null(ST, back, fwd.samples[-1, 0])
        err = np.abs(chart_row(end_state(bwd))[:4] - chart_row(s)[:4])
        assert np.max(err) < 1e-6


class TestTangency:
    def test_photon_sphere_seeds_stay(self):
        rep = geo.tangency_persistence(hs.cylinder(ST, 3.0), 40.0)
        assert rep.max_deviation < 1e-6
        assert rep.run.status == "completed"

    def test_off_sphere_seeds_leave(self):
        rep = geo.tangency_persistence(hs.cylinder(ST, 4.0), 40.0)
        assert rep.max_deviation > 1e-1

    def test_minkowski_cylinder_deviation_grows_linearly(self):
        r20 = geo.tangency_persistence(hs.cylinder(MINK, 3.0), 20.0)
        r40 = geo.tangency_persistence(hs.cylinder(MINK, 3.0), 40.0)
        assert r20.max_deviation > 1.0
        assert 1.5 < r40.max_deviation / r20.max_deviation < 2.5

    def test_seeds_are_null_and_tangent(self):
        seeds = oracles.tangent_null_seeds(ST, 3.0, 16, rng_seed=11)
        for s in seeds:
            g = metric_taylor(ST.metric4, s.position.coords4())[0]
            v = np.asarray(s.velocity)
            assert abs(v @ g @ v) < 1e-12
            assert v[1] == 0.0  # no radial component: tangent to the cylinder

    @pytest.mark.parametrize("r0", [3.0, 4.0])
    def test_chart_seeds_map_to_the_canonical_orbit(self, r0):
        # every tangent seed, odd counts' polar ones included, is a rotation
        # of the one in-plane state (0, r0, 0, 1, 0, N0/r0) that
        # ``tangency_persistence`` integrates: exactly, up to the last bits
        # of the angular speed hypot(vtheta, sin(theta) vphi)
        vpsi = ST.lapse_d1(r0)[0] / r0
        seeds = [*oracles.tangent_null_seeds(ST, r0, 32, rng_seed=RNG_SEED),
                 *(s for count in (1, 3, 5, 7)
                   for s in oracles.tangent_null_seeds(ST, r0, count, count))]
        for seed in seeds:
            _, plane = geo._into_plane(seed)
            assert plane[:5] == (0.0, r0, 0.0, 1.0, 0.0)
            assert abs(plane[5] - vpsi) <= 4 * np.spacing(vpsi)


def test_stiff_status_on_step_budget(monkeypatch):
    monkeypatch.setattr(geo, "MAX_STEPS", 5)
    tr = geo.integrate_null(ST, radial_null_state(ST, 10.0), 50.0)
    assert tr.run.status == "stiff"
    assert "step count" in tr.run.reason


# ---------------------------------------------------------------------------
# Trajectories against the scalar reference, and against their twins
# ---------------------------------------------------------------------------

CRITERION2_SPAN = 100.0
RADIAL_COLUMNS = [0, 1, 2, 5, 6]      # lambda, t, r, vt, vr


def equatorial_twin(state):
    """The chart state at theta = pi/2, phi = 0 with the in-plane state of
    ``state``: the same t, r, vt, vr, and vtheta its angular speed."""
    _, (t, r, _, vt, vr, vpsi) = geo._into_plane(state)
    return geo.GeodesicState(ChartPoint(t, r, 0.5 * math.pi, 0.0),
                             (vt, vr, vpsi, 0.0))


def assert_same_as_twin(profile, state, traj, span, **kw):
    """The trajectory steps bit for bit as its equatorial twin: the stepping
    sees only the in-plane state, never the chart orientation."""
    twin = geo.integrate_null(profile, equatorial_twin(state), span, **kw)
    assert np.array_equal(traj.samples[:, RADIAL_COLUMNS],
                          twin.samples[:, RADIAL_COLUMNS])
    assert np.array_equal(traj.null_residuals, twin.null_residuals)
    assert traj.run == twin.run


def canonical(row):
    """A chart row with theta taken into [0, pi]: a ray that crossed a pole
    between two samples of the reference has theta < 0, and the point
    (-theta, phi) is (theta, phi + pi), moving with -vtheta."""
    row = row.copy()
    row[3] %= 2.0 * math.pi
    if row[3] > math.pi:
        row[3] = 2.0 * math.pi - row[3]
        row[4] += math.pi
        row[7] = -row[7]
    return row


def assert_rows_near(row, ref_row):
    """Chart rows within 1e-6 max(1, |x|), theta and phi modulo 2 pi."""
    row, ref_row = canonical(row), canonical(ref_row)
    diff = row - ref_row
    diff[3:5] = (diff[3:5] + math.pi) % (2.0 * math.pi) - math.pi
    assert np.all(np.abs(diff) <= 1e-6 * np.maximum(1.0, np.abs(ref_row)))


def assert_near_reference(ref, samples, run):
    """The same end as the scalar chart reference; ``run`` is the RunSummary
    of the in-plane run.  Where the reference stops at its pole guard the
    run completes; otherwise the status is the same, and a completed run
    ends at the same affine parameter on the reference's end row."""
    if ref.run.status == "pole":
        assert run.status == "completed"
        return
    assert run.status == ref.run.status
    if run.status == "completed":
        assert samples[-1, 0] == ref.samples[-1, 0]
        assert_rows_near(samples[-1], ref.samples[-1])


def canonical_orbit(r0, span):
    """The trajectory of the in-plane state (0, r0, 0, 1, 0, N0/r0)."""
    n0 = ST.lapse_d1(r0)[0]
    state = geo.GeodesicState(ChartPoint(0.0, r0, 0.5 * math.pi, 0.0),
                              (1.0, 0.0, n0 / r0, 0.0))
    return geo.integrate_null(ST, state, span, geo.TANGENCY_TOL)


class TestBatchMatchesScalarReference:
    """Single trajectories against the scalar chart reference and their
    equatorial twins, and the tangency orbit against ``integrate_null``."""

    @pytest.mark.parametrize("r0", [3.0, 4.0])
    def test_criterion2_seeds_bit_identical(self, r0):
        # the first and last of the 32 criterion-2 seeds
        seeds = oracles.tangent_null_seeds(ST, r0, 32, rng_seed=RNG_SEED)
        for seed in (seeds[0], seeds[-1]):
            tr = geo.integrate_null(ST, seed, CRITERION2_SPAN, geo.TANGENCY_TOL)
            assert_same_as_twin(ST, seed, tr, CRITERION2_SPAN,
                                tol=geo.TANGENCY_TOL)
            ref = scalar_integrate_null(ST, seed, CRITERION2_SPAN,
                                        geo.TANGENCY_TOL)
            assert_near_reference(ref, tr.samples, tr.run)

    @pytest.mark.parametrize("r0", [3.0, 4.0])
    def test_tangency_deviations_exact(self, r0):
        rep = geo.tangency_persistence(hs.cylinder(ST, r0),
                                       CRITERION2_SPAN)
        orbit = canonical_orbit(r0, CRITERION2_SPAN)
        assert rep.max_deviation == float(np.max(np.abs(orbit.r - r0)))
        assert rep.run == orbit.run

    @pytest.mark.parametrize("case", ["minkowski-ray", "minkowski-seed",
                                      "radial-infall", "pole", "max-steps",
                                      "expression-profile"])
    def test_single_trajectory_bit_identical(self, case, monkeypatch):
        """Bit for bit the same as its equatorial twin, and near the scalar
        reference, which takes its step budget as ``kw``."""
        profile, span, kw = ST, 30.0, {}
        if case == "minkowski-ray":
            profile = MINK
            state = geo.null_state(MINK, ChartPoint(0.0, 5.0, 1.0, 0.0),
                                   (0.4, 0.1, 0.05))
        elif case == "minkowski-seed":
            profile = MINK
            state = oracles.tangent_null_seeds(MINK, 3.0, 4, rng_seed=3)[1]
        elif case == "radial-infall":
            state = radial_null_state(ST, 10.0)
            span = 50.0
        elif case == "pole":
            state = geo.null_state(ST, ChartPoint(0.0, 8.0, 0.4, 0.2),
                                   (0.0, -0.05, 1e-9))
        elif case == "max-steps":
            state = radial_null_state(ST, 10.0)
            monkeypatch.setattr(geo, "MAX_STEPS", 5)
            kw = {"max_steps": 5}
        else:
            profile = ExpressionProfile(
                "sqrt(1 - 2/r + 0.1/r^2)", "1/(1 - 2/r + 0.1/r^2)", r_min=1.95)
            state = geo.null_state(profile, ChartPoint(0.0, 4.0, 1.1, 0.3),
                                   (0.01, 0.03, 0.05))
        ref = scalar_integrate_null(profile, state, span, **kw)
        traj = geo.integrate_null(profile, state, span)
        assert_same_as_twin(profile, state, traj, span)
        assert_near_reference(ref, traj.samples, traj.run)
        expected = {"radial-infall": "domain-exit",
                    "max-steps": "stiff"}.get(case, "completed")
        assert traj.run.status == expected

    def test_polar_orbit_moves_as_its_equatorial_twin(self):
        # a polar orbit crosses the poles of the chart; in its orbit plane it
        # is the motion of the equatorial orbit with the same r, vr and
        # angular speed, so their radial columns agree bit for bit
        polar = geo.null_state(ST, ChartPoint(0.0, 8.0, 0.4, 0.2),
                               (0.0, -0.05, 0.0))
        equatorial = geo.null_state(ST, ChartPoint(0.0, 8.0, math.pi / 2, 0.2),
                                    (0.0, 0.0, 0.05))
        runs = [geo.integrate_null(ST, s, 30.0) for s in (polar, equatorial)]
        assert [tr.run.status for tr in runs] == ["completed", "completed"]
        assert np.array_equal(runs[0].samples[:, RADIAL_COLUMNS],
                              runs[1].samples[:, RADIAL_COLUMNS])
        # the polar orbit passes a pole (phi turns by pi there); the
        # equatorial one stays where the chart reference is regular
        assert abs(runs[0].samples[-1, 4] - runs[0].samples[0, 4]) > 3.0
        assert_near_reference(scalar_integrate_null(ST, equatorial, 30.0),
                              runs[1].samples, runs[1].run)

    def test_fractional_power_profile_matches_the_reference(self):
        # the profile's slope takes numpy powers on the 0-d arrays of its
        # jets, at a float radius in the stepping loop and in the reference
        profile = ExpressionProfile("1 - 2/r + 0.3/r^2.5",
                                    "1/(1 - 2/r + 0.3/r^2.5)", r_min=1.95)
        states = [geo.null_state(profile, ChartPoint(0.0, 10.0, 1.2, 0.3),
                                 (-0.8, 0.0, 0.0)),
                  geo.null_state(profile, ChartPoint(0.0, 8.0, 0.4, 0.2),
                                 (0.0, -0.05, 1e-9)),
                  *oracles.tangent_null_seeds(profile, 5.0, 3, rng_seed=2)]
        runs = [geo.integrate_null(profile, state, 30.0) for state in states]
        assert [tr.run.status for tr in runs] == [
            "domain-exit", "completed", "completed", "completed", "completed"]
        for state, tr in zip(states, runs):
            assert_same_as_twin(profile, state, tr, 30.0)
            assert_near_reference(scalar_integrate_null(profile, state, 30.0),
                                  tr.samples, tr.run)

    def test_table_profile_failure_ends_in_domain_exit(self):
        rs = np.linspace(2.5, 12.0, 400)
        profile = TableProfile(np.stack([rs, np.sqrt(1 - 2 / rs),
                                         1 / (1 - 2 / rs)], axis=1))
        seed = oracles.tangent_null_seeds(profile, 3.0, 3, rng_seed=4)[0]
        tr = geo.integrate_null(profile, seed, 10.0)
        assert_near_reference(scalar_integrate_null(profile, seed, 10.0),
                              tr.samples, tr.run)
        # a ray whose stages leave the table: the same end row as the
        # reference, at the table edge, reached as a domain exit instead of
        # a step-size underflow.  Both loops crawl up to r = 12 in steps near
        # the roundoff floor, whose number the last bits decide.
        leaving = radial_null_state(profile, 11.0, ingoing=False)
        tr = geo.integrate_null(profile, leaving, 10.0)
        assert_same_as_twin(profile, leaving, tr, 10.0)
        ref = scalar_integrate_null(profile, leaving, 10.0)
        assert_rows_near(tr.samples[-1], ref.samples[-1])
        assert abs(tr.samples[-1, 2] - 12.0) < 1e-6
        assert (ref.run.status, ref.run.reason) == ("stiff", "step size underflow")
        assert tr.run.status == "domain-exit"
        assert "r = 12" in tr.run.reason
        assert tr.run.rejected_steps > 0


def test_observed_order_of_the_tableau():
    """Fixed steps along a Minkowski ray in its orbit plane against the
    straight line: the global error converges at eighth order and the
    error norm at eighth order (|e5|^2 / |e3| ~ h^12 / h^4).  The step sizes
    keep the global error 100 times above roundoff."""
    state = geo.null_state(MINK, ChartPoint(0.0, 5.0, 1.0, 0.3), (0.4, 0.1, 0.05))
    _, plane = geo._into_plane(state)
    _, r0, _, _, vr, vpsi = plane
    # the start and the velocity on the plane's axes n and e
    x0, v = np.array([r0, 0.0]), np.array([vr, r0 * vpsi])
    y0 = np.array(plane)

    def step(y, h):
        # atol 1 and rtol 0: the norm of the unscaled estimates
        return geo._dop853_step(MINK, y, h, geo._rhs(MINK, y),
                                1.0, 0.0)

    def r_error(n):
        y = y0
        for _ in range(n):
            y = y + step(y, 4.0 / n)[0]
        return abs(y[1] - np.linalg.norm(x0 + 4.0 * v))

    # measured: 5.3e-11 and 1.9e-13, order 8.14
    global_order = math.log2(r_error(3) / r_error(6))
    assert 7.5 <= global_order <= 8.8
    # measured: 4.2e-13 and 1.5e-15, order 8.08
    estimate_order = math.log2(step(y0, 4.0 / 8)[1] / step(y0, 4.0 / 16)[1])
    assert abs(estimate_order - 8.0) <= 0.2


def test_tableau_is_consistent():
    """Each stage node is the sum of its row, the weights sum to 1 and the
    error weights to 0; the tableau equals the one scipy ships, where that
    is installed."""
    assert len(geo._C) == len(_A) == len(_B) == len(_E5) == len(_E3) == 12
    for c, row in zip(geo._C, _A):
        assert abs(math.fsum(row) - c) < 1e-13
    assert abs(math.fsum(_B) - 1.0) < 1e-15
    assert abs(math.fsum(_E5)) < 1e-15 and abs(math.fsum(_E3)) < 1e-15
    coef = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    for i, row in enumerate(_A):
        assert row == tuple(coef.A[i, :i].tolist())
    assert geo._C == tuple(coef.C[:12].tolist())
    assert _B == tuple(coef.B.tolist())
    assert _E5 == tuple(coef.E5[:12].tolist()) and coef.E5[12] == 0.0
    assert _E3 == tuple(coef.E3[:12].tolist()) and coef.E3[12] == 0.0



def test_sparse_tableau_holds_the_nonzero_weights():
    """The step's sums visit the (stage, weight) pairs of every nonzero
    weight in order: 74 of the tableau's 102 entries."""
    dense = _A + (_B, _E5, _E3)
    sparse = geo._A_NZ + (geo._B_NZ, geo._E5_NZ, geo._E3_NZ)
    assert len(sparse) == len(dense) == 15
    for row, pairs in zip(dense, sparse):
        filled = [0.0] * len(row)
        for j, w in pairs:
            assert w != 0.0 and filled[j] == 0.0
            filled[j] = w
        assert tuple(filled) == row
        assert [j for j, _ in pairs] == sorted({j for j, _ in pairs})
    assert sum(map(len, dense)) == 102 and sum(map(len, sparse)) == 74


def step_bits(out):
    """(increment, norm, bad) of a step with each float as its hex, so a
    sign of zero or a last bit counts."""
    incr, norm, bad = out
    return tuple(map(float.hex, incr)), float.hex(norm), bad


RS = np.linspace(2.5, 30.0, 200)


@pytest.mark.parametrize("profile", [
    ST,
    ExpressionProfile("sqrt(1 - 2/r + 0.1/r^2)", "1/(1 - 2/r + 0.1/r^2)",
                      r_min=1.95),
    TableProfile(np.stack([RS, np.sqrt(1 - 2 / RS), 1 / (1 - 2 / RS)], axis=1)),
], ids=["schwarzschild", "reissner-type", "table"])
def test_step_equals_the_dense_step_bit_for_bit(profile):
    """Seeded states and step sizes, from steps far inside the tolerance to
    ones rejected, and starts where the profile is not real or past the
    table; then a step whose second stage lands on r = 0 exactly, where no
    profile is finite."""
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(150):
        y = (rng.uniform(-5.0, 5.0), rng.uniform(1.0, 20.0),
             rng.uniform(-3.0, 3.0), *rng.normal(size=3))
        f = geo._rhs(profile, y)
        h = 10.0 ** rng.uniform(-3.0, 1.3)
        tol = 10.0 ** rng.uniform(-16.0, -6.0)
        assert step_bits(geo._dop853_step(profile, y, h, f, tol, tol)) == \
            step_bits(oracles.dense_dop853_step(profile, y, h, f, tol, tol))
    y = (0.0, 3.0, 0.0, 1.0, -3.0 / _A[1][0], 0.0)
    f = geo._rhs(profile, y)
    assert all(map(math.isfinite, f))
    assert step_bits(geo._dop853_step(profile, y, 1.0, f, 1e-9, 1e-9)) == \
        step_bits(oracles.dense_dop853_step(profile, y, 1.0, f, 1e-9, 1e-9)) == \
        step_bits(([0.0] * 6, 0.0, True))


@pytest.mark.parametrize("span", [math.nan, math.inf, -5.0, 0.0])
def test_span_must_be_finite_and_positive(span):
    with pytest.raises(ValueError, match="span"):
        geo.integrate_null(ST, radial_null_state(ST, 10.0), span)


@pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan, math.inf])
def test_tol_must_be_finite_and_positive(tol):
    # tol = 0 would make the error scale of a zero component 0
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        geo.integrate_null(ST, radial_null_state(ST, 10.0), 5.0, tol=tol)


class TestRobustness:
    SQRT_PROFILE = ExpressionProfile("sqrt(1-2/r)", "1/(1-2/r)")

    def test_non_real_lapse_ends_in_domain_exit(self):
        profile = self.SQRT_PROFILE
        tr = geo.integrate_null(profile, radial_null_state(profile, 10.0),
                                100.0, tol=1e-3)
        assert tr.run.status == "domain-exit"
        assert "r = 2" in tr.run.reason
        assert 2.0 < tr.r[-1] < 2.01
        assert tr.run.rejected_steps > 0

    def test_trace_cli_writes_report_on_non_real_lapse(self, tmp_path):
        # t = 1000 makes the first trial step long enough for its stages to
        # reach r < 2, where the lapse is not real
        scn = tmp_path / "scn.json"
        scn.write_text(json.dumps({
            "schema": 1, "name": "sqrt-lapse", "pipeline": "trace",
            "profile": {"kind": "expression", "lapse": "sqrt(1-2/r)",
                        "radial_factor": "1/(1-2/r)"},
            "span": 100.0,
            "trace": {"start": [1000.0, 10.0, 1.2, 0.3],
                      "direction": [1.0, -0.8, 0.0, 0.0]}}))
        out = tmp_path / "o"
        code = cli.main(["trace", "--scenario", str(scn), "--out", str(out)])
        rep = json.loads((out / "trace.json").read_text())
        # the expression profile sets no r_min guard; the ray ends where
        # A = N^2 falls to DOMAIN_GUARD_RTOL, just outside r = 2
        assert (code, rep["status"]) == (cli.EXIT_TRUE, "domain-exit")
        assert "at r = 2.00002" in rep["reason"]
        assert rep["rejected_steps"] > 0 and rep["min_step"] > 0.0

    def test_a_division_by_zero_is_a_non_finite_stage(self):
        # Python floats raise ZeroDivisionError where numpy gave inf or
        # nan; the stage must still come back non-finite, so the step shrinks
        centre = (0.0, 0.0, 0.0, 1.0, 1.0, 0.0)                 # r = 0
        assert math.isnan(geo._rhs(ExpressionProfile("1", "1"), centre)[5])
        no_lapse = ExpressionProfile("0 * r", "1")               # A = 0
        y = (0.0, 3.0, 0.0, 1.0, 1.0, 0.0)
        assert math.isnan(geo._rhs(no_lapse, y)[3])
        assert math.isnan(geo.null_project(no_lapse, y)[0][3])
        assert all(math.isnan(v) for v in geo._factors(ST, 2.0))

    def test_constant_expression_profile_is_flat(self):
        flat = ExpressionProfile("1", "1")
        state = geo.null_state(flat, ChartPoint(0.0, 5.0, 1.0, 0.0),
                               (0.4, 0.1, 0.05))
        ref = geo.integrate_null(MINK, state, 20.0)
        tr = geo.integrate_null(flat, state, 20.0)
        assert np.array_equal(tr.samples, ref.samples)

    def test_no_real_null_direction_is_named(self):
        profile = self.SQRT_PROFILE
        with pytest.raises(ValueError, match="no real null direction"):
            geo.null_state(profile, ChartPoint(0.0, 1.5, 1.0, 0.0),
                           (0.1, 0.0, 0.0))
        inside = geo.GeodesicState(ChartPoint(0.0, 1.5, 1.0, 0.0),
                                   (1.0, 0.1, 0.0, 0.0))
        with pytest.raises(ValueError, match="no real null direction"):
            geo.integrate_null(profile, inside, 1.0)


def test_trajectory_reports_step_counts():
    tr = geo.integrate_null(ST, radial_null_state(ST, 10.0), 30.0)
    assert tr.run.accepted_steps == len(tr.samples) - 1
    assert tr.run.rejected_steps >= 0
    assert tr.run.min_step == pytest.approx(np.min(np.diff(tr.samples[:, 0])),
                                            rel=1e-6)
