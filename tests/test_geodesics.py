"""Null geodesic integration: conservation laws, tangency, reversal.

The batched stepping loop is checked bit for bit against the scalar loop it
replaced, kept below as the reference.
"""

import functools
import json
import math

import numpy as np
import pytest

import oracles
from photonsphere import cli
from photonsphere import geodesics as geo
from photonsphere import hypersurfaces as hs
from photonsphere.geodesics import (_A, _B5, _ERR, DEFAULT_TOL,
                                    DOMAIN_GUARD_RTOL, THETA_GUARD, TOL_NULL,
                                    GeodesicTrajectory)
from photonsphere.spacetimes import (ChartPoint, ExpressionProfile,
                                     StaticSpacetime, TableProfile)

ST = StaticSpacetime.schwarzschild(1.0)
MINK = StaticSpacetime.schwarzschild(0.0)


def radial_null_state(spacetime, r0, ingoing=True):
    a = spacetime.profile.metric_factors_d1(r0)[0]
    vr = -a if ingoing else a
    return geo.GeodesicState(ChartPoint(0.0, r0, 1.2, 0.3), (1.0, vr, 0.0, 0.0))


# ---------------------------------------------------------------------------
# The scalar reference: the one-trajectory loop over Python floats that the
# batched loop replaced, kept verbatim except for the helper names and for
# its stage and error sums, which go through ``scalar_sum``.
# ---------------------------------------------------------------------------

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


def scalar_error_norm(err, y_old, y_new, atol, rtol):
    acc = 0.0
    for e, a_, b_ in zip(err, y_old, y_new):
        sc = atol + rtol * max(abs(a_), abs(b_))
        acc += (e / sc) ** 2
    return math.sqrt(acc / len(err))


def scalar_integrate_null(spacetime, initial, span, tol=DEFAULT_TOL, max_steps=2_000_000):
    """Integrate a null geodesic over an affine interval [0, span].

    The initial velocity is projected onto the null cone (rejected if the
    projection moves it by more than sqrt(tol_null) relative).  Terminates
    early with a descriptive status when the domain boundary or a pole is
    approached, or when the adaptive step underflows.
    """
    profile = spacetime.profile
    y = initial.as_array().tolist()
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
        for i in range(1, 7):
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
        incr = [h * math.fsum(_B5[m] * k[m][j] for m in range(7)) for j in range(8)]
        y_new = [y[j] + incr[j] for j in range(8)]
        err = [h * scalar_sum(_ERR[m] * k[m][j] for m in range(7))
               for j in range(8)]
        enorm = scalar_error_norm(err, y, y_new, atol, rtol)
        if enorm <= 1.0:
            lam += h
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
        factor = 5.0 if enorm == 0.0 else 0.9 * enorm ** -0.2
        h *= min(5.0, max(0.2, factor))

    samples = np.asarray(rows)
    lapse = np.asarray([profile.lapse_d1(r)[0] for r in samples[:, 2]])
    energies = -lapse * samples[:, 5]
    c_est = float(np.mean(-energies * lapse))
    traj = GeodesicTrajectory(samples, energies, np.asarray(residuals),
                              c_est, status, reason, _lapse=lapse)
    return traj


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


# ---------------------------------------------------------------------------
# The batched loop against the scalar reference, bit for bit
# ---------------------------------------------------------------------------

RNG_SEED = 20259121
CRITERION2_SPAN = 100.0


def batch_runs(profile, states, span, tol=DEFAULT_TOL, max_steps=geo.MAX_STEPS):
    """Integrate ``states`` as one batch; (samples, residuals, run) per state."""
    rows = [[] for _ in states]
    resid = [[] for _ in states]

    def record(seeds, lam, y, residual):
        for col, seed in enumerate(seeds.tolist()):
            rows[seed].append(np.concatenate(([lam[col]], y[:, col])))
            resid[seed].append(residual[col])

    runs = geo._integrate_batch(profile, states, span, tol, max_steps, record)
    return [(np.array(r), np.array(x), run) for r, x, run in zip(rows, resid, runs)]


def assert_same_trajectory(ref, samples, residuals, run):
    """``run`` is the RunSummary of the batched integration."""
    assert np.array_equal(ref.samples, samples)
    assert np.array_equal(ref.null_residuals, residuals)
    assert (ref.status, ref.reason) == (run.status, run.reason)
    assert run.accepted_steps == len(samples) - 1


@functools.lru_cache(maxsize=None)
def criterion2_reference(r0):
    seeds = geo.tangent_null_seeds(ST, r0, 32, rng_seed=RNG_SEED)
    return seeds, [scalar_integrate_null(ST, s, CRITERION2_SPAN, geo.TANGENCY_TOL)
                   for s in seeds]


class TestBatchMatchesScalarReference:
    @pytest.mark.parametrize("r0", [3.0, 4.0])
    def test_criterion2_seeds_bit_identical(self, r0):
        seeds, refs = criterion2_reference(r0)
        batch = batch_runs(ST.profile, seeds, CRITERION2_SPAN, geo.TANGENCY_TOL)
        for ref, (samples, residuals, run) in zip(refs, batch):
            assert_same_trajectory(ref, samples, residuals, run)

    @pytest.mark.parametrize("r0", [3.0, 4.0])
    def test_tangency_deviations_exact(self, r0):
        seeds, refs = criterion2_reference(r0)
        rep = geo.tangency_persistence(ST, hs.cylinder(ST, r0), seeds,
                                       CRITERION2_SPAN)
        assert rep.deviations == tuple(float(np.max(np.abs(ref.r - r0)))
                                       for ref in refs)
        assert rep.statuses == tuple(ref.status for ref in refs)
        assert [run.accepted_steps for run in rep.runs] == [
            len(ref.samples) - 1 for ref in refs]

    def test_lapse_deviations_exact(self):
        surf = hs.cylinder(ST, 3.0, level_field="lapse")
        seeds = geo.tangent_null_seeds(ST, 3.0, 4, rng_seed=5)
        rep = geo.tangency_persistence(ST, surf, seeds, 20.0)
        n0 = ST.profile.lapse_d1(3.0)[0]
        refs = [scalar_integrate_null(ST, s, 20.0, geo.TANGENCY_TOL) for s in seeds]
        assert rep.deviations == tuple(float(np.max(np.abs(ref._lapse - n0)))
                                       for ref in refs)

    @pytest.mark.parametrize("case", ["minkowski-ray", "minkowski-seed",
                                      "radial-infall", "pole", "max-steps",
                                      "expression-profile"])
    def test_single_trajectory_bit_identical(self, case):
        spacetime, span, kw = ST, 30.0, {}
        if case == "minkowski-ray":
            spacetime = MINK
            state = geo.null_state(MINK, ChartPoint(0.0, 5.0, 1.0, 0.0),
                                   (0.4, 0.1, 0.05))
        elif case == "minkowski-seed":
            spacetime = MINK
            state = geo.tangent_null_seeds(MINK, 3.0, 4, rng_seed=3)[1]
        elif case == "radial-infall":
            state = radial_null_state(ST, 10.0)
            span = 50.0
        elif case == "pole":
            state = geo.null_state(ST, ChartPoint(0.0, 8.0, 0.4, 0.2),
                                   (0.0, -0.05, 1e-9))
        elif case == "max-steps":
            state = radial_null_state(ST, 10.0)
            kw = {"max_steps": 5}
        else:
            spacetime = StaticSpacetime(ExpressionProfile(
                "sqrt(1 - 2/r + 0.1/r^2)", "1/(1 - 2/r + 0.1/r^2)", r_min=1.95))
            state = geo.null_state(spacetime, ChartPoint(0.0, 4.0, 1.1, 0.3),
                                   (0.01, 0.03, 0.05))
        ref = scalar_integrate_null(spacetime, state, span, **kw)
        traj = geo.integrate_null(spacetime, state, span, **kw)
        assert_same_trajectory(ref, traj.samples, traj.null_residuals, traj.run)
        assert np.array_equal(ref.energies, traj.energies)
        expected = {"radial-infall": "domain-exit", "pole": "pole",
                    "max-steps": "stiff"}.get(case, "completed")
        assert traj.status == expected

    def test_mixed_batch_matches_each_alone(self):
        states = [radial_null_state(ST, 10.0),
                  geo.null_state(ST, ChartPoint(0.0, 8.0, 0.4, 0.2),
                                 (0.0, -0.05, 1e-9)),
                  *geo.tangent_null_seeds(ST, 3.0, 3, rng_seed=2)]
        batch = batch_runs(ST.profile, states, 30.0)
        assert [run.status for _, _, run in batch] == [
            "domain-exit", "pole", "completed", "completed", "completed"]
        for state, (samples, residuals, run) in zip(states, batch):
            assert_same_trajectory(scalar_integrate_null(ST, state, 30.0),
                                   samples, residuals, run)

    def test_table_profile_failure_stays_with_its_seed(self):
        rs = np.linspace(2.5, 12.0, 400)
        table = TableProfile(np.stack([rs, np.sqrt(1 - 2 / rs),
                                       1 / (1 - 2 / rs)], axis=1))
        spacetime = StaticSpacetime(table)
        leaving = radial_null_state(spacetime, 11.0, ingoing=False)
        states = [*geo.tangent_null_seeds(spacetime, 3.0, 3, rng_seed=4),
                  leaving, geo.tangent_null_seeds(spacetime, 5.0, 2, 4)[0]]
        batch = batch_runs(table, states, 10.0)
        for k, (state, (samples, residuals, run)) in enumerate(zip(states, batch)):
            ref = scalar_integrate_null(spacetime, state, 10.0)
            if k != 3:
                assert_same_trajectory(ref, samples, residuals, run)
                continue
            # the seed whose stages leave the table: same steps, and it ends
            # at the table edge instead of in a step-size underflow
            assert np.array_equal(ref.samples, samples)
            assert (ref.status, ref.reason) == ("stiff", "step size underflow")
            assert run.status == "domain-exit"
            assert "r = 12" in run.reason
            assert run.rejected_steps > 0


class TestRobustness:
    SQRT_PROFILE = ExpressionProfile("sqrt(1-2/r)", "1/(1-2/r)")

    def test_non_real_lapse_ends_in_domain_exit(self):
        spacetime = StaticSpacetime(self.SQRT_PROFILE)
        tr = geo.integrate_null(spacetime, radial_null_state(spacetime, 10.0),
                                100.0, tol=1e-3)
        assert tr.status == "domain-exit"
        assert "r = 2" in tr.reason
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
        # the step then underflows against the horizon at r = 2 (the
        # expression profile sets no r_min guard): inconclusive, exit 2
        assert (code, rep["status"]) == (cli.EXIT_ERROR, "stiff")
        assert rep["rejected_steps"] > 0 and rep["min_step"] > 0.0

    def test_constant_expression_profile_is_flat(self):
        flat = StaticSpacetime(ExpressionProfile("1", "1"))
        state = geo.null_state(flat, ChartPoint(0.0, 5.0, 1.0, 0.0),
                               (0.4, 0.1, 0.05))
        ref = geo.integrate_null(MINK, state, 20.0)
        tr = geo.integrate_null(flat, state, 20.0)
        assert np.array_equal(tr.samples, ref.samples)

    def test_no_real_null_direction_is_named(self):
        spacetime = StaticSpacetime(self.SQRT_PROFILE)
        with pytest.raises(ValueError, match="no real null direction"):
            geo.null_state(spacetime, ChartPoint(0.0, 1.5, 1.0, 0.0),
                           (0.1, 0.0, 0.0))
        inside = geo.GeodesicState(ChartPoint(0.0, 1.5, 1.0, 0.0),
                                   (1.0, 0.1, 0.0, 0.0))
        with pytest.raises(ValueError, match="no real null direction"):
            geo.integrate_null(spacetime, inside, 1.0)


def test_trajectory_reports_step_counts():
    tr = geo.integrate_null(ST, radial_null_state(ST, 10.0), 30.0)
    assert (tr.run.status, tr.run.reason) == (tr.status, tr.reason)
    assert tr.run.accepted_steps == len(tr.samples) - 1
    assert tr.run.rejected_steps >= 0
    assert tr.run.min_step == pytest.approx(np.min(np.diff(tr.affine)), rel=1e-6)
