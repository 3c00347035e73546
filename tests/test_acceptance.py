"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  The Schwarzschild m=1 pipeline (64 levels, each leaf
sampled at one point, as the bundled scenario runs it) is shared
session-wide.
"""

import json
import math
import time

import numpy as np
import pytest

import oracles
from photonsphere import cli, geodesics as geo, hypersurfaces as hs
from photonsphere import israel as isr
from photonsphere import photon as ph
from photonsphere import quadrature as quad
from photonsphere.calculus import curvature, vacuum_residual
from photonsphere.spacetimes import (ChartPoint, ExpressionProfile,
                                     SchwarzschildProfile)

ST = SchwarzschildProfile(1.0)
N0 = 1.0 / math.sqrt(3.0)
RNG_SEED = 20259121


def report(criterion, ok, detail):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def m1_report():
    """The pinned Schwarzschild m=1 pipeline (64 levels), run once, with the
    parameters of the bundled schwarzschild_m1 scenario."""
    scn = cli.load_scenario(cli.bundled_scenario_path("schwarzschild_m1"))
    t0 = time.time()
    rep = isr.run_israel_pipeline(ST, N0, 3.0, levels=scn.levels,
                                  tail_radius=scn.tail_radius,
                                  tol=scn.tolerance)
    rep_elapsed = time.time() - t0
    return rep, rep_elapsed


def test_criterion_1_photon_sphere_location():
    worst_rel, worst_time = 0.0, 0.0
    for m in (0.5, 1.0, 2.0, 10.0):
        t0 = time.time()
        loc = ph.locate_photon_sphere(SchwarzschildProfile(m),
                                      (2.1 * m, 50.0 * m))
        worst_time = max(worst_time, time.time() - t0)
        worst_rel = max(worst_rel, abs(loc.r_ps - 3.0 * m) / (3.0 * m))
    ok = worst_rel < 1e-8 and worst_time < 1.0
    report(1, ok, f"r_ps rel err {worst_rel:.2e} (tol 1e-8), "
                  f"slowest mass {worst_time:.3f}s (< 1 s)")


def test_criterion_2_tangency_persistence():
    # 32 tangent chart seeds per radius, each integrated alone, and the one
    # in-plane orbit that the certificate integrates for all of them
    t0 = time.time()
    seeds, orbit = {}, {}
    for r0 in (3.0, 4.0):
        seeds[r0] = [float(np.max(np.abs(geo.integrate_null(
            ST, s, 100.0, geo.TANGENCY_TOL).r - r0)))
            for s in oracles.tangent_null_seeds(ST, r0, 32, rng_seed=RNG_SEED)]
        orbit[r0] = geo.tangency_persistence(hs.cylinder(ST, r0),
                                             100.0).max_deviation
    elapsed = time.time() - t0
    ok = (max(seeds[3.0]) < 1e-5 and orbit[3.0] < 1e-5
          and min(seeds[4.0]) > 1e-1 and orbit[4.0] > 1e-1
          and elapsed < 30.0)
    report(2, ok, f"max|r-3| = {max(seeds[3.0]):.2e} over 32 seeds, "
                  f"{orbit[3.0]:.2e} on the orbit (tol 1e-5); r=4m "
                  f"deviation at least {min(seeds[4.0]):.2e} over 32 seeds, "
                  f"{orbit[4.0]:.2e} on the orbit (> 1e-1); "
                  f"{elapsed:.1f}s (< 30 s)")


def test_criterion_3_energy_law():
    rng = np.random.default_rng(RNG_SEED)
    worst_drift = 0.0
    verdicts_agree = True
    n_constant = 0
    for k in range(100):
        if k % 25 == 0:
            # photon-sphere orbits: the constant-energy side of the lemma
            state = oracles.tangent_null_seeds(ST, 3.0, 8, rng_seed=k)[k % 8]
            tol = geo.TANGENCY_TOL
        else:
            r0 = rng.uniform(2.6, 20.0)
            direction = rng.normal(size=3) * np.array([0.5, 0.2 / r0, 0.2 / r0])
            state = geo.null_state(
                ST, ChartPoint(0.0, r0, rng.uniform(0.6, math.pi - 0.6),
                               rng.uniform(0.0, 2 * math.pi)),
                tuple(direction))
            tol = geo.DEFAULT_TOL
        traj = geo.integrate_null(ST, state, 20.0, tol=tol)
        worst_drift = max(worst_drift, traj.energy_times_lapse_drift())
        v = geo.energy_constancy_verdict(traj)
        verdicts_agree &= (v.constant == v.lapse_constant)
        n_constant += int(v.constant)
    ok = worst_drift < 1e-8 and verdicts_agree and 0 < n_constant < 100
    report(3, ok, f"max |E N - const| = {worst_drift:.2e} (tol 1e-8); "
                  f"energy/lapse verdicts agree on 100 geodesics "
                  f"({n_constant} constant)")


def test_criterion_4_vacuum_verification():
    rng = np.random.default_rng(RNG_SEED)
    coords = (rng.uniform(2.2, 50.0, 500), rng.uniform(0.3, math.pi - 0.3, 500),
              rng.uniform(0.0, 2 * math.pi, 500))
    vr = vacuum_residual(ST, coords)
    worst = max(vr.hessian_residual, vr.scalar_residual, vr.laplace_residual)
    rn = ExpressionProfile("sqrt(1 - 2/r + 0.1/r^2)", "1/(1 - 2/r + 0.1/r^2)",
                           r_min=1.95)
    vr_rn = vacuum_residual(rn, ChartPoint(r=3.0, theta=1.0))
    flagged = max(vr_rn.hessian_residual, vr_rn.scalar_residual,
                  vr_rn.laplace_residual)
    ok = worst < 1e-6 and flagged > 1e-3
    report(4, ok, f"Schwarzschild residual sup {worst:.2e} at 500 points "
                  f"(tol 1e-6); perturbed profile residual {flagged:.2e} "
                  f"(> 1e-3)")


def test_criterion_5_mass_flux(m1_report):
    rep, _ = m1_report
    idx = np.linspace(0, len(rep.foliation) - 1, 10).astype(int)
    flux1 = list(isr.mass_flux(rep.foliation)[idx])
    st2 = SchwarzschildProfile(2.0)
    fol2 = isr.build_foliation(st2, N0, levels=10, r_hint=6.0,
                               tail_radius=200.0)
    flux2 = list(isr.mass_flux(fol2))
    err1 = max(abs(f - 1.0) for f in flux1)
    err2 = max(abs(f - 2.0) for f in flux2)
    spread = max(max(flux1) - min(flux1), max(flux2) - min(flux2))
    ok = err1 < 1e-8 and err2 < 1e-8 and spread < 1e-8
    report(5, ok, f"flux errors m=1: {err1:.2e}, m=2: {err2:.2e} (tol 1e-8); "
                  f"level spread {spread:.2e} (tol 1e-8)")


def test_criterion_6_boundary_identities(m1_report):
    rep, _ = m1_report
    b = rep.boundary
    residuals = {
        "frakH*r0 - sqrt(3)": b.frakH_r0,
        "N0 - m frakH": b.n0_mass_frakH,
        "N0^2 - (1 - 2m/r0)": b.n0_schwarzschild,
        "H0 - 2N0/r0": b.h0_relation,
        "R_sigma - (2/3) frakH^2": b.scalar_cross,
        "R_p - (2/3) frakH^2": b.scalar_p_cross,
        "4N0 - 4m H0 - r0^2 N0 H0^2": b.gauss_constraint,
    }
    worst = max(residuals.values())
    ok = worst < 1e-7 and abs(b.mass_from_frakH - 1.0) < 1e-7
    report(6, ok, f"worst boundary-identity residual {worst:.2e} (tol 1e-7); "
                  f"m recovered from frakH = {b.mass_from_frakH:.9f}")


def _theta_reduction(profile, foliation):
    """How far the leaves of ``foliation`` are from one point each, sampled
    at the 64 Gauss-Legendre theta nodes: the largest theta spread of a
    leaf field over its largest magnitude on the leaf (of the trace-free
    norm, which is rounding itself, over |H|), and the largest of the leaf
    Laplacian and gradient terms the pipeline leaves out of the identities,
    -(2 / sqrt(rho)) Lap sqrt(rho), -Lap log(rho) and |grad rho|^2 / rho^2,
    over the Gauss term R_sigma."""
    theta, x, _ = quad.sphere_grid(64)
    surface = hs.lapse_level_set(profile, foliation.r_coord[:, None])
    sd = hs.shape(surface, (theta, 0.0))
    induced = curvature(surface.induced_sampler(), (theta, 0.0))
    sigma = induced.metric_dd
    rho = np.broadcast_to(1.0 / np.abs(sd.normal_rate), sigma.shape[:-2])
    fields = (np.sqrt(sigma[..., 0, 0]) * np.sqrt(sigma[..., 1, 1]) / np.sin(theta),
              rho, sd.mean_curvature, sd.normal_rate, induced.scalar)
    spread = max(float(np.max(np.ptp(f, axis=1) / np.max(np.abs(f), axis=1)))
                 for f in np.broadcast_arrays(*fields))
    spread = max(spread, float(np.max(sd.tracefree_norm
                                      / np.abs(sd.mean_curvature))))
    r_area = foliation.area_radius[:, None]
    dropped = np.abs([
        2.0 / np.sqrt(rho) * quad.sphere_laplacian(np.sqrt(rho), x, r_area),
        quad.sphere_laplacian(np.log(rho), x, r_area),
        quad.sphere_grad_sq(rho, x, r_area) / rho ** 2])
    return spread, float(np.max(dropped / np.abs(induced.scalar)))


def test_criterion_7_identities_and_inequalities(m1_report):
    rep, elapsed = m1_report
    ids_sup = rep.identities.sup()
    slacks = rep.slacks
    integrated = max(abs(slacks.ineq37), abs(slacks.ineq39),
                     abs(slacks.chain36), abs(slacks.chain38))
    sharp = max(slacks.sup34(), slacks.sup35())
    # the leaves are round: sampled on 64 theta nodes, every leaf field is
    # constant and the leaf terms the pipeline leaves out vanish, to rounding
    scn = cli.load_scenario(cli.bundled_scenario_path("reissner_perturbed"))
    rn = scn.profile
    loc = ph.locate_photon_sphere(rn, scn.scan)
    rn_fol = isr.build_foliation(rn, loc.lapse_at_ps, scn.levels,
                                 scn.tail_radius, r_hint=loc.r_ps)
    spread, dropped = np.max([_theta_reduction(ST, rep.foliation),
                              _theta_reduction(rn, rn_fol)], axis=0)
    ok = (ids_sup < 1e-5 and integrated < 1e-5 and sharp < 1e-5
          and slacks.bracket_min >= -1e-14 and spread < 1e-12
          and dropped < 1e-9 and elapsed < 120.0)
    report(7, ok, f"identity residual sup {ids_sup:.2e} (tol 1e-5); "
                  f"integrated slacks {integrated:.2e}, pointwise sharpness "
                  f"{sharp:.2e} (tol 1e-5); bracket min {slacks.bracket_min:.1e} "
                  f">= -1e-14; on m1 and reissner_perturbed at 64 theta nodes, "
                  f"leaf field spread {spread:.1e} (< 1e-12) and dropped leaf "
                  f"terms {dropped:.1e} of R_sigma (< 1e-9); {elapsed:.0f}s "
                  f"(< 120 s)")


def test_criterion_8_lambda_exclusion(m1_report):
    rep, _ = m1_report
    s = rep.sign
    ok = (s.lam == 1 and s.exclusion_equality
          and s.negative_branch_contradiction and s.consistent)
    report(8, ok, f"lambda = +1 branch: r0^2 <= 9 m^2 with slack "
                  f"{s.exclusion_slack:.1e} (equality); lambda = -1 branch "
                  f"bound is negative: contradiction recorded")


def test_criterion_9_reconstruction(m1_report):
    rep, _ = m1_report
    rec = isr.reconstruct_lapse(1.0, N0, 3.0, r_max=100.0)
    ok = (abs(rec.a_ode - 1.0) < 1e-8 and abs(rec.b_ode + 2.0) < 1e-8
          and rec.sup_deviation < 1e-8
          and rep.verdict == "isometric" and abs(rep.mass - 1.0) < 1e-8)
    report(9, ok, f"A = {rec.a_ode:.10f}, B = {rec.b_ode:.10f} (tol 1e-8), "
                  f"sup|N - sqrt(1-2/r)| = {rec.sup_deviation:.2e}; "
                  f"scenario verdict '{rep.verdict}' with mass {rep.mass:.9f}")


def test_criterion_10_degenerate_gates(tmp_path):
    loc_mink = ph.locate_photon_sphere(SchwarzschildProfile(0.0), (0.5, 50.0))
    loc_neg = ph.locate_photon_sphere(SchwarzschildProfile(-1.0), (0.1, 50.0))
    out = str(tmp_path / "flat")
    code = cli.main(["israel", "--scenario", "minkowski", "--out", out])
    status = json.loads(open(f"{out}/israel_report.json").read())["status"]
    ok = (not loc_mink.found and not loc_neg.found
          and code == cli.EXIT_ERROR and status == "rejected-flat")
    report(10, ok, f"Minkowski: no photon sphere; negative mass: no photon "
                   f"sphere; m=0 israel run exits {code} with status "
                   f"'{status}'")
