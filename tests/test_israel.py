"""Foliation pipeline tests: flux, identities, inequalities, rigidity.

Heavy full-resolution runs live in the acceptance suite; here the
foliations are coarser (still well inside the error budget for what each
test asserts).
"""

import dataclasses
import json
import math

import numpy as np
import pytest

import oracles
from photonsphere import calculus as calc
from photonsphere import cli
from photonsphere import hypersurfaces as hs
from photonsphere import israel as isr
from photonsphere import jets
from photonsphere import quadrature as quad
from photonsphere.hypersurfaces import FoliationError
from photonsphere.spacetimes import (DomainError, ExpressionProfile,
                                     RadialProfile, SchwarzschildProfile,
                                     StaticSpacetime, TableProfile)

ST = StaticSpacetime.schwarzschild(1.0)
N0 = 1.0 / math.sqrt(3.0)


@pytest.fixture(scope="module")
def foliation24():
    return isr.build_foliation(ST, N0, levels=24, n_theta=32)


class TestFoliation:
    def test_boundary_leaf_closed_forms(self, foliation24):
        fol = foliation24
        assert abs(fol.N[0] - N0) < 1e-14
        assert abs(fol.area_radius[0] - 3.0) < 1e-9
        assert abs(fol.mean(fol.rho)[0] - 9.0) < 1e-8       # rho = r^2/m
        assert abs(fol.mean(fol.nuN)[0] - oracles.NU_N0_M1) < 1e-12
        assert abs(fol.mean(fol.H)[0] - oracles.H0_M1) < 1e-10
        assert fol.std(fol.rho)[0] < 1e-12

    def test_rho_matches_r_squared_over_m_on_all_levels(self, foliation24):
        rho = foliation24.mean(foliation24.rho)
        assert np.all(np.abs(rho - foliation24.area_radius ** 2) < 1e-6 * rho)

    def test_gauss_bonnet_every_leaf(self, foliation24):
        total = foliation24.integral(foliation24.gauss_k)
        assert np.all(np.abs(total - 4.0 * math.pi) < 1e-9)

    def test_monotone_radius(self, foliation24):
        # dr/dN > 0 along the foliation
        assert np.all(np.diff(foliation24.area_radius) > 0)

    def test_flat_lapse_fails_foliation(self):
        mink = StaticSpacetime.schwarzschild(0.0)
        # N0 < 1 is not flat: the lapse is 1 at the tail radius only
        with pytest.raises(DomainError, match="tail_radius = 50.0"):
            isr.build_foliation(mink, 0.9, levels=8, n_theta=8,
                                tail_radius=50.0)

    def test_hint_above_the_photon_sphere_is_not_bracketed(self):
        # every level shares one bracket from the hint up; above the
        # photon sphere N > N0 there, so level 0 has no root in it
        with pytest.raises(DomainError,
                           match=r"lapse level not bracketed.*bracket 0, "):
            isr.build_foliation(ST, N0, levels=8, n_theta=8,
                                r_hint=4.0)


def _dense_variables(coords, order=2):
    """Jet seeds broadcast to one common shape: every seed carries the whole
    node grid, so each node is evaluated on its own (the dense reference)."""
    vals = np.broadcast_arrays(*[np.asarray(c, dtype=float) for c in coords])
    n = len(vals)
    out = []
    for i, v in enumerate(vals):
        grad = np.zeros(v.shape + (n,))
        grad[..., i] = 1.0
        hess = None if order < 2 else np.zeros(v.shape + (n, n))
        out.append(jets.Jet(v.copy(), grad, hess))
    return out


def _schwarzschild_table(m, rows=160):
    r = np.geomspace(2.05 * m, 130.0 * m, rows)
    return TableProfile(np.column_stack([r, np.sqrt(1 - 2 * m / r),
                                         1 / (1 - 2 * m / r)]), mass_hint=m)


LEAF_PROFILES = {
    "schwarzschild-0.25": (SchwarzschildProfile(0.25), 0.9),
    "schwarzschild-1": (SchwarzschildProfile(1.0), 3.7),
    "schwarzschild-4": (SchwarzschildProfile(4.0), 14.0),
    "reissner-perturbed": (ExpressionProfile("sqrt(1 - 2/r + 0.1/r^2)",
                                             "1/(1 - 2/r + 0.1/r^2)",
                                             r_min=1.95, mass_hint=1.0), 3.7),
    "table": (_schwarzschild_table(1.0), 3.7),
}


FIELDS = ("jacobian", "sqrt_s", "rho", "H", "nuN", "tracefree", "gauss_k")
LEVEL_VECTORS = ("s", "N", "r_coord", "dN_ds", "area")


def _first_levels(foliation, n):
    """The foliation cut to its first n levels."""
    return dataclasses.replace(foliation, **{
        name: getattr(foliation, name)[:n] for name in LEVEL_VECTORS + FIELDS})


@pytest.mark.parametrize("name", sorted(LEAF_PROFILES))
def test_leaf_fields_equal_the_dense_grid(name, monkeypatch):
    # a stacked block of three leaves: the lazy seeds, which keep r at one
    # value per level, give every field the bits of the dense evaluation,
    # whose seeds carry every node
    profile, r_level = LEAF_PROFILES[name]
    st = StaticSpacetime(profile)
    radii = r_level * np.array([1.0, 1.1, 1.3])
    lazy = isr._leaf_block(st, radii, 12)
    monkeypatch.setattr(jets, "variables", _dense_variables)
    dense = isr._leaf_block(st, radii, 12)
    assert lazy[0].shape == (3,) and np.array_equal(lazy[0], dense[0])
    for a, b in zip(lazy[1:], dense[1:]):
        assert a.shape == b.shape == (3, 12) and np.array_equal(a, b)


@pytest.mark.parametrize("name", ["schwarzschild-1", "reissner-perturbed",
                                  "table"])
def test_leaf_geometry_does_not_depend_on_phi(name):
    # the foliation samples every leaf at phi = 0 alone; a stacked block of
    # three leaves gives the same bits at any other phi
    profile, r_level = LEAF_PROFILES[name]
    surface = hs.lapse_level_set(StaticSpacetime(profile),
                                 r_level * np.array([[1.0], [1.1], [1.3]]))
    theta, _, _ = quad.sphere_grid(12)

    def fields(phi):
        sd = hs.shape(surface, (theta, phi))
        bundle = calc.curvature(surface.induced_sampler(), (theta, phi))
        return [getattr(sd, f.name) for f in dataclasses.fields(sd)] + [
            getattr(bundle, f.name) for f in dataclasses.fields(bundle)
            if f.name not in ("dim", "coords")]

    at_zero = fields(0.0)
    assert at_zero[0].shape == (3, 12)
    for phi in (1.0, math.pi, 5.5):
        for a, b in zip(at_zero, fields(phi)):
            assert a.shape == b.shape and np.array_equal(a, b), phi


def _single_leaf(st, r, n_theta):
    """H, tracefree, nu(N) and Gauss curvature of one leaf, sampled alone
    on the unstacked theta axis at phi = 0."""
    sd, induced = hs.sample(hs.lapse_level_set(st, r), n_theta)
    return {"H": sd.mean_curvature, "tracefree": sd.tracefree_norm,
            "nuN": sd.normal_rate, "gauss_k": 0.5 * induced.scalar}


@pytest.mark.parametrize("name", sorted(LEAF_PROFILES))
def test_stacked_blocks_equal_single_leaves(name, monkeypatch):
    # 37 levels of 64 theta rows: blocks of 16, 16 and a partial 5
    profile, r_level = LEAF_PROFILES[name]
    st = StaticSpacetime(profile)
    n0 = float(profile.lapse(r_level))
    build = lambda: isr.build_foliation(st, n0, levels=37, n_theta=64,
                                        r_hint=r_level)
    stacked = build()
    monkeypatch.setattr(isr, "BLOCK_ROWS", 64)      # one leaf per block
    per_leaf = build()
    for field in LEVEL_VECTORS + FIELDS:
        a, b = getattr(stacked, field), getattr(per_leaf, field)
        assert a.shape == b.shape and np.array_equal(a, b), field
    for j in (0, 15, 16, 31, 32, 36):
        alone = _single_leaf(st, stacked.r_coord[j], 64)
        for field, values in alone.items():
            assert np.array_equal(getattr(stacked, field)[j],
                                  np.broadcast_to(values, (64,))), (j, field)


def test_stored_fields_are_theta_only():
    # a radial profile's leaf fields keep one value per (level, theta) node,
    # and the quadrature weights one per theta node: nothing has a phi axis
    fol = isr.build_foliation(ST, N0, levels=8, n_theta=64,
                              tail_radius=50.0)
    assert len(fol) == 8
    assert fol.weights.shape == (64,)
    for name in FIELDS:
        assert getattr(fol, name).shape == (8, 64), name
    for name in LEVEL_VECTORS:
        assert getattr(fol, name).shape == (8,), name


class _FlatSpotProfile(RadialProfile):
    """Schwarzschild m = 1, except that the lapse has zero gradient at the
    one radius ``r_flat``: a degenerate level set among regular ones."""

    mass_hint = 1.0

    def __init__(self, r_flat):
        self._base = SchwarzschildProfile(1.0)
        self.r_min = self._base.r_min
        self.r_flat = r_flat

    def lapse(self, r):
        n = self._base.lapse(r)
        if not isinstance(r, jets.Jet):
            return n
        flat = np.broadcast_to(r.val == self.r_flat, n.val.shape)[..., None]
        return jets.Jet(n.val, np.where(flat, 0.0, n.grad),
                        np.where(flat[..., None], 0.0, n.hess))

    def radial_factor(self, r):
        return self._base.radial_factor(r)


def test_foliation_error_names_a_leaf_inside_a_block():
    # level 21 of 64 lies inside the second block of 16; its lapse gradient
    # vanishes, so the error must name that leaf, not the block
    regular = isr.build_foliation(ST, N0, levels=64, n_theta=64,
                                  r_hint=3.0)
    r_flat = float(regular.r_coord[21])
    st = StaticSpacetime(_FlatSpotProfile(r_flat))
    with pytest.raises(FoliationError, match="foliation failure") as err:
        isr.build_foliation(st, N0, levels=64, n_theta=64, r_hint=3.0)
    assert str(err.value).endswith(f"at level {r_flat}")


def test_build_foliation_evaluates_one_block_at_a_time(monkeypatch):
    # 64 levels of 64 theta rows make four blocks of 16 leaves: one sample,
    # so one shape (with one lapse gradient inside it) and one induced
    # curvature, per block
    calls = {"sample": 0, "shape": 0, "curvature": 0, "scalar_taylor": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(hs, "sample")
    counted(hs, "shape")
    counted(hs, "curvature")
    counted(hs, "scalar_taylor")
    fol = isr.build_foliation(ST, N0, levels=64, n_theta=64,
                              r_hint=3.0)
    assert len(fol) == 64
    assert calls == {"sample": 4, "shape": 4, "curvature": 4,
                     "scalar_taylor": 4}


class TestMassFlux:
    def test_levels_agree_for_m1(self, foliation24):
        fluxes = isr.mass_flux(foliation24)
        assert len(fluxes) == 24
        assert np.max(np.abs(fluxes - 1.0)) < 1e-8
        assert np.max(fluxes) - np.min(fluxes) < 1e-8

    def test_m2_level_r10(self):
        st2 = StaticSpacetime.schwarzschild(2.0)
        fol = isr.build_foliation(st2, math.sqrt(1 - 0.4), levels=8,
                                  n_theta=16, r_hint=10.0,
                                  tail_radius=100.0)
        assert abs(isr.mass_flux(fol)[0] - 2.0) < 1e-8


class TestIdentities:
    def test_schwarzschild_residuals_small(self, foliation24):
        # transverse differencing error scales like (log-spacing)^4: the
        # 1e-5 budget belongs to the 64-level acceptance configuration
        ids = isr.identity_residuals(foliation24, 1,
                                     isr._leaf_terms(foliation24))
        assert ids.sup() < 5e-4
        assert np.max(ids.evolution) < 5e-4

    def test_interior_level_r5(self, foliation24):
        # the level nearest r = 5
        j = int(np.argmin(np.abs(foliation24.area_radius - 5.0)))
        ids = isr.identity_residuals(foliation24, 1,
                                     isr._leaf_terms(foliation24))
        assert np.max(ids.res31[j]) < 5e-4
        assert np.max(ids.res32[j]) < 5e-4
        assert np.max(ids.res33[j]) < 5e-4

    def test_chain_rule_oracle_for_identity_33(self, foliation24):
        # rho_N = lam rho^2 H <=> d(r^2/m)/dN = (r^4/m^2)(2N/r), via
        # dr/dN = r^2 N / m; check the closed forms at the r=5 level
        j = int(np.argmin(np.abs(foliation24.area_radius - 5.0)))
        r, n = foliation24.area_radius[j], foliation24.N[j]
        dr_dn = r ** 2 * n / 1.0
        rho_n_closed = 2.0 * r * dr_dn
        assert np.isclose(rho_n_closed, (r ** 4) * (2 * n / r), rtol=1e-12)

    def test_nonvacuum_profile_breaks_identities(self):
        rn = ExpressionProfile("sqrt(1 - 2/r + 0.1/r^2)",
                               "1/(1 - 2/r + 0.1/r^2)", r_min=1.95,
                               mass_hint=1.0)
        strn = StaticSpacetime(rn)
        n_ps = rn.lapse_d1(oracles.RN_PHOTON_SPHERE_Q01)[0]
        fol = isr.build_foliation(strn, n_ps, levels=16, n_theta=16,
                                  r_hint=oracles.RN_PHOTON_SPHERE_Q01)
        ids = isr.identity_residuals(fol, 1, isr._leaf_terms(fol))
        assert ids.sup() > 1e-3


class TestInequalities:
    def test_schwarzschild_sharpness(self, foliation24):
        sl = isr.inequality_slacks(foliation24, 1, 1.0,
                                   isr._leaf_terms(foliation24))
        assert sl.sup34() < 1e-4
        assert sl.sup35() < 1e-4
        assert abs(sl.ineq37) < 1e-10 and abs(sl.ineq39) < 1e-10
        assert abs(sl.chain36) < 1e-10 and abs(sl.chain38) < 1e-10
        assert sl.bracket_min >= -1e-14

    def test_synthetic_inhomogeneous_rho_gives_positive_brackets(self,
                                                                 foliation24):
        # leaf-inhomogeneous rho perturbation: the square brackets are
        # manifest sums of squares and must come out strictly positive
        factor = 1.0 + 0.1 * foliation24.x_nodes   # 1 + 0.1 cos(theta)
        fol = dataclasses.replace(foliation24, rho=foliation24.rho * factor)
        assert fol.rho.shape == (24, 32)
        gsq = quad.sphere_grad_sq(fol.rho, fol.x_nodes,
                                  fol.area_radius[:, None])
        brackets = gsq / fol.rho ** 2 + 2.0 * fol.tracefree ** 2
        bracket_mean = np.mean([np.mean(b) for b in brackets])
        assert bracket_mean > 1e-5
        assert np.min(brackets) >= 0.0
        # identities no longer hold on the tampered data
        ids = isr.identity_residuals(fol, 1, isr._leaf_terms(fol))
        assert ids.sup() > 1e-3
        # and the would-be slack carried by the brackets is strictly positive
        n = fol.N[:, None]
        slack_via_brackets = [
            float(np.mean(level)) for level in
            fol.sqrt_s * np.sqrt(fol.rho) / (2 * n) * brackets]
        assert len(slack_via_brackets) == 24
        assert min(slack_via_brackets) > 0.0

    def test_needs_dense_foliation(self):
        fol = isr.build_foliation(ST, N0, levels=8, n_theta=8,
                                  tail_radius=50.0)
        clipped = _first_levels(fol, 4)
        with pytest.raises(ValueError):
            isr.inequality_slacks(clipped, 1, 1.0, isr._leaf_terms(clipped))


class TestSignAnalysis:
    def test_schwarzschild_positive_branch(self, foliation24):
        sign = isr.sign_analysis(foliation24, 1.0, oracles.FRAKH_M1, isr.TOL_LVL)
        assert sign.lam == 1 and sign.consistent
        assert sign.exclusion_equality      # r0^2 = 9 m^2 exactly
        assert sign.negative_branch_contradiction

    def test_zero_mass_rejected_with_flatness(self, foliation24):
        with pytest.raises(isr.FlatnessError):
            isr.sign_analysis(foliation24, 0.0, oracles.FRAKH_M1, isr.TOL_LVL)

    def test_sign_mismatch_flagged(self, foliation24):
        sign = isr.sign_analysis(foliation24, 1.0, -oracles.FRAKH_M1,
                                isr.TOL_LVL)
        assert not sign.consistent


@pytest.mark.parametrize("m, flat", [(0.0, True), (0.9e-10, True),
                                     (1.1e-10, False), (-1.1e-10, False)])
def test_one_flatness_rule(m, flat):
    # the lapse is flat where the Schwarzschild mass r (1 - N^2) / 2 of its
    # value is below 1e-10 r, as sign_analysis reads the mass flux at r0
    profile = StaticSpacetime.schwarzschild(m).profile
    if flat:
        with pytest.raises(isr.FlatnessError, match="lapse is 1 at 2 radii"):
            isr.check_not_flat(profile, (1.0, 1.0))
    else:
        isr.check_not_flat(profile, (1.0, 1.0))


class TestBoundaryConstraints:
    def test_all_closed_form_relations(self, foliation24):
        b = isr.boundary_constraints(ST, foliation24, 1.0)
        assert b.gauss_constraint < 1e-7    # 4 N0 = 4 m H0 + r0^2 N0 H0^2
        assert b.frakH_r0 < 1e-7            # frakH r0 = sqrt(3)
        assert b.n0_mass_frakH < 1e-7       # N0 = m frakH
        assert b.n0_schwarzschild < 1e-7    # N0^2 = 1 - 2m/r0
        assert b.h0_relation < 1e-7         # H0 = 2 N0 / r0
        assert b.scalar_cross < 1e-7        # R_sigma = (2/3) frakH^2
        assert b.scalar_p_cross < 1e-7      # R_p = (2/3) frakH^2
        assert abs(b.mass_from_frakH - 1.0) < 1e-7

    def test_scale_invariance_m5(self):
        st5 = StaticSpacetime.schwarzschild(5.0)
        fol = isr.build_foliation(st5, N0, levels=12, n_theta=16,
                                  r_hint=15.0, tail_radius=500.0)
        b = isr.boundary_constraints(st5, fol, 5.0)
        assert abs(b.r0 - 15.0) < 1e-7
        assert abs(b.n0 - N0) < 1e-12                     # scale invariant
        assert abs(b.frak_h - oracles.FRAKH_M1 / 5.0) < 1e-9
        assert abs(b.mass_from_frakH - 5.0) < 1e-7


class TestReconstruction:
    def test_schwarzschild_constants(self):
        rec = isr.reconstruct_lapse(1.0, N0, 3.0)
        assert abs(rec.a_ode - 1.0) < 1e-8
        assert abs(rec.b_ode + 2.0) < 1e-8
        assert abs(rec.a_closed - 1.0) < 1e-12
        assert abs(rec.b_closed + 2.0) < 1e-12
        assert rec.sup_deviation < 1e-8

    def test_generic_constants_recovered(self):
        n0 = math.sqrt(0.9 - 1.8 / 3.0)
        rec = isr.reconstruct_lapse(0.9, n0, 3.0)
        assert abs(rec.a_ode - 0.9) < 1e-8
        assert abs(rec.b_ode + 1.8) < 1e-8

    def test_barycentric_tools_are_exact_on_polynomials(self):
        s = quad.chebyshev_nodes(isr.RECONSTRUCTION_NODES, math.log(3.0),
                                 math.log(100.0))
        assert s[0] == math.log(3.0) and abs(s[-1] - math.log(100.0)) < 1e-15
        p = np.polynomial.Polynomial([0.3, -1.0, 0.5, 0.2, -0.05])
        d = quad.barycentric_diff_matrix(s)
        assert np.max(np.abs(d @ p(s) - p.deriv()(s))) < 1e-11
        at = np.array([s[0], 1.7, 2.9, s[5]])
        assert np.max(np.abs(quad.barycentric_interpolate(s, p(s), at)
                             - p(at))) < 1e-13

    @pytest.mark.parametrize("m", [0.25, 1.0, 4.0])
    def test_collocation_reaches_rounding(self, m):
        rec = isr.reconstruct_lapse(m, N0, 3.0 * m)
        assert rec.sup_deviation < 1e-13

    def test_constant_solution(self):
        rec = isr.reconstruct_lapse(0.0, 0.8, 3.0, r_max=60.0)
        assert abs(rec.a_ode - 0.64) < 1e-10
        assert abs(rec.b_ode) < 1e-9
        assert np.all(rec.lapse_profile == 0.8)

    def test_lapse_range_guard(self):
        with pytest.raises(ValueError):
            isr.reconstruct_lapse(1.0, 1.2, 3.0)
        with pytest.raises(ValueError):
            isr.reconstruct_lapse(1.0, 0.5, -1.0)
        with pytest.raises(ValueError):
            isr.reconstruct_lapse(1.0, 0.5, 3.0, r_max=3.0)

    def test_radius_ratio_bounded_by_the_nodes(self):
        # 32 nodes resolve r_max/r0 = 1e12; past it the sup error grows
        # (4.4e-12 at 1e15, 1.6e-7 at 3e29), so the range is refused
        rec = isr.reconstruct_lapse(1.0, N0, 3.0, r_max=3e12)
        assert rec.sup_deviation < 1e-12
        for r_max in (3.1e12, 3.0 / 1.1e12):
            with pytest.raises(ValueError, match="radius ratio r_max/r0"):
                isr.reconstruct_lapse(1.0, N0, 3.0, r_max=r_max)


class TestRigidityVerdict:
    def test_coarse_pipeline_still_isometric(self):
        # a coarse foliation, 24 levels on a 16x32 grid, checked at a
        # coarse tolerance
        rep = isr.run_israel_pipeline(ST, N0, 3.0, levels=24,
                                      n_theta=16, tail_radius=100.0,
                                      tol=1e-3)
        assert rep.verdict == "isometric"
        assert abs(rep.mass - 1.0) < 1e-8
        names = {g.name for g in rep.gates}
        assert {"identities", "sharpness-37", "lambda-exclusion", "tail",
                "reconstruction", "H-positive"} <= names

    @pytest.mark.parametrize("m", [0.25, 4.0])
    def test_pinned_levels_isometric_for_light_and_heavy_masses(self, m):
        # the level derivatives must keep the identities of a light mass,
        # whose residuals are normalized by the floor of one, below the
        # default tol
        rep = isr.run_israel_pipeline(StaticSpacetime.schwarzschild(m), N0,
                                      3.0 * m, levels=64, n_theta=16,
                                      tail_radius=None, tol=isr.TOL_LVL)
        assert rep.verdict == "isometric", [g for g in rep.gates if not g.passed]

    def test_gates_report_margin_and_level(self, tmp_path):
        rep = isr.run_israel_pipeline(ST, N0, 3.0, levels=24,
                                      n_theta=16, tail_radius=100.0,
                                      tol=1e-3)
        gates = {g.name: g for g in rep.gates}
        ids = rep.identities
        # the residual fields are (levels, n_theta): the sup over the three
        # identities and every node of each level
        per_level = np.max([ids.res31, ids.res32, ids.res33], axis=(0, 2))
        assert gates["identities"].level == int(np.argmax(per_level))
        assert gates["identities"].value == per_level[gates["identities"].level]
        assert gates["evolution-factor"].level == int(
            np.argmax(np.max(ids.evolution, axis=1)))
        assert gates["H-positive"].level is None
        path = tmp_path / "israel_report.json"
        cli._write_json(path, cli._israel_payload(rep))
        report = json.loads(path.read_text())
        for g in report["gates"]:
            gate = gates[g["name"]]
            assert g["level"] == gate.level
            if g["threshold"] > 0:
                assert g["margin"] == g["value"] / g["threshold"]
            else:
                assert g["margin"] is None

    def test_gates_report_the_node_of_a_perturbed_leaf(self, monkeypatch,
                                                       tmp_path):
        # H raised on theta node 5 of level 10 reaches the level-derivative
        # gates only through that node; a tracefree spike at theta node 3 of
        # level 7 is read by its gate there
        fol = isr.build_foliation(ST, N0, levels=24, n_theta=16,
                                  tail_radius=100.0)
        h = fol.H.copy()
        h[10, 5] *= 1.01
        tracefree = fol.tracefree.copy()
        tracefree[7] = 0.0
        tracefree[7, 3] = 1e-3  # small beside the H step in the identities
        perturbed = dataclasses.replace(fol, H=h, tracefree=tracefree)
        monkeypatch.setattr(isr, "build_foliation", lambda *a, **k: perturbed)
        rep = isr.run_israel_pipeline(ST, N0, 3.0, levels=24,
                                      n_theta=16, tail_radius=100.0,
                                      tol=1e-3)
        gates = {g.name: g for g in rep.gates}
        for name in ("identities", "evolution-factor", "sharpness-34",
                     "sharpness-35"):
            assert not gates[name].passed and gates[name].node == 5, name
        tf = gates["leaf-constancy-tracefree"]
        # the gate reads the dimensionless r_area |h_tracefree|
        assert (tf.value, tf.level, tf.node) == (
            fol.area_radius[7] * 1e-3, 7, 3)
        assert all(g.node is None for g in rep.gates if g.name not in (
            "identities", "evolution-factor", "sharpness-34", "sharpness-35",
            "leaf-constancy-tracefree"))
        path = tmp_path / "israel_report.json"
        cli._write_json(path, cli._israel_payload(rep))
        nodes = {g["name"]: g["node"]
                 for g in json.loads(path.read_text())["gates"]}
        assert nodes == {g.name: g.node for g in rep.gates}

    def test_leaf_constancy_gates_can_fail(self, monkeypatch):
        # rho tilted in theta on level 9 and the trace-free norm peaked at
        # theta node 6 of level 14: both leaf-constancy gates fail there
        fol = isr.build_foliation(ST, N0, levels=24, n_theta=16,
                                  tail_radius=100.0)
        rho, tracefree = fol.rho.copy(), fol.tracefree.copy()
        rho[9] *= 1.0 + 0.01 * fol.x_nodes
        tracefree[14] = 1e-3 * (1.0 - np.abs(np.arange(16) - 6) / 16)
        perturbed = dataclasses.replace(fol, rho=rho, tracefree=tracefree)
        monkeypatch.setattr(isr, "build_foliation", lambda *a, **k: perturbed)
        rep = isr.run_israel_pipeline(ST, N0, 3.0, levels=24,
                                      n_theta=16, tail_radius=100.0,
                                      tol=1e-3)
        assert rep.verdict == "not-isometric"
        gates = {g.name: g for g in rep.gates}
        rho_gate = gates["leaf-constancy-rho"]
        # the spread of rho over a leaf has no node
        assert (rho_gate.passed, rho_gate.level, rho_gate.node) == (False, 9, None)
        assert rho_gate.value == pytest.approx(0.01 / math.sqrt(3.0), rel=1e-2)
        tf = gates["leaf-constancy-tracefree"]
        assert (tf.passed, tf.value, tf.level, tf.node) == (
            False, fol.area_radius[14] * 1e-3, 14, 6)

    def test_leaf_terms_computed_once_per_leaf(self, monkeypatch):
        calls = {"_leaf_terms": 0, "sphere_laplacian": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(isr, "_leaf_terms")
        counted(quad, "sphere_laplacian")
        rep = isr.run_israel_pipeline(ST, N0, 3.0, levels=64,
                                      n_theta=16, tail_radius=None,
                                      tol=isr.TOL_LVL)
        # one stacked pass over all 64 leaves, shared by both checks
        assert calls == {"_leaf_terms": 1, "sphere_laplacian": 2}
        # the shared terms give what each check computes on its own
        monkeypatch.undo()
        terms = isr._leaf_terms(rep.foliation)
        ids = isr.identity_residuals(rep.foliation, rep.sign.lam, terms)
        slacks = isr.inequality_slacks(rep.foliation, rep.sign.lam, rep.mass,
                                       terms)
        for field in ("res31", "res32", "res33", "evolution"):
            assert np.array_equal(getattr(ids, field),
                                  getattr(rep.identities, field))
        for field in ("slack34", "slack35", "bracket_min", "chain36", "ineq37",
                      "chain38", "ineq39"):
            assert np.array_equal(getattr(slacks, field),
                                  getattr(rep.slacks, field))

    @staticmethod
    def _gates_on(foliation, monkeypatch):
        """The pipeline's report and gates by name on a given foliation."""
        monkeypatch.setattr(isr, "build_foliation", lambda *a, **k: foliation)
        rep = isr.run_israel_pipeline(ST, N0, 3.0, levels=len(foliation),
                                      n_theta=16, tail_radius=100.0, tol=1e-3)
        return rep, {g.name: g for g in rep.gates}

    def test_missing_tail_detected_as_structural(self, monkeypatch):
        # the first 12 of 16 levels stop short of the tail radius: the
        # structural tail gate fails, so the verdict is inconclusive
        fol = isr.build_foliation(ST, N0, levels=16, n_theta=16,
                                  tail_radius=100.0)
        _, gates = self._gates_on(fol, monkeypatch)
        assert gates["tail"].passed
        rep, gates = self._gates_on(_first_levels(fol, 12), monkeypatch)
        tail = gates["tail"]
        assert tail.structural and not tail.passed
        assert tail.value == fol.r_coord[11] / 100.0 < isr.TAIL_REACH
        assert rep.verdict == "inconclusive"

    def test_tail_gate_applies_its_bound_to_the_value_it_writes(
            self, monkeypatch):
        # r >= 0.99 t rounds true for this pair, but r / t is below 0.99:
        # the gate reads r / t, so it fails
        r, t = 645077.3879184923, 651593.3211297903
        assert r >= isr.TAIL_REACH * t and r / t < isr.TAIL_REACH
        fol = isr.build_foliation(ST, N0, levels=24, n_theta=16,
                                  tail_radius=100.0)
        r_coord = fol.r_coord.copy()
        r_coord[-1] = r
        rep, gates = self._gates_on(
            dataclasses.replace(fol, r_coord=r_coord, tail_radius=t), monkeypatch)
        assert (gates["tail"].value, gates["tail"].passed) == (r / t, False)
        assert rep.verdict == "inconclusive"

    def test_a_nan_fails_the_identities_at_its_node(self, monkeypatch):
        # a nan Gauss curvature on level 5, node 3 enters res32 there: the
        # gate's sup counts it as the largest value, so it fails with a nan
        # value at that level and node
        fol = isr.build_foliation(ST, N0, levels=24, n_theta=16,
                                  tail_radius=100.0)
        gauss_k = fol.gauss_k.copy()
        gauss_k[5, 3] = np.nan
        rep, gates = self._gates_on(
            dataclasses.replace(fol, gauss_k=gauss_k), monkeypatch)
        ids = gates["identities"]
        assert math.isnan(ids.value) and not ids.passed
        assert (ids.level, ids.node) == (5, 3)
        assert math.isnan(rep.identities.sup())
        assert rep.verdict == "not-isometric"

    def test_m0_pipeline_rejected_flat(self):
        mink = StaticSpacetime.schwarzschild(0.0)
        with pytest.raises(isr.FlatnessError):
            isr.run_israel_pipeline(mink, 0.9, 3.0, levels=8,
                                    n_theta=8, tail_radius=None,
                                    tol=isr.TOL_LVL)


def test_identity_residuals_need_enough_levels(foliation24):
    clipped = _first_levels(foliation24, 5)
    with pytest.raises(ValueError):
        isr.identity_residuals(clipped, 1, isr._leaf_terms(clipped))
