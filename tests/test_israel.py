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
                                     TableProfile)

ST = SchwarzschildProfile(1.0)
N0 = 1.0 / math.sqrt(3.0)


@pytest.fixture(scope="module")
def foliation24():
    return isr.build_foliation(ST, N0, levels=24, r_hint=3.0)


class TestFoliation:
    def test_boundary_leaf_closed_forms(self, foliation24):
        fol = foliation24
        assert abs(fol.N[0] - N0) < 1e-14
        assert abs(fol.area_radius[0] - 3.0) < 1e-9
        assert abs(fol.rho[0] - 9.0) < 1e-8       # rho = r^2/m
        assert abs(fol.nuN[0] - oracles.NU_N0_M1) < 1e-12
        assert abs(fol.H[0] - oracles.H0_M1) < 1e-10

    def test_rho_matches_r_squared_over_m_on_all_levels(self, foliation24):
        rho = foliation24.rho
        assert np.all(np.abs(rho - foliation24.area_radius ** 2) < 1e-6 * rho)

    def test_gauss_bonnet_every_leaf(self, foliation24):
        total = foliation24.integral(foliation24.gauss_k)
        assert np.all(np.abs(total - 4.0 * math.pi) < 1e-9)

    def test_monotone_radius(self, foliation24):
        # dr/dN > 0 along the foliation
        assert np.all(np.diff(foliation24.area_radius) > 0)

    def test_flat_lapse_fails_foliation(self):
        mink = SchwarzschildProfile(0.0)
        # N0 < 1 is not flat: the lapse is 1 at the tail radius only
        with pytest.raises(DomainError, match="tail_radius = 50.0"):
            isr.build_foliation(mink, 0.9, levels=8, r_hint=3.0,
                                tail_radius=50.0)

    def test_hint_above_the_photon_sphere_is_not_bracketed(self):
        # every level shares one bracket from the hint up; above the
        # photon sphere N > N0 there, so level 0 has no root in it
        with pytest.raises(DomainError,
                           match=r"lapse level not bracketed.*bracket 0, "):
            isr.build_foliation(ST, N0, levels=8, r_hint=4.0)


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
                                         1 / (1 - 2 * m / r)]))


LEAF_PROFILES = {
    "schwarzschild-0.25": (SchwarzschildProfile(0.25), 0.9),
    "schwarzschild-1": (SchwarzschildProfile(1.0), 3.7),
    "schwarzschild-4": (SchwarzschildProfile(4.0), 14.0),
    "reissner-perturbed": (ExpressionProfile("sqrt(1 - 2/r + 0.1/r^2)",
                                             "1/(1 - 2/r + 0.1/r^2)",
                                             r_min=1.95), 3.7),
    "table": (_schwarzschild_table(1.0), 3.7),
}


FIELDS = ("sqrt_s", "rho", "H", "nuN", "gauss_k")
LEVEL_VECTORS = ("s", "N", "r_coord", "dN_ds")


def _first_levels(foliation, n):
    """The foliation cut to its first n levels."""
    return dataclasses.replace(foliation, **{
        name: getattr(foliation, name)[:n] for name in LEVEL_VECTORS + FIELDS})


@pytest.mark.parametrize("name", sorted(LEAF_PROFILES))
def test_leaf_fields_equal_the_dense_grid(name, monkeypatch):
    # a stacked block of three leaves: the lazy seeds, which keep theta
    # and phi at one number, give every field the bits of the dense
    # evaluation, whose seeds carry every leaf
    profile, r_level = LEAF_PROFILES[name]
    radii = r_level * np.array([1.0, 1.1, 1.3])
    lazy = isr._leaf_block(profile, radii)
    monkeypatch.setattr(jets, "variables", _dense_variables)
    dense = isr._leaf_block(profile, radii)
    assert len(lazy) == len(FIELDS)
    for a, b in zip(lazy, dense):
        assert a.shape == b.shape == (3,) and np.array_equal(a, b)


@pytest.mark.parametrize("name", ["schwarzschild-1", "reissner-perturbed",
                                  "table"])
def test_leaf_geometry_does_not_depend_on_phi(name):
    # the foliation samples every leaf at theta = pi/2, phi = 0 alone.  A
    # stacked block of three leaves gives the same bits at any other phi,
    # and at 16 other theta the same values to rounding: within 1e-14 of
    # the field's largest magnitude, and for the trace-free norm, which is
    # rounding itself, of the mean curvature's.  The chart's cot(theta)
    # terms amplify the rounding of the scalar curvature toward the poles
    # (1.7e-14 at theta = 0.088), so the 16 values keep 0.25 from them
    profile, r_level = LEAF_PROFILES[name]
    surface = hs.lapse_level_set(profile, r_level * np.array([1.0, 1.1, 1.3]))

    def fields(theta, phi):
        sd = hs.shape(surface, (theta, phi))
        bundle = calc.curvature(surface.induced_sampler(), (theta, phi))
        return {**{f.name: getattr(sd, f.name) for f in dataclasses.fields(sd)},
                **{f.name: getattr(bundle, f.name)
                   for f in dataclasses.fields(bundle)
                   if f.name not in ("dim", "coords")}}

    theta = np.linspace(0.25, math.pi - 0.25, 16)
    at_zero = fields(theta[:, None], 0.0)
    assert at_zero["mean_curvature"].shape == (16, 3)
    for phi in (1.0, math.pi, 5.5):
        for name, values in fields(theta[:, None], phi).items():
            assert np.array_equal(at_zero[name], values), (name, phi)

    equator = fields(0.5 * math.pi, 0.0)
    assert equator["mean_curvature"].shape == (3,)
    for name in ("mean_curvature", "tracefree_norm", "normal_rate", "scalar"):
        scale = np.max(np.abs(equator["mean_curvature" if name == "tracefree_norm"
                                      else name]))
        assert np.max(np.abs(at_zero[name] - equator[name])) <= 1e-14 * scale, name


def _single_leaf(profile, r):
    """H, nu(N) and Gauss curvature of one leaf, sampled alone."""
    sd, induced = hs.sample(hs.lapse_level_set(profile, r))
    return {"H": sd.mean_curvature, "nuN": sd.normal_rate,
            "gauss_k": 0.5 * induced.scalar}


@pytest.mark.parametrize("name", sorted(LEAF_PROFILES))
def test_stacked_blocks_equal_single_leaves(name):
    # one stacked evaluation of 37 leaves gives each leaf the bits of that
    # leaf sampled alone
    profile, r_level = LEAF_PROFILES[name]
    n0 = float(profile.lapse(r_level))
    stacked = isr.build_foliation(profile, n0, levels=37, r_hint=r_level)
    for j in range(37):
        alone = _single_leaf(profile, stacked.r_coord[j])
        for field, value in alone.items():
            assert getattr(stacked, field)[j] == value, (j, field)


UMBILIC_PROFILES = {
    **{f"schwarzschild-{m:g}": (SchwarzschildProfile(m), 3.0 * m)
       for m in (1e-100, 1e-8, 1.0, 3.7, 1e8, 1e100)},
    "reissner-perturbed": (LEAF_PROFILES["reissner-perturbed"][0],
                           oracles.RN_PHOTON_SPHERE_Q01),
    "table": (LEAF_PROFILES["table"][0], 3.0),
}


@pytest.mark.parametrize("levels", [8, 64, 1024])
@pytest.mark.parametrize("name", sorted(UMBILIC_PROFILES))
def test_every_leaf_is_umbilic_exactly(name, levels):
    # at theta = pi/2, where sin^2 theta is 1, the two principal curvatures
    # of a round leaf have the same bits: its trace-free norm, and with it
    # the sum-of-squares bracket of the identities, is 0.0 and not just
    # rounding, so the pipeline neither computes nor gates it
    profile, r_hint = UMBILIC_PROFILES[name]
    fol = isr.build_foliation(profile, float(profile.lapse(r_hint)), levels,
                              r_hint=r_hint)
    sd, _ = hs.sample(hs.lapse_level_set(profile, fol.r_coord))
    assert sd.tracefree_norm.shape == (levels,)
    assert np.all(sd.tracefree_norm == 0.0)


def test_stored_fields_are_one_per_level():
    # a radial profile's leaf fields keep one value per level: nothing has
    # a theta or a phi axis
    fol = isr.build_foliation(ST, N0, levels=8, r_hint=3.0,
                              tail_radius=50.0)
    assert len(fol) == 8
    for name in FIELDS + LEVEL_VECTORS:
        assert getattr(fol, name).shape == (8,), name
    assert np.array_equal(fol.integral(fol.rho), fol.rho * fol.area)
    assert np.array_equal(fol.area, 4.0 * math.pi * fol.sqrt_s)


@pytest.mark.parametrize("name", ["schwarzschild-1", "reissner-perturbed"])
def test_leaf_integral_equals_the_sphere_quadrature(name):
    # a leaf integral, the value at the one sample point times the leaf
    # area, equals the 64-node Gauss-Legendre integral of the field sampled
    # over the whole leaf
    profile, r_level = LEAF_PROFILES[name]
    fol = isr.build_foliation(profile, float(profile.lapse(r_level)), levels=8,
                              r_hint=r_level)
    theta, _, w = quad.sphere_grid(64)
    surface = hs.lapse_level_set(profile, fol.r_coord[:, None])
    sd = hs.shape(surface, (theta, 0.0))
    induced = calc.curvature(surface.induced_sampler(), (theta, 0.0))
    sigma = induced.metric_dd
    jac = np.sqrt(sigma[..., 0, 0] * sigma[..., 1, 1]) / np.sin(theta)
    assert np.allclose(fol.area, np.sum(jac * w, axis=1), rtol=1e-13, atol=0)
    for field, values in (("H", sd.mean_curvature), ("nuN", sd.normal_rate),
                          ("gauss_k", 0.5 * induced.scalar)):
        assert np.allclose(fol.integral(getattr(fol, field)),
                           np.sum(jac * values * w, axis=1),
                           rtol=1e-13, atol=0), field


def test_zero_or_non_finite_leaf_area_is_a_named_error():
    # m = 1e152: sigma = diag(r^2, r^2) at theta = pi/2 is finite at
    # r = 1e154, but the leaf area 4 pi r^2 overflows there, and the error
    # names that leaf
    st = SchwarzschildProfile(1e152)
    with pytest.raises(DomainError, match=r"level-set r0 = 1e\+154 has zero "
                       "or non-finite area"):
        isr._leaf_block(st, np.array([3e152, 1e154, 1.1e154]))


class _FlatSpotProfile(RadialProfile):
    """Schwarzschild m = 1, except that the lapse has zero gradient at the
    one radius ``r_flat``: a degenerate level set among regular ones."""

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
    # level 21 of 64 lies inside the one stacked evaluation of every leaf;
    # its lapse gradient vanishes, so the error must name that leaf
    regular = isr.build_foliation(ST, N0, levels=64, r_hint=3.0)
    r_flat = float(regular.r_coord[21])
    st = _FlatSpotProfile(r_flat)
    with pytest.raises(FoliationError, match="foliation failure") as err:
        isr.build_foliation(st, N0, levels=64, r_hint=3.0)
    assert str(err.value).endswith(f"on the level-set r0 = {r_flat!r}")


def test_build_foliation_evaluates_one_block_at_a_time(monkeypatch):
    # 64 levels make one block of 64 leaves: one sample, so one shape (with
    # one lapse gradient inside it) and one induced curvature
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
    fol = isr.build_foliation(ST, N0, levels=64, r_hint=3.0)
    assert len(fol) == 64
    assert calls == {"sample": 1, "shape": 1, "curvature": 1,
                     "scalar_taylor": 1}


class TestMassFlux:
    def test_levels_agree_for_m1(self, foliation24):
        fluxes = isr.mass_flux(foliation24)
        assert len(fluxes) == 24
        assert np.max(np.abs(fluxes - 1.0)) < 1e-8
        assert np.max(fluxes) - np.min(fluxes) < 1e-8

    def test_m2_level_r10(self):
        st2 = SchwarzschildProfile(2.0)
        fol = isr.build_foliation(st2, math.sqrt(1 - 0.4), levels=8,
                                  r_hint=10.0, tail_radius=100.0)
        assert abs(isr.mass_flux(fol)[0] - 2.0) < 1e-8


class TestIdentities:
    def test_schwarzschild_residuals_small(self, foliation24):
        # transverse differencing error scales like (log-spacing)^4: the
        # 1e-5 budget belongs to the 64-level acceptance configuration
        ids = isr.identity_residuals(foliation24, 1)
        assert ids.sup() < 5e-4
        assert np.max(ids.evolution) < 5e-4

    def test_interior_level_r5(self, foliation24):
        # the level nearest r = 5
        j = int(np.argmin(np.abs(foliation24.area_radius - 5.0)))
        ids = isr.identity_residuals(foliation24, 1)
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
                               "1/(1 - 2/r + 0.1/r^2)", r_min=1.95)
        n_ps = rn.lapse_d1(oracles.RN_PHOTON_SPHERE_Q01)[0]
        fol = isr.build_foliation(rn, n_ps, levels=16,
                                  r_hint=oracles.RN_PHOTON_SPHERE_Q01)
        ids = isr.identity_residuals(fol, 1)
        assert ids.sup() > 1e-3


class TestInequalities:
    def test_schwarzschild_sharpness(self, foliation24):
        sl = isr.inequality_slacks(foliation24, 1, 1.0)
        assert sl.sup34() < 1e-4
        assert sl.sup35() < 1e-4
        assert abs(sl.ineq37) < 1e-10 and abs(sl.ineq39) < 1e-10
        assert abs(sl.chain36) < 1e-10 and abs(sl.chain38) < 1e-10

    def test_synthetic_inhomogeneous_rho_gives_positive_brackets(self,
                                                                 foliation24):
        # leaf-inhomogeneous rho, 1 + 0.1 cos(theta) times the leaf's, on
        # 32 theta nodes: the square brackets are manifest sums of squares
        # and must come out strictly positive
        _, x, _ = quad.sphere_grid(32)
        fol = foliation24
        rho = fol.rho[:, None] * (1.0 + 0.1 * x)
        gsq = quad.sphere_grad_sq(rho, x, fol.area_radius[:, None])
        # a round leaf is umbilic, so the 2 |h_tracefree|^2 term is 0
        brackets = gsq / rho ** 2
        assert brackets.shape == (24, 32)
        assert np.mean(brackets) > 1e-5
        assert np.min(brackets) >= 0.0
        # the would-be slack carried by the brackets is strictly positive
        # on every leaf
        slack_via_brackets = np.mean(
            (fol.sqrt_s * np.sqrt(fol.rho) / (2 * fol.N))[:, None] * brackets,
            axis=1)
        assert np.min(slack_via_brackets) > 0.0
        # rho as read at the first theta node, 1.0997 times the leaf's on
        # every level: the identities no longer hold
        tampered = dataclasses.replace(fol, rho=rho[:, 0])
        assert isr.identity_residuals(tampered, 1).sup() > 1e-3

    def test_needs_dense_foliation(self):
        fol = isr.build_foliation(ST, N0, levels=8, r_hint=3.0,
                                  tail_radius=50.0)
        clipped = _first_levels(fol, 4)
        with pytest.raises(ValueError):
            isr.inequality_slacks(clipped, 1, 1.0)


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
    profile = SchwarzschildProfile(m)
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
        st5 = SchwarzschildProfile(5.0)
        fol = isr.build_foliation(st5, N0, levels=12, r_hint=15.0,
                                  tail_radius=500.0)
        b = isr.boundary_constraints(st5, fol, 5.0)
        assert abs(b.r0 - 15.0) < 1e-7
        assert abs(b.n0 - N0) < 1e-12                     # scale invariant
        assert abs(b.frak_h - oracles.FRAKH_M1 / 5.0) < 1e-9
        assert abs(b.mass_from_frakH - 5.0) < 1e-7


class TestReconstruction:
    def test_schwarzschild_constants(self):
        rec = isr.reconstruct_lapse(1.0, N0, 3.0, r_max=100.0)
        assert abs(rec.a_ode - 1.0) < 1e-8
        assert abs(rec.b_ode + 2.0) < 1e-8
        assert abs(rec.a_closed - 1.0) < 1e-12
        assert abs(rec.b_closed + 2.0) < 1e-12
        assert rec.sup_deviation < 1e-8

    def test_generic_constants_recovered(self):
        n0 = math.sqrt(0.9 - 1.8 / 3.0)
        rec = isr.reconstruct_lapse(0.9, n0, 3.0, r_max=100.0)
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
        rec = isr.reconstruct_lapse(m, N0, 3.0 * m, r_max=100.0 * m)
        assert rec.sup_deviation < 1e-13

    def test_constant_solution(self):
        rec = isr.reconstruct_lapse(0.0, 0.8, 3.0, r_max=60.0)
        assert abs(rec.a_ode - 0.64) < 1e-10
        assert abs(rec.b_ode) < 1e-9
        assert np.all(rec.lapse_profile == 0.8)

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
        # a coarse foliation, 24 levels, checked at a coarse tolerance
        rep = isr.run_israel_pipeline(ST, N0, 3.0, levels=24,
                                      tail_radius=100.0, tol=1e-3)
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
        rep = isr.run_israel_pipeline(SchwarzschildProfile(m), N0,
                                      3.0 * m, levels=64,
                                      tail_radius=None, tol=isr.TOL_LVL)
        assert rep.verdict == "isometric", [g for g in rep.gates if not g.passed]

    def test_gates_report_margin_and_level(self, tmp_path):
        rep = isr.run_israel_pipeline(ST, N0, 3.0, levels=24,
                                      tail_radius=100.0, tol=1e-3)
        gates = {g.name: g for g in rep.gates}
        ids = rep.identities
        # the residual fields are (levels,): the sup over the three
        # identities of each level
        per_level = np.max([ids.res31, ids.res32, ids.res33], axis=0)
        assert gates["identities"].level == int(np.argmax(per_level))
        assert gates["identities"].value == per_level[gates["identities"].level]
        assert gates["evolution-factor"].level == int(np.argmax(ids.evolution))
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
        # a leaf is one node, so a gate names it by its level, and writes no
        # other index.  H raised on level 10 fails the level-derivative gates
        fol = isr.build_foliation(ST, N0, levels=24, r_hint=3.0,
                                  tail_radius=100.0)
        h = fol.H.copy()
        h[10] *= 1.01
        perturbed = dataclasses.replace(fol, H=h)
        monkeypatch.setattr(isr, "build_foliation", lambda *a, **k: perturbed)
        rep = isr.run_israel_pipeline(ST, N0, 3.0, levels=24,
                                      tail_radius=100.0, tol=1e-3)
        gates = {g.name: g for g in rep.gates}
        for name in ("identities", "evolution-factor", "sharpness-34",
                     "sharpness-35"):
            assert not gates[name].passed, name
        path = tmp_path / "israel_report.json"
        cli._write_json(path, cli._israel_payload(rep))
        written = json.loads(path.read_text())["gates"]
        assert {g["name"]: g["level"] for g in written} == {
            g.name: g.level for g in rep.gates}
        assert all(set(g) == {"name", "value", "threshold", "passed", "margin",
                              "level"} for g in written)

    def test_leaf_terms_computed_once_per_leaf(self, monkeypatch):
        calls = {"sample": 0}
        sample = hs.sample

        def counted(*args, **kwargs):
            calls["sample"] += 1
            return sample(*args, **kwargs)

        monkeypatch.setattr(hs, "sample", counted)
        rep = isr.run_israel_pipeline(ST, N0, 3.0, levels=64,
                                      tail_radius=None, tol=isr.TOL_LVL)
        # one stacked sample of all 64 leaves, and one of the photon
        # cylinder; the checks read the foliation's stored fields
        assert calls == {"sample": 2}
        # which give what each check computes on its own
        monkeypatch.undo()
        ids = isr.identity_residuals(rep.foliation, rep.sign.lam)
        slacks = isr.inequality_slacks(rep.foliation, rep.sign.lam, rep.mass)
        for field in ("res31", "res32", "res33", "evolution"):
            assert np.array_equal(getattr(ids, field),
                                  getattr(rep.identities, field))
        for field in ("slack34", "slack35", "chain36", "ineq37", "chain38",
                      "ineq39"):
            assert np.array_equal(getattr(slacks, field),
                                  getattr(rep.slacks, field))

    @staticmethod
    def _gates_on(foliation, monkeypatch):
        """The pipeline's report and gates by name on a given foliation."""
        monkeypatch.setattr(isr, "build_foliation", lambda *a, **k: foliation)
        rep = isr.run_israel_pipeline(ST, N0, 3.0, levels=len(foliation),
                                      tail_radius=100.0, tol=1e-3)
        return rep, {g.name: g for g in rep.gates}

    def test_missing_tail_detected_as_structural(self, monkeypatch):
        # the first 12 of 16 levels stop short of the tail radius: the
        # structural tail gate fails, so the verdict is inconclusive
        fol = isr.build_foliation(ST, N0, levels=16, r_hint=3.0,
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
        fol = isr.build_foliation(ST, N0, levels=24, r_hint=3.0,
                                  tail_radius=100.0)
        r_coord = fol.r_coord.copy()
        r_coord[-1] = r
        rep, gates = self._gates_on(
            dataclasses.replace(fol, r_coord=r_coord, tail_radius=t), monkeypatch)
        assert (gates["tail"].value, gates["tail"].passed) == (r / t, False)
        assert rep.verdict == "inconclusive"

    def test_a_nan_fails_the_identities_at_its_node(self, monkeypatch):
        # a nan Gauss curvature on level 5, the one node of that leaf,
        # enters res32 there: the gate's sup counts it as the largest value,
        # so it fails with a nan value at that level
        fol = isr.build_foliation(ST, N0, levels=24, r_hint=3.0,
                                  tail_radius=100.0)
        gauss_k = fol.gauss_k.copy()
        gauss_k[5] = np.nan
        rep, gates = self._gates_on(
            dataclasses.replace(fol, gauss_k=gauss_k), monkeypatch)
        ids = gates["identities"]
        assert math.isnan(ids.value) and not ids.passed
        assert ids.level == 5
        assert math.isnan(rep.identities.sup())
        assert rep.verdict == "not-isometric"

    def test_m0_pipeline_rejected_flat(self):
        mink = SchwarzschildProfile(0.0)
        with pytest.raises(isr.FlatnessError):
            isr.run_israel_pipeline(mink, 0.9, 3.0, levels=8,
                                    tail_radius=None, tol=isr.TOL_LVL)


def test_identity_residuals_need_enough_levels(foliation24):
    clipped = _first_levels(foliation24, 5)
    with pytest.raises(ValueError):
        isr.identity_residuals(clipped, 1)
