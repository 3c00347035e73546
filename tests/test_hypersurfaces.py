"""Unit-normal and second-fundamental-form tests for the cylinder and the
lapse level sets."""

import math

import numpy as np
import pytest

import oracles
from photonsphere import calculus as calc
from photonsphere import hypersurfaces as hs
from photonsphere.spacetimes import DomainError, SchwarzschildProfile

ST = SchwarzschildProfile(1.0)
MINK = SchwarzschildProfile(0.0)


class TestShape:
    def test_photon_sphere_level_set_mean_curvature(self):
        sd = hs.shape(hs.lapse_level_set(ST, 3.0), (1.1, 0.4))
        assert np.isclose(sd.mean_curvature, oracles.H0_M1)
        assert sd.tracefree_norm < 1e-14

    def test_cylinder_umbilic_exactly_at_photon_sphere(self):
        sd3 = hs.shape(hs.cylinder(ST, 3.0), (0.0, 1.0, 0.2))
        assert np.isclose(sd3.mean_curvature, oracles.FRAKH_M1)
        assert sd3.tracefree_norm < 1e-14
        sd4 = hs.shape(hs.cylinder(ST, 4.0), (0.0, 1.0, 0.2))
        assert sd4.tracefree_norm > 1e-2

    def test_trace_recomputation_matches(self):
        # the trace of II in closed form: 2N/r on a sphere of the slice, and
        # 2N/r + dN/dr on a cylinder, whose time direction adds eta(N)/N
        for surf, pt, extra in ((hs.cylinder(ST, 3.5), (0.0, 1.1, 0.3), 1.0),
                                (hs.lapse_level_set(ST, 5.0), (0.7, 2.0), 0.0)):
            n, n1 = ST.lapse_d1(surf.level_value)
            trace = 2.0 * n / surf.level_value + extra * n1
            assert abs(trace - hs.shape(surf, pt).mean_curvature) < 1e-12

    def test_vectorized_grid_matches_pointwise(self):
        lvl = hs.lapse_level_set(ST, 4.2)
        theta = np.linspace(0.4, 2.6, 4)
        phi = np.linspace(0.1, 5.9, 3)
        tg, pg = np.meshgrid(theta, phi, indexing="ij")
        grid = hs.shape(lvl, (tg, pg))
        for i in range(4):
            for j in range(3):
                single = hs.shape(lvl, (theta[i], phi[j]))
                assert np.isclose(grid.mean_curvature[i, j],
                                  single.mean_curvature)

    def test_normal_normalization_invariant(self):
        for surf, pt, tau in ((hs.cylinder(ST, 3.0), (0.0, 1.0, 0.2), 1),
                              (hs.lapse_level_set(ST, 5.0), (1.0, 0.2), 1)):
            x = surf.embed(pt)
            g, _, _ = calc.metric_taylor(surf.ambient, x)
            eta_d, eta_u, _ = hs.normal_data(surf, x, np.linalg.inv(g))
            assert abs(np.einsum("a,a->", eta_d, eta_u) - tau) < 1e-12

    def test_gradient_normal_matches_inverse_metric_derivative(self):
        # eta_a = sign * w_a / sqrt(g^ab w_a w_b) with w = df, on random
        # non-diagonal SPD metrics; the leaf's level function is the lapse,
        # the cylinder's is r
        rng = np.random.default_rng(17)
        for surf, n_dim in ((hs.lapse_level_set(ST, 5.0), 3),
                            (hs.cylinder(ST, 4.0), 4)):
            x = tuple(rng.uniform(2.5, 9.0, 64) if a == surf.normal_axis
                      else rng.uniform(0.3, 2.8, 64) for a in range(n_dim))
            root = rng.normal(size=(64, n_dim, n_dim))
            g = root @ np.swapaxes(root, -1, -2) + n_dim * np.eye(n_dim)
            ginv = np.linalg.inv(g)
            eta_d, _, _ = hs.normal_data(surf, x, ginv)

            _, w, _ = calc.scalar_taylor(hs._level_function(surf)[1], x)
            qs = np.sqrt(np.einsum("...ab,...a,...b->...", ginv, w, w))
            sign = np.sign(np.einsum("...ab,...b->...a", ginv, w)[..., surf.normal_axis])
            assert np.allclose(eta_d, w / qs[..., None] * sign[..., None],
                               rtol=1e-14, atol=0.0)

    def test_foliation_failure_on_flat_lapse(self):
        with pytest.raises(hs.FoliationError):
            hs.shape(hs.lapse_level_set(MINK, 3.0), (1.0, 0.2))


def test_sample_names_the_first_non_finite_leaf():
    # r^2 overflows on the second leaf alone: the error names its radius as
    # one number, and no RuntimeWarning escapes (they are errors here)
    surface = hs.lapse_level_set(ST, np.array([3.0, 3e300, 4e300]))
    with pytest.raises(DomainError, match=r"level-set r0 = 3e\+300 has "
                       "non-finite shape data or induced metric"):
        hs.sample(surface)


class TestGaussResidual:
    """The normal Ricci term of the contracted Gauss equation on a leaf."""

    def test_level_set_at_r5_and_ric_nn_relation(self):
        lvl = hs.lapse_level_set(ST, 5.0)
        # N Ric(nu,nu) = -H nu(N) on every level of a radial vacuum slice
        coords = (5.0, 1.0, 0.3)
        bundle = calc.curvature(ST.metric3, coords)
        g, _, _ = calc.metric_taylor(ST.metric3, coords)
        _, eta_u, _ = hs.normal_data(lvl, coords, np.linalg.inv(g))
        ric_nn = np.einsum("ab,a,b->", bundle.ricci_dd, eta_u, eta_u)
        n5 = ST.lapse(5.0)
        h5 = hs.shape(lvl, (1.0, 0.3)).mean_curvature
        nu_n5 = 1.0 / 25.0  # m/r^2
        assert abs(n5 * ric_nn + h5 * nu_n5) < 1e-12


def test_nu_of_lapse_constant_on_level_sets():
    # sampled std-dev of nu(N) over a leaf is at machine scale
    lvl = hs.lapse_level_set(ST, 3.0)
    theta = np.linspace(0.3, 2.8, 8)
    phi = np.linspace(0.0, 6.0, 9)
    tg, pg = np.meshgrid(theta, phi, indexing="ij")
    coords = lvl.embed((tg, pg))
    g, _, _ = calc.metric_taylor(lvl.ambient, coords)
    _, eta_u, _ = hs.normal_data(lvl, coords, np.linalg.inv(g))
    _, dn, _ = calc.scalar_taylor(lambda c: ST.lapse(c[0]), coords)
    nu_n = np.einsum("...a,...a->...", eta_u, dn)
    assert np.std(nu_n) < 1e-14
    assert np.isclose(np.mean(nu_n), oracles.NU_N0_M1)


def test_codazzi_contraction_reproduces_cmc_mechanism():
    # contracting Codazzi over a frame: |Ric(Y, eta) - (1-n) Y(H/n)| small
    # on the umbilic photon cylinder (both sides vanish there)
    cyl = hs.cylinder(ST, 3.0)
    pt = (0.0, 1.0, 0.2)
    amb = calc.curvature(ST.metric4, cyl.embed(pt))
    g, _, _ = calc.metric_taylor(ST.metric4, cyl.embed(pt))
    _, eta_u, _ = hs.normal_data(cyl, cyl.embed(pt), np.linalg.inv(g))
    for axis in (0, 2, 3):
        y = np.zeros(4)
        y[axis] = 1.0
        ric_y_eta = np.einsum("ab,a,b->", amb.ricci_dd, y, eta_u)
        assert abs(ric_y_eta) < 1e-10  # frakH constant => Y(frakH) = 0
