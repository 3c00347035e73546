"""Second-fundamental-form and Gauss/Codazzi residual tests for the four
chart-aligned embeddings."""

import math

import numpy as np
import pytest

import oracles
from photonsphere import calculus as calc
from photonsphere import hypersurfaces as hs
from photonsphere.spacetimes import StaticSpacetime

ST = StaticSpacetime.schwarzschild(1.0)
MINK = StaticSpacetime.schwarzschild(0.0)


class TestShape:
    def test_round_sphere_in_flat_space(self):
        lvl = hs.lapse_level_set(MINK, 1.7, level_field="r")
        sd = hs.shape(lvl, (1.1, 0.4))
        assert np.isclose(sd.mean_curvature, 2.0 / 1.7)
        assert sd.tracefree_norm < 1e-14
        assert np.allclose(sd.second_ff, np.eye(2) / 1.7)

    def test_photon_sphere_level_set_mean_curvature(self):
        sd = hs.shape(hs.lapse_level_set(ST, 3.0), (1.1, 0.4))
        assert np.isclose(sd.mean_curvature, oracles.H0_M1)
        assert sd.tracefree_norm < 1e-14

    def test_time_slice_vanishes(self):
        sd = hs.shape(hs.time_slice(ST), (3.5, 1.0, 0.2))
        assert np.max(np.abs(sd.second_ff)) < 1e-15
        assert abs(sd.mean_curvature) < 1e-15

    def test_sphere_in_cylinder_vanishes(self):
        sd = hs.shape(hs.sphere_in_cylinder(ST, 3.0), (1.0, 0.3))
        assert np.max(np.abs(sd.second_ff)) < 1e-14
        assert sd.tracefree_norm < 1e-14

    def test_cylinder_umbilic_exactly_at_photon_sphere(self):
        sd3 = hs.shape(hs.cylinder(ST, 3.0), (0.0, 1.0, 0.2))
        assert np.isclose(sd3.mean_curvature, oracles.FRAKH_M1)
        assert sd3.tracefree_norm < 1e-14
        sd4 = hs.shape(hs.cylinder(ST, 4.0), (0.0, 1.0, 0.2))
        assert sd4.tracefree_norm > 1e-2

    def test_trace_recomputation_matches(self):
        for surf, pt in ((hs.cylinder(ST, 3.5), (0.0, 1.1, 0.3)),
                         (hs.lapse_level_set(ST, 5.0), (0.7, 2.0))):
            sd = hs.shape(surf, pt)
            assert abs(sd.recomputed_trace() - sd.mean_curvature) < 1e-12

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
                              (hs.time_slice(ST), (4.0, 1.0, 0.2), -1),
                              (hs.lapse_level_set(ST, 5.0), (1.0, 0.2), 1)):
            x = surf.embed(hs._asarrays(pt))
            g, dg, _ = calc.metric_taylor(surf.ambient, x)
            ginv = np.linalg.inv(g)
            eta_d, _, eta_u = hs.normal_data(surf, x, g, ginv, dg)
            assert abs(np.einsum("a,a->", eta_d, eta_u) - tau) < 1e-12
            assert surf.tau == tau

    def test_gradient_normal_matches_inverse_metric_derivative(self):
        # d_e q from -w^m (d_e g_mn) w^n against d_e g^ab = -g^am (d_e g_mn) g^nb,
        # on random non-diagonal SPD metrics with random symmetric derivatives
        rng = np.random.default_rng(17)
        for surf, n_dim in ((hs.lapse_level_set(ST, 5.0), 3),
                            (hs.cylinder(ST, 4.0, level_field="lapse"), 4)):
            x = tuple(rng.uniform(2.5, 9.0, 64) if a == surf.normal_axis
                      else rng.uniform(0.3, 2.8, 64) for a in range(n_dim))
            root = rng.normal(size=(64, n_dim, n_dim))
            g = root @ np.swapaxes(root, -1, -2) + n_dim * np.eye(n_dim)
            ginv = np.linalg.inv(g)
            dg = rng.normal(size=(64, n_dim, n_dim, n_dim))
            dg = dg + np.swapaxes(dg, -1, -2)
            eta_d, deta, eta_u = hs._gradient_normal(surf, x, g, ginv, dg)

            _, w, dw = calc.scalar_taylor(hs._level_function(surf), x, n_dim)
            q = np.einsum("...ab,...a,...b->...", ginv, w, w)
            dginv = -np.einsum("...am,...emn,...nd->...ead", ginv, dg, ginv)
            dq = (np.einsum("...eab,...a,...b->...e", dginv, w, w)
                  + 2.0 * np.einsum("...ab,...ea,...b->...e", ginv, dw, w))
            qs = np.sqrt(q)
            sign = np.sign(np.einsum("...ab,...b->...a", ginv, w)[..., surf.normal_axis])
            ref = (dw / qs[..., None, None] - 0.5 * w[..., None, :] * dq[..., :, None]
                   / (q * qs)[..., None, None]) * sign[..., None, None]
            assert np.max(np.abs(deta - ref)) < 1e-13 * np.max(np.abs(ref))
            assert np.allclose(eta_d, w / qs[..., None] * sign[..., None],
                               rtol=1e-14, atol=0.0)

    def test_foliation_failure_on_flat_lapse(self):
        with pytest.raises(hs.FoliationError):
            hs.shape(hs.lapse_level_set(MINK, 3.0, level_field="lapse"),
                     (1.0, 0.2))


class TestGaussResidual:
    def test_flat_round_sphere_balance(self):
        # 0 - 0 = R_sigma - H^2 + |II|^2 = 2/r^2 - 4/r^2 + 2/r^2
        lvl = hs.lapse_level_set(MINK, 1.7, level_field="r")
        assert hs.gauss_residual(lvl, (1.1, 0.4)) < 1e-12

    def test_photon_cylinder(self):
        assert hs.gauss_residual(hs.cylinder(ST, 3.0), (0.0, 1.0, 0.2)) < 1e-10

    def test_level_set_at_r5_and_ric_nn_relation(self):
        lvl = hs.lapse_level_set(ST, 5.0)
        assert hs.gauss_residual(lvl, (1.0, 0.3)) < 1e-10
        # N Ric(nu,nu) = -H nu(N) on every level of a radial vacuum slice
        coords = (5.0, 1.0, 0.3)
        bundle = calc.curvature(ST.metric3, coords)
        g, dg, _ = calc.metric_taylor(ST.metric3, coords)
        ginv = np.linalg.inv(g)
        _, _, eta_u = hs.normal_data(lvl, coords, g, ginv, dg)
        ric_nn = np.einsum("ab,a,b->", bundle.ricci_dd, eta_u, eta_u)
        n5 = ST.profile.lapse(5.0)
        h5 = hs.shape(lvl, (1.0, 0.3)).mean_curvature
        nu_n5 = 1.0 / 25.0  # m/r^2
        assert abs(n5 * ric_nn + h5 * nu_n5) < 1e-12

    def test_all_table_embeddings(self):
        surfaces = ((hs.time_slice(ST), (3.0, 1.0, 0.2)),
                    (hs.cylinder(ST, 4.0), (0.0, 1.2, 0.5)),
                    (hs.lapse_level_set(ST, 3.0), (1.0, 0.2)),
                    (hs.sphere_in_cylinder(ST, 3.0), (1.0, 0.2)))
        for surf, pt in surfaces:
            assert hs.gauss_residual(surf, pt) < 1e-9


class TestCodazziResidual:
    X = np.array([0.0, 0.0, 1.0, 0.0])
    Y = np.array([0.0, 0.0, 0.0, 1.0])

    def test_flat_ambient(self):
        cyl = hs.cylinder(MINK, 3.0)
        res = hs.codazzi_residual(cyl, self.X, self.Y, self.X, (0.0, 1.0, 0.2))
        assert res < 1e-9

    def test_nonumbilic_cylinder_sides_cancel(self):
        cyl = hs.cylinder(ST, 4.0)
        res = hs.codazzi_residual(cyl, self.X, self.Y, self.X, (0.0, 1.0, 0.2))
        assert res < 1e-8

    def test_umbilic_cmc_surface_both_sides_vanish(self):
        cyl = hs.cylinder(ST, 3.0)
        pt = (0.0, 1.0, 0.2)
        res = hs.codazzi_residual(cyl, self.X, self.Y, self.X, pt)
        assert res < 1e-8
        amb = calc.curvature(ST.metric4, cyl.embed(hs._asarrays(pt)))
        g, dg, _ = calc.metric_taylor(ST.metric4, cyl.embed(hs._asarrays(pt)))
        _, _, eta_u = hs.normal_data(cyl, cyl.embed(hs._asarrays(pt)), g,
                                     np.linalg.inv(g), dg)
        lhs = np.einsum("kijm,k,i,j,m->", amb.riemann_dddd, self.X, self.Y,
                        eta_u, self.X)
        assert abs(lhs) < 1e-9  # mechanism behind Ric(X, nu) = 0

    def test_non_tangent_rejected(self):
        cyl = hs.cylinder(ST, 4.0)
        with pytest.raises(ValueError):
            hs.codazzi_residual(cyl, np.array([0.0, 1.0, 0.0, 0.0]), self.Y,
                                self.X, (0.0, 1.0, 0.2))


class TestLaplacianSplit:
    def test_radial_function_in_flat_space(self):
        lvl = hs.lapse_level_set(MINK, 2.0, level_field="r")
        field = lambda c: c[0] + 0.0 * c[1]
        assert hs.laplacian_split_residual(field, lvl, (1.1, 0.4)) < 1e-12
        # term-by-term: Lap f = 2/r, Lap_Sigma f = 0, Hess(nu,nu) = 0
        assert np.isclose(calc.laplacian(field, MINK.metric3, (2.0, 1.1, 0.4)),
                          1.0)

    def test_lapse_on_photon_sphere_level(self):
        lvl = hs.lapse_level_set(ST, 3.0)
        field = lambda c: ST.profile.lapse(c[0])
        assert hs.laplacian_split_residual(field, lvl, (1.0, 0.3)) < 1e-12

    def test_constant_function_all_terms_zero(self):
        lvl = hs.lapse_level_set(ST, 4.0)
        assert hs.laplacian_split_residual(lambda c: 1.0 + 0.0 * c[0], lvl,
                                           (1.0, 0.3)) == 0.0

    def test_timelike_normal_rejected(self):
        with pytest.raises(ValueError):
            hs.laplacian_split_residual(lambda c: c[0], hs.time_slice(ST),
                                        (3.0, 1.0, 0.2))


def test_nu_of_lapse_constant_on_level_sets():
    # sampled std-dev of nu(N) over a leaf is at machine scale
    lvl = hs.lapse_level_set(ST, 3.0)
    theta = np.linspace(0.3, 2.8, 8)
    phi = np.linspace(0.0, 6.0, 9)
    tg, pg = np.meshgrid(theta, phi, indexing="ij")
    coords = lvl.embed((tg, pg))
    g, dg, _ = calc.metric_taylor(lvl.ambient, coords)
    ginv = np.linalg.inv(g)
    _, _, eta_u = hs.normal_data(lvl, coords, g, ginv, dg)
    _, dn, _ = calc.scalar_taylor(lambda c: ST.profile.lapse(c[0]), coords, 3)
    nu_n = np.einsum("...a,...a->...", eta_u, dn)
    assert np.std(nu_n) < 1e-14
    assert np.isclose(np.mean(nu_n), oracles.NU_N0_M1)


def test_codazzi_contraction_reproduces_cmc_mechanism():
    # contracting Codazzi over a frame: |Ric(Y, eta) - (1-n) Y(H/n)| small
    # on the umbilic photon cylinder (both sides vanish there)
    cyl = hs.cylinder(ST, 3.0)
    pt = hs._asarrays((0.0, 1.0, 0.2))
    amb = calc.curvature(ST.metric4, cyl.embed(pt))
    g, dg, _ = calc.metric_taylor(ST.metric4, cyl.embed(pt))
    _, _, eta_u = hs.normal_data(cyl, cyl.embed(pt), g, np.linalg.inv(g), dg)
    for axis in (0, 2, 3):
        y = np.zeros(4)
        y[axis] = 1.0
        ric_y_eta = np.einsum("ab,a,b->", amb.ricci_dd, y, eta_u)
        assert abs(ric_y_eta) < 1e-10  # frakH constant => Y(frakH) = 0
