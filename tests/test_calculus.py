"""Curvature and vacuum-residual tests.

Expected values marked with their oracle provenance live in oracles.py.
"""

import math

import numpy as np
import pytest

import oracles
from photonsphere import calculus as calc
from photonsphere import cli
from photonsphere.spacetimes import (ChartPoint, ExpressionProfile,
                                     MetricSampler, SchwarzschildProfile)

ST = SchwarzschildProfile(1.0)
MINK = SchwarzschildProfile(0.0)
RN = ExpressionProfile("sqrt(1 - 2/r + 0.1/r^2)", "1/(1 - 2/r + 0.1/r^2)",
                       r_min=1.95)


def sphere2(radius):
    return MetricSampler(
        2, lambda c: [[radius ** 2, 0.0],
                      [0.0, radius ** 2 * np.sin(c[0]) ** 2]])


EUCLID3 = MetricSampler(3, lambda c: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                      [0.0, 0.0, 1.0]])


class TestChristoffel:
    def test_minkowski_spherical(self):
        g = calc.curvature(MINK.metric4, (0.0, 2.5, 1.1, 0.3)).gamma_udd
        assert np.isclose(g[1, 2, 2], -2.5)       # Gamma^r_thth = -r
        assert np.isclose(g[2, 1, 2], 1.0 / 2.5)  # Gamma^th_rth = 1/r
        assert np.max(np.abs(g[0])) == 0.0
        assert np.max(np.abs(g[:, 0, :])) == 0.0

    def test_schwarzschild_gamma_r_tt(self):
        g = calc.curvature(ST.metric4, (0.0, 3.0, 1.0, 0.5)).gamma_udd
        assert np.isclose(g[1, 0, 0], oracles.GAMMA_R_TT_M1_R3, rtol=1e-14)

    def test_euclidean_cartesian_vanishes(self):
        g = calc.curvature(EUCLID3, (0.3, -0.4, 0.5)).gamma_udd
        assert np.max(np.abs(g)) == 0.0

    def test_lower_index_symmetry(self):
        g = calc.curvature(ST.metric4, (0.0, 4.4, 0.8, 1.2)).gamma_udd
        assert np.allclose(g, np.swapaxes(g, -1, -2))

    def test_live_symbolic_oracle(self):
        import sympy as sp
        g4, coords = oracles.schwarzschild_4metric()
        gam = oracles.christoffel_sym(g4, coords)
        subs = {oracles.m: 1, oracles.r: 3, oracles.th: 1.0}
        num = calc.curvature(ST.metric4, (0.0, 3.0, 1.0, 0.5)).gamma_udd
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    expect = float(gam[a][b][c].subs(subs))
                    assert abs(num[a, b, c] - expect) < 1e-12


class TestCurvature:
    def test_schwarzschild_vacuum_and_riemann_scale(self):
        b = calc.curvature(ST.metric4, (0.0, 4.0, 1.0, 0.5))
        assert np.max(np.abs(b.ricci_dd)) < 1e-6
        e, _ = b.frame()
        rm_frame = np.einsum("Ak,Bi,Cj,Dm,kijm->ABCD", e, e, e, e,
                             oracles.lower_riemann(b))
        assert np.isclose(abs(rm_frame[0, 1, 0, 1]),
                          oracles.RIEMANN_TRTR_M1_R4, rtol=1e-10)

    def test_round_sphere_scalar(self):
        b = calc.curvature(sphere2(1.7), (0.9, 0.4))
        assert np.isclose(b.scalar, 2.0 / 1.7 ** 2)

    def test_round_sphere_scalar_by_differences_on_arrays(self, monkeypatch):
        # g_thth is a plain number: the samples broadcast to the theta row
        theta = np.linspace(0.4, 2.6, 5)
        monkeypatch.setattr(calc, "metric_taylor", oracles.fd_metric_taylor)
        b = calc.curvature(sphere2(1.7), (theta, np.zeros(5)))
        assert np.allclose(b.scalar, 2.0 / 1.7 ** 2, rtol=1e-6)

    def test_minkowski_riemann_vanishes(self):
        b = calc.curvature(MINK.metric4, (0.0, 3.0, 1.2, 0.1))
        assert np.max(np.abs(oracles.lower_riemann(b))) < 1e-6

    def test_ricci_is_contraction_of_riemann(self):
        b = calc.curvature(ST.metric4, (0.0, 3.7, 0.7, 0.2))
        assert np.array_equal(b.ricci_dd,
                              np.einsum("kijk->ij", b.riemann_dddu))

    def test_antisymmetry_and_first_bianchi(self):
        rm = oracles.lower_riemann(calc.curvature(ST.metric4, (0.0, 2.8, 1.3, 0.6)))
        anti = np.max(np.abs(rm + np.einsum("kijm->ikjm", rm)))
        bianchi = np.max(np.abs(rm + np.einsum("ijkm->kijm", rm)
                                + np.einsum("jkim->kijm", rm)))
        assert anti < 1e-6 and bianchi < 1e-6

    def test_fd_agrees_with_autodiff_200_points(self, monkeypatch):
        rng = np.random.default_rng(42)
        coords = (np.zeros(200), rng.uniform(2.5, 50.0, 200),
                  rng.uniform(0.4, math.pi - 0.4, 200),
                  rng.uniform(0.0, 2 * math.pi, 200))
        slice_coords = coords[1:]
        ba = calc.curvature(ST.metric4, coords)
        _, ha = calc.hessian(lambda c: ST.lapse(c[0]),
                             calc.curvature(ST.metric3, slice_coords))
        monkeypatch.setattr(calc, "metric_taylor", oracles.fd_metric_taylor)
        monkeypatch.setattr(calc, "scalar_taylor", oracles.fd_scalar_taylor)
        bf = calc.curvature(ST.metric4, coords)
        _, hf = calc.hessian(lambda c: ST.lapse(c[0]),
                             calc.curvature(ST.metric3, slice_coords))
        gamma_diff = np.max(np.abs(ba.gamma_udd - bf.gamma_udd))
        assert gamma_diff < 1e-6 * max(1.0, np.max(np.abs(ba.gamma_udd)))
        e, _ = ba.frame()
        ric_diff = np.einsum("...Aa,...Bb,...ab->...AB", e, e,
                             ba.ricci_dd - bf.ricci_dd)
        assert np.max(np.abs(ric_diff)) < 1e-6
        assert np.max(np.abs(ha - hf)) < 1e-6 * max(1.0, np.max(np.abs(ha)))

    def test_debug_dump_has_fully_written_indices(self):
        b = calc.curvature(ST.metric4, (0.0, 3.0, 1.0, 0.5))
        d = cli._curvature_payload(b)
        assert "Gamma^r_tt" in d["christoffel"]
        assert np.isclose(d["christoffel"]["Gamma^r_tt"],
                          oracles.GAMMA_R_TT_M1_R3)
        assert "Ric_tt" in d["ricci"]


def twisted3():
    """A 3-metric whose theta-phi block reads phi, off the diagonal too."""
    def components(c):
        r, th, ph = c
        return [[1.0 / (1.0 - 2.0 / r), 0.0, 0.0],
                [0.0, r * r, 0.1 * r * np.sin(2.0 * ph) * np.sin(th)],
                [0.0, 0.1 * r * np.sin(2.0 * ph) * np.sin(th),
                 (r * np.sin(th)) ** 2 * (1.0 + 0.2 * np.sin(ph) ** 2)]]
    return MetricSampler(3, components)


class TestLazyBroadcast:
    """Sparse (theta, phi) axes give the shape the metric reads, and the
    values of the dense grid bit for bit."""

    THETA = np.linspace(0.3, 2.8, 6)[:, None]
    PHI = np.linspace(0.1, 6.0, 9)[None, :]

    def _both(self, fn, sampler):
        sparse = fn(sampler, (4.5, self.THETA, self.PHI))
        dense = fn(sampler, np.broadcast_arrays(4.5, self.THETA, self.PHI))
        return sparse, dense

    @staticmethod
    def _fields(bundle):
        return [getattr(bundle, f) for f in ("metric_dd", "metric_uu", "gamma_udd",
                                             "riemann_dddu", "ricci_dd", "scalar")]

    @pytest.mark.parametrize("sampler, lead", [(twisted3(), (6, 9)),
                                               (ST.metric3, (6, 1))],
                             ids=["reads-phi", "metric3"])
    def test_metric_taylor_and_curvature(self, sampler, lead):
        sparse, dense = self._both(calc.metric_taylor, sampler)
        for a, b in zip(sparse, dense):
            assert a.shape[:2] == lead
            assert np.array_equal(np.broadcast_to(a, b.shape), b)
        sparse, dense = self._both(calc.curvature, sampler)
        for a, b in zip(self._fields(sparse), self._fields(dense)):
            assert a.shape[:2] == lead
            assert np.array_equal(np.broadcast_to(a, b.shape), b)


def painleve_gullstrand(m):
    """Schwarzschild in Painleve-Gullstrand form: g_tr = sqrt(2m/r) != 0."""
    def components(c):
        _, r, theta, _ = c
        return [[-(1.0 - 2.0 * m / r), np.sqrt(2.0 * m / r), 0.0, 0.0],
                [np.sqrt(2.0 * m / r), 1.0, 0.0, 0.0],
                [0.0, 0.0, r ** 2, 0.0],
                [0.0, 0.0, 0.0, (r * np.sin(theta)) ** 2]]
    return MetricSampler(4, components)


def einsum_curvature(g, dg, ddg):
    """Christoffel symbols and Rm_kij^l by explicit index loops (einsum)."""
    ginv = np.linalg.inv(g)
    s1, s2 = calc._christoffel_sum(dg), calc._christoffel_sum(ddg)
    gamma = 0.5 * np.einsum("...ad,...dbc->...abc", ginv, s1)
    dginv = -np.einsum("...am,...emn,...nd->...ead", ginv, dg, ginv)
    dgamma = (0.5 * np.einsum("...ead,...dbc->...eabc", dginv, s1)
              + 0.5 * np.einsum("...ad,...edbc->...eabc", ginv, s2))
    rm = (np.einsum("...klij->...kijl", dgamma)
          - np.einsum("...ilkj->...kijl", dgamma)
          + np.einsum("...lke,...eij->...kijl", gamma, gamma)
          - np.einsum("...lie,...ekj->...kijl", gamma, gamma))
    return gamma, rm


class TestNonDiagonalMetric:
    """Every index of the batched contractions is exercised off the diagonal."""

    M = 1.3

    @pytest.fixture(scope="class")
    def points(self):
        rng = np.random.default_rng(61)
        return (rng.uniform(-5.0, 5.0, 64), rng.uniform(1.5, 30.0, 64),
                rng.uniform(0.3, math.pi - 0.3, 64), rng.uniform(0.0, 6.0, 64))

    def test_vacuum_and_kretschmann(self, points):
        b = calc.curvature(painleve_gullstrand(self.M), points)
        assert np.max(np.abs(b.metric_dd[..., 0, 1])) > 0.2
        assert np.max(np.abs(b.ricci_dd)) < 1e-12
        gi = b.metric_uu
        rm = oracles.lower_riemann(b)
        rm_up = np.einsum("...abcd,...ae,...bf,...cg,...dh->...efgh",
                          rm, gi, gi, gi, gi, optimize=True)
        kretschmann = np.einsum("...abcd,...abcd->...", rm, rm_up)
        expect = 48.0 * self.M ** 2 / points[1] ** 6
        assert np.max(np.abs(kretschmann / expect - 1.0)) < 1e-12

    def test_matches_einsum_reference(self, points):
        sampler = painleve_gullstrand(self.M)
        b = calc.curvature(sampler, points)
        gamma, rm = einsum_curvature(*calc.metric_taylor(sampler, points))
        for got, ref in ((b.gamma_udd, gamma), (b.riemann_dddu, rm)):
            assert np.max(np.abs(got - ref)) < 1e-14 * np.max(np.abs(ref))


class TestVacuumResidual:
    def test_schwarzschild_residuals_tiny(self):
        vr = calc.vacuum_residual(ST, ChartPoint(r=3.0, theta=1.0))
        assert max(vr.hessian_residual, vr.scalar_residual,
                   vr.laplace_residual) < 1e-6

    def test_rn_profile_flagged_nonvacuum(self):
        vr = calc.vacuum_residual(RN, ChartPoint(r=3.0, theta=1.0))
        assert np.isclose(vr.scalar_residual, oracles.RN_SLICE_SCALAR_Q01_R3,
                          rtol=1e-9)
        assert vr.scalar_residual > 1e-3

    def test_flat_cartesian_exactly_zero(self):
        vr = calc.vacuum_residual_general(EUCLID3, lambda c: 1.0 + 0.0 * c[0],
                                          (0.3, 0.4, 0.5))
        assert vr.hessian_residual == 0.0
        assert vr.scalar_residual == 0.0
        assert vr.laplace_residual == 0.0

    def test_laplace_trace_compatibility_bound(self):
        # |Lap N| <= |tr(N Ric - Hess N)|/min N + |R| max N, pointwise
        rng = np.random.default_rng(3)
        for st in (ST, RN):
            for _ in range(20):
                p = ChartPoint(r=rng.uniform(2.5, 30.0),
                               theta=rng.uniform(0.3, 2.8))
                coords = p.coords3()
                bundle = calc.curvature(st.metric3, coords)
                _, hess = calc.hessian(lambda c: st.lapse(c[0]), bundle)
                n = st.lapse(p.r)
                tr_r1 = float(np.einsum("ij,ij->", bundle.metric_uu,
                                        n * bundle.ricci_dd - hess))
                vr = calc.vacuum_residual(st, p)
                bound = abs(tr_r1) / n + vr.scalar_residual * n
                assert vr.laplace_residual <= bound + 1e-12


def test_thread_safe_concurrent_evaluation():
    # all operations are pure functions of immutable inputs
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(2)
    points = [ChartPoint(r=rng.uniform(2.5, 30.0), theta=rng.uniform(0.3, 2.8))
              for _ in range(32)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda p: calc.vacuum_residual(ST, p), points))
    serial = [calc.vacuum_residual(ST, p) for p in points]
    for a, b in zip(results, serial):
        assert a == b
