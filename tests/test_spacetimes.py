"""Chart, profile and metric-assembly tests."""

import json
import math

import numpy as np
import pytest

from photonsphere import cli
from photonsphere.spacetimes import (ChartPoint, DomainError,
                                     ExpressionProfile, SchwarzschildProfile,
                                     StaticSpacetime, TableProfile,
                                     assemble_static, asymptotics_fit,
                                     compile_expression, load_profile,
                                     schwarzschild_metric)


def test_schwarzschild_components_at_r3():
    g = schwarzschild_metric(1.0, ChartPoint(r=3.0, theta=1.0))
    assert np.isclose(g[0, 0], -1.0 / 3.0)
    assert np.isclose(g[1, 1], 3.0)
    assert np.isclose(g[2, 2], 9.0)
    assert np.isclose(g[3, 3], 9.0 * math.sin(1.0) ** 2)
    assert np.count_nonzero(g - np.diag(np.diag(g))) == 0


def test_minkowski_limit():
    g = schwarzschild_metric(0.0, ChartPoint(r=5.0, theta=0.7))
    assert np.isclose(g[0, 0], -1.0) and np.isclose(g[1, 1], 1.0)


def test_horizon_edge_rejected():
    with pytest.raises(DomainError):
        schwarzschild_metric(1.0, ChartPoint(r=2.0 + 1e-12, theta=1.0))


def test_chart_point_invariants():
    with pytest.raises(DomainError):
        ChartPoint(r=-1.0)
    with pytest.raises(DomainError):
        ChartPoint(r=1.0, theta=0.0)
    with pytest.raises(DomainError):
        ChartPoint(r=1.0, theta=math.pi)


def test_assemble_matches_schwarzschild_bitwise():
    p = ChartPoint(r=7.3, theta=0.9, phi=2.2)
    assert np.array_equal(assemble_static(SchwarzschildProfile(1.0), p),
                          schwarzschild_metric(1.0, p))


def test_assemble_agreement_at_random_points():
    rng = np.random.default_rng(5)
    prof = SchwarzschildProfile(1.0)
    st = StaticSpacetime(prof)
    for _ in range(1000):
        p = ChartPoint(r=rng.uniform(2.2, 80.0), theta=rng.uniform(0.1, 3.0),
                       phi=rng.uniform(0, 2 * math.pi))
        a = schwarzschild_metric(1.0, p)
        b = st.metric_at(p)
        assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(a))


def test_signature_one_negative_three_positive():
    rng = np.random.default_rng(9)
    rn = ExpressionProfile("sqrt(1 - 2/r + 0.1/r^2)",
                           "1/(1 - 2/r + 0.1/r^2)", r_min=1.95)
    for prof in (SchwarzschildProfile(1.0), SchwarzschildProfile(0.0), rn):
        st = StaticSpacetime(prof)
        for _ in range(50):
            p = ChartPoint(r=rng.uniform(2.2, 50.0),
                           theta=rng.uniform(0.2, 2.9))
            w = np.linalg.eigvalsh(st.metric_at(p))
            assert np.sum(w < 0) == 1 and np.sum(w > 0) == 3


def test_lapse_tends_to_one():
    prof = SchwarzschildProfile(1.0)
    assert abs(prof.lapse(1e6) - 1.0) < 1e-5


def test_expression_profile_grammar_rejects_escape():
    with pytest.raises(ValueError):
        ExpressionProfile("__import__('os')", "1", r_min=1.0)
    with pytest.raises(ValueError):
        ExpressionProfile("r.__class__", "1", r_min=1.0)
    ok = ExpressionProfile("sqrt(1 - 2/r)", "1/(1 - 2/r)", r_min=2.1)
    assert np.isclose(ok.lapse(3.0), math.sqrt(1 / 3))


def test_table_profile_interpolates_and_validates():
    rs = np.linspace(2.5, 30, 300)
    rows = np.stack([rs, np.sqrt(1 - 2 / rs), 1 / (1 - 2 / rs)], axis=1)
    tab = TableProfile(rows, mass_hint=1.0)
    assert abs(tab.lapse(10.0) - math.sqrt(0.8)) < 1e-10
    n, n1 = tab.lapse_d1(10.0)
    assert abs(n1 - 0.01 / math.sqrt(0.8)) < 1e-8
    with pytest.raises(ValueError):
        TableProfile(rows[::-1])  # decreasing radii
    with pytest.raises(DomainError):
        tab.lapse(1.0)


class TestExpressionConstants:
    def test_integer_constants_evaluate_as_floats(self):
        value = compile_expression("2^3")(1.0)
        assert type(value) is float and value == 8.0

    def test_overflow_is_a_named_value_error(self):
        with pytest.raises(ValueError, match=r"9\^9\^9"):
            compile_expression("9^9^9")(1.0)
        with pytest.raises(ValueError, match="too large"):
            compile_expression("1" + "0" * 400)

    def test_overflowing_profile_exits_2(self, tmp_path, capsys):
        scn = tmp_path / "scn.json"
        scn.write_text(json.dumps({
            "schema": 1, "pipeline": "detect",
            "profile": {"kind": "expression", "lapse": "9^9^9",
                        "radial_factor": "1"}}))
        code = cli.main(["detect", "--scenario", str(scn),
                         "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_ERROR
        assert "9^9^9" in capsys.readouterr().err


class TestArrayEvaluation:
    """metric_factors_d1 on an array of radii: each entry as on a float."""

    RADII = np.array([2.3, 3.0, 4.75, 11.0, 29.0])

    @pytest.mark.parametrize("profile", [
        SchwarzschildProfile(1.0),
        SchwarzschildProfile(0.0),
        ExpressionProfile("sqrt(1 - 2/r + 0.1/r^2)", "1/(1 - 2/r + 0.1/r^2)",
                          r_min=1.95),
        ExpressionProfile("1", "1"),
        TableProfile(np.stack([np.linspace(2.2, 30, 200),
                               np.sqrt(1 - 2 / np.linspace(2.2, 30, 200)),
                               1 / (1 - 2 / np.linspace(2.2, 30, 200))], axis=1)),
    ], ids=["schwarzschild", "minkowski", "expression", "constant", "table"])
    def test_entries_match_float_evaluation(self, profile):
        batch = profile.metric_factors_d1(self.RADII)
        lapse = profile.lapse_d1(self.RADII)
        for k, r in enumerate(self.RADII.tolist()):
            assert [np.broadcast_to(v, self.RADII.shape)[k] for v in batch] == \
                list(profile.metric_factors_d1(r))
            assert [np.broadcast_to(v, self.RADII.shape)[k] for v in lapse] == \
                list(profile.lapse_d1(r))

    def test_failures_stay_in_their_entries(self):
        rs = np.linspace(2.5, 12.0, 100)
        table = TableProfile(np.stack([rs, np.sqrt(1 - 2 / rs),
                                       1 / (1 - 2 / rs)], axis=1))
        a, ap, b, bp = table.metric_factors_d1(np.array([3.0, 13.0, 2.0]))
        assert np.isfinite(a[0]) and np.isnan(a[1:]).all()
        sqrt_profile = ExpressionProfile("sqrt(1-2/r)", "1/(1-2/r)")
        with np.errstate(all="raise"):
            a, ap, b, bp = sqrt_profile.metric_factors_d1(np.array([3.0, 1.5]))
        assert np.isfinite(a[0]) and np.isnan(a[1])


def test_load_profile_kinds(tmp_path):
    p = load_profile({"kind": "schwarzschild", "m": 2.0})
    assert isinstance(p, SchwarzschildProfile) and p.m == 2.0
    p2 = load_profile({"kind": "expression", "lapse": "sqrt(1-2/r)",
                       "radial_factor": "1/(1-2/r)", "r_min": 2.05})
    assert np.isclose(p2.lapse(4.0), math.sqrt(0.5))
    rs = np.linspace(3, 20, 50)
    spec = {"kind": "table",
            "samples": [[float(r), float(np.sqrt(1 - 2 / r)),
                         float(1 / (1 - 2 / r))] for r in rs]}
    p3 = load_profile(spec)
    assert abs(p3.lapse(10.0) - math.sqrt(0.8)) < 1e-6
    path = tmp_path / "prof.json"
    path.write_text('{"kind": "schwarzschild", "m": 0.5}')
    assert load_profile(str(path)).m == 0.5
    with pytest.raises(ValueError):
        load_profile({"kind": "nope"})


class TestAsymptoticsFit:
    def test_schwarzschild_mass_and_decay(self):
        rep = asymptotics_fit(SchwarzschildProfile(1.0),
                              np.geomspace(1e2, 1e6, 16))
        assert abs(rep.mass_estimate - 1.0) < 1e-6
        assert rep.exponent_residual <= -1.9
        assert rep.schwarzschildean

    def test_flat_profile_reports_machine_floor(self):
        rep = asymptotics_fit(SchwarzschildProfile(0.0),
                              np.geomspace(1e2, 1e6, 16))
        assert rep.status == "machine-floor" and rep.mass_estimate == 0.0

    def test_slow_decay_flagged(self):
        prof = ExpressionProfile("1 - 1/r + 0.3/r^1.5", "1", r_min=2.0)
        rep = asymptotics_fit(prof, np.geomspace(1e2, 1e6, 16))
        assert abs(rep.exponent_residual + 1.5) < 0.1
        assert not rep.schwarzschildean

    def test_nonmonotone_residuals_unreliable(self):
        from photonsphere.spacetimes import CallableProfile
        prof = CallableProfile(
            lambda r: 1 - (1 + 0.9 * np.sin(np.log(r))) / r,
            lambda r: 1.0 + 0.0 * r, r_min=2.0)
        rep = asymptotics_fit(prof, np.geomspace(1e2, 1e6, 32))
        assert rep.status == "fit-unreliable"
        assert rep.exponent_lapse is None

    def test_input_validation(self):
        prof = SchwarzschildProfile(1.0)
        with pytest.raises(ValueError):
            asymptotics_fit(prof, np.geomspace(100, 200, 16))  # < 2 decades
        with pytest.raises(ValueError):
            asymptotics_fit(prof, np.geomspace(100, 1e5, 6))   # < 8 samples
