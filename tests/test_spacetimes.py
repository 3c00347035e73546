"""Chart, profile and metric-assembly tests."""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonsphere import cli
from photonsphere.calculus import metric_taylor
from photonsphere.spacetimes import (ChartPoint, DomainError,
                                     ExpressionProfile, SchwarzschildProfile,
                                     StaticSpacetime, TableProfile,
                                     _CubicSpline, compile_expression,
                                     load_profile)


def metric4_at(m, point):
    return metric_taylor(StaticSpacetime.schwarzschild(m).metric4, point.coords4())[0]


def test_schwarzschild_components_at_r3():
    g = metric4_at(1.0, ChartPoint(r=3.0, theta=1.0))
    assert np.isclose(g[0, 0], -1.0 / 3.0)
    assert np.isclose(g[1, 1], 3.0)
    assert np.isclose(g[2, 2], 9.0)
    assert np.isclose(g[3, 3], 9.0 * math.sin(1.0) ** 2)
    assert np.count_nonzero(g - np.diag(np.diag(g))) == 0


def test_minkowski_limit():
    g = metric4_at(0.0, ChartPoint(r=5.0, theta=0.7))
    assert np.isclose(g[0, 0], -1.0) and np.isclose(g[1, 1], 1.0)


def test_horizon_edge_rejected():
    with pytest.raises(DomainError):
        SchwarzschildProfile(1.0).check_point(2.0 + 1e-12)


def test_chart_point_invariants():
    with pytest.raises(DomainError):
        ChartPoint(r=-1.0)
    with pytest.raises(DomainError):
        ChartPoint(r=1.0, theta=0.0)
    with pytest.raises(DomainError):
        ChartPoint(r=1.0, theta=math.pi)


def test_signature_one_negative_three_positive():
    rng = np.random.default_rng(9)
    rn = ExpressionProfile("sqrt(1 - 2/r + 0.1/r^2)",
                           "1/(1 - 2/r + 0.1/r^2)", r_min=1.95)
    for prof in (SchwarzschildProfile(1.0), SchwarzschildProfile(0.0), rn):
        st = StaticSpacetime(prof)
        for _ in range(50):
            p = ChartPoint(r=rng.uniform(2.2, 50.0),
                           theta=rng.uniform(0.2, 2.9))
            w = np.linalg.eigvalsh(metric_taylor(st.metric4, p.coords4())[0])
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


class TestTableSpline:
    """The in-repo not-a-knot spline against scipy's, which is test-only."""

    @pytest.mark.parametrize("rows", [4, 5, 7, 16, 60, 300])
    def test_matches_scipy_cubic_spline(self, rows):
        cubic_spline = pytest.importorskip("scipy.interpolate").CubicSpline
        rng = np.random.default_rng(rows)
        x = 2.0 + np.cumsum(rng.uniform(0.2, 1.0, rows))
        y = rng.uniform(0.5, 1.5, rows)
        mid = 0.5 * (x[:-1] + x[1:])
        at = np.concatenate([x, mid, rng.uniform(x[0], x[-1], 40)])
        ours, ref = _CubicSpline(x, y)(at), cubic_spline(x, y)
        for nu in range(3):
            expected = ref(at, nu)
            scale = max(1.0, float(np.max(np.abs(expected))))
            assert np.max(np.abs(ours[nu] - expected)) <= 1e-13 * scale, nu

    def test_reproduces_a_cubic_and_passes_nan_through(self):
        x = np.array([0.0, 0.3, 1.0, 1.1, 2.5, 4.0])
        cubic = lambda t: 2.0 - t + 0.5 * t ** 2 - 0.25 * t ** 3
        f, f1, f2 = _CubicSpline(x, cubic(x))(np.array([0.15, 1.7, 4.0, np.nan]))
        assert np.allclose(f[:3], cubic(np.array([0.15, 1.7, 4.0])), atol=1e-13)
        assert np.allclose(f2[:3], 1.0 - 1.5 * np.array([0.15, 1.7, 4.0]),
                           atol=1e-12)
        assert np.isnan(f[3]) and np.isnan(f1[3]) and np.isnan(f2[3])

    def test_large_table_builds_in_linear_memory(self):
        rs = np.geomspace(2.05, 300.0, 3000)
        rows = np.stack([rs, np.sqrt(1 - 2 / rs), 1 / (1 - 2 / rs)], axis=1)
        tracemalloc.start()
        try:
            TableProfile(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6


class TestExpressionConstants:
    def test_integer_constants_evaluate_as_floats(self):
        value = compile_expression("2^3")(1.0)
        assert type(value) is float and value == 8.0

    def test_overflow_is_a_named_value_error(self):
        with pytest.raises(ValueError, match=r"9\^9\^9"):
            compile_expression("9^9^9")(1.0)
        with pytest.raises(ValueError, match="too large"):
            compile_expression("1" + "0" * 400)

    @pytest.mark.parametrize("lapse", ["1 - 2/r + 0/0",
                                       "1 - 2/r + 0*(0^(0-1))",
                                       "1 - 2/r + 0*(0-1)^0.5",
                                       "1 - 2/r + sqrt(0-1)",
                                       "1 - 2/r + 1e308*10"])
    def test_bad_constant_part_is_a_named_value_error(self, lapse, tmp_path,
                                                      capsys):
        with pytest.raises(ValueError, match=re.escape(repr(lapse))):
            compile_expression(lapse)
        scn = tmp_path / "scn.json"
        scn.write_text(json.dumps({
            "schema": 1, "pipeline": "detect",
            "profile": {"kind": "expression", "lapse": lapse,
                        "radial_factor": "1"}}))
        code = cli.main(["detect", "--scenario", str(scn),
                         "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_ERROR
        assert lapse in capsys.readouterr().err

    def test_malformed_expression_is_a_value_error(self):
        with pytest.raises(ValueError, match="malformed"):
            compile_expression("1 - 2/")

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
        ExpressionProfile("1 - 2/r + 0.3/r^2.5", "1/(1 - 2/r + 0.3/r^2.5)",
                          r_min=1.95),
        ExpressionProfile("sqrt(1 - 2/r + 0.001*2^(-r))",
                          "1/(1 - 2/r + 0.001*2^(-r))", r_min=1.95),
        TableProfile(np.stack([np.linspace(2.2, 30, 200),
                               np.sqrt(1 - 2 / np.linspace(2.2, 30, 200)),
                               1 / (1 - 2 / np.linspace(2.2, 30, 200))], axis=1)),
    ], ids=["schwarzschild", "minkowski", "expression", "constant",
            "power-2.5", "power-of-2", "table"])
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


def _expressions(depth):
    """Grammar-valid expressions in r of nesting depth <= ``depth``."""
    leaf = st.one_of(st.just("r"), st.sampled_from(["0", "1", "2", "0.5"]),
                     st.floats(0.0, 1e3).map(repr))
    if depth == 0:
        return leaf
    sub = _expressions(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(sub, st.sampled_from("+-*/^"), sub).map(
            lambda t: f"({t[0]}) {t[1]} ({t[2]})"),
        sub.map(lambda e: f"sqrt({e})"),
        sub.map(lambda e: f"-({e})"),
        sub.map(lambda e: f"+({e})"))


class TestExpressionGrammarFuzz:
    """Any grammar-valid expression either compiles to a profile whose
    array evaluation matches its float evaluation entry by entry, or is
    rejected with a ValueError; no other exception type escapes."""

    RADII = np.array([0.5, 1.0, 2.0, 3.7, 25.0])

    @given(_expressions(4), _expressions(4))
    @settings(max_examples=300, deadline=None)
    def test_array_entries_equal_float_entries(self, lapse, radial):
        try:
            profile = ExpressionProfile(lapse, radial)
        except ValueError:
            return
        for method in (profile.metric_factors_d1, profile.lapse_d1):
            batch = method(self.RADII)
            for k, r in enumerate(self.RADII.tolist()):
                for entries, single in zip(batch, method(r)):
                    assert np.array_equal(
                        np.broadcast_to(entries, self.RADII.shape)[k], single,
                        equal_nan=True), (lapse, radial, r)


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


@pytest.mark.parametrize("spec, field", [
    ({"kind": "expression", "lapse": 1, "radial_factor": "1"}, "lapse"),
    ({"kind": "expression", "radial_factor": "1"}, "lapse"),
    ({"kind": "expression", "lapse": "1", "radial_factor": None}, "radial_factor"),
    ({"kind": "expression", "lapse": "sqrt(1-2/r)", "radial_factor": "1/(1-2/r)",
      "m": "two"}, "m"),
    ({"kind": "expression", "lapse": "1", "radial_factor": "1", "r_min": [2]},
     "r_min"),
    ({"kind": "schwarzschild"}, "m"),
    ({"kind": "schwarzschild", "m": None}, "m"),
    ({"kind": "schwarzschild", "m": True}, "m"),
    ({"kind": "schwarzschild", "m": float("nan")}, "m"),
    ({"kind": "schwarzschild", "m": 10 ** 400}, "m"),
    ({"kind": "table"}, "samples"),
    ({"kind": "table", "samples": [[3, 1, 1]] * 4, "m": "1"}, "m"),
])
def test_bad_profile_field_is_a_named_value_error(spec, field):
    with pytest.raises(ValueError, match=f"'{field}'"):
        load_profile(spec)


_JSON_LEAVES = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(max_size=12)
                | st.sampled_from(["sqrt(1-2/r)", "1/(1-2/r)", "1 - 2/r +", "r^r"]))
_JSON_VALUES = st.recursive(_JSON_LEAVES, lambda inner: (
    st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=4), inner,
                                                  max_size=3)), max_leaves=16)
_TABLE_ROWS = st.lists(st.lists(st.floats(0.1, 50.0), min_size=3, max_size=3),
                       min_size=4, max_size=6)


class TestProfileSpecFuzz:
    @given(st.dictionaries(
        st.sampled_from(["kind", "m", "lapse", "radial_factor", "r_min",
                         "samples", "extra"]),
        _JSON_VALUES | st.sampled_from(["schwarzschild", "expression", "table"])
        | _TABLE_ROWS, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_spec_loads_or_raises_value_error(self, spec):
        try:
            load_profile(spec)
        except ValueError:
            pass
