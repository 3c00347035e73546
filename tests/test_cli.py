"""Scenario loading, exit-code semantics and output determinism."""

import json
import math
import os
import re

import numpy as np
import pytest

import oracles
from photonsphere import cli
from photonsphere import geodesics as geo
from photonsphere import israel
from photonsphere import photon
from photonsphere.calculus import curvature
from photonsphere.spacetimes import ChartPoint, SchwarzschildProfile


def run(args):
    return cli.main(args)


SCHW = '{"profile": {"kind": "schwarzschild", "m": 1}, '


class TestScenarioValidation:
    def test_malformed_json_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": 1,\n  "pipeline": oops\n}')
        assert run(["detect", "--scenario", str(bad)]) == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_missing_field_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": 1, "profile": {"kind": "schwarzschild", "m": 1}}')
        assert run(["detect", "--scenario", str(bad)]) == cli.EXIT_ERROR
        assert "pipeline" in capsys.readouterr().err

    def test_wrong_schema_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": 2, "pipeline": "detect", "profile": {}}')
        assert run(["detect", "--scenario", str(bad)]) == cli.EXIT_ERROR
        assert "schema" in capsys.readouterr().err

    @pytest.mark.parametrize("text, field", [
        ('[1, 2]', "JSON object"),
        ('{"profile": {"kind": "expression", "lapse": 1, "radial_factor": "1"}}',
         "'lapse'"),
        ('{"profile": {"kind": "expression", "radial_factor": "1"}}', "'lapse'"),
        ('{"profile": {"kind": "schwarzschild"}}', "'m'"),
        ('{"profile": {"kind": "schwarzschild", "m": null}}', "'m'"),
        ('{"profile": {"kind": "schwarzschild", "m": "two"}}', "'m'"),
        ('{"profile": {"kind": "schwarzschild", "m": 1}, "trace": [1]}', "'trace'"),
        ('{"profile": {"kind": "schwarzschild", "m": 1%s}}' % ("0" * 5000),
         "unreadable scenario"),
        (SCHW + '"levels": -3}', "'levels'"),
        (SCHW + '"levels": 8.7}', "'levels'"),
        (SCHW + '"levels": true}', "'levels'"),
        (SCHW + '"levels": 7}', "'levels'"),
        (SCHW + '"levels": 1025}', "'levels'"),
        (SCHW + '"scan": [3]}', "'scan'"),
        (SCHW + '"scan": [5, 3]}', "'scan'"),
        (SCHW + '"scan": [2.2, NaN]}', "'scan'"),
        (SCHW + '"span": "40"}', "'span'"),
        (SCHW + '"span": Infinity}', "'span'"),
        (SCHW + '"span": 1%s}' % ("0" * 400), "'span'"),
        (SCHW + '"tolerance": NaN}', "'tolerance'"),
        (SCHW + '"tail_radius": -1}', "'tail_radius'"),
        (SCHW + '"surface_r0": 0}', "'surface_r0'"),
        (SCHW + '"trace": {"start": [0, 10]}}', "'trace.start'"),
        (SCHW + '"trace": {"direction": [1, -0.8, 0, "0"]}}', "'trace.direction'"),
    ], ids=["array", "lapse-int", "no-lapse", "no-m", "m-null", "m-two",
            "trace-list", "huge-int", "levels-negative", "levels-fraction",
            "levels-bool", "levels-7", "levels-1025", "scan-short",
            "scan-decreasing", "scan-nan", "span-string",
            "span-inf", "span-past-float", "tolerance-nan", "tail-negative",
            "surface-0", "trace-start-2",
            "trace-direction-string"])
    def test_bad_field_exits_2_naming_it(self, text, field, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        if text.startswith("{"):
            text = '{"schema": 1, "pipeline": "detect", ' + text[1:]
        bad.write_text(text)
        assert run(["detect", "--scenario", str(bad),
                    "--out", str(tmp_path / "o")]) == cli.EXIT_ERROR
        assert field in capsys.readouterr().err

    def test_bad_tolerance_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 1, "pipeline": "detect",
                                   "profile": {"kind": "schwarzschild", "m": 1},
                                   "tolerance": -1}))
        assert run(["detect", "--scenario", str(bad)]) == cli.EXIT_ERROR
        assert "tolerance" in capsys.readouterr().err


    @pytest.mark.parametrize("command, flag, value, field", [
        *[(command, "--span", span, "'span'")
          for command in ("trace", "certify", "full")
          for span in ("nan", "inf", "-5", "0")],
        ("israel", "--tol", "nan", "'tolerance'"),
        ("full", "--tol", "-1", "'tolerance'"),
        ("israel", "--levels", "-3", "'levels'"),
        # bounded before anything is allocated: 20000 levels would need a
        # 3 GB differentiation matrix
        ("israel", "--levels", "20000", "'levels'"),
    ])
    def test_bad_flag_exits_2_naming_its_field(self, command, flag, value, field,
                                               tmp_path, capsys):
        out = tmp_path / "o"
        assert run([command, "--scenario", "schwarzschild_m1", "--out", str(out),
                    flag, value]) == cli.EXIT_ERROR
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["certify", "full"])
    def test_seeds_flag_exits_2(self, tmp_path, capsys, command):
        # one orbit stands for every tangent seed: there is no seed count
        with pytest.raises(SystemExit) as exc:
            run([command, "--scenario", "schwarzschild_m1",
                 "--out", str(tmp_path / "o"), "--seeds", "2"])
        assert exc.value.code == cli.EXIT_ERROR
        assert "--seeds" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_seed_keys_are_ignored(self, tmp_path):
        # scenario files written for a seeded certificate still load, and
        # their seed keys change no output; nor does the ``m`` key of an
        # expression or table profile, whose mass is the measured flux
        r = np.geomspace(2.05, 130.0, 160)
        profiles = [
            {"kind": "expression", "lapse": "sqrt(1 - 2/r)",
             "radial_factor": "1/(1 - 2/r)", "r_min": 2.0},
            {"kind": "table", "samples": np.column_stack(
                [r, np.sqrt(1 - 2 / r), 1 / (1 - 2 / r)]).tolist()}]
        schw = {"profile": {"kind": "schwarzschild", "m": 1}}
        pairs = [(schw, {**schw, "seeds": 32, "rng_seed": 7})] + [
            ({"profile": p}, {"profile": {**p, "m": 2.0}}) for p in profiles]
        for k, pair in enumerate(pairs):
            outs = []
            for extra in pair:
                scn = tmp_path / f"scn{k}-{len(outs)}.json"
                scn.write_text(json.dumps({
                    "schema": 1, "name": "r3m", "pipeline": "full",
                    "scan": [2.2, 50.0], "levels": 8, "span": 20.0, **extra}))
                outs.append(tmp_path / f"o{k}-{len(outs)}")
                assert run(["full", "--scenario", str(scn),
                            "--out", str(outs[-1])]) == cli.EXIT_FALSE
            names = sorted(os.listdir(outs[0]))
            assert names == sorted(os.listdir(outs[1]))
            assert "reconstruction.json" in names
            for name in names:
                assert ((outs[0] / name).read_bytes()
                        == (outs[1] / name).read_bytes()), (k, name)

    def test_certify_with_no_integration_is_inconclusive(self, tmp_path):
        # the orbit's first step is below 1e-14 of the span: it does not
        # show tangency
        scn = tmp_path / "scn.json"
        scn.write_text(json.dumps({
            "schema": 1, "pipeline": "certify", "surface_r0": 3.0,
            "profile": {"kind": "schwarzschild", "m": 1}}))
        out = tmp_path / "o"
        assert run(["certify", "--scenario", str(scn), "--out", str(out),
                    "--span", "1e300"]) == cli.EXIT_ERROR
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["verdict"] == "inconclusive"
        tangency = cert["tangency"]
        assert (tangency["status"], tangency["accepted_steps"]) == ("stiff", 0)
        assert tangency["min_step"] is None


class TestExitCodes:
    def test_minkowski_detect_is_refuted(self, tmp_path):
        out = str(tmp_path / "o")
        assert run(["detect", "--scenario", "minkowski", "--out", out]) == 1
        loc = json.loads((tmp_path / "o" / "location.json").read_text())
        assert loc["found"] is False and loc["r_ps"] is None

    def test_negative_mass_detect_is_refuted(self, tmp_path):
        out = str(tmp_path / "o")
        assert run(["detect", "--scenario", "negative_mass", "--out", out]) == 1

    def test_schwarzschild_detect_found(self, tmp_path):
        out = str(tmp_path / "o")
        assert run(["detect", "--scenario", "schwarzschild_m1",
                    "--out", out]) == 0
        loc = json.loads((tmp_path / "o" / "location.json").read_text())
        assert abs(loc["r_ps"] - 3.0) < 1e-8

    def test_minkowski_israel_rejected_flat(self, tmp_path):
        out = str(tmp_path / "o")
        assert run(["israel", "--scenario", "minkowski", "--out", out]) == 2
        # the report alone: no foliation, so no level table or reconstruction
        assert os.listdir(out) == ["israel_report.json"]
        rep = json.loads((tmp_path / "o" / "israel_report.json").read_text())
        assert rep["status"] == "rejected-flat"

    @pytest.mark.parametrize("pipeline", ["israel", "full"])
    def test_vanishing_flux_is_rejected_flat_by_both_pipelines(
            self, tmp_path, capsys, pipeline):
        # g_rr = 1e20 keeps the m = 1 lapse but makes the mass flux 1.7e-10:
        # both pipelines write the same rejected-flat report and neither
        # writes a level table or reconstruction
        scn = tmp_path / "scn.json"
        scn.write_text(json.dumps({
            "schema": 1, "pipeline": pipeline, "scan": [2.2, 50.0],
            "levels": 16, "tail_radius": 30.0, "span": 4.0,
            "profile": {"kind": "expression", "lapse": "sqrt(1 - 2/r)",
                        "radial_factor": "1e20", "r_min": 2.0001}}))
        out = tmp_path / "o"
        assert run([pipeline, "--scenario", str(scn),
                    "--out", str(out)]) == cli.EXIT_ERROR
        assert capsys.readouterr().err == ""
        rep = json.loads((out / "israel_report.json").read_text())
        assert rep["status"] == "rejected-flat"
        assert rep["detail"].startswith("the mass flux 1.73e-10 vanishes")
        assert sorted(os.listdir(out)) == (
            ["certificate.json", "israel_report.json", "location.json"]
            if pipeline == "full" else ["israel_report.json"])

    @pytest.mark.parametrize("scale", [1.0, 1e8])
    def test_flat_table_is_rejected_flat_at_every_scale(self, tmp_path, scale):
        # N = g_rr = 1 on radii in [1e-9, 1e-7] times the scale: the flatness
        # probe reads the lapse inside the scan, so inside the table
        rows = [[r, 1.0, 1.0] for r in (scale * np.geomspace(1e-9, 1e-7, 20)).tolist()]
        scn = tmp_path / "scn.json"
        scn.write_text(json.dumps({
            "schema": 1, "pipeline": "israel", "scan": [2e-9 * scale, 5e-8 * scale],
            "profile": {"kind": "table", "samples": rows}}))
        out = tmp_path / "o"
        assert run(["israel", "--scenario", str(scn),
                    "--out", str(out)]) == cli.EXIT_ERROR
        rep = json.loads((out / "israel_report.json").read_text())
        assert rep["status"] == "rejected-flat"

    def test_negative_mass_israel_no_anchor(self, tmp_path):
        out = str(tmp_path / "o")
        assert run(["israel", "--scenario", "negative_mass", "--out", out]) == 1
        rep = json.loads((tmp_path / "o" / "israel_report.json").read_text())
        assert rep["status"] == "no-photon-sphere"

    def test_r4m_certify_refuted(self, tmp_path):
        out = str(tmp_path / "o")
        assert run(["certify", "--scenario", "r4m_cylinder", "--out", out]) == 1
        cert = json.loads((tmp_path / "o" / "certificate.json").read_text())
        assert cert["verdict"] == "refuted"

    def test_reissner_israel_not_isometric(self, tmp_path):
        out = str(tmp_path / "o")
        assert run(["israel", "--scenario", "reissner_perturbed",
                    "--out", out]) == 1
        rep = json.loads((tmp_path / "o" / "israel_report.json").read_text())
        assert rep["verdict"] == "not-isometric"
        failed = {g["name"] for g in rep["gates"] if not g["passed"]}
        assert "identities" in failed

    @pytest.mark.parametrize("pipeline", ["detect", "israel", "full"])
    def test_unary_plus_expression_runs(self, tmp_path, pipeline):
        # the grammar admits unary + as well as -: both apply to jets
        scn = tmp_path / "scn.json"
        scn.write_text(json.dumps({
            "schema": 1, "pipeline": pipeline, "scan": [2.2, 50.0],
            "profile": {"kind": "expression", "lapse": "+sqrt(1 - 2/r)",
                        "radial_factor": "1/(1 - 2/r)", "r_min": 2.0,
                        "m": 1.0}}))
        assert run([pipeline, "--scenario", str(scn),
                    "--out", str(tmp_path / "o")]) == cli.EXIT_TRUE

    def test_full_exit_reflects_an_inconclusive_certificate(self, tmp_path):
        # the Israel verdict is isometric, but the orbit does not integrate
        out = tmp_path / "o"
        assert run(["full", "--scenario", "schwarzschild_m1", "--out", str(out),
                    "--span", "1e300", "--levels", "24", "--tol", "1e-3"]
                   ) == cli.EXIT_ERROR
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["verdict"] == "inconclusive"
        rep = json.loads((out / "israel_report.json").read_text())
        assert rep["verdict"] == "isometric"

    def test_reconstruct_past_the_collocation_range_is_a_named_error(
            self, tmp_path, capsys):
        # r_max/r0 = 1e13/9 is beyond the 1e12 that the rigidity ODE's
        # collocation nodes resolve.  The lapse 1 - 2/sqrt(r), whose photon
        # sphere is r = 9, keeps r |dN| above the foliation's floor out to
        # the tail; a Schwarzschild lapse falls below it first
        scn = tmp_path / "scn.json"
        scn.write_text(json.dumps({
            "schema": 1, "pipeline": "israel", "scan": [5.0, 50.0],
            "tail_radius": 1e13,
            "profile": {"kind": "expression", "lapse": "1 - 2/sqrt(r)",
                        "radial_factor": "1", "r_min": 4.5}}))
        out = tmp_path / "o"
        assert run(["israel", "--scenario", str(scn),
                    "--out", str(out)]) == cli.EXIT_ERROR
        assert "radius ratio r_max/r0 = 1.11111e+12" in capsys.readouterr().err
        assert os.listdir(out) == []

    @staticmethod
    def _assert_isometric_at_scale(tmp_path, m):
        # the m = 1 run with every length scaled by m: each gate reads a
        # dimensionless value, so the verdict is isometric at every scale
        scn = tmp_path / "scn.json"
        scn.write_text(json.dumps({
            "schema": 1, "pipeline": "israel", "scan": [2.2 * m, 50.0 * m],
            "levels": 64, "profile": {"kind": "schwarzschild", "m": m}}))
        out = tmp_path / "o"
        assert run(["israel", "--scenario", str(scn),
                    "--out", str(out)]) == cli.EXIT_TRUE
        rep = json.loads((out / "israel_report.json").read_text())
        assert rep["verdict"] == "isometric"
        assert rep["mass"] == pytest.approx(m, rel=1e-8)

    def test_small_mass_is_not_called_flat(self, tmp_path):
        # m = 1e-11 is a Schwarzschild slice at a small length scale, not a
        # flat one
        self._assert_isometric_at_scale(tmp_path, 1e-11)

    # the leaf area is sqrt(sigma_thth) sqrt(sigma_phph), of order r^2, so
    # it neither underflows at m = 1e-120 nor overflows at 1e120; where r^2
    # itself overflows, the run ends in a named error
    # (test_overflowing_leaf_area_...)
    @pytest.mark.parametrize("m", [1e-120, 1e-100, 1e-80, 1e-13, 1e-12, 1e-9,
                                   1e4, 1e5, 3e5, 1e7, 1e8, 1e9, 1e10, 1e11,
                                   1e20, 1e40, 1e80, 1e100, 1e120])
    def test_israel_verdict_is_scale_covariant(self, tmp_path, m):
        self._assert_isometric_at_scale(tmp_path, m)

    @pytest.mark.parametrize("m", [1e-150, 1e-100, 1e-20, 1e-14, 1e-13,
                                   1e-12, 1e-9, 1e4, 1e5, 3e5, 1e7, 1e80])
    def test_certify_verdict_is_scale_covariant(self, tmp_path, m):
        # the m = 1 detect and certify runs with every length scaled by m:
        # the certificate gates r0 |h_tracefree| and |r - r0| / r0, and
        # reports R_p's residual times r0^2
        def scenario(pipeline, **fields):
            scn = tmp_path / f"{pipeline}-{len(fields)}.json"
            scn.write_text(json.dumps({
                "schema": 1, "pipeline": pipeline, "scan": [2.2 * m, 50.0 * m],
                "span": 40.0 * m, "profile": {"kind": "schwarzschild", "m": m},
                **fields}))
            return str(scn)

        out = tmp_path / "detect"
        assert run(["detect", "--scenario", scenario("detect"),
                    "--out", str(out)]) == cli.EXIT_TRUE
        loc = json.loads((out / "location.json").read_text())
        assert loc["r_ps"] == 3.0 * m
        for r0, code, verdict in [(3.0, cli.EXIT_TRUE, "certified"),
                                  (4.0, cli.EXIT_FALSE, "refuted")]:
            out = tmp_path / f"certify-{r0}"
            assert run(["certify", "--scenario",
                        scenario("certify", surface_r0=r0 * m),
                        "--out", str(out)]) == code
            cert = json.loads((out / "certificate.json").read_text())
            assert cert["verdict"] == verdict
            if verdict == "certified":
                assert cert["scalar"]["residual"] < 1e-12

    def test_tail_radius_where_the_lapse_rounds_to_1_is_a_named_error(
            self, tmp_path, capsys):
        # N(1e20) = 1 to rounding, but N0 < 1: the slice is not flat
        scn = tmp_path / "scn.json"
        scn.write_text(json.dumps({
            "schema": 1, "pipeline": "israel", "tail_radius": 1e20,
            "profile": {"kind": "schwarzschild", "m": 1}}))
        out = tmp_path / "o"
        assert run(["israel", "--scenario", str(scn),
                    "--out", str(out)]) == cli.EXIT_ERROR
        assert "tail_radius = 1e+20" in capsys.readouterr().err
        assert not (out / "israel_report.json").exists()

    def test_singular_metric_is_a_named_error(self, tmp_path, capsys):
        scn = tmp_path / "scn.json"
        scn.write_text(json.dumps({
            "schema": 1, "pipeline": "israel", "levels": 8,
            "scan": [2.2, 50.0], "tail_radius": 100.0,
            "profile": {"kind": "expression", "lapse": "sqrt(1 - 2/r)",
                        "radial_factor": "r - r", "r_min": 2.0, "m": 1.0}}))
        assert run(["israel", "--scenario", str(scn),
                    "--out", str(tmp_path / "o")]) == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert "metric is singular" in err

    def test_singular_cylinder_is_a_named_error(self, tmp_path, capsys):
        # N(2) = 0: the cylinder's metric is singular and its induced
        # metric has no time direction, so either names the failure
        scn = tmp_path / "scn.json"
        scn.write_text(json.dumps({
            "schema": 1, "pipeline": "certify", "surface_r0": 2,
            "profile": {"kind": "expression", "lapse": "1 - 2/r",
                        "radial_factor": "1", "r_min": 0}}))
        out = tmp_path / "o"
        assert run(["certify", "--scenario", str(scn),
                    "--out", str(out)]) == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "metric is singular" in err or "not timelike" in err
        assert not (out / "certificate.json").exists()

    @pytest.mark.parametrize("profile, r0", [
        # r0^2 overflows in the induced metric
        ({"kind": "schwarzschild", "m": 1e300}, 3e300),
        # the lapse is nan at every r > 0
        ({"kind": "expression", "lapse": "sqrt(-r)", "radial_factor": "1",
          "r_min": 0}, 3.0)], ids=["overflow", "nan-lapse"])
    def test_non_finite_cylinder_is_one_named_error(self, tmp_path, capsys,
                                                    profile, r0):
        # the cylinder is sampled with floating-point warnings off, so the
        # named error is the one line on stderr
        scn = tmp_path / "scn.json"
        scn.write_text(json.dumps({"schema": 1, "pipeline": "certify",
                                   "surface_r0": r0, "profile": profile}))
        out = tmp_path / "o"
        assert run(["certify", "--scenario", str(scn),
                    "--out", str(out)]) == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not (out / "certificate.json").exists()

    def test_overflowing_leaf_area_is_one_named_error(self, tmp_path, capsys):
        # Schwarzschild m = 2e152: the outer leaves reach r = 2e154, where
        # r^2 itself overflows in the induced metric.  The leaves are
        # sampled with floating-point warnings off, so the named error,
        # which gives a leaf radius, is the one line on stderr
        m = 2e152
        scn = tmp_path / "scn.json"
        scn.write_text(json.dumps({
            "schema": 1, "pipeline": "israel", "scan": [2.2 * m, 50.0 * m],
            "levels": 64, "profile": {"kind": "schwarzschild", "m": m}}))
        out = tmp_path / "o"
        assert run(["israel", "--scenario", str(scn),
                    "--out", str(out)]) == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert re.search(r"level-set r0 = \S+ has non-finite shape data or "
                         r"induced metric", err)
        assert not (out / "israel_report.json").exists()

    def test_zero_trace_direction_is_a_named_error(self, tmp_path, capsys):
        # the zero vector is null, but it is no direction to integrate
        scn = tmp_path / "scn.json"
        scn.write_text(json.dumps({
            "schema": 1, "pipeline": "trace",
            "trace": {"direction": [0, 0, 0, 0]},
            "profile": {"kind": "schwarzschild", "m": 1}}))
        out = tmp_path / "o"
        assert run(["trace", "--scenario", str(scn),
                    "--out", str(out)]) == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert err == "error: initial velocity has no spatial direction\n"
        assert not (out / "trace.json").exists()

    @pytest.mark.parametrize("pipeline", ["detect", "israel", "full"])
    def test_scan_to_the_end_of_the_float_range_is_clean(
            self, tmp_path, capsys, pipeline):
        # r * r overflows in the lapse slope at the scan's far end, where
        # f = r N' - N is still finite: no warning reaches stderr
        scn = tmp_path / "scn.json"
        scn.write_text(json.dumps({
            "schema": 1, "pipeline": pipeline, "scan": [2.2, 1e308],
            "profile": {"kind": "schwarzschild", "m": 1}}))
        out = tmp_path / "o"
        assert run([pipeline, "--scenario", str(scn),
                    "--out", str(out)]) == cli.EXIT_TRUE
        assert capsys.readouterr().err == ""
        if pipeline in ("detect", "full"):
            loc = json.loads((out / "location.json").read_text())
            assert loc["r_ps"] == 3.0


class TestOutputs:
    def test_trace_writes_trajectory(self, tmp_path):
        out = str(tmp_path / "o")
        assert run(["trace", "--scenario", "schwarzschild_m1", "--out", out,
                    "--span", "5"]) == 0
        lines = (tmp_path / "o" / "trajectory.csv").read_text().splitlines()
        assert lines[0].startswith("lambda,t,r")
        assert len(lines) > 3
        rep = json.loads((tmp_path / "o" / "trace.json").read_text())
        assert (rep["integrator"], rep["integrator_tol"]) == ("DOP853", 1e-11)

    def test_trajectory_csv_format(self, tmp_path):
        out = tmp_path / "o"
        assert run(["trace", "--scenario", "schwarzschild_m1",
                    "--out", str(out), "--span", "5"]) == 0
        scn = cli.load_scenario(cli.bundled_scenario_path("schwarzschild_m1"),
                                {"pipeline": "trace", "span": 5.0})
        tr = geo.integrate_null(
            scn.profile,
            geo.GeodesicState(ChartPoint(*scn.trace_start), scn.trace_direction),
            scn.span)
        # CRLF line ends, as every csv table the CLI writes
        lines = (out / "trajectory.csv").read_bytes().decode().split("\r\n")
        assert lines[0] == ("lambda,t,r,theta,phi,vt,vr,vtheta,vphi,"
                            "null_residual,energy")
        assert lines[-1] == ""
        rows = [[float(v) for v in line.split(",")] for line in lines[1:-1]]
        assert len(rows) == len(tr.samples)
        assert len(rows[0]) == 11 and rows[0][2] == 10.0
        # full double precision round trip (17 significant digits)
        assert np.array_equal(rows, np.column_stack(
            [tr.samples, tr.null_residuals, tr.energies]))

    def test_reconstruct_outputs(self, tmp_path):
        # israel writes its report's rigidity solve next to the report
        out = str(tmp_path / "o")
        assert run(["israel", "--scenario", "schwarzschild_m1",
                    "--out", out]) == 0
        assert sorted(os.listdir(out)) == [
            "israel_levels.csv", "israel_report.json", "reconstructed_lapse.csv",
            "reconstruction.json"]
        rec = json.loads((tmp_path / "o" / "reconstruction.json").read_text())
        assert abs(rec["A_ode"] - 1.0) < 1e-8
        assert abs(rec["B_ode"] + 2.0) < 1e-8

    @pytest.mark.parametrize("command, scenario, code, flags", [
        ("israel", "reissner_perturbed", 1, []),
        ("certify", "r4m_cylinder", 1, []),
        ("trace", "schwarzschild_m1", 0, []),
        # every kind of output file, the curvature dump included; 8 levels
        # are too coarse for the 1e-5 gates, so the run is not isometric
        ("full", "schwarzschild_m1", 1, ["--levels", "8", "--dump-curvature"]),
    ], ids=["israel-reissner_perturbed-1", "certify-r4m_cylinder-1",
            "trace-schwarzschild_m1-0", "full-schwarzschild_m1-1-dump"])
    def test_determinism_byte_identical(self, tmp_path, command, scenario, code,
                                        flags):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (out1, out2):
            dump = [os.path.join(out, "curvature.json")] if flags else []
            assert run([command, "--scenario", scenario, "--out", out]
                       + flags + dump) == code
        assert sorted(os.listdir(out1)) == sorted(os.listdir(out2))
        if flags:
            assert len(os.listdir(out1)) == 7
        for name in sorted(os.listdir(out1)):
            with open(os.path.join(out1, name), "rb") as fa, \
                    open(os.path.join(out2, name), "rb") as fb:
                assert fa.read() == fb.read(), f"{name} differs between runs"

    def test_certify_integrates_through_integrate_null(self, tmp_path,
                                                       monkeypatch):
        # the tangency orbit goes through the public integrator, so a
        # wrapper of ``geodesics.integrate_null`` sees the certificate's run
        calls = []
        integrate = geo.integrate_null

        def counted(*args, **kwargs):
            calls.append(args[2])
            return integrate(*args, **kwargs)

        monkeypatch.setattr(geo, "integrate_null", counted)
        assert run(["certify", "--scenario", "r4m_cylinder",
                    "--out", str(tmp_path / "o")]) == cli.EXIT_FALSE
        assert calls == [40.0]

    @pytest.mark.parametrize("command", ["detect", "full", "israel"])
    def test_one_photon_sphere_location_per_run(self, tmp_path, monkeypatch,
                                                command):
        calls = []
        locate = photon.locate_photon_sphere

        def counted(*args, **kwargs):
            calls.append(args[1])
            return locate(*args, **kwargs)

        monkeypatch.setattr(photon, "locate_photon_sphere", counted)
        flags = (["--dump-curvature", str(tmp_path / "curv.json")]
                 if command == "detect" else [])
        assert run([command, "--scenario", "schwarzschild_m1",
                    "--out", str(tmp_path / "o"), *flags]) == cli.EXIT_TRUE
        assert calls == [(2.2, 50.0)]

    @pytest.mark.parametrize("command", ["israel", "full"])
    def test_one_rigidity_solve_per_run(self, tmp_path, monkeypatch, command):
        # the reconstruction is the israel pipeline's own, from the flux mass
        masses = []
        solve = israel.reconstruct_lapse

        def counted(*args, **kwargs):
            masses.append(args[0])
            return solve(*args, **kwargs)

        monkeypatch.setattr(israel, "reconstruct_lapse", counted)
        out = tmp_path / "o"
        assert run([command, "--scenario", "schwarzschild_m1",
                    "--out", str(out)]) == cli.EXIT_TRUE
        rep = json.loads((out / "israel_report.json").read_text())
        assert masses == [rep["mass"]]

    @pytest.mark.parametrize("command", ["israel", "full"])
    def test_reconstruction_files_hold_the_reports_solve(self, tmp_path,
                                                         command):
        # the flux mass of a non-vacuum profile is not its m = 1 lapse term
        out = tmp_path / "o"
        assert run([command, "--scenario", "reissner_perturbed",
                    "--out", str(out)]) == cli.EXIT_FALSE
        rep = json.loads((out / "israel_report.json").read_text())
        rec = json.loads((out / "reconstruction.json").read_text())
        gate = next(g for g in rep["gates"] if g["name"] == "reconstruction")
        assert rec["mass"] == rep["mass"] != 1.0
        assert rec["sup_deviation"] == gate["value"]

    def test_curvature_dump_flag(self, tmp_path):
        out = str(tmp_path / "o")
        dump = str(tmp_path / "bundle.json")
        assert run(["detect", "--scenario", "schwarzschild_m1", "--out", out,
                    "--dump-curvature", dump]) == 0
        with open(dump) as fh:
            d = json.load(fh)
        assert "Gamma^r_tt" in d["christoffel"]
        assert np.isclose(d["christoffel"]["Gamma^r_tt"],
                          oracles.GAMMA_R_TT_M1_R3)
        assert "Ric_tt" in d["ricci"]
        assert d["coords"]["r"] == pytest.approx(3.0, abs=1e-6)
        assert len(d["riemann"]) == 96

    def test_curvature_dump_keys_do_not_depend_on_roundoff(self):
        # three k < i Riemann components that are exactly 0.0 at r = 3.0
        # read -2.8e-17 a few ulp off 3m: every one is written either way
        st = SchwarzschildProfile(1.0)
        dumps = [cli._curvature_payload(curvature(st.metric4,
                                               (0.0, r, math.pi / 3, 0.0)))
                 for r in (3.0, 3.000000000001233)]
        keys = [{section: sorted(d[section]) if isinstance(d[section], dict)
                 else None for section in d} for d in dumps]
        assert keys[0] == keys[1]
        assert len(dumps[0]["riemann"]) == 96
        assert 0.0 in dumps[0]["riemann"].values()

    def test_per_level_columns_are_named_once(self, tmp_path):
        # each per-level fact is in one file: israel_levels.csv holds the
        # leaf columns and the two pointwise slacks, the JSON report neither
        out = tmp_path / "o"
        assert run(["israel", "--scenario", "schwarzschild_m2",
                    "--out", str(out)]) == 0
        report = json.loads((out / "israel_report.json").read_text())
        levels = [line.split(",") for line in
                  (out / "israel_levels.csv").read_bytes().decode()
                  .split("\r\n")[:-1]]
        assert levels[0] == ["N", "r", "rho", "H", "res31", "res32", "res33",
                             "slack34", "slack35"]
        assert len(levels) == 65 and {len(row) for row in levels} == {9}
        assert not set(report) & set(levels[0] + ["per_level"])

    def test_quad_override_parsing(self, tmp_path, capsys):
        # a leaf is sampled at one point: there is no quadrature to set
        with pytest.raises(SystemExit) as exc:
            run(["detect", "--scenario", "schwarzschild_m1",
                 "--out", str(tmp_path / "o"), "--quad", "8x16"])
        assert exc.value.code == cli.EXIT_ERROR
        assert "--quad" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_phi_count_changes_no_output(self, tmp_path):
        # the scenario key quadrature, theta and phi counts alike, is
        # ignored: no leaf field of a radial profile depends on theta or phi
        with open(cli.bundled_scenario_path("schwarzschild_m1")) as fh:
            bundled = json.load(fh)
        trees = []
        for extra in ({}, {"quadrature": [8, 1]}, {"quadrature": [8, 16]},
                      {"quadrature": [0, "x"]}):
            scn = tmp_path / f"scn{len(trees)}.json"
            scn.write_text(json.dumps({**bundled, **extra}))
            out = tmp_path / f"o{len(trees)}"
            assert run(["full", "--scenario", str(scn), "--out", str(out),
                        "--levels", "8"]) == cli.EXIT_FALSE
            trees.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert "israel_report.json" in trees[0]
        assert all(tree == trees[0] for tree in trees)

    @pytest.mark.parametrize("command", ["trace", "detect", "certify"])
    def test_tol_rejected_where_no_tolerance_is_read(self, tmp_path, capsys,
                                                     command):
        with pytest.raises(SystemExit) as exc:
            run([command, "--scenario", "schwarzschild_m1",
                 "--out", str(tmp_path / "o"), "--tol", "1e-3"])
        assert exc.value.code == cli.EXIT_ERROR
        assert "--tol" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_reconstruct_is_no_subcommand(self, tmp_path, capsys):
        # israel writes the reconstruction; there is no second pipeline
        with pytest.raises(SystemExit) as exc:
            run(["reconstruct", "--scenario", "schwarzschild_m1",
                 "--out", str(tmp_path / "o")])
        assert exc.value.code == cli.EXIT_ERROR
        assert "invalid choice: 'reconstruct'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_reconstruct_is_no_scenario_pipeline(self, tmp_path, capsys):
        with open(cli.bundled_scenario_path("schwarzschild_m1")) as fh:
            scn = {**json.load(fh), "pipeline": "reconstruct"}
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(scn))
        assert run(["israel", "--scenario", str(path),
                    "--out", str(tmp_path / "o")]) == cli.EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error: scenario field 'pipeline' must be one of {cli.PIPELINES}\n")

    def test_tol_overrides_the_israel_gates(self, tmp_path):
        out = tmp_path / "o"
        assert run(["israel", "--scenario", "reissner_perturbed",
                    "--out", str(out), "--tol", "0.25", "--levels", "8"]
                   ) in (0, 1)
        report = json.loads((out / "israel_report.json").read_text())
        assert report["tolerance"] == 0.25
        assert {g["name"]: g["threshold"] for g in report["gates"]}[
            "identities"] == 0.25

    @pytest.mark.parametrize("lapse", ["1 - 2^(-r)", "1 - 1/r^r"])
    def test_detect_on_variable_exponents(self, tmp_path, lapse):
        scn = tmp_path / "scn.json"
        scn.write_text(json.dumps({
            "schema": 1, "pipeline": "detect", "scan": [1.5, 20.0],
            "profile": {"kind": "expression", "lapse": lapse,
                        "radial_factor": "1", "r_min": 1.0}}))
        out = tmp_path / "o"
        assert run(["detect", "--scenario", str(scn), "--out", str(out)]) in (0, 1)
        loc = json.loads((out / "location.json").read_text())
        assert loc["scan"] == [1.5, 20.0]

    def test_detect_past_the_end_of_a_table_exits_2(self, tmp_path, capsys):
        rs = [2.05 + 0.05 * i for i in range(18)]  # ends at r = 2.9 < 3
        rows = [[r, (1 - 2 / r) ** 0.5, 1 / (1 - 2 / r)] for r in rs]
        scn = tmp_path / "scn.json"
        scn.write_text(json.dumps({
            "schema": 1, "pipeline": "detect", "scan": [2.2, 50.0],
            "profile": {"kind": "table", "samples": rows}}))
        out = tmp_path / "o"
        assert run(["detect", "--scenario", str(scn), "--out", str(out)]) == 2
        assert "not real or not finite" in capsys.readouterr().err
        assert not (out / "location.json").exists()

    def test_plot_tables_on_empty_run(self, tmp_path):
        # detect-only scenarios write no foliation tables; trace writes r(l)
        # as the lambda and r columns of trajectory.csv, and no other table
        out = str(tmp_path / "o")
        run(["trace", "--scenario", "schwarzschild_m1", "--out", out,
             "--span", "2"])
        assert sorted(os.listdir(out)) == ["trace.json", "trajectory.csv"]
        table = (tmp_path / "o" / "trajectory.csv").read_text()
        header = table.splitlines()[0].split(",")
        assert (header[0], header[2]) == ("lambda", "r")


@pytest.fixture(scope="module")
def full_m1_certificate(tmp_path_factory):
    """certificate.json of `full` on schwarzschild_m1; the coarse foliation
    flags leave the certificate as the bundled run writes it."""
    out = tmp_path_factory.mktemp("full_m1")
    run(["full", "--scenario", "schwarzschild_m1", "--out", str(out),
         "--levels", "8"])
    return json.loads((out / "certificate.json").read_text())


class TestCertificateOutput:
    def test_certificate_json_schema(self, full_m1_certificate):
        d = full_m1_certificate
        assert d["verdict"] == "certified"
        # H is sampled at one point: its spread is 0
        assert d["mean_curvature"]["stddev"] == 0.0
        assert set(d["mean_curvature"]) == {"value", "stddev"}
        assert set(d["scalar"]) == {"value", "expected", "residual"}
        tangency = d["tangency"]
        assert set(tangency) == {"span", "deviation", "integrator",
                                 "integrator_tol", "status", "accepted_steps",
                                 "rejected_steps", "min_step"}
        assert tangency["integrator"] == "DOP853"
        assert tangency["integrator_tol"] == geo.TANGENCY_TOL == 1e-16
        assert tangency["status"] == "completed"
        assert (tangency["accepted_steps"] > 0 and tangency["rejected_steps"] >= 0
                and tangency["min_step"] > 0.0)
        assert "tolerances" in d
        assert "rng_seed" not in d

    def test_tangency_deviation_at_roundoff(self, full_m1_certificate):
        # with r_ps bisected to adjacent floats the orbit starts on the
        # photon sphere itself: |r - r0| / r0 is 4.5e-14, where a root 4e-13
        # (relative) off 3m gave 4.7e-10
        assert full_m1_certificate["r0"] == 3.0
        assert full_m1_certificate["tangency"]["deviation"] < 1e-11


@pytest.mark.parametrize("command, scenario, flags, pinned", [
    ("certify", "r4m_cylinder", [], (80, 0, 0.04, 3.5780776172782085)),
    # the coarse foliation flags leave the certificate as the bundled run
    # writes it
    ("full", "schwarzschild_m1", ["--levels", "8"],
     (33, 1, 0.03, 4.4853010194856324e-14)),
], ids=["certify-r4m_cylinder", "full-schwarzschild_m1"])
def test_tangency_block_is_pinned(tmp_path, command, scenario, flags, pinned):
    """The certificate's tangency block to the last bit: a rerun of the
    same code cannot see a reordered stage sum or a changed step factor,
    these numbers can."""
    out = tmp_path / "o"
    run([command, "--scenario", scenario, "--out", str(out)] + flags)
    block = json.loads((out / "certificate.json").read_text())["tangency"]
    assert (block["accepted_steps"], block["rejected_steps"],
            block["min_step"], block["deviation"]) == pinned
    assert block["status"] == "completed"


class TestBundledSuitePartition:
    """Exit codes partition outcomes across the six bundled scenarios.

    The positive-verdict runs use coarser foliations with the matching
    differencing tolerance; the full-resolution numbers are pinned by the
    acceptance suite.
    """

    def test_schwarzschild_m1_full_is_true(self, tmp_path):
        out = str(tmp_path / "o")
        code = run(["full", "--scenario", "schwarzschild_m1", "--out", out,
                    "--levels", "24", "--tol", "1e-3", "--span", "20"])
        assert code == 0
        rep = json.loads((tmp_path / "o" / "israel_report.json").read_text())
        assert rep["verdict"] == "isometric"
        assert abs(rep["mass"] - 1.0) < 1e-8
        cert = json.loads((tmp_path / "o" / "certificate.json").read_text())
        assert cert["verdict"] == "certified"

    def test_schwarzschild_m2_israel_is_true(self, tmp_path):
        out = str(tmp_path / "o")
        code = run(["israel", "--scenario", "schwarzschild_m2", "--out", out,
                    "--levels", "24", "--tol", "1e-3"])
        assert code == 0
        rep = json.loads((tmp_path / "o" / "israel_report.json").read_text())
        assert rep["verdict"] == "isometric"
        assert abs(rep["mass"] - 2.0) < 1e-8

    # the exit code of each pipeline on each bundled scenario, in the order
    # of cli.PIPELINES: trace, detect, certify, israel, full
    BUNDLED_EXIT_CODES = {
        "schwarzschild_m1": (0, 0, 2, 0, 0),
        "schwarzschild_m2": (2, 0, 2, 0, 0),
        "minkowski": (2, 1, 2, 2, 1),
        "negative_mass": (2, 1, 2, 1, 1),
        "reissner_perturbed": (2, 0, 2, 1, 1),
        "r4m_cylinder": (0, 0, 1, 0, 0),
    }

    def test_every_bundled_run_is_pinned(self, tmp_path, capsys):
        # 6 scenarios x 5 pipelines, detect with a curvature dump: each run
        # keeps its exit code, and its stderr is empty or one error line
        assert cli.PIPELINES == ("trace", "detect", "certify", "israel", "full")
        for name, expected in self.BUNDLED_EXIT_CODES.items():
            codes = []
            for command in cli.PIPELINES:
                out = tmp_path / f"{name}-{command}"
                dump = (["--dump-curvature", str(out / "curvature.json")]
                        if command == "detect" else [])
                codes.append(run([command, "--scenario", name,
                                  "--out", str(out), *dump]))
                err = capsys.readouterr().err
                assert err == "" or re.fullmatch(r"error: [^\n]*\n", err), (
                    name, command, err)
            assert tuple(codes) == expected, name

    def test_partition_of_negative_scenarios(self, tmp_path):
        codes = {}
        for name, cmd in (("minkowski", "detect"), ("negative_mass", "detect"),
                          ("reissner_perturbed", "israel"),
                          ("r4m_cylinder", "certify")):
            out = str(tmp_path / name)
            codes[name] = run([cmd, "--scenario", name, "--out", out])
        assert codes == {"minkowski": 1, "negative_mass": 1,
                         "reissner_perturbed": 1, "r4m_cylinder": 1}
