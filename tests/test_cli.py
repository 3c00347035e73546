"""Scenario loading, exit-code semantics and output determinism."""

import json
import math
import os

import numpy as np
import pytest

import oracles
from photonsphere import cli
from photonsphere import geodesics as geo
from photonsphere.calculus import curvature
from photonsphere.spacetimes import ChartPoint, StaticSpacetime


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
        ('{"profile": {"kind": "expression", "lapse": "sqrt(1-2/r)", '
         '"radial_factor": "1/(1-2/r)", "r_min": 2.01, "m": "two"}}', "'m'"),
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
        (SCHW + '"quadrature": ["a", "b"]}', "'quadrature'"),
        (SCHW + '"quadrature": [0, 8]}', "'quadrature'"),
        (SCHW + '"quadrature": [1025, 8]}', "'quadrature'"),
        (SCHW + '"quadrature": [8, 1025]}', "'quadrature'"),
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
            "scan-decreasing", "scan-nan", "quadrature-strings", "quadrature-0",
            "quadrature-theta-1025", "quadrature-phi-1025", "span-string",
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
        ("israel", "--quad", "0x4", "'quadrature'"),
        # bounded before anything is allocated: 20000 levels or theta nodes
        # would need a 3 GB differentiation matrix
        ("israel", "--levels", "20000", "'levels'"),
        ("israel", "--quad", "20000x4", "'quadrature'"),
        ("full", "--quad", "4x20000", "'quadrature'"),
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
        # their seed keys change no output
        outs = []
        for extra in ({}, {"seeds": 32, "rng_seed": 7}):
            scn = tmp_path / f"scn{len(extra)}.json"
            scn.write_text(json.dumps({
                "schema": 1, "name": "r3m", "pipeline": "full",
                "scan": [2.2, 50.0], "levels": 8, "quadrature": [8, 16],
                "span": 20.0, "profile": {"kind": "schwarzschild", "m": 1},
                **extra}))
            outs.append(tmp_path / f"o{len(extra)}")
            assert run(["full", "--scenario", str(scn),
                        "--out", str(outs[-1])]) == cli.EXIT_FALSE
        names = sorted(os.listdir(outs[0]))
        assert names == sorted(os.listdir(outs[1]))
        assert "certificate.json" in names
        for name in names:
            assert ((outs[0] / name).read_bytes()
                    == (outs[1] / name).read_bytes()), name

    def test_certify_with_no_integration_is_inconclusive(self, tmp_path):
        # the orbit's first step underflows: it does not show tangency
        scn = tmp_path / "scn.json"
        scn.write_text(json.dumps({
            "schema": 1, "pipeline": "certify", "surface_r0": 3.0,
            "profile": {"kind": "schwarzschild", "m": 1}}))
        out = tmp_path / "o"
        assert run(["certify", "--scenario", str(scn), "--out", str(out),
                    "--span", "1e-300"]) == cli.EXIT_ERROR
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
        rep = json.loads((tmp_path / "o" / "israel_report.json").read_text())
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
                    "--span", "1e-300", "--levels", "24", "--quad", "32x64",
                    "--tol", "1e-3"]) == cli.EXIT_ERROR
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["verdict"] == "inconclusive"
        rep = json.loads((out / "israel_report.json").read_text())
        assert rep["verdict"] == "isometric"

    def test_reconstruct_past_the_collocation_range_is_a_named_error(
            self, tmp_path, capsys):
        # r_max/r0 = 1e16/3 is beyond the 1e12 that the rigidity ODE's
        # collocation nodes resolve
        scn = tmp_path / "scn.json"
        scn.write_text(json.dumps({
            "schema": 1, "pipeline": "reconstruct", "tail_radius": 1e16,
            "profile": {"kind": "schwarzschild", "m": 1}}))
        out = tmp_path / "o"
        assert run(["reconstruct", "--scenario", str(scn),
                    "--out", str(out)]) == cli.EXIT_ERROR
        assert "radius ratio r_max/r0 = 3.33333e+15" in capsys.readouterr().err
        assert not (out / "reconstruction.json").exists()

    @staticmethod
    def _assert_isometric_at_scale(tmp_path, m):
        # the m = 1 run with every length scaled by m: each gate reads a
        # dimensionless value, so the verdict is isometric at every scale
        scn = tmp_path / "scn.json"
        scn.write_text(json.dumps({
            "schema": 1, "pipeline": "israel", "scan": [2.2 * m, 50.0 * m],
            "levels": 64, "quadrature": [16, 32],
            "profile": {"kind": "schwarzschild", "m": m}}))
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

    # the range stops at 1e11, where sharpness-34, whose slack is not yet
    # dimensionless, reads 2.07e-5 against 1e-5
    @pytest.mark.parametrize("m", [1e-13, 1e-12, 1e-9, 1e4, 1e5, 3e5, 1e7,
                                   1e8, 1e9, 1e10])
    def test_israel_verdict_is_scale_covariant(self, tmp_path, m):
        self._assert_isometric_at_scale(tmp_path, m)

    @pytest.mark.parametrize("m", [1e-13, 1e-12, 1e-9, 1e4, 1e5, 3e5, 1e7])
    def test_certify_verdict_is_scale_covariant(self, tmp_path, m):
        # the m = 1 detect and certify runs with every length scaled by m:
        # the certificate gates r0 |h_tracefree|, r0 std H and |r - r0| / r0,
        # and reports R_p's spread and residual times r0^2
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
            assert cert["scalar"]["stddev"] < 1e-12
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
            "schema": 1, "pipeline": "israel", "levels": 8, "quadrature": [8, 16],
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
            StaticSpacetime(scn.profile),
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
        out = str(tmp_path / "o")
        assert run(["reconstruct", "--scenario", "schwarzschild_m1",
                    "--out", out]) == 0
        rec = json.loads((tmp_path / "o" / "reconstruction.json").read_text())
        assert abs(rec["A_ode"] - 1.0) < 1e-8
        assert abs(rec["B_ode"] + 2.0) < 1e-8

    @pytest.mark.parametrize("command, scenario, code, flags", [
        ("israel", "reissner_perturbed", 1, []),
        ("certify", "r4m_cylinder", 1, []),
        ("trace", "schwarzschild_m1", 0, []),
        # every kind of output file, the curvature dump included; 8 levels
        # are too coarse for the 1e-5 gates, so the run is not isometric
        ("full", "schwarzschild_m1", 1,
         ["--levels", "8", "--quad", "8x16", "--dump-curvature"]),
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
            assert len(os.listdir(out1)) == 11
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
        st = StaticSpacetime.schwarzschild(1.0)
        dumps = [cli._curvature_payload(curvature(st.metric4,
                                               (0.0, r, math.pi / 3, 0.0)))
                 for r in (3.0, 3.000000000001233)]
        keys = [{section: sorted(d[section]) if isinstance(d[section], dict)
                 else None for section in d} for d in dumps]
        assert keys[0] == keys[1]
        assert len(dumps[0]["riemann"]) == 96
        assert 0.0 in dumps[0]["riemann"].values()

    def test_per_level_columns_are_named_once(self, tmp_path):
        out = tmp_path / "o"
        assert run(["israel", "--scenario", "schwarzschild_m2",
                    "--out", str(out)]) == 0
        report = json.loads((out / "israel_report.json").read_text())
        lines = (out / "israel_levels.csv").read_bytes().decode().split("\r\n")
        header, *rows = [line.split(",") for line in lines[:-1]]
        # the JSON keys are sorted; the csv keeps the columns' order
        assert sorted(report["per_level"][0]) == sorted(header + ["rho_std"])
        assert len(rows) == len(report["per_level"]) == 64
        for name in ("r", "rho", "H"):
            cols = [header.index("N"), header.index(name)]
            expect = "".join(",".join(row[c] for c in cols) + "\r\n"
                             for row in [header, *rows])
            assert (out / f"{name}_of_N.csv").read_bytes() == expect.encode()

    def test_quad_override_parsing(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        assert run(["detect", "--scenario", "schwarzschild_m1", "--out", out,
                    "--quad", "banana"]) == cli.EXIT_ERROR
        assert "--quad" in capsys.readouterr().err

    def test_phi_count_changes_no_output(self, tmp_path):
        # the second --quad count is validated and ignored: no leaf field
        # of a radial profile depends on phi
        trees = []
        for quad in ("8x1", "8x16"):
            out = tmp_path / quad
            assert run(["full", "--scenario", "schwarzschild_m1", "--out",
                        str(out), "--levels", "8",
                        "--quad", quad]) == cli.EXIT_FALSE
            trees.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert "israel_report.json" in trees[0] and trees[0] == trees[1]

    @pytest.mark.parametrize("command", ["trace", "detect", "certify",
                                         "reconstruct"])
    def test_tol_rejected_where_no_tolerance_is_read(self, tmp_path, capsys,
                                                     command):
        with pytest.raises(SystemExit) as exc:
            run([command, "--scenario", "schwarzschild_m1",
                 "--out", str(tmp_path / "o"), "--tol", "1e-3"])
        assert exc.value.code == cli.EXIT_ERROR
        assert "--tol" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_tol_overrides_the_israel_gates(self, tmp_path):
        out = tmp_path / "o"
        assert run(["israel", "--scenario", "reissner_perturbed",
                    "--out", str(out), "--tol", "0.25", "--levels", "8",
                    "--quad", "8x16"]) in (0, 1)
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
        out = str(tmp_path / "o")
        run(["trace", "--scenario", "schwarzschild_m1", "--out", out,
             "--span", "2"])
        table = (tmp_path / "o" / "geodesic_r_of_lambda.csv").read_text()
        assert table.splitlines()[0] == "lambda,r"


@pytest.fixture(scope="module")
def full_m1_certificate(tmp_path_factory):
    """certificate.json of `full` on schwarzschild_m1; the coarse foliation
    flags leave the certificate as the bundled run writes it."""
    out = tmp_path_factory.mktemp("full_m1")
    run(["full", "--scenario", "schwarzschild_m1", "--out", str(out),
         "--levels", "8", "--quad", "8x16"])
    return json.loads((out / "certificate.json").read_text())


class TestCertificateOutput:
    def test_certificate_json_schema(self, full_m1_certificate):
        d = full_m1_certificate
        assert d["verdict"] == "certified"
        assert set(d["mean_curvature"]) == {"value", "stddev"}
        assert set(d["scalar"]) == {"value", "stddev", "expected", "residual"}
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
    ("full", "schwarzschild_m1", ["--levels", "8", "--quad", "8x16"],
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
                    "--levels", "24", "--quad", "32x64", "--tol", "1e-3",
                    "--span", "20"])
        assert code == 0
        rep = json.loads((tmp_path / "o" / "israel_report.json").read_text())
        assert rep["verdict"] == "isometric"
        assert abs(rep["mass"] - 1.0) < 1e-8
        cert = json.loads((tmp_path / "o" / "certificate.json").read_text())
        assert cert["verdict"] == "certified"

    def test_schwarzschild_m2_israel_is_true(self, tmp_path):
        out = str(tmp_path / "o")
        code = run(["israel", "--scenario", "schwarzschild_m2", "--out", out,
                    "--levels", "24", "--quad", "32x64", "--tol", "1e-3"])
        assert code == 0
        rep = json.loads((tmp_path / "o" / "israel_report.json").read_text())
        assert rep["verdict"] == "isometric"
        assert abs(rep["mass"] - 2.0) < 1e-8

    def test_partition_of_negative_scenarios(self, tmp_path):
        codes = {}
        for name, cmd in (("minkowski", "detect"), ("negative_mass", "detect"),
                          ("reissner_perturbed", "israel"),
                          ("r4m_cylinder", "certify")):
            out = str(tmp_path / name)
            codes[name] = run([cmd, "--scenario", name, "--out", out])
        assert codes == {"minkowski": 1, "negative_mass": 1,
                         "reissner_perturbed": 1, "r4m_cylinder": 1}
