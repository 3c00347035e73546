"""Scenario loading, exit-code semantics and output determinism."""

import json
import os

import pytest

from photonsphere import cli


def run(args):
    return cli.main(args)


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

    def test_bad_tolerance_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 1, "pipeline": "detect",
                                   "profile": {"kind": "schwarzschild", "m": 1},
                                   "tolerance": -1}))
        assert run(["detect", "--scenario", str(bad)]) == cli.EXIT_ERROR
        assert "tolerance" in capsys.readouterr().err


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


class TestOutputs:
    def test_trace_writes_trajectory(self, tmp_path):
        out = str(tmp_path / "o")
        assert run(["trace", "--scenario", "schwarzschild_m1", "--out", out,
                    "--span", "5"]) == 0
        lines = (tmp_path / "o" / "trajectory.csv").read_text().splitlines()
        assert lines[0].startswith("lambda,t,r")
        assert len(lines) > 3

    def test_reconstruct_outputs(self, tmp_path):
        out = str(tmp_path / "o")
        assert run(["reconstruct", "--scenario", "schwarzschild_m1",
                    "--out", out]) == 0
        rec = json.loads((tmp_path / "o" / "reconstruction.json").read_text())
        assert abs(rec["A_ode"] - 1.0) < 1e-8
        assert abs(rec["B_ode"] + 2.0) < 1e-8

    def test_determinism_byte_identical(self, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (out1, out2):
            assert run(["israel", "--scenario", "reissner_perturbed",
                        "--out", out]) == 1
        for name in sorted(os.listdir(out1)):
            with open(os.path.join(out1, name), "rb") as fa, \
                    open(os.path.join(out2, name), "rb") as fb:
                assert fa.read() == fb.read(), f"{name} differs between runs"

    def test_curvature_dump_flag(self, tmp_path):
        out = str(tmp_path / "o")
        dump = str(tmp_path / "bundle.json")
        assert run(["detect", "--scenario", "schwarzschild_m1", "--out", out,
                    "--dump-curvature", dump]) == 0
        with open(dump) as fh:
            d = json.load(fh)
        assert "Gamma^r_tt" in d["christoffel"]
        assert d["coords"]["r"] == pytest.approx(3.0, abs=1e-6)

    def test_quad_override_parsing(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        assert run(["detect", "--scenario", "schwarzschild_m1", "--out", out,
                    "--quad", "banana"]) == cli.EXIT_ERROR
        assert "--quad" in capsys.readouterr().err

    def test_plot_tables_on_empty_run(self, tmp_path):
        # detect-only scenarios write no foliation tables; trace writes r(l)
        out = str(tmp_path / "o")
        run(["trace", "--scenario", "schwarzschild_m1", "--out", out,
             "--span", "2"])
        table = (tmp_path / "o" / "geodesic_r_of_lambda.csv").read_text()
        assert table.splitlines()[0] == "lambda,r"


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
                    "--seeds", "6", "--span", "20"])
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
