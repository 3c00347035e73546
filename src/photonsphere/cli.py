"""Scenario-driven command line front end.

Subcommands: trace, detect, certify, israel, full.  Each takes
a JSON scenario file plus optional overrides, writes its reports and data
tables under --out, and exits 0 for certified/true verdicts, 1 for
refuted/false and 2 for inconclusive results or errors.  Nothing is
drawn at random: re-running a scenario reproduces every output byte for
byte.  A scenario file's keys that name no field are ignored.

This is the one module that spells the output formats: the payload of each
report file and the columns of each table are assembled here from the
result objects, which hold no output keys.
"""

import argparse
import csv
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import geodesics, hypersurfaces, israel, photon
from .calculus import curvature
from .spacetimes import ChartPoint, RadialProfile, load_profile

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_ERROR = 2

PIPELINES = ("trace", "detect", "certify", "israel", "full")
TOLERANCE_PIPELINES = ("israel", "full")  # the ones that read the tolerance
MIN_LEVELS = 8  # the identities need 7 levels and the inequality slacks 8
# The level derivative builds a levels x levels matrix, and one jet
# evaluation covers every leaf.  With 1024 levels, an israel run peaks near
# 50 MB of resident memory.
MAX_LEVELS = 1024


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class Scenario:
    """Validated scenario file contents; ``profile`` is built once, at load."""

    name: str
    profile: RadialProfile
    pipeline: str
    scan: tuple
    levels: int
    span: float
    tail_radius: float
    tolerance: float
    surface_r0: float
    trace_start: tuple
    trace_direction: tuple


def _finite(value):
    """Is ``value`` a finite number (booleans are not numbers)?"""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an int past the float range
        return False


def _positive(value):
    return _finite(value) and value > 0


def _integer(minimum, maximum):
    return lambda v: (isinstance(v, int) and not isinstance(v, bool)
                      and minimum <= v <= maximum)


def _sequence(valid, count):
    return lambda v: (isinstance(v, (list, tuple)) and len(v) == count
                      and all(map(valid, v)))


def _field(data, key, default, typ, valid, rule, label=None):
    """``typ`` of the field's value; a field whose default is None may be null."""
    value = data.get(key, default)
    if value is None and default is None:
        return None
    if not valid(value):
        raise ScenarioError(f"scenario field '{label or key}' must be {rule}, "
                            f"got {value!r:.60}")
    return typ(value)


def load_scenario(path, overrides=None):
    """Read and validate a scenario file.

    ``overrides`` (command line values, by field name) replace the file's
    fields before validation; the file must still name a valid pipeline.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # not UTF-8, or an integer past the digit limit
        raise ScenarioError(f"unreadable scenario: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    if data.get("schema") != 1:
        raise ScenarioError("scenario field 'schema' must be 1")
    if "pipeline" not in data:
        raise ScenarioError("scenario field 'pipeline' is missing")
    if data["pipeline"] not in PIPELINES:
        raise ScenarioError(f"scenario field 'pipeline' must be one of {PIPELINES}")
    data = {**data, **(overrides or {})}
    if "profile" not in data or not isinstance(data["profile"], dict):
        raise ScenarioError("scenario field 'profile' must be an object")
    trace = data.get("trace", {})
    if not isinstance(trace, dict):
        raise ScenarioError("scenario field 'trace' must be an object")
    positive, four = "a finite number > 0", _sequence(_finite, 4)
    return Scenario(
        name=str(data.get("name", os.path.basename(path))),
        pipeline=data["pipeline"],
        scan=_field(data, "scan", (2.2, 50.0), tuple,
                    lambda v: _sequence(_finite, 2)(v) and v[0] < v[1],
                    "two finite, increasing numbers"),
        levels=_field(data, "levels", 64, int, _integer(MIN_LEVELS, MAX_LEVELS),
                      f"an integer in [{MIN_LEVELS}, {MAX_LEVELS}]"),
        span=_field(data, "span", 40.0, float, _positive, positive),
        tail_radius=_field(data, "tail_radius", None, float, _positive,
                           "null or " + positive),
        tolerance=_field(data, "tolerance", israel.TOL_LVL, float, _positive,
                         positive),
        surface_r0=_field(data, "surface_r0", None, float, _positive,
                          "null or " + positive),
        trace_start=_field(trace, "start", (0.0, 10.0, 1.5707963267948966, 0.0),
                           tuple, four, "4 finite numbers", "trace.start"),
        trace_direction=_field(trace, "direction", (1.0, -0.8, 0.0, 0.0), tuple,
                               four, "4 finite numbers", "trace.direction"),
        # last: a field above that is not valid is reported before the profile
        profile=load_profile(data["profile"]),
    )


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_table(path, header, columns):
    """A CSV of the named columns to 17 digits; each column becomes Python
    floats once, which format like numpy's, only faster."""
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows([f"{v:.17g}" for v in row] for row in rows)


# ---------------------------------------------------------------------------
# Payloads: what each report file holds
# ---------------------------------------------------------------------------

def _certificate_payload(cert):
    tan = cert.tangency
    return {
        "surface": cert.surface,
        "r0": cert.r0,
        "verdict": cert.verdict,
        "umbilicity_sup": cert.umbilicity_sup,
        # the spread of H over the one sample point
        "mean_curvature": {"value": cert.mean_curvature, "stddev": 0.0},
        "scalar": {"value": cert.scalar_curvature,
                   "expected": cert.scalar_expected,
                   "residual": cert.scalar_residual},
        "tangency": {"span": tan.span,
                     "deviation": cert.tangency_deviation,
                     "integrator": geodesics.INTEGRATOR,
                     "integrator_tol": geodesics.TANGENCY_TOL,
                     "status": tan.run.status,
                     "accepted_steps": tan.run.accepted_steps,
                     "rejected_steps": tan.run.rejected_steps,
                     "min_step": tan.run.min_step},
        # radial cylinders are lapse level sets: certified is a photon sphere
        "photon_sphere": cert.verdict == "certified",
        "tolerances": {"certify": photon.TOL_CERT,
                       "tangency": photon.TOL_TANGENCY},
    }


def _level_table(report):
    """The per-level columns by name, in the order of ``israel_levels.csv``:
    N, area radius, rho, H, the three identity residuals and the two
    pointwise slacks, each one value per leaf."""
    fol, ids, slacks = report.foliation, report.identities, report.slacks
    return {"N": fol.N, "r": fol.area_radius, "rho": fol.rho, "H": fol.H,
            "res31": ids.res31, "res32": ids.res32, "res33": ids.res33,
            "slack34": slacks.slack34, "slack35": slacks.slack35}


def _israel_payload(report):
    b, slacks = report.boundary, report.slacks
    return {
        "mass": report.mass,
        "flux_by_level": list(report.flux_by_level),
        "boundary": {"N0": b.n0, "r0": b.r0, "H0": b.h0, "nuN0": b.nuN0,
                     "frakH": b.frak_h},
        "slacks": {"ineq34_sup": slacks.sup34(),
                   "ineq35_sup": slacks.sup35(),
                   "ineq37": slacks.ineq37,
                   "ineq39": slacks.ineq39,
                   "chain36": slacks.chain36,
                   "chain38": slacks.chain38},
        "invariants": {"frakH_r0": b.frak_h * b.r0,
                       "m_frakH": report.mass * b.frak_h,
                       "N0_schwarz_residual": b.n0_schwarzschild,
                       "H0_relation_residual": b.h0_relation},
        "lambda": report.sign.lam,
        "gates": [{"name": g.name, "value": g.value,
                   "threshold": g.threshold, "passed": g.passed,
                   "margin": g.margin, "level": g.level}
                  for g in report.gates],
        "verdict": report.verdict,
        "tolerance": report.tol,
    }


def _curvature_payload(bundle):
    """Every independent component of a curvature bundle at one point of
    the (t, r, theta, phi) chart, its indices written out: g_ab, Ric_ab
    (a <= b), Gamma^a_bc (b <= c) and Rm_kij^l (k < i), zeros included."""
    names = ("t", "r", "theta", "phi")
    d = range(len(names))
    return {
        "dim": bundle.dim,
        "coords": {names[a]: float(bundle.coords[a]) for a in d},
        "scalar": float(bundle.scalar),
        "metric": {f"g_{names[a]}{names[b]}": float(bundle.metric_dd[a, b])
                   for a in d for b in d if a <= b},
        "christoffel": {f"Gamma^{names[a]}_{names[b]}{names[c]}":
                        float(bundle.gamma_udd[a, b, c])
                        for a in d for b in d for c in d if b <= c},
        "ricci": {f"Ric_{names[a]}{names[b]}": float(bundle.ricci_dd[a, b])
                  for a in d for b in d if a <= b},
        "riemann": {f"Rm_{names[k]}{names[i]}{names[j]}^{names[l]}":
                    float(bundle.riemann_dddu[k, i, j, l])
                    for k in d for i in d for j in d for l in d if k < i},
    }


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------

def _run_trace(scn, out):
    state = geodesics.GeodesicState(
        ChartPoint(*scn.trace_start), tuple(scn.trace_direction))
    tol = geodesics.DEFAULT_TOL
    traj = geodesics.integrate_null(scn.profile, state, scn.span, tol=tol)
    _write_table(os.path.join(out, "trajectory.csv"),
                 ["lambda", "t", "r", "theta", "phi", "vt", "vr", "vtheta",
                  "vphi", "null_residual", "energy"],
                 [*traj.samples.T, traj.null_residuals, traj.energies])
    verdict = geodesics.energy_constancy_verdict(traj)
    _write_json(os.path.join(out, "trace.json"), {
        "scenario": scn.name,
        "status": traj.status, "reason": traj.reason,
        "samples": int(len(traj.samples)),
        "energy_times_lapse_drift": traj.energy_times_lapse_drift(),
        "energy_constant": verdict.constant,
        "lapse_constant": verdict.lapse_constant,
        "accepted_steps": traj.run.accepted_steps,
        "rejected_steps": traj.run.rejected_steps,
        "min_step": traj.run.min_step,
        "max_null_residual": float(np.max(traj.null_residuals)),
        "integrator": geodesics.INTEGRATOR, "integrator_tol": tol,
    })
    return EXIT_TRUE if traj.status in ("completed", "domain-exit") else EXIT_ERROR


def _run_detect(scn, loc, out):
    _write_json(os.path.join(out, "location.json"), {
        "scenario": scn.name,
        "found": loc.found,
        "r_ps": loc.r_ps, "lapse_at_ps": loc.lapse_at_ps,
        "multiplicity": loc.multiplicity, "roots": list(loc.roots),
        "scan": list(loc.scan),
    })
    return EXIT_TRUE if loc.found else EXIT_FALSE


def _run_certify(scn, r0, out):
    if r0 is None:
        raise ScenarioError("certify pipeline needs 'surface_r0'")
    surface = hypersurfaces.cylinder(scn.profile, r0)
    cert = photon.certify_photon_surface(surface, span=scn.span)
    _write_json(os.path.join(out, "certificate.json"), _certificate_payload(cert))
    return {"certified": EXIT_TRUE, "refuted": EXIT_FALSE}.get(cert.verdict,
                                                              EXIT_ERROR)


def _run_israel(scn, loc, out):
    """Write the israel report of a run, its level table and the report's
    rigidity solve, from the flux mass; return the exit code.  Where no
    photon sphere is found, or the slice is flat (``rejected-flat``, exit
    2), the report alone."""
    path = os.path.join(out, "israel_report.json")
    try:
        if not loc.found:
            israel.check_not_flat(scn.profile, np.geomspace(*scn.scan, 5))
            _write_json(path, {"scenario": scn.name, "status": "no-photon-sphere",
                               "scan": list(scn.scan)})
            return EXIT_FALSE
        report = israel.run_israel_pipeline(
            scn.profile, loc.lapse_at_ps, loc.r_ps, levels=scn.levels,
            tail_radius=scn.tail_radius, tol=scn.tolerance)
    except israel.FlatnessError as exc:
        _write_json(path, {"scenario": scn.name, "status": "rejected-flat",
                           "detail": str(exc)})
        return EXIT_ERROR
    _write_json(path, {"scenario": scn.name, **_israel_payload(report)})
    columns = _level_table(report)
    _write_table(os.path.join(out, "israel_levels.csv"), list(columns),
                 columns.values())
    rec = report.reconstruction
    _write_json(os.path.join(out, "reconstruction.json"), {
        "scenario": scn.name,
        "A_ode": rec.a_ode, "B_ode": rec.b_ode,
        "A_closed_form": rec.a_closed, "B_closed_form": rec.b_closed,
        "sup_deviation": rec.sup_deviation, "mass": report.mass,
    })
    _write_table(os.path.join(out, "reconstructed_lapse.csv"),
                 ["r", "N"], [rec.r_grid, rec.lapse_profile])
    return {"isometric": EXIT_TRUE, "not-isometric": EXIT_FALSE}.get(
        report.verdict, EXIT_ERROR)


def run_scenario(scn, out_dir, dump_curvature=None):
    """Run the scenario's pipeline.  A curvature dump and every pipeline but
    trace and certify read the run's one photon-sphere location."""
    os.makedirs(out_dir, exist_ok=True)
    loc = None
    if dump_curvature is not None or scn.pipeline not in ("trace", "certify"):
        loc = photon.locate_photon_sphere(scn.profile, scn.scan)
    if dump_curvature is not None:
        r = loc.r_ps if loc.found else 0.5 * (scn.scan[0] + scn.scan[1])
        bundle = curvature(scn.profile.metric4, (0.0, r, math.pi / 3, 0.0))
        _write_json(dump_curvature, _curvature_payload(bundle))
    if scn.pipeline == "trace":
        return _run_trace(scn, out_dir)
    if scn.pipeline == "detect":
        return _run_detect(scn, loc, out_dir)
    if scn.pipeline == "certify":
        return _run_certify(scn, scn.surface_r0, out_dir)
    if scn.pipeline == "israel":
        return _run_israel(scn, loc, out_dir)
    # full: detect -> certify -> israel
    _run_detect(scn, loc, out_dir)
    if not loc.found:
        return EXIT_FALSE
    cert_code = _run_certify(scn, loc.r_ps, out_dir)
    # the run is as good as its weakest verdict: 0 < 1 < 2
    return max(cert_code, _run_israel(scn, loc, out_dir))


def bundled_scenario_path(name):
    return os.path.join(os.path.dirname(__file__), "scenarios", name + ".json")


@functools.cache
def _parser():
    """The command line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="photonsphere",
        description="Photon-sphere detection, certification and the "
                    "Israel-style uniqueness pipeline on static radial metrics.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in PIPELINES:
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True,
                       help="scenario JSON path, or the name of a bundled scenario")
        p.add_argument("--out", default="out", help="output directory")
        if name in TOLERANCE_PIPELINES:
            p.add_argument("--tol", type=float, default=None, dest="tolerance",
                           help="override the scenario tolerance of the "
                                "Israel gates")
        p.add_argument("--levels", type=int, default=None)
        p.add_argument("--span", type=float, default=None)
        p.add_argument("--dump-curvature", default=None, metavar="PATH",
                       help="write a fully indexed curvature-bundle JSON dump")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)

    path = args.scenario
    if not os.path.exists(path):
        candidate = bundled_scenario_path(args.scenario)
        if os.path.exists(candidate):
            path = candidate
    overrides = {key: value for key in ("tolerance", "levels", "span")
                 if (value := getattr(args, key, None)) is not None}
    overrides["pipeline"] = args.command
    try:
        return run_scenario(load_scenario(path, overrides), args.out,
                            args.dump_curvature)
    # ScenarioError and spacetimes.DomainError are ValueErrors
    except (ValueError, hypersurfaces.FoliationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
