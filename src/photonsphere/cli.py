"""Scenario-driven command line front end.

Subcommands: trace, detect, certify, israel, reconstruct, full.  Each takes
a JSON scenario file plus optional overrides, writes its reports and data
tables under --out, and exits 0 for certified/true verdicts, 1 for
refuted/false and 2 for inconclusive results or errors.  All randomness
comes from the scenario's 64-bit seed, which is recorded in every report;
re-running a scenario reproduces every output byte for byte.
"""

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import geodesics, hypersurfaces, israel, photon
from .calculus import curvature
from .spacetimes import ChartPoint, DomainError, StaticSpacetime, load_profile

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_ERROR = 2

PIPELINES = ("trace", "detect", "certify", "israel", "reconstruct", "full")


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class Scenario:
    """Validated scenario file contents."""

    name: str
    profile_spec: dict
    pipeline: str
    scan: tuple
    levels: int
    quadrature: tuple
    seeds: int
    span: float
    rng_seed: int
    tail_radius: float
    tolerance: float
    surface_r0: float
    trace_start: tuple
    trace_direction: tuple

    @property
    def profile(self):
        return load_profile(self.profile_spec)


def _field(data, key, typ, default=None, required=False):
    if key not in data:
        if required:
            raise ScenarioError(f"scenario field '{key}' is missing")
        return default
    try:
        value = data[key]
        if typ is tuple:
            return tuple(value)
        return typ(value)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"scenario field '{key}': {exc}") from exc


def load_scenario(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if data.get("schema") != 1:
        raise ScenarioError("scenario field 'schema' must be 1")
    pipeline = _field(data, "pipeline", str, required=True)
    if pipeline not in PIPELINES:
        raise ScenarioError(f"scenario field 'pipeline' must be one of {PIPELINES}")
    if "profile" not in data or not isinstance(data["profile"], dict):
        raise ScenarioError("scenario field 'profile' must be an object")
    tol = _field(data, "tolerance", float, israel.TOL_LVL)
    if tol <= 0:
        raise ScenarioError("scenario field 'tolerance' must be positive")
    trace = data.get("trace", {})
    return Scenario(
        name=_field(data, "name", str, os.path.basename(path)),
        profile_spec=data["profile"],
        pipeline=pipeline,
        scan=_field(data, "scan", tuple, (2.2, 50.0)),
        levels=_field(data, "levels", int, 64),
        quadrature=_field(data, "quadrature", tuple, (64, 128)),
        seeds=_field(data, "seeds", int, 16),
        span=_field(data, "span", float, 40.0),
        rng_seed=_field(data, "rng_seed", int, 20259121),
        tail_radius=_field(data, "tail_radius", float, None),
        tolerance=tol,
        surface_r0=_field(data, "surface_r0", float, None),
        trace_start=tuple(trace.get("start", (0.0, 10.0, 1.5707963267948966, 0.0))),
        trace_direction=tuple(trace.get("direction", (1.0, -0.8, 0.0, 0.0))),
    )


def _json_default(obj):
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _write_table(path, header, rows):
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for row in rows:
            wr.writerow([f"{v:.17g}" for v in row])


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------

def _run_trace(scn, spacetime, out):
    state = geodesics.GeodesicState(
        ChartPoint(*scn.trace_start), tuple(scn.trace_direction))
    traj = geodesics.integrate_null(spacetime, state, scn.span)
    geodesics.trajectory_to_csv(traj, os.path.join(out, "trajectory.csv"))
    _write_table(os.path.join(out, "geodesic_r_of_lambda.csv"),
                 ["lambda", "r"], zip(traj.affine, traj.r))
    verdict = geodesics.energy_constancy_verdict(traj)
    _write_json(os.path.join(out, "trace.json"), {
        "scenario": scn.name, "rng_seed": scn.rng_seed,
        "status": traj.status, "reason": traj.reason,
        "samples": int(len(traj.samples)),
        "energy_times_lapse_drift": traj.energy_times_lapse_drift(),
        "energy_constant": verdict.constant,
        "lapse_constant": verdict.lapse_constant,
        "accepted_steps": traj.run.accepted_steps,
        "rejected_steps": traj.run.rejected_steps,
        "min_step": traj.run.min_step,
        "max_null_residual": float(np.max(traj.null_residuals)),
    })
    return EXIT_TRUE if traj.status in ("completed", "domain-exit") else EXIT_ERROR


def _run_detect(scn, spacetime, out):
    loc = photon.locate_photon_sphere(spacetime.profile, scn.scan)
    _write_json(os.path.join(out, "location.json"), {
        "scenario": scn.name, "rng_seed": scn.rng_seed,
        "found": loc.found,
        "r_ps": loc.r_ps, "lapse_at_ps": loc.lapse_at_ps,
        "multiplicity": loc.multiplicity, "roots": list(loc.roots),
        "scan": list(loc.scan),
    })
    return (EXIT_TRUE if loc.found else EXIT_FALSE), loc


def _run_certify(scn, spacetime, out, r0=None):
    r0 = r0 if r0 is not None else scn.surface_r0
    if r0 is None:
        raise ScenarioError("certify pipeline needs 'surface_r0' (or a detect hit)")
    surface = hypersurfaces.cylinder(spacetime, r0)
    cert = photon.certify_photon_surface(
        spacetime, surface, seeds=scn.seeds, span=scn.span,
        rng_seed=scn.rng_seed)
    photon.certificate_to_json(cert, os.path.join(out, "certificate.json"))
    code = {"certified": EXIT_TRUE, "refuted": EXIT_FALSE}.get(cert.verdict,
                                                               EXIT_ERROR)
    return code, cert


def _run_israel(scn, spacetime, out, loc=None):
    if loc is None:
        loc = photon.locate_photon_sphere(spacetime.profile, scn.scan)
    if not loc.found:
        probe = [abs(spacetime.profile.lapse_d1(r)[0] - 1.0)
                 for r in np.geomspace(max(scn.scan[0], 1e-6), scn.scan[1], 5)]
        if max(probe) < 1e-12:
            _write_json(os.path.join(out, "israel_report.json"), {
                "scenario": scn.name, "status": "rejected-flat",
                "detail": "lapse identically 1: flat slice (zero mass); "
                          "flat spacetime has no photon sphere",
            })
            return EXIT_ERROR, None
        _write_json(os.path.join(out, "israel_report.json"), {
            "scenario": scn.name, "status": "no-photon-sphere",
            "scan": list(scn.scan),
        })
        return EXIT_FALSE, None
    report = israel.run_israel_pipeline(
        spacetime, loc.lapse_at_ps, loc.r_ps, levels=scn.levels,
        quad_order=tuple(scn.quadrature), tail_radius=scn.tail_radius,
        tol=scn.tolerance)
    payload = report.to_json_dict()
    payload["scenario"] = scn.name
    payload["rng_seed"] = scn.rng_seed
    _write_json(os.path.join(out, "israel_report.json"), payload)
    report.write_levels_csv(os.path.join(out, "israel_levels.csv"))
    _emit_plot_data(report, out)
    code = {"isometric": EXIT_TRUE, "not-isometric": EXIT_FALSE}.get(
        report.verdict, EXIT_ERROR)
    return code, report


def _run_reconstruct(scn, spacetime, out, loc=None):
    if loc is None:
        loc = photon.locate_photon_sphere(spacetime.profile, scn.scan)
    if not loc.found:
        _write_json(os.path.join(out, "reconstruction.json"),
                    {"scenario": scn.name, "status": "no-photon-sphere"})
        return EXIT_FALSE, None
    mass = spacetime.profile.mass_hint
    if mass is None:
        fol = israel.build_foliation(spacetime, loc.lapse_at_ps, levels=8,
                                     quad_order=(16, 32), r_hint=loc.r_ps)
        mass = israel.mass_flux(fol.boundary, check_convergence=False).mass
    rec = israel.reconstruct_lapse(mass, loc.lapse_at_ps, loc.r_ps,
                                   r_max=scn.tail_radius)
    _write_json(os.path.join(out, "reconstruction.json"), {
        "scenario": scn.name, "rng_seed": scn.rng_seed,
        "A_ode": rec.a_ode, "B_ode": rec.b_ode,
        "A_closed_form": rec.a_closed, "B_closed_form": rec.b_closed,
        "sup_deviation": rec.sup_deviation, "mass": mass,
    })
    _write_table(os.path.join(out, "reconstructed_lapse.csv"),
                 ["r", "N"], zip(rec.r_grid, rec.lapse_profile))
    return EXIT_TRUE, rec


def _emit_plot_data(report, out):
    """Plot-ready tables: r(N), rho(N), H(N) and inequality slacks vs N."""
    levels = report.foliation.levels
    _write_table(os.path.join(out, "r_of_N.csv"), ["N", "r"],
                 [(lv.N_value, lv.area_radius) for lv in levels])
    _write_table(os.path.join(out, "rho_of_N.csv"), ["N", "rho"],
                 [(lv.N_value, lv.mean(lv.rho)) for lv in levels])
    _write_table(os.path.join(out, "H_of_N.csv"), ["N", "H"],
                 [(lv.N_value, lv.mean(lv.H)) for lv in levels])
    _write_table(os.path.join(out, "slacks_of_N.csv"),
                 ["N", "slack34_min", "slack34_max", "slack35_min", "slack35_max"],
                 [(lv.N_value,) + tuple(report.slacks.slack34[j])
                  + tuple(report.slacks.slack35[j])
                  for j, lv in enumerate(levels)])


def run_scenario(scn, out_dir, dump_curvature=None):
    os.makedirs(out_dir, exist_ok=True)
    spacetime = StaticSpacetime(scn.profile)
    if dump_curvature is not None:
        _dump_curvature(scn, spacetime, dump_curvature)
    if scn.pipeline == "trace":
        return _run_trace(scn, spacetime, out_dir)
    if scn.pipeline == "detect":
        return _run_detect(scn, spacetime, out_dir)[0]
    if scn.pipeline == "certify":
        return _run_certify(scn, spacetime, out_dir)[0]
    if scn.pipeline == "israel":
        try:
            return _run_israel(scn, spacetime, out_dir)[0]
        except israel.FlatnessError as exc:
            _write_json(os.path.join(out_dir, "israel_report.json"),
                        {"scenario": scn.name, "status": "rejected-flat",
                         "detail": str(exc)})
            return EXIT_ERROR
    if scn.pipeline == "reconstruct":
        return _run_reconstruct(scn, spacetime, out_dir)[0]
    # full: detect -> certify -> israel -> reconstruct
    code, loc = _run_detect(scn, spacetime, out_dir)
    if not loc.found:
        return EXIT_FALSE
    _run_certify(scn, spacetime, out_dir, r0=loc.r_ps)
    try:
        code, report = _run_israel(scn, spacetime, out_dir, loc=loc)
    except israel.FlatnessError:
        return EXIT_ERROR
    _run_reconstruct(scn, spacetime, out_dir, loc=loc)
    return code


def _dump_curvature(scn, spacetime, path):
    loc = photon.locate_photon_sphere(spacetime.profile, scn.scan)
    r = loc.r_ps if loc.found else 0.5 * (scn.scan[0] + scn.scan[1])
    bundle = curvature(spacetime.metric4, (0.0, r, math.pi / 3, 0.0))
    _write_json(path, bundle.to_debug_dict())


def bundled_scenario_path(name):
    return os.path.join(os.path.dirname(__file__), "scenarios", name + ".json")


def main(argv=None):
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
        p.add_argument("--tol", type=float, default=None,
                       help="override the scenario tolerance")
        p.add_argument("--levels", type=int, default=None)
        p.add_argument("--seeds", type=int, default=None)
        p.add_argument("--span", type=float, default=None)
        p.add_argument("--quad", default=None, metavar="NxM",
                       help="quadrature order, e.g. 64x128")
        p.add_argument("--dump-curvature", default=None, metavar="PATH",
                       help="write a fully indexed curvature-bundle JSON dump")
    args = parser.parse_args(argv)

    path = args.scenario
    if not os.path.exists(path):
        candidate = bundled_scenario_path(args.scenario)
        if os.path.exists(candidate):
            path = candidate
    try:
        scn = load_scenario(path)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    overrides = {}
    if args.tol is not None:
        overrides["tolerance"] = args.tol
    if args.levels is not None:
        overrides["levels"] = args.levels
    if args.seeds is not None:
        overrides["seeds"] = args.seeds
    if args.span is not None:
        overrides["span"] = args.span
    if args.quad is not None:
        try:
            n_t, n_p = args.quad.lower().split("x")
            overrides["quadrature"] = (int(n_t), int(n_p))
        except ValueError:
            print("error: --quad expects NxM, e.g. 64x128", file=sys.stderr)
            return EXIT_ERROR
    scn = replace(scn, pipeline=args.command, **overrides)

    try:
        return run_scenario(scn, args.out, args.dump_curvature)
    except (DomainError, hypersurfaces.FoliationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
