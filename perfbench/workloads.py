"""Seeded scenario cases for the benchmark workloads, and their oracle.

A case is one seeded draw: the CLI calls it makes, each with the scenario
file it is given, and the closed-form truth each call is checked against.
Every workload starts with a fixed anchor case (the bundled-scenario
parameters, whose gate headroom is reported), then yields seeded cases in
mirrored pairs: the second case of a pair takes the draws ``1 - u`` of the
first.  Each case is still log-uniform in the mass, but a run of several
cases covers both ends of the ranges whatever the seed, which keeps
run-to-run spread small.
"""

import json
import math
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("foliation", "tangency", "refute")

MASS_RANGE = (0.25, 4.0)            # foliation and tangency, both sides of m = 1
REFUTE_MASS_RANGE = (0.5, 2.0)
CHARGE_RATIO_RANGE = (0.05, 0.2)    # q^2 / m^2 of the Reissner-type profiles
ANCHOR_MASS = 1.0
ANCHOR_CHARGE_RATIO = 0.1           # the bundled reissner_perturbed profile
ANCHOR_RNG_SEED = 20259121          # the bundled scenarios' seed
REL_TOL = 1e-8                      # closed-form agreement, relative

# Cases timed together as one batch (batch_s); the anchor opens the first.
# A foliation case takes 11-20 s and a tangency case 9-16 s on 2 vCPUs, so
# their runs hold one batch: for foliation the anchor and a mirrored pair,
# whose median is robust to one slow case and to the cost's trend in m.
# Refute cases take 1.3-2.5 s.
BATCH_SIZE = {"foliation": 3, "tangency": 2, "refute": 4}

# Gates that are flags or structural limits, not residuals against a tolerance.
NON_NUMERIC_GATES = frozenset({"sign-consistency", "N-range", "tail"})


@dataclass(frozen=True)
class Call:
    """One CLI invocation: subcommand, scenario contents, oracle and its inputs."""

    command: str
    scenario: dict
    check: str
    params: dict


@dataclass(frozen=True)
class Case:
    case_id: str
    draw: dict
    calls: tuple


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------

def _log_uniform(lo, hi, u):
    return lo * (hi / lo) ** u


def _scenario(name, profile, pipeline, rng_seed, **fields):
    return {"schema": 1, "name": name, "profile": profile,
            "pipeline": pipeline, "rng_seed": rng_seed, **fields}


def _full(name, m, rng_seed, reduced):
    sizes = ({"levels": 8, "quadrature": [16, 32], "seeds": 4, "span": 10 * m}
             if reduced else
             {"levels": 64, "quadrature": [64, 128], "seeds": 16, "span": 40 * m})
    scn = _scenario(name, {"kind": "schwarzschild", "m": m}, "full", rng_seed,
                    scan=[2.2 * m, 50 * m], tail_radius=100 * m, **sizes)
    return Call("full", scn, "full", {"m": m})


def _certify(name, m, r0_over_m, rng_seed, reduced):
    seeds, span = (4, 10 * m) if reduced else (32, 100 * m)
    scn = _scenario(name, {"kind": "schwarzschild", "m": m}, "certify", rng_seed,
                    surface_r0=r0_over_m * m, seeds=seeds, span=span)
    return Call("certify", scn, "certify",
                {"m": m, "photon_sphere": r0_over_m == 3})


def _reissner(name, m, q2, rng_seed, reduced):
    r_plus = m + math.sqrt(m * m - q2)          # outer horizon
    r_ps = 0.5 * (3 * m + math.sqrt(9 * m * m - 8 * q2))
    body = f"1 - {2 * m!r}/r + {q2!r}/r^2"
    profile = {"kind": "expression", "lapse": f"sqrt({body})",
               "radial_factor": f"1/({body})", "r_min": 1.001 * r_plus, "m": m}
    sizes = ({"levels": 8, "quadrature": [16, 32]} if reduced
             else {"levels": 32, "quadrature": [32, 64]})
    scn = _scenario(name, profile, "israel", rng_seed,
                    scan=[1.03 * r_plus, 50 * m], tail_radius=100 * m, **sizes)
    n0 = math.sqrt(1 - 2 * m / r_ps + q2 / r_ps ** 2)
    return Call("israel", scn, "reissner",
                {"m": m, "q2": q2, "r_plus": r_plus, "r_ps": r_ps, "n0": n0})


def _degenerate(name, m, rng_seed):
    """Flat and negative-mass profiles at the length scale m."""
    flat = {"kind": "schwarzschild", "m": 0.0}
    return (
        Call("detect", _scenario(name + "-flat", flat, "detect", rng_seed,
                                 scan=[0.5 * m, 50 * m]), "no_photon_sphere", {}),
        Call("detect", _scenario(name + "-negative",
                                 {"kind": "schwarzschild", "m": -m}, "detect",
                                 rng_seed, scan=[0.1 * m, 50 * m]),
             "no_photon_sphere", {}),
        Call("israel", _scenario(name + "-flat", flat, "israel", rng_seed,
                                 scan=[0.5 * m, 50 * m]), "flat_rejected", {}),
    )


def make_case(workload, case_id, m, charge_ratio, rng_seed, reduced=False):
    name = f"{workload}-{case_id}"
    if workload == "foliation":
        calls = (_full(name, m, rng_seed, reduced),)
        draw = {"m": m}
    elif workload == "tangency":
        calls = (_certify(name + "-r3m", m, 3, rng_seed, reduced),
                 _certify(name + "-r4m", m, 4, rng_seed, reduced))
        draw = {"m": m}
    elif workload == "refute":
        q2 = charge_ratio * m * m
        calls = ((_reissner(name, m, q2, rng_seed, reduced),)
                 + _degenerate(name, m, rng_seed))
        draw = {"m": m, "q2": q2}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    draw["rng_seed"] = rng_seed
    return Case(case_id, draw, calls)


def _from_draw(workload, case_id, u, rng_seed, reduced=False):
    mass_range = REFUTE_MASS_RANGE if workload == "refute" else MASS_RANGE
    m = _log_uniform(*mass_range, u[0])
    lo, hi = CHARGE_RATIO_RANGE
    return make_case(workload, case_id, m, lo + (hi - lo) * u[1], rng_seed,
                     reduced)


def anchor_case(workload):
    return make_case(workload, "anchor", ANCHOR_MASS, ANCHOR_CHARGE_RATIO,
                     ANCHOR_RNG_SEED)


def cases(workload, seed):
    """The anchor case, then seeded cases in mirrored pairs, without end."""
    yield anchor_case(workload)
    rng = random.Random(f"{workload}:{seed}")
    index = 0
    while True:
        u = (rng.random(), rng.random())
        for draw in (u, (1.0 - u[0], 1.0 - u[1])):
            index += 1
            yield _from_draw(workload, f"s{seed}-{index}", draw,
                             rng.getrandbits(63))


def warmup_case(workload, seed):
    """A seeded case at reduced sizes: loads lazy imports, and is run twice
    to check that reruns are byte-identical."""
    rng = random.Random(f"{workload}:{seed}:warmup")
    u = (rng.random(), rng.random())
    return _from_draw(workload, f"s{seed}-warmup", u, rng.getrandbits(63),
                      reduced=True)


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """Result of checking one call.  ``unsound`` marks an output that affirms
    something false (a wrong verdict of exit 0, or a wrong closed-form
    number); other failures are verdicts the program could not reach."""

    failures: list = field(default_factory=list)
    unsound: bool = False
    headroom: float = None

    def fail(self, message, unsound=False):
        self.failures.append(message)
        self.unsound = self.unsound or unsound

    def expect_exit(self, code, expected):
        if code != expected:
            self.fail(f"exit {code}, expected {expected}",
                      unsound=(code == 0))

    def expect_close(self, what, value, expected):
        if not (isinstance(value, (int, float))
                and abs(value - expected) <= REL_TOL * abs(expected)):
            self.fail(f"{what} = {value!r}, closed form {expected!r}",
                      unsound=True)

    def add_headroom(self, value):
        if value is not None:
            self.headroom = (value if self.headroom is None
                             else min(self.headroom, value))


def _load(out, name):
    try:
        with open(os.path.join(out, name)) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _margin(value, threshold, passing):
    """Decades from a gate value to its threshold, on the side the verdict needs."""
    if value <= 0:
        return math.inf if passing else -math.inf
    ratio = threshold / value if passing else value / threshold
    return math.log10(ratio)


def _finite(value):
    return value if value is not None and math.isfinite(value) else None


def israel_headroom(report):
    """Headroom of an Israel verdict over its numeric residual gates.

    Isometric needs every gate to pass: the smallest margin.  Not-isometric
    needs one to fail: the largest margin among the failing gates.
    """
    gates = [g for g in report.get("gates", ())
             if g["threshold"] > 0 and g["name"] not in NON_NUMERIC_GATES]
    verdict = report.get("verdict")
    if verdict == "isometric" and gates:
        return _finite(min(_margin(g["value"], g["threshold"], True)
                           for g in gates))
    failing = [g for g in gates if not g["passed"]]
    if verdict == "not-isometric" and failing:
        return _finite(max(_margin(g["value"], g["threshold"], False)
                           for g in failing))
    return None


def certificate_headroom(cert):
    """Headroom of a certify verdict.

    Certified needs umbilicity (umbilicity sup and mean-curvature spread)
    and tangency to pass: the smallest margin.  Refuted needs both to fail:
    the smaller of the umbilicity and tangency failure margins.
    """
    tol_c = cert["tolerances"]["certify"]
    tol_t = cert["tolerances"]["tangency"]
    umb = (cert["umbilicity_sup"], cert["mean_curvature"]["stddev"])
    tan = cert["tangency"]["deviation"]
    if cert["verdict"] == "certified":
        return _finite(min([_margin(u, tol_c, True) for u in umb]
                           + [_margin(tan, tol_t, True)]))
    if cert["verdict"] == "refuted":
        return _finite(min(max(_margin(u, tol_c, False) for u in umb),
                           _margin(tan, tol_t, False)))
    return None


def _check_full(out, code, p):
    o = Outcome()
    m = p["m"]
    o.expect_exit(code, 0)
    loc = _load(out, "location.json")
    if not loc or not loc.get("found"):
        o.fail("photon sphere not found")
    else:
        o.expect_close("r_ps", loc.get("r_ps"), 3 * m)
        o.expect_close("N0", loc.get("lapse_at_ps"), 1 / math.sqrt(3))
    cert = _load(out, "certificate.json")
    if not cert or cert.get("verdict") != "certified":
        o.fail(f"certificate {cert and cert.get('verdict')}, expected certified")
    else:
        o.add_headroom(certificate_headroom(cert))
    rep = _load(out, "israel_report.json")
    if not rep or rep.get("verdict") != "isometric":
        o.fail(f"israel {rep and rep.get('verdict')}, expected isometric")
    else:
        o.expect_close("mass", rep.get("mass"), m)
    if rep:
        o.add_headroom(israel_headroom(rep))
    rec = _load(out, "reconstruction.json")
    if not rec:
        o.fail("no reconstruction")
    else:
        o.expect_close("reconstructed mass", rec.get("mass"), m)
    return o


def _check_certify(out, code, p):
    o = Outcome()
    expected = "certified" if p["photon_sphere"] else "refuted"
    o.expect_exit(code, 0 if p["photon_sphere"] else 1)
    cert = _load(out, "certificate.json")
    if not cert:
        o.fail("no certificate")
        return o
    if cert.get("verdict") != expected:
        o.fail(f"certificate {cert.get('verdict')}, expected {expected}",
               unsound=cert.get("verdict") == "certified")
    if cert.get("photon_sphere") != p["photon_sphere"]:
        o.fail(f"photon_sphere = {cert.get('photon_sphere')}",
               unsound=bool(cert.get("photon_sphere")))
    o.add_headroom(certificate_headroom(cert))
    return o


def _check_reissner(out, code, p):
    o = Outcome()
    o.expect_exit(code, 1)
    rep = _load(out, "israel_report.json")
    if not rep:
        o.fail("no israel report")
        return o
    if rep.get("verdict") != "not-isometric":
        o.fail(f"israel {rep.get('verdict')}, expected not-isometric",
               unsound=rep.get("verdict") == "isometric")
    boundary = rep.get("boundary", {})
    o.expect_close("r_ps", boundary.get("r0"), p["r_ps"])
    o.expect_close("N0", boundary.get("N0"), p["n0"])
    o.add_headroom(israel_headroom(rep))
    return o


def _check_no_photon_sphere(out, code, p):
    o = Outcome()
    o.expect_exit(code, 1)
    loc = _load(out, "location.json")
    if not loc or loc.get("found") is not False:
        o.fail(f"location {loc and loc.get('found')}, expected none",
               unsound=bool(loc and loc.get("found")))
    return o


def _check_flat_rejected(out, code, p):
    o = Outcome()
    o.expect_exit(code, 2)
    rep = _load(out, "israel_report.json")
    if not rep or rep.get("status") != "rejected-flat":
        o.fail(f"israel status {rep and rep.get('status')}, expected rejected-flat",
               unsound=bool(rep and rep.get("verdict") == "isometric"))
    return o


CHECKS = {
    "full": _check_full,
    "certify": _check_certify,
    "reissner": _check_reissner,
    "no_photon_sphere": _check_no_photon_sphere,
    "flat_rejected": _check_flat_rejected,
}


def check(call, code, out):
    """Check one call's exit code and output directory against closed form."""
    return CHECKS[call.check](out, code, call.params)
