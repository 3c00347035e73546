"""Null geodesic integration in static radial spacetimes.

The geodesic equation is integrated with an embedded Dormand-Prince 5(4)
pair.  After every accepted step the time component of the velocity is
re-solved from the null constraint (choosing the root continuous with the
previous step), which pins the state to the light cone without touching
the spatial direction.  The observed energy E = g(v, N^-1 d_t) = -N tdot
is recorded along the way; the combination E*N is the conserved constant
of the t-equation and is what the constancy checks monitor.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .spacetimes import ChartPoint

TOL_NULL = 1e-9
DEFAULT_TOL = 1e-10
THETA_GUARD = 1e-7          # terminate before the chart degenerates at poles
DOMAIN_GUARD_RTOL = 1e-6    # stop this close (relative) to the domain edge

# Dormand-Prince 5(4) tableau (7 stages, first-same-as-last not exploited
# because the projection changes the state between steps)
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
       187 / 2100, 1 / 40)
_ERR = tuple(b5 - b4 for b5, b4 in zip(_B5, _B4))


@dataclass(frozen=True)
class GeodesicState:
    """Affine-parameterized phase-space point of a geodesic."""

    position: ChartPoint
    velocity: tuple
    affine: float = 0.0

    def as_array(self):
        return np.array(self.position.coords4() + tuple(self.velocity))


@dataclass(frozen=True)
class GeodesicTrajectory:
    """Sampled null geodesic with conserved-quantity monitoring.

    ``samples`` has one row per accepted step: (lambda, t, r, theta, phi,
    vt, vr, vtheta, vphi).  ``energies`` holds E = -N tdot per sample,
    ``null_residuals`` the pre-projection constraint |g(v,v)|, and
    ``c_estimate`` the constant C of tdot = C N^-2 (equal to -E*N).
    """

    samples: np.ndarray
    energies: np.ndarray
    null_residuals: np.ndarray
    c_estimate: float
    status: str            # "completed" | "domain-exit" | "stiff" | "pole"
    reason: str = ""

    @property
    def affine(self):
        return self.samples[:, 0]

    @property
    def r(self):
        return self.samples[:, 2]

    @property
    def lapse_values(self):
        return self._lapse

    def final_state(self):
        row = self.samples[-1]
        return GeodesicState(ChartPoint(row[1], row[2], row[3], row[4]),
                             tuple(row[5:9]), row[0])

    def energy_times_lapse_drift(self):
        en = self.energies * self._lapse
        return float(np.max(np.abs(en - en[0])))

    # lapse values cached at construction
    _lapse: np.ndarray = field(default=None, repr=False, compare=False)


def _rhs(profile, y):
    """Geodesic right-hand side for -A dt^2 + B dr^2 + r^2 Omega."""
    t, r, th, ph, vt, vr, vth, vph = y
    a, ap, b, bp = profile.metric_factors_d1(r)
    sth = math.sin(th)
    cth = math.cos(th)
    rvr = vr / r
    at = -(ap / a) * vt * vr
    ar = (-0.5 * ap / b * vt * vt - 0.5 * bp / b * vr * vr
          + (r / b) * (vth * vth + sth * sth * vph * vph))
    ath = -2.0 * rvr * vth + sth * cth * vph * vph
    aph = -2.0 * rvr * vph - 2.0 * (cth / sth) * vth * vph
    return (vt, vr, vth, vph, at, ar, ath, aph)


def null_project(profile, y, prev_vt_sign=1.0):
    """Re-solve tdot from g(v,v) = 0, keeping the spatial direction.

    Returns the projected state and the pre-projection constraint value.
    """
    t, r, th, ph, vt, vr, vth, vph = y
    a, _, b, _ = profile.metric_factors_d1(r)
    sth = math.sin(th)
    spatial = b * vr * vr + r * r * (vth * vth + sth * sth * vph * vph)
    residual = -a * vt * vt + spatial
    sign = math.copysign(1.0, vt) if vt != 0.0 else prev_vt_sign
    vt_new = sign * math.sqrt(spatial / a)
    return (t, r, th, ph, vt_new, vr, vth, vph), residual


def _error_norm(err, y_old, y_new, atol, rtol):
    acc = 0.0
    for e, a_, b_ in zip(err, y_old, y_new):
        sc = atol + rtol * max(abs(a_), abs(b_))
        acc += (e / sc) ** 2
    return math.sqrt(acc / len(err))


def integrate_null(spacetime, initial, span, tol=DEFAULT_TOL, max_steps=2_000_000):
    """Integrate a null geodesic over an affine interval [0, span].

    The initial velocity is projected onto the null cone (rejected if the
    projection moves it by more than sqrt(tol_null) relative).  Terminates
    early with a descriptive status when the domain boundary or a pole is
    approached, or when the adaptive step underflows.
    """
    profile = spacetime.profile
    y = initial.as_array().tolist()
    profile.check_point(y[1])
    y0 = tuple(y)
    y_proj0, res0 = null_project(profile, y0)
    y = list(y_proj0)
    vscale = max(abs(v) for v in y0[4:]) or 1.0
    if abs(y[4] - y0[4]) > math.sqrt(TOL_NULL) * vscale:
        raise ValueError(f"initial velocity is not null (projection moved tdot "
                         f"by {abs(y[4] - y0[4]):.3e})")

    r_stop = profile.r_min * (1.0 + DOMAIN_GUARD_RTOL) if profile.r_min > 0 else 0.0
    atol = rtol = tol
    lam = 0.0
    rows = [(lam,) + tuple(y)]
    residuals = [abs(res0)]

    f = _rhs(profile, y)
    d0 = max(abs(v) for v in y) or 1.0
    d1 = max(abs(v) for v in f) or 1.0
    h = min(0.01 * d0 / d1, span)
    status, reason = "completed", ""
    steps = 0
    comp = [0.0] * 8  # Kahan compensation: unstable orbits amplify roundoff
    while lam < span:
        if steps >= max_steps:
            status, reason = "stiff", "max step count reached"
            break
        h = min(h, span - lam)
        if h < 1e-14 * max(1.0, span):
            status, reason = "stiff", "step size underflow"
            break
        k = [f]
        bad = False
        for i in range(1, 7):
            yi = [y[j] + h * sum(_A[i][m] * k[m][j] for m in range(i))
                  for j in range(8)]
            try:
                k.append(_rhs(profile, yi))
            except (ValueError, ZeroDivisionError):
                bad = True
                break
        if bad:
            h *= 0.25
            steps += 1
            continue
        incr = [h * math.fsum(_B5[m] * k[m][j] for m in range(7)) for j in range(8)]
        y_new = [y[j] + incr[j] for j in range(8)]
        err = [h * sum(_ERR[m] * k[m][j] for m in range(7)) for j in range(8)]
        enorm = _error_norm(err, y, y_new, atol, rtol)
        if enorm <= 1.0:
            lam += h
            for j in range(8):
                dy = incr[j] + comp[j]
                t = y[j] + dy
                comp[j] = dy - (t - y[j])
                y[j] = t
            y_proj, resid = null_project(profile, tuple(y),
                                         math.copysign(1.0, y[4]))
            comp[4] = 0.0  # tdot replaced by the projection
            y = list(y_proj)
            rows.append((lam,) + tuple(y))
            residuals.append(abs(resid))
            steps += 1
            if y[1] <= r_stop * (1.0 + 1e-12) or (r_stop == 0.0 and y[1] < 1e-9):
                status, reason = "domain-exit", f"r reached {y[1]:.6g}"
                break
            th_mod = y[2] % math.pi
            if min(th_mod, math.pi - th_mod) < THETA_GUARD:
                status, reason = "pole", f"theta reached {y[2]:.6g}"
                break
            f = _rhs(profile, y)
        else:
            steps += 1
        factor = 5.0 if enorm == 0.0 else 0.9 * enorm ** -0.2
        h *= min(5.0, max(0.2, factor))

    samples = np.asarray(rows)
    lapse = np.asarray([profile.lapse_d1(r)[0] for r in samples[:, 2]])
    energies = -lapse * samples[:, 5]
    c_est = float(np.mean(-energies * lapse))
    traj = GeodesicTrajectory(samples, energies, np.asarray(residuals),
                              c_est, status, reason, _lapse=lapse)
    return traj


def null_state(spacetime, position, spatial_velocity, time_sign=1.0,
               affine=0.0):
    """Build an exactly null state from a spatial velocity.

    The time component is solved from g(v, v) = 0 with the requested sign.
    """
    vr, vth, vph = spatial_velocity
    y, _ = null_project(spacetime.profile,
                        position.coords4() + (0.0, vr, vth, vph),
                        prev_vt_sign=time_sign)
    vt = math.copysign(y[4], time_sign)
    return GeodesicState(position, (vt, vr, vth, vph), affine)


@dataclass(frozen=True)
class ConstancyVerdict:
    constant: bool
    max_drift: float
    lapse_variation: float
    lapse_constant: bool


def energy_constancy_verdict(trajectory, tol=TOL_NULL):
    """Is the observed energy constant along the trajectory?

    By the constant-energy lemma this must coincide with the lapse being
    constant along the geodesic; both facts are reported so callers can
    assert the equivalence.
    """
    e = trajectory.energies
    drift = float(np.max(np.abs(e - np.mean(e))))
    lap = trajectory._lapse
    lvar = float(np.max(np.abs(lap - np.mean(lap))))
    return ConstancyVerdict(drift < 10 * tol, drift, lvar, lvar < 10 * tol)


# ---------------------------------------------------------------------------
# Tangency persistence (the defining property of photon surfaces)
# ---------------------------------------------------------------------------

def tangent_null_seeds(spacetime, r0, count, rng_seed, theta_band=(0.3, 0.7)):
    """Null directions tangent to the cylinder {r = r0}.

    Base points are drawn from a seeded RNG (theta inside the given band
    of pi to keep pole passages mild); direction angles sit on a uniform
    offset grid so no seed is exactly polar.  Velocities are scaled to
    tdot = 1 so that one affine unit is one unit of coordinate time: the
    photon-sphere instability then amplifies roundoff by a bounded factor
    over the spans used in the checks.
    """
    rng = np.random.default_rng(rng_seed)
    n0, _ = spacetime.profile.lapse_d1(r0)
    seeds = []
    for k in range(count):
        theta = math.pi * rng.uniform(*theta_band)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        alpha = 2.0 * math.pi * (k + 0.5) / count
        vth = n0 * math.cos(alpha) / r0
        vph = n0 * math.sin(alpha) / (r0 * math.sin(theta))
        state = GeodesicState(ChartPoint(0.0, r0, theta, phi),
                              (1.0, 0.0, vth, vph))
        seeds.append(state)
    return seeds


@dataclass(frozen=True)
class TangencyReport:
    surface_value: float      # r0 (or N0) defining the surface
    deviations: tuple         # per-seed sup of |r - r0| (or |N - N0|)
    max_deviation: float
    statuses: tuple
    span: float
    seed_count: int
    rng_seed: int


TANGENCY_TOL = 1e-14  # photon-sphere orbits amplify local error by e^(N span / r)


def tangency_persistence(spacetime, surface, seeds, span, tol=TANGENCY_TOL,
                         rng_seed=0):
    """Integrate tangent null seeds and report the worst surface deviation.

    ``surface`` is a cylinder hypersurface; deviation is |r - r0| when it
    is parameterized by radius and |N - N0| for lapse level sets.
    Per-seed integration failures are reported alongside partial results.

    The default tolerance is much tighter than elsewhere: circular photon
    orbits are exponentially unstable, so local error injected at affine
    time l is amplified by roughly exp(kappa (span - l)) with
    kappa = N0/r0; resolving deviations at the 1e-5 level over spans of
    order 1e2 requires local errors near the roundoff floor.
    """
    r0 = surface.level_value
    use_lapse = surface.level_field == "lapse"
    n0 = spacetime.profile.lapse_d1(r0)[0]
    deviations, statuses = [], []
    for state in seeds:
        traj = integrate_null(spacetime, state, span, tol)
        if use_lapse:
            dev = float(np.max(np.abs(traj._lapse - n0)))
        else:
            dev = float(np.max(np.abs(traj.r - r0)))
        deviations.append(dev)
        statuses.append(traj.status)
    return TangencyReport(r0, tuple(deviations), max(deviations),
                          tuple(statuses), span, len(seeds), rng_seed)


# ---------------------------------------------------------------------------
# Trajectory export
# ---------------------------------------------------------------------------

CSV_HEADER = "lambda,t,r,theta,phi,vt,vr,vtheta,vphi,null_residual,energy"


def trajectory_to_csv(trajectory, path):
    """Dump a trajectory in full double precision (17 significant digits)."""
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for row, resid, en in zip(trajectory.samples, trajectory.null_residuals,
                                  trajectory.energies):
            vals = list(row) + [resid, en]
            fh.write(",".join(f"{v:.17g}" for v in vals) + "\n")
