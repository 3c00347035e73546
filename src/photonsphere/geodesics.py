"""Null geodesic integration in static radial spacetimes.

The geodesic equation is integrated with an embedded Dormand-Prince 5(4)
pair (Dormand & Prince 1980).  After every accepted step the time
component of the velocity is re-solved from the null constraint (choosing
the root continuous with the previous step), which pins the state to the
light cone without touching the spatial direction.  The observed energy
E = g(v, N^-1 d_t) = -N tdot is recorded along the way; the combination
E*N is the conserved constant of the t-equation and is what the constancy
checks monitor.

One stepping loop serves every caller.  It advances a batch of
trajectories held as the columns of an (8, S) array; each keeps its own
affine parameter, step size, step counts, Kahan compensation and
termination status, and leaves the batch when it ends.  ``integrate_null``
is a batch of one; ``tangency_persistence`` runs all its seeds at once.

Bit-identity: every column takes exactly the steps that the scalar loop
over Python floats kept in ``tests/test_geodesics.py`` takes for it alone,
whatever the batch around it.  The batch performs the same IEEE operations
in the same order: stage sums are added left to right from 0.0 (the
builtin ``sum`` of the former scalar loop did so up to CPython 3.11; from
3.12 on it compensates, so there trajectories differ from that loop's in
the last bits); the fifth-order increment is rounded once per entry, as
``math.fsum`` rounds it; the squares of the error norm and the step-size
factor go through Python's float ``pow``, which numpy's power does not
reproduce; ``np.sin``/``np.cos`` agree with ``math.sin``/``math.cos``.
Where a profile evaluation fails (the scalar loop catches ValueError or
ZeroDivisionError), the batch sees a non-finite entry and shrinks that
column's step alone.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .spacetimes import ChartPoint

TOL_NULL = 1e-9
DEFAULT_TOL = 1e-10
THETA_GUARD = 1e-7          # terminate before the chart degenerates at poles
DOMAIN_GUARD_RTOL = 1e-6    # stop this close (relative) to the domain edge
MAX_STEPS = 2_000_000       # attempted steps before a trajectory is "stiff"

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
# the same weights as columns that broadcast over a (stage, 8, S) stack
_A_COLS = tuple(np.reshape(row, (-1, 1, 1)) for row in _A)
_B5_COL = np.reshape(_B5, (-1, 1, 1))
_ERR_COL = np.reshape(_ERR, (-1, 1, 1))


@dataclass(frozen=True)
class GeodesicState:
    """Affine-parameterized phase-space point of a geodesic."""

    position: ChartPoint
    velocity: tuple
    affine: float = 0.0

    def as_array(self):
        return np.array(self.position.coords4() + tuple(self.velocity))


@dataclass(frozen=True)
class RunSummary:
    """How one trajectory of a batch ended and what its stepping cost."""

    status: str            # "completed" | "domain-exit" | "stiff" | "pole"
    reason: str
    accepted_steps: int
    rejected_steps: int    # error-norm rejections and failed evaluations
    min_step: float        # smallest accepted step size; None if none


@dataclass(frozen=True)
class GeodesicTrajectory:
    """Sampled null geodesic with conserved-quantity monitoring.

    ``samples`` has one row per accepted step: (lambda, t, r, theta, phi,
    vt, vr, vtheta, vphi).  ``energies`` holds E = -N tdot per sample,
    ``null_residuals`` the pre-projection constraint |g(v,v)|, and
    ``c_estimate`` the constant C of tdot = C N^-2 (equal to -E*N).
    ``run`` carries the step counts (its status and reason repeat these).
    """

    samples: np.ndarray
    energies: np.ndarray
    null_residuals: np.ndarray
    c_estimate: float
    status: str            # "completed" | "domain-exit" | "stiff" | "pole"
    reason: str = ""
    run: RunSummary = None

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
    """Geodesic right-hand side for -A dt^2 + B dr^2 + r^2 Omega.

    ``y`` holds one state per column; each column is computed as the same
    expression on floats would compute it.
    """
    t, r, th, ph, vt, vr, vth, vph = y
    a, ap, b, bp = profile.metric_factors_d1(r)
    sth = np.sin(th)
    cth = np.cos(th)
    rvr = vr / r
    at = -(ap / a) * vt * vr
    ar = (-0.5 * ap / b * vt * vt - 0.5 * bp / b * vr * vr
          + (r / b) * (vth * vth + sth * sth * vph * vph))
    m2rvr = -2.0 * rvr
    ath = m2rvr * vth + sth * cth * vph * vph
    aph = m2rvr * vph - 2.0 * (cth / sth) * vth * vph
    return np.array((vt, vr, vth, vph, at, ar, ath, aph))


def null_project(profile, y, prev_vt_sign=1.0):
    """Re-solve tdot from g(v,v) = 0, keeping the spatial direction.

    Returns the projected state and the pre-projection constraint value,
    per column of ``y``; a column with no real null direction gets a nan
    tdot.
    """
    t, r, th, ph, vt, vr, vth, vph = y
    a, _, b, _ = profile.metric_factors_d1(r)
    sth = np.sin(th)
    spatial = b * vr * vr + r * r * (vth * vth + sth * sth * vph * vph)
    residual = -a * vt * vt + spatial
    sign = np.where(vt != 0.0, np.copysign(1.0, vt), prev_vt_sign)
    vt_new = sign * np.sqrt(spatial / a)
    return np.array((t, r, th, ph, vt_new, vr, vth, vph)), residual


def _stage_sum(coefs, k):
    """sum_m coefs[m] k[m] over a stack k of stage derivatives.

    The terms are added left to right from 0.0, as the builtin sum() of the
    scalar loop added them (numpy's reductions may add pairwise).
    """
    terms = coefs * k
    acc = 0.0 + terms[0]
    for term in terms[1:]:
        acc += term
    return acc


def _fsum_stages(coefs, k):
    """sum_m coefs[m] k[m] with each entry rounded once, as math.fsum rounds it."""
    terms = (coefs * k).reshape(len(k), -1).T.tolist()
    return np.array(list(map(math.fsum, terms))).reshape(k.shape[1:])


def _error_norm(err, y_old, y_new, atol, rtol):
    """RMS over the 8 components of err / (atol + rtol max(|y_old|, |y_new|)).

    Returns one float per column.  The squares go through Python's float
    pow, which numpy's does not reproduce bit for bit, and are added over
    the components in order.
    """
    a_, b_ = np.abs(y_old), np.abs(y_new)
    scaled = err / (atol + rtol * np.where(b_ > a_, b_, a_))
    norms = []
    for col in scaled.T.tolist():
        acc = 0.0
        for e in col:
            acc += e ** 2
        norms.append(math.sqrt(acc / len(col)))
    return norms


def _integrate_batch(profile, states, span, tol, max_steps, on_accept):
    """Integrate null states over [0, span] with one DOPRI 5(4) loop.

    Each state is a column of an (8, S) array with its own affine
    parameter, step size, accepted-step count, Kahan compensation and
    termination status; a column leaves the batch when its trajectory
    ends.  Every column steps exactly as it would alone.  A stage at which
    the profile is not real or not finite shrinks that column's step by 4;
    a column whose step underflows after such a failure, with no step
    accepted since, ends in "domain-exit".

    ``on_accept(seeds, lam, y, residual)`` is called with the projected
    initial states and then after every accepted step, with the indices
    (into ``states``) of the columns that took it, their affine
    parameters, projected states and pre-projection |g(v, v)|.  Returns
    one RunSummary per state.
    """
    y0 = np.array([s.as_array() for s in states], dtype=float).reshape(-1, 8).T
    n = y0.shape[1]
    with np.errstate(all="ignore"):
        y, res0 = null_project(profile, y0)
    vscale = np.max(np.abs(y0[4:]), axis=0, initial=0.0)
    vscale[vscale == 0.0] = 1.0
    for j, r in enumerate(y0[1].tolist()):
        profile.check_point(r)
        moved = abs(y[4, j] - y0[4, j])
        if not math.isfinite(moved):
            raise ValueError(f"no real null direction at r = {r:.6g}")
        if moved > math.sqrt(TOL_NULL) * vscale[j]:
            raise ValueError(f"initial velocity is not null (projection moved "
                             f"tdot by {moved:.3e})")
    on_accept(np.arange(n), np.zeros(n), y, np.abs(res0))

    r_stop = profile.r_min * (1.0 + DOMAIN_GUARD_RTOL) if profile.r_min > 0 else 0.0
    # stop at r <= r_stop (1 + 1e-12), or at r < 1e-9 when there is no r_min
    r_exit = r_stop * (1.0 + 1e-12) if r_stop > 0.0 else math.nextafter(1e-9, 0.0)
    h_floor = 1e-14 * max(1.0, span)
    atol = rtol = tol
    ends = [None] * n
    live = np.arange(n)          # index into ``states`` of each column
    lam = np.zeros(n)
    step = 0                     # attempted steps, the same for every live column
    taken = np.zeros(n, dtype=int)
    h_min = np.full(n, math.inf)
    comp = np.zeros((8, n))      # Kahan compensation: unstable orbits amplify roundoff
    halted = np.zeros(n, dtype=bool)
    status = {}                  # column -> (status, reason) for halted columns
    with np.errstate(all="ignore"):
        f = _rhs(profile, y)
        # a profile value failed since the column's last accepted step
        failed = ~np.isfinite(f).all(axis=0)
        d0 = np.max(np.abs(y), axis=0, initial=0.0)
        d1 = np.max(np.abs(f), axis=0, initial=0.0)
        d0[d0 == 0.0] = 1.0
        d1[d1 == 0.0] = 1.0
        h = 0.01 * d0 / d1
        h = np.where(span < h, span, h)
        while live.size:
            # the checks that open a step, in order
            done = halted | ~(lam < span)
            over = step >= max_steps
            h = np.where(span - lam < h, span - lam, h)
            out = done | over | ~(h >= h_floor)
            if np.count_nonzero(out):
                for j in np.flatnonzero(out).tolist():
                    if done[j]:
                        pass          # completed, or halted with its status
                    elif over:
                        status[j] = ("stiff", "max step count reached")
                    elif failed[j]:
                        status[j] = ("domain-exit", "profile not real or finite "
                                     f"near r = {y[1, j]:.6g}")
                    else:
                        status[j] = ("stiff", "step size underflow")
                    end_min = float(h_min[j]) if taken[j] else None
                    ends[live[j]] = RunSummary(
                        *status.get(j, ("completed", "")), int(taken[j]),
                        step - int(taken[j]), end_min)
                keep = ~out
                live, lam, h, taken, h_min, failed = (
                    v[keep] for v in (live, lam, h, taken, h_min, failed))
                y, f, comp = y[:, keep], f[:, keep], comp[:, keep]
                halted = np.zeros(live.size, dtype=bool)
                status = {}
                if not live.size:
                    break

            k = np.empty((7,) + y.shape)
            k[0] = f
            for i in range(1, 7):
                k[i] = _rhs(profile, y + h * _stage_sum(_A_COLS[i], k[:i]))
            bad = ~np.isfinite(k).all(axis=(0, 1))
            if np.count_nonzero(bad):
                k[:, :, bad] = 0.0
            incr = h * _fsum_stages(_B5_COL, k)
            err = h * _stage_sum(_ERR_COL, k)
            enorm = _error_norm(err, y, y + incr, atol, rtol)
            ok = ~bad & (np.array(enorm) <= 1.0)
            if np.count_nonzero(ok):
                dy = incr + comp
                t = y + dy
                y_proj, resid = null_project(profile, t, np.copysign(1.0, t[4]))
                lost = ok & ~np.isfinite(y_proj[4])  # no real null direction
                bad |= lost
                ok &= ~lost
                comp_new = dy - (t - y)
                comp_new[4] = 0.0                    # tdot replaced by the projection
                lam = np.where(ok, lam + h, lam)
                y = np.where(ok, y_proj, y)
                comp = np.where(ok, comp_new, comp)
                taken += ok
                h_min = np.where(ok & (h < h_min), h, h_min)
                acc = np.flatnonzero(ok)
                on_accept(live[acc], lam[acc], y[:, acc], np.abs(resid[acc]))
                exits = ok & (y[1] <= r_exit)
                th_mod = y[2] % math.pi
                halted = exits | ok & (np.minimum(th_mod, math.pi - th_mod)
                                       < THETA_GUARD)
                if np.count_nonzero(halted):
                    for j in np.flatnonzero(halted).tolist():
                        status[j] = (("domain-exit", f"r reached {y[1, j]:.6g}")
                                     if exits[j] else
                                     ("pole", f"theta reached {y[2, j]:.6g}"))
                f = np.where(ok, _rhs(profile, y), f)
            step += 1
            failed = (failed | bad) & ~ok
            h = h * np.array([
                0.25 if shrink else
                min(5.0, max(0.2, 5.0 if e == 0.0 else 0.9 * e ** -0.2))
                for shrink, e in zip(bad.tolist(), enorm)])
    return ends


def integrate_null(spacetime, initial, span, tol=DEFAULT_TOL, max_steps=MAX_STEPS):
    """Integrate a null geodesic over an affine interval [0, span].

    The initial velocity is projected onto the null cone (rejected if the
    projection moves it by more than sqrt(tol_null) relative).  Terminates
    early with a descriptive status when the domain boundary or a pole is
    approached, when the profile stops being real or finite, or when the
    adaptive step underflows.
    """
    profile = spacetime.profile
    rows, residuals = [], []

    def record(seeds, lam, y, residual):
        rows.append(np.concatenate((lam, y[:, 0])))
        residuals.append(residual[0])

    (run,) = _integrate_batch(profile, [initial], span, tol, max_steps, record)
    samples = np.array(rows)
    lapse = np.asarray(profile.lapse_d1(samples[:, 2])[0], dtype=float)
    energies = -lapse * samples[:, 5]
    c_est = float(np.mean(-energies * lapse))
    return GeodesicTrajectory(samples, energies, np.array(residuals), c_est,
                              run.status, run.reason, run, _lapse=lapse)


def null_state(spacetime, position, spatial_velocity, time_sign=1.0,
               affine=0.0):
    """Build an exactly null state from a spatial velocity.

    The time component is solved from g(v, v) = 0 with the requested sign.
    """
    vr, vth, vph = spatial_velocity
    y = np.array(position.coords4() + (0.0, vr, vth, vph), dtype=float)
    with np.errstate(all="ignore"):
        y, _ = null_project(spacetime.profile, y[:, None], prev_vt_sign=time_sign)
    vt = float(y[4, 0])
    if not math.isfinite(vt):
        raise ValueError(f"no real null direction at r = {position.r:.6g}")
    vt = math.copysign(vt, time_sign)
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
    runs: tuple               # per-seed RunSummary


TANGENCY_TOL = 1e-14  # photon-sphere orbits amplify local error by e^(N span / r)


def tangency_persistence(spacetime, surface, seeds, span, tol=TANGENCY_TOL,
                         rng_seed=0):
    """Integrate tangent null seeds and report the worst surface deviation.

    ``surface`` is a cylinder hypersurface; deviation is |r - r0| when it
    is parameterized by radius and |N - N0| for lapse level sets.
    Per-seed integration failures are reported alongside partial results.
    All seeds are integrated as one batch; only the running sup of each
    seed's deviation is kept, never its trajectory.

    The default tolerance is much tighter than elsewhere: circular photon
    orbits are exponentially unstable, so local error injected at affine
    time l is amplified by roughly exp(kappa (span - l)) with
    kappa = N0/r0; resolving deviations at the 1e-5 level over spans of
    order 1e2 requires local errors near the roundoff floor.
    """
    profile = spacetime.profile
    r0 = surface.level_value
    use_lapse = surface.level_field == "lapse"
    n0 = profile.lapse_d1(r0)[0]
    sup = np.zeros(len(seeds))

    def track(idx, lam, y, residual):
        off = (np.abs(profile.lapse_d1(y[1])[0] - n0) if use_lapse
               else np.abs(y[1] - r0))
        sup[idx] = np.maximum(sup[idx], off)

    runs = _integrate_batch(profile, seeds, span, tol, MAX_STEPS, track)
    deviations = tuple(sup.tolist())
    return TangencyReport(r0, deviations, max(deviations),
                          tuple(run.status for run in runs), span, len(seeds),
                          rng_seed, tuple(runs))


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
