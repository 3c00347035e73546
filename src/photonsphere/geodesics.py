"""Null geodesic integration in static radial spacetimes.

Every profile is static and spherically symmetric, so a geodesic stays in
the plane through the centre that holds its initial position and velocity
(Misner, Thorne & Wheeler, Gravitation, 1973, section 25.6).  It is
integrated there as the state (t, r, psi, vt, vr, vpsi) of the metric
-A dt^2 + B dr^2 + r^2 dpsi^2, psi the angle from the start; the plane has
no pole.  Only ``integrate_null`` rotates its samples into (theta, phi).

The geodesic equation is integrated with DOP853, the explicit Runge-Kutta
pair of order 8 with embedded error estimates of orders 5 and 3 (Hairer,
Norsett & Wanner, Solving Ordinary Differential Equations I, 2nd ed.,
section II.10).  Its 12 stages per step cost more than a fifth-order
pair's 7, but on the unstable photon-sphere orbits, at tolerances near
roundoff, it takes about a quarter as many steps.  After every accepted
step the time component of the velocity is re-solved from the null
constraint (choosing the root continuous with the previous step), which
pins the state to the light cone without touching the spatial direction.
The observed energy E = g(v, N^-1 d_t) = -N tdot is recorded along the
way; the combination E*N is the conserved constant of the t-equation and
is what the constancy checks monitor.

One stepping loop advances a batch of trajectories held as the columns
of a (6, S) array: ``integrate_null`` is a batch of one, and
``tangency_persistence`` runs all its seeds at once.  Each column is
bit-identical to the same state integrated alone, so a rerun reproduces
its outputs byte for byte.  Every operation of a step is elementwise over
the columns; the sums over stages and over the 6 components of the error
norm are added left to right from 0.0 (numpy's reductions add pairwise,
and in a different order for a single column than for several).  Where a
profile evaluation fails, the batch sees a non-finite entry and shrinks
that column's step alone.  This rests on the profiles' shape
independence, which the tests check for every profile kind: each entry
of ``metric_factors_d1`` or ``lapse_d1`` on an array of radii equals, bit
for bit, the result for that radius as a float, and an entry that is not
real, not finite or outside a table comes back non-finite instead of
raising.  The tests compare each run with a scalar DOP853 loop in the
(theta, phi) chart: the same status, and a completed run's end row to
1e-6, angles modulo 2 pi.
"""

import math
from dataclasses import dataclass

import numpy as np

from .spacetimes import ChartPoint

INTEGRATOR = "DOP853"       # the name reports give the stepping method
TOL_NULL = 1e-9
DEFAULT_TOL = 1e-11
# Stop this close (relative) to r_min, and where A = N^2 falls to this
# value.  Near a horizon r_min the metric factor 1 - r_min/r is known only
# to a relative eps / (r/r_min - 1), which the step control at TANGENCY_TOL
# cannot absorb below r/r_min - 1 of about 4e-6: with the guard at 1e-6, a
# seed falling from r = 2.5m crawls there in steps near 1e-10 and needs
# about 580,000 steps to reach the guard; at 1e-5 it needs under 500.
DOMAIN_GUARD_RTOL = 1e-5
MAX_STEPS = 2_000_000       # attempted steps before a trajectory is "stiff"

# Dormand-Prince 8(5,3) tableau, DOP853 (Hairer, Norsett & Wanner, Solving
# ODEs I, 2nd ed., section II.10): 12 stages, the last stage not reused
# because the projection changes the state between steps
_C = (0.0, 0.526001519587677318785587544488e-1,
      0.789002279381515978178381316732e-1, 0.118350341907227396726757197510,
      0.281649658092772603273242802490, 0.333333333333333333333333333333,
      0.25, 0.307692307692307692307692307692, 0.651282051282051282051282051282,
      0.6, 0.857142857142857142857142857142, 1.0)
_A = (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0,
     8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0,
     -8.84549479328286085344864962717e-1, 9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0,
     1.70828608729473871279604482173e-1, 1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0,
     1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
     -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0,
     -3.36089262944694129406857109825, -8.68219346841726006818189891453e-1,
     2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
     -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0,
     -2.48811461997166764192642586468, -5.90290826836842996371446475743e-1,
     2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
     -3.32882109689848629194453265587e1, -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0,
     5.18637242884406370830023853209, 1.09143734899672957818500254654,
     -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
     2.27394870993505042818970056734e1, 2.49360555267965238987089396762,
     -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0,
     -1.05344954667372501984066689879e1, -2.00087205822486249909675718444,
     -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
     -2.85899827713502369474065508674, -8.87285693353062954433549289258,
     1.23605671757943030647266201528e1, 6.43392746015763530355970484046e-1),
)
_B = (5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
      4.45031289275240888144113950566, 1.89151789931450038304281599044,
      -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
      -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
      4.47106157277725905176885569043e-2)
# the fifth-order error weights, and the third-order ones: B minus the
# weights (bhh) of the embedded third-order solution
_E5 = (0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
       -0.1225156446376204440720569753e1, -0.4957589496572501915214079952,
       0.1664377182454986536961530415e1, -0.3503288487499736816886487290,
       0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
       -0.2235530786388629525884427845e-1)
_E3 = tuple(b - bhh for b, bhh in zip(_B, (
    0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    0.733846688281611857341361741547, 0.0, 0.0,
    0.220588235294117647058823529412e-1)))
# the same weights as columns that broadcast over a (stage, 6, S) stack
_A_COLS = tuple(np.reshape(row, (-1, 1, 1)) for row in _A)
_B_COL, _E5_COL, _E3_COL = (np.reshape(w, (-1, 1, 1)) for w in (_B, _E5, _E3))


@dataclass(frozen=True)
class GeodesicState:
    """Phase-space point of a geodesic; an integration starts it at
    affine parameter 0."""

    position: ChartPoint
    velocity: tuple


@dataclass(frozen=True)
class RunSummary:
    """How one trajectory of a batch ended and what its stepping cost."""

    status: str            # "completed" | "domain-exit" | "stiff"
    reason: str
    accepted_steps: int
    rejected_steps: int    # error-norm rejections and failed evaluations
    min_step: float        # smallest accepted step size; None if none


@dataclass(frozen=True)
class GeodesicTrajectory:
    """Sampled null geodesic with conserved-quantity monitoring.

    ``samples`` has one row per accepted step: (lambda, t, r, theta, phi,
    vt, vr, vtheta, vphi).  ``energies`` holds E = -N tdot per sample,
    ``null_residuals`` the pre-projection constraint |g(v,v)|, ``lapse`` N,
    and ``run`` how the trajectory ended and its step counts.
    """

    samples: np.ndarray
    energies: np.ndarray
    null_residuals: np.ndarray
    lapse: np.ndarray
    run: RunSummary

    @property
    def status(self):
        return self.run.status

    @property
    def reason(self):
        return self.run.reason

    @property
    def affine(self):
        return self.samples[:, 0]

    @property
    def r(self):
        return self.samples[:, 2]

    def energy_times_lapse_drift(self):
        en = self.energies * self.lapse
        return float(np.max(np.abs(en - en[0])))


def _into_plane(state):
    """The orbit-plane basis (theta, phi, cos b, sin b) of a chart state and
    its in-plane state (t, r, 0, vt, vr, hypot(vtheta, sin(theta) vphi)).

    The plane holds n, the unit vector to the start, and e, the unit vector
    along the initial angular velocity (e_theta for a radial ray), which is
    cos(b) e_theta + sin(b) e_phi; psi is the angle from n towards e.
    """
    t, r, th, ph = state.position.coords4()
    vt, vr, vth, vph = state.velocity
    sv = math.sin(th) * vph
    vpsi = math.hypot(vth, sv)
    cb, sb = (vth / vpsi, sv / vpsi) if vpsi > 0.0 else (1.0, 0.0)
    return (th, ph, cb, sb), (t, r, 0.0, vt, vr, vpsi)


def _to_chart(basis, rows):
    """Chart rows (lambda, t, r, theta, phi, vt, vr, vtheta, vphi) of one
    trajectory's in-plane rows (lambda, t, r, psi, vt, vr, vpsi).

    p = cos(psi) n + sin(psi) e and its rate are taken on the polar axis z
    and the horizontal axes x and y along n and e_phi at the start; phi is
    continued from its starting value.
    """
    th0, ph0, cb, sb = basis
    s0, c0 = math.sin(th0), math.cos(th0)
    lam, t, r, psi, vt, vr, vpsi = rows.T
    cp, sp = np.cos(psi), np.sin(psi)
    x, y, z = cp * s0 + sp * cb * c0, sp * sb, cp * c0 - sp * cb * s0
    dx, dy = vpsi * (cp * cb * c0 - sp * s0), vpsi * cp * sb
    dz = -vpsi * (sp * c0 + cp * cb * s0)
    rho = np.hypot(x, y)
    vth = z * (x * dx + y * dy) / rho - rho * dz
    return np.column_stack((lam, t, r, np.arctan2(rho, z),
                            ph0 + np.unwrap(np.arctan2(y, x)), vt, vr, vth,
                            (x * dy - y * dx) / (rho * rho)))


def _rhs(profile, y):
    """Geodesic right-hand side for -A dt^2 + B dr^2 + r^2 dpsi^2.

    ``y`` holds one in-plane state per column; each column is computed as
    the same expression on floats would compute it.
    """
    t, r, psi, vt, vr, vpsi = y
    a, ap, b, bp = profile.metric_factors_d1(r)
    at = -(ap / a) * vt * vr
    ar = (-0.5 * ap / b * vt * vt - 0.5 * bp / b * vr * vr
          + (r / b) * (vpsi * vpsi))
    apsi = -2.0 * (vr / r) * vpsi
    return np.array((vt, vr, vpsi, at, ar, apsi))


def null_project(profile, y, prev_vt_sign=1.0):
    """Re-solve tdot from g(v,v) = 0, keeping the spatial direction.

    Returns the projected in-plane states, the pre-projection constraint
    value and A = N^2, per column of ``y``; a column with no real null
    direction gets a nan tdot.
    """
    t, r, psi, vt, vr, vpsi = y
    a, _, b, _ = profile.metric_factors_d1(r)
    spatial = b * vr * vr + r * r * (vpsi * vpsi)
    residual = -a * vt * vt + spatial
    sign = np.where(vt != 0.0, np.copysign(1.0, vt), prev_vt_sign)
    vt_new = sign * np.sqrt(spatial / a)
    return np.array((t, r, psi, vt_new, vr, vpsi)), residual, a


def _stage_sum(coefs, k):
    """sum_m coefs[m] k[m] over the leading axis of k, added left to right
    from 0.0 so that a column's sum does not depend on the batch."""
    terms = coefs * k
    acc = 0.0 + terms[0]
    for term in terms[1:]:
        acc += term
    return acc


def _dop853_step(profile, y, h, f, atol, rtol):
    """One DOP853 step of size h per column, from f = rhs(y).

    Returns the eighth-order increment, the error norm of each column and
    the mask of columns at which a stage was not real or not finite; their
    increment and error norm are 0.  The norm is Hairer's combination of
    the fifth- and third-order estimates e5 and e3, each scaled by
    atol + rtol max(|y|, |y + increment|) and summed over the 6 components:
    |e5|^2 / sqrt(6 (|e5|^2 + 0.01 |e3|^2)), or 0 where that is 0 / 0.
    """
    k = np.empty((12,) + y.shape)
    k[0] = f
    for i in range(1, 12):
        k[i] = _rhs(profile, y + h * _stage_sum(_A_COLS[i], k[:i]))
    bad = ~np.isfinite(k).all(axis=(0, 1))
    if np.count_nonzero(bad):
        k[:, :, bad] = 0.0
    incr = h * _stage_sum(_B_COL, k)
    scale = atol + rtol * np.maximum(np.abs(y), np.abs(y + incr))
    e5 = h * _stage_sum(_E5_COL, k) / scale
    e3 = h * _stage_sum(_E3_COL, k) / scale
    e5_sq = _stage_sum(e5, e5)
    denom = np.sqrt(6.0 * (e5_sq + 0.01 * _stage_sum(e3, e3)))
    return incr, np.where(denom == 0.0, 0.0, e5_sq / denom), bad


def _integrate_batch(profile, states, span, tol, max_steps, on_accept):
    """Integrate null states over [0, span] with one DOP853 loop.

    Each state becomes a column of a (6, S) array of in-plane states, with
    its own affine parameter, step size, step counts and status; it leaves
    the batch when it ends, and steps exactly as it would alone.  A step is
    accepted where its error norm is at most 1, and the next step is scaled
    by 0.9 norm^(-1/8), clipped to [0.2, 5].  A stage at which the profile
    is not real or not finite shrinks that column's step by 4.  A column
    ends in "domain-exit" when an accepted step has r within a relative
    DOMAIN_GUARD_RTOL of r_min or A = N^2 <= DOMAIN_GUARD_RTOL, or when its
    step underflows after a failed stage with no step accepted since.

    ``on_accept(seeds, lam, y, residual)`` is called with the projected
    initial states and after every accepted step, with the indices (into
    ``states``) of the columns that took it, their affine parameters,
    in-plane states and pre-projection |g(v, v)|.  Returns one RunSummary
    per state; raises ValueError unless ``span`` is finite and positive.
    """
    if not (math.isfinite(span) and span > 0.0):
        raise ValueError(f"span must be finite and positive, got {span!r}")
    y0 = np.array([_into_plane(s)[1] for s in states], dtype=float).reshape(-1, 6).T
    n = y0.shape[1]
    with np.errstate(all="ignore"):
        y, res0, _ = null_project(profile, y0)
    vscale = np.max(np.abs(y0[3:]), axis=0, initial=0.0)
    vscale[vscale == 0.0] = 1.0
    for j, r in enumerate(y0[1].tolist()):
        profile.check_point(r)
        moved = abs(y[3, j] - y0[3, j])
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
    halted = np.zeros(n, dtype=bool)   # reached the domain edge
    with np.errstate(all="ignore"):
        f = _rhs(profile, y)
        # a profile value failed since the column's last accepted step
        failed = ~np.isfinite(f).all(axis=0)
        d0, d1 = (np.max(np.abs(v), axis=0, initial=0.0) for v in (y, f))
        h = 0.01 * np.where(d0 == 0.0, 1.0, d0) / np.where(d1 == 0.0, 1.0, d1)
        h = np.where(span < h, span, h)
        while live.size:
            # the checks that open a step, in order
            over = step >= max_steps
            h = np.where(span - lam < h, span - lam, h)
            out = halted | ~(lam < span) | over | ~(h >= h_floor)
            if np.count_nonzero(out):
                for j in np.flatnonzero(out).tolist():
                    if halted[j]:
                        end = ("domain-exit", f"domain edge at r = {y[1, j]:.6g}")
                    elif not lam[j] < span:
                        end = ("completed", "")
                    elif over:
                        end = ("stiff", "max step count reached")
                    elif failed[j]:
                        end = ("domain-exit", "profile not real or finite "
                               f"near r = {y[1, j]:.6g}")
                    else:
                        end = ("stiff", "step size underflow")
                    ends[live[j]] = RunSummary(
                        *end, int(taken[j]), step - int(taken[j]),
                        float(h_min[j]) if taken[j] else None)
                keep = ~out
                live, lam, h, taken, h_min, failed, halted = (
                    v[keep] for v in (live, lam, h, taken, h_min, failed, halted))
                y, f = y[:, keep], f[:, keep]
                if not live.size:
                    break

            incr, enorm, bad = _dop853_step(profile, y, h, f, atol, rtol)
            ok = ~bad & (enorm <= 1.0)
            if np.count_nonzero(ok):
                trial = y + incr
                y_proj, resid, a = null_project(profile, trial, np.copysign(1.0, trial[3]))
                lost = ok & ~np.isfinite(y_proj[3])  # no real null direction
                bad |= lost
                ok &= ~lost
                lam = np.where(ok, lam + h, lam)
                y = np.where(ok, y_proj, y)
                taken += ok
                h_min = np.where(ok & (h < h_min), h, h_min)
                acc = np.flatnonzero(ok)
                on_accept(live[acc], lam[acc], y[:, acc], np.abs(resid[acc]))
                halted = ok & ((y[1] <= r_exit) | (a <= DOMAIN_GUARD_RTOL))
                f = np.where(ok, _rhs(profile, y), f)
            step += 1
            failed = (failed | bad) & ~ok
            # 0.9 enorm^(-1/8) by three square roots: IEEE 754 rounds sqrt
            # correctly, so the factor does not depend on whose power
            # routine runs (numpy's and libm's differ in the last bit)
            factor = 0.9 / np.sqrt(np.sqrt(np.sqrt(enorm)))
            h = h * np.where(bad, 0.25, np.clip(
                np.where(enorm == 0.0, 5.0, factor), 0.2, 5.0))
    return ends


def integrate_null(spacetime, initial, span, tol=DEFAULT_TOL, max_steps=MAX_STEPS):
    """Integrate a null geodesic over an affine interval [0, span].

    The initial velocity is projected onto the null cone (rejected if the
    projection moves it by more than sqrt(tol_null) relative).  Terminates
    early with a descriptive status when the domain edge is approached,
    when the profile stops being real or finite, or when the adaptive step
    underflows.  The in-plane samples are rotated back into the chart.
    """
    profile = spacetime.profile
    rows, residuals = [], []

    def record(seeds, lam, y, residual):
        rows.append(np.concatenate((lam, y[:, 0])))
        residuals.append(residual[0])

    (run,) = _integrate_batch(profile, [initial], span, tol, max_steps, record)
    samples = _to_chart(_into_plane(initial)[0], np.array(rows))
    lapse = np.asarray(profile.lapse_d1(samples[:, 2])[0], dtype=float)
    return GeodesicTrajectory(samples, -lapse * samples[:, 5],
                              np.array(residuals), lapse, run)


def null_state(spacetime, position, spatial_velocity, time_sign=1.0):
    """Build an exactly null state from a spatial velocity.

    The time component is solved from g(v, v) = 0 with the requested sign.
    """
    vr, vth, vph = spatial_velocity
    _, y = _into_plane(GeodesicState(position, (0.0, vr, vth, vph)))
    with np.errstate(all="ignore"):
        y, _, _ = null_project(spacetime.profile, np.array(y)[:, None],
                               prev_vt_sign=time_sign)
    vt = float(y[3, 0])
    if not math.isfinite(vt):
        raise ValueError(f"no real null direction at r = {position.r:.6g}")
    return GeodesicState(position, (vt, vr, vth, vph))


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
    lap = trajectory.lapse
    lvar = float(np.max(np.abs(lap - np.mean(lap))))
    return ConstancyVerdict(drift < 10 * tol, drift, lvar, lvar < 10 * tol)


# ---------------------------------------------------------------------------
# Tangency persistence (the defining property of photon surfaces)
# ---------------------------------------------------------------------------

def tangent_null_seeds(spacetime, r0, count, rng_seed):
    """Null directions tangent to the cylinder {r = r0}.

    Base points are drawn from a seeded RNG, theta in (0.3 pi, 0.7 pi) and
    phi in [0, 2 pi); direction angles sit on a uniform grid offset by half
    a step, alpha = 2 pi (k + 1/2) / count.  Velocities are scaled to
    tdot = 1 so that one affine unit is one unit of coordinate time: the
    photon-sphere instability then amplifies roundoff by a bounded factor
    over the spans used in the checks.
    """
    rng = np.random.default_rng(rng_seed)
    n0, _ = spacetime.profile.lapse_d1(r0)
    seeds = []
    for k in range(count):
        theta = math.pi * rng.uniform(0.3, 0.7)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        alpha = 2.0 * math.pi * (k + 0.5) / count
        vth = n0 * math.cos(alpha) / r0
        vph = n0 * math.sin(alpha) / (r0 * math.sin(theta))
        seeds.append(GeodesicState(ChartPoint(0.0, r0, theta, phi),
                                   (1.0, 0.0, vth, vph)))
    return seeds


@dataclass(frozen=True)
class TangencyReport:
    deviations: tuple         # per-seed sup of |r - r0| (or |N - N0|)
    max_deviation: float
    span: float
    runs: tuple               # per-seed RunSummary
    tol: float                # integrator tolerance (atol = rtol)

    @property
    def statuses(self):
        return tuple(run.status for run in self.runs)


# Photon-sphere orbits amplify local error by e^(N span / r), so the local
# error must sit near the roundoff floor.  Over a span of 100, 32 seeds
# leave the m = 1 sphere by 3.2e-8 at 1e-14, 3.7e-8 at 1e-15, 2.0e-8 at
# 1e-16 (60 loop iterations) and 7.2e-9 at 1e-17 (204).
TANGENCY_TOL = 1e-16


def tangency_persistence(spacetime, surface, seeds, span, tol=TANGENCY_TOL):
    """Integrate tangent null seeds and report the worst surface deviation.

    ``surface`` is a cylinder hypersurface; deviation is |r - r0| when it
    is parameterized by radius and |N - N0| for lapse level sets.  All
    seeds are integrated as one in-plane batch, and only the running sup
    of each seed's deviation is kept, with each seed's RunSummary.

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
    return TangencyReport(deviations, max(deviations), span, tuple(runs), tol)
