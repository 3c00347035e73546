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

The stepping loop advances one trajectory, its state and stages held as
6 Python floats: every tangent null geodesic of a radial cylinder is a
rotation of one in-plane orbit, so ``tangency_persistence`` integrates
that orbit alone.  A sum over stages visits only the 74 nonzero weights
of the 102-entry tableau, as (stage, weight) pairs taken from it once at
import; the 11 stage sums run inline in the stage loop, and each stage
state is built directly as the 6 floats y + h s.  Each such sum, and the
sum over the 6 components of the error norm, is an explicit loop added
left to right from 0.0 (not the builtin sum, which compensates its
rounding from Python 3.12 on), so a rerun reproduces its outputs byte
for byte on any interpreter.  Where a
profile value is not real, not finite or outside a table, the step sees a
non-finite stage and shrinks.  The tests compare each run with a scalar
DOP853 loop in the (theta, phi) chart: the same status, and a completed
run's end row to 1e-6, angles modulo 2 pi.
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
# trajectory falling from r = 2.5m crawls there in steps near 1e-10 and needs
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


@dataclass(frozen=True)
class GeodesicState:
    """Phase-space point of a geodesic; an integration starts it at
    affine parameter 0."""

    position: ChartPoint
    velocity: tuple


@dataclass(frozen=True)
class RunSummary:
    """How a trajectory ended and what its stepping cost."""

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
    # a zero rate about the polar axis stays 0 where rho^2 underflows
    lz = x * dy - y * dx
    vph = np.divide(lz, rho * rho, out=lz, where=lz != 0.0)
    return np.column_stack((lam, t, r, np.arctan2(rho, z),
                            ph0 + np.unwrap(np.arctan2(y, x)), vt, vr, vth, vph))


def _factors(profile, r):
    """(A, A', B, B') at the float radius r, as floats; all four are nan
    where the profile raises (a radius outside a table, a division by zero)
    or a value is not real."""
    try:
        return tuple(map(float, profile.metric_factors_d1(r)))
    except (ArithmeticError, ValueError, TypeError):
        return (math.nan,) * 4


def _rhs(profile, y, factors=None):
    """Geodesic right-hand side for -A dt^2 + B dr^2 + r^2 dpsi^2 at the
    in-plane state ``y``; a division by zero gives nan accelerations.
    ``factors`` are ``_factors`` at the radius of ``y``, evaluated here as
    ``_factors`` does when not given."""
    t, r, psi, vt, vr, vpsi = y
    if factors is None:
        try:
            a, ap, b, bp = map(float, profile.metric_factors_d1(r))
        except (ArithmeticError, ValueError, TypeError):
            a = ap = b = bp = math.nan
    else:
        a, ap, b, bp = factors
    try:
        at = -(ap / a) * vt * vr
        ar = (-0.5 * ap / b * vt * vt - 0.5 * bp / b * vr * vr
              + (r / b) * (vpsi * vpsi))
        apsi = -2.0 * (vr / r) * vpsi
    except ZeroDivisionError:
        at = ar = apsi = math.nan
    return (vt, vr, vpsi, at, ar, apsi)


def null_project(profile, y, prev_vt_sign=1.0):
    """Re-solve tdot from g(v,v) = 0, keeping the spatial direction.

    Returns the projected in-plane state as a tuple of floats, the
    pre-projection constraint value and the ``_factors`` (A, A', B, B') at
    its radius, which ``_rhs`` of the projected state reuses; with no real
    null direction (A = 0 included) tdot is nan.
    """
    t, r, psi, vt, vr, vpsi = y
    factors = _factors(profile, r)
    a, _, b, _ = factors
    spatial = b * vr * vr + r * r * (vpsi * vpsi)
    residual = -a * vt * vt + spatial
    sign = math.copysign(1.0, vt) if vt != 0.0 else prev_vt_sign
    try:
        vt_new = sign * math.sqrt(spatial / a)
    except (ZeroDivisionError, ValueError):
        vt_new = math.nan
    return (t, r, psi, vt_new, vr, vpsi), residual, factors


def _nonzero(weights):
    """The (stage index, weight) pairs of ``weights`` whose weight is not 0."""
    return tuple((j, w) for j, w in enumerate(weights) if w)


# The sums of a step visit only these pairs: a sum that starts at +0.0
# never reads -0.0, so adding 0 times a finite stage would leave it as it is
_A_NZ = tuple(map(_nonzero, _A))
_B_NZ, _E5_NZ, _E3_NZ = map(_nonzero, (_B, _E5, _E3))


def _weighted(pairs, stages):
    """The 6 components of sum_j w_j stages[j] over the (j, w_j) ``pairs``,
    each added left to right from 0.0."""
    s0 = s1 = s2 = s3 = s4 = s5 = 0.0
    for j, w in pairs:
        k0, k1, k2, k3, k4, k5 = stages[j]
        s0 += w * k0
        s1 += w * k1
        s2 += w * k2
        s3 += w * k3
        s4 += w * k4
        s5 += w * k5
    return s0, s1, s2, s3, s4, s5


def _dop853_step(profile, y, h, f, atol, rtol):
    """One DOP853 step of size h from f = rhs(y), on 6 floats.

    Returns the eighth-order increment, the error norm and whether a stage
    was not real or not finite; then the increment and the norm are 0.  The
    norm is Hairer's combination of the fifth- and third-order estimates e5
    and e3, each scaled by atol + rtol max(|y|, |y + increment|) and summed
    over the 6 components: |e5|^2 / sqrt(6 (|e5|^2 + 0.01 |e3|^2)), or 0
    where that is 0 / 0.
    """
    if not all(map(math.isfinite, f)):
        return [0.0] * 6, 0.0, True
    y0, y1, y2, y3, y4, y5 = y
    stages = [f]
    for row in _A_NZ[1:]:
        s0 = s1 = s2 = s3 = s4 = s5 = 0.0
        for j, w in row:
            k0, k1, k2, k3, k4, k5 = stages[j]
            s0 += w * k0
            s1 += w * k1
            s2 += w * k2
            s3 += w * k3
            s4 += w * k4
            s5 += w * k5
        stage = _rhs(profile, (y0 + h * s0, y1 + h * s1, y2 + h * s2,
                               y3 + h * s3, y4 + h * s4, y5 + h * s5))
        if not all(map(math.isfinite, stage)):
            return [0.0] * 6, 0.0, True
        stages.append(stage)
    incr = []
    e5_sq = e3_sq = 0.0
    for yc, b, e5, e3 in zip(y, _weighted(_B_NZ, stages),
                             _weighted(_E5_NZ, stages),
                             _weighted(_E3_NZ, stages)):
        ic = h * b
        # |y + incr| first: max keeps a nan first argument, and y + incr is
        # nan where y is, so the scale is nan where either is
        scale = atol + rtol * max(abs(yc + ic), abs(yc))
        e5, e3 = h * e5 / scale, h * e3 / scale
        e5_sq += e5 * e5
        e3_sq += e3 * e3
        incr.append(ic)
    denom = math.sqrt(6.0 * (e5_sq + 0.01 * e3_sq))
    return incr, (0.0 if denom == 0.0 else e5_sq / denom), False


def _integrate_plane(profile, y0, span, tol):
    """Integrate the in-plane null state ``y0`` over [0, span] with DOP853.

    A step is accepted where its error norm is at most 1, and the next step
    is scaled by 0.9 norm^(-1/8), clipped to [0.2, 5].  A stage at which
    the profile is not real or not finite shrinks the step by 4.  The
    trajectory ends in "domain-exit" when an accepted step has r within a
    relative DOMAIN_GUARD_RTOL of r_min or A = N^2 <= DOMAIN_GUARD_RTOL, or
    when its step underflows after a failed stage with no step accepted
    since; a step underflows below 1e-14 of the span, so the floor scales
    with the orbit.

    Returns the rows (lambda, t, r, psi, vt, vr, vpsi) of the projected
    initial state and of every accepted step, the pre-projection |g(v, v)|
    of each row and the RunSummary; raises ValueError unless ``span`` is
    finite and positive, ``tol`` is finite and positive and ``y0`` is null
    with a spatial direction (vr and vpsi not both 0).
    """
    if not (math.isfinite(span) and span > 0.0):
        raise ValueError(f"span must be finite and positive, got {span!r}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    y0 = tuple(map(float, y0))
    # numpy inside a profile may meet values that are not real
    with np.errstate(all="ignore"):
        y, res0, factors = null_project(profile, y0)
    profile.check_point(y0[1])
    moved = abs(y[3] - y0[3])
    if not math.isfinite(moved):
        raise ValueError(f"no real null direction at r = {y0[1]:.6g}")
    if moved > math.sqrt(TOL_NULL) * (max(map(abs, y0[3:])) or 1.0):
        raise ValueError(f"initial velocity is not null (projection moved "
                         f"tdot by {moved:.3e})")
    if y[4] == 0.0 and y[5] == 0.0:
        raise ValueError("initial velocity has no spatial direction")
    rows, residuals = [(0.0, *y)], [abs(res0)]

    r_stop = profile.r_min * (1.0 + DOMAIN_GUARD_RTOL) if profile.r_min > 0 else 0.0
    # stop at r <= r_stop (1 + 1e-12), or at r < 1e-9 when there is no r_min
    r_exit = r_stop * (1.0 + 1e-12) if r_stop > 0.0 else math.nextafter(1e-9, 0.0)
    h_floor = 1e-14 * span
    atol = rtol = tol
    lam, step, taken, h_min = 0.0, 0, 0, math.inf   # step: attempted steps
    halted = False     # reached the domain edge
    with np.errstate(all="ignore"):
        f = _rhs(profile, y, factors)
        # a profile value failed since the last accepted step
        failed = not all(map(math.isfinite, f))
        # numpy's max, which reads nan where an entry is nan
        d0, d1 = float(np.max(np.abs(y))), float(np.max(np.abs(f)))
        h = 0.01 * (d0 if d0 != 0.0 else 1.0) / (d1 if d1 != 0.0 else 1.0)
        if span < h:
            h = span
        while True:
            # the checks that open a step, in order
            if span - lam < h:
                h = span - lam
            if halted:
                end = ("domain-exit", f"domain edge at r = {y[1]:.6g}")
                break
            if not lam < span:
                end = ("completed", "")
                break
            if step >= MAX_STEPS:
                end = ("stiff", "max step count reached")
                break
            if not h >= h_floor:
                end = (("domain-exit", "profile not real or finite "
                        f"near r = {y[1]:.6g}") if failed
                       else ("stiff", "step size underflow"))
                break

            incr, enorm, bad = _dop853_step(profile, y, h, f, atol, rtol)
            ok = not bad and enorm <= 1.0
            if ok:
                trial = [yc + ic for yc, ic in zip(y, incr)]
                y_proj, resid, factors = null_project(
                    profile, trial, math.copysign(1.0, trial[3]))
                bad = not math.isfinite(y_proj[3])   # no real null direction
                ok = not bad
            if ok:
                lam += h
                y = y_proj
                taken += 1
                h_min = min(h_min, h)
                rows.append((lam, *y))
                residuals.append(abs(resid))
                halted = y[1] <= r_exit or factors[0] <= DOMAIN_GUARD_RTOL
                f = _rhs(profile, y, factors)
            step += 1
            failed = (failed or bad) and not ok
            # 0.9 enorm^(-1/8) by three square roots: IEEE 754 rounds sqrt
            # correctly, so the factor does not depend on whose power
            # routine runs (numpy's and libm's differ in the last bit)
            factor = (5.0 if enorm == 0.0
                      else 0.9 / math.sqrt(math.sqrt(math.sqrt(enorm))))
            # max before min: a nan factor stays nan, as under numpy's clip
            h = h * (0.25 if bad else min(max(factor, 0.2), 5.0))
    run = RunSummary(*end, taken, step - taken, float(h_min) if taken else None)
    return np.array(rows), np.array(residuals), run


def integrate_null(profile, initial, span, tol=DEFAULT_TOL):
    """Integrate a null geodesic over an affine interval [0, span].

    The initial velocity is projected onto the null cone (rejected if the
    projection moves it by more than sqrt(tol_null) relative).  Terminates
    early with a descriptive status when the domain edge is approached,
    when the profile stops being real or finite, or when the adaptive step
    underflows.  The in-plane samples are rotated back into the chart.
    """
    basis, plane = _into_plane(initial)
    rows, residuals, run = _integrate_plane(profile, plane, span, tol)
    samples = _to_chart(basis, rows)
    lapse = np.asarray(profile.lapse_d1(samples[:, 2])[0], dtype=float)
    return GeodesicTrajectory(samples, -lapse * samples[:, 5], residuals,
                              lapse, run)


def null_state(profile, position, spatial_velocity):
    """Build an exactly null state from a spatial velocity.

    The time component is solved from g(v, v) = 0, future directed.
    """
    vr, vth, vph = spatial_velocity
    _, y = _into_plane(GeodesicState(position, (0.0, vr, vth, vph)))
    with np.errstate(all="ignore"):
        y, _, _ = null_project(profile, y)
    vt = float(y[3])
    if not math.isfinite(vt):
        raise ValueError(f"no real null direction at r = {position.r:.6g}")
    return GeodesicState(position, (vt, vr, vth, vph))


@dataclass(frozen=True)
class ConstancyVerdict:
    constant: bool
    lapse_constant: bool


def energy_constancy_verdict(trajectory):
    """Is the observed energy constant along the trajectory?

    By the constant-energy lemma this must coincide with the lapse being
    constant along the geodesic; both facts are reported so callers can
    assert the equivalence.  Each is constant when its largest distance
    from its mean is below 10 TOL_NULL.
    """
    e, lap = trajectory.energies, trajectory.lapse
    return ConstancyVerdict(float(np.max(np.abs(e - np.mean(e)))) < 10 * TOL_NULL,
                            float(np.max(np.abs(lap - np.mean(lap)))) < 10 * TOL_NULL)


# ---------------------------------------------------------------------------
# Tangency persistence (the defining property of photon surfaces)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TangencyReport:
    max_deviation: float      # sup of |r - r0| along the orbit
    run: RunSummary


# Photon-sphere orbits amplify local error by e^(N span / r), so the local
# error must sit near the roundoff floor.  Over a span of 100, the orbit
# leaves the m = 1 sphere by 3.1e-8 at 1e-14 (18 attempted steps), 9.9e-9
# at 1e-15 (28), 1.4e-8 at 1e-16 (59) and 5.4e-9 at 1e-17 (197).
TANGENCY_TOL = 1e-16


def tangency_persistence(surface, span):
    """Integrate the null geodesic tangent to a radial cylinder and report
    its worst deviation |r - r0| from the surface.

    ``surface`` is a cylinder {r = r0} of its profile.  By spherical
    symmetry every null geodesic tangent to the cylinder, scaled to
    tdot = 1 (one affine unit is one unit of coordinate time), is a
    rotation of one orbit, whose in-plane state is (t, r0, 0, 1, 0, N0/r0);
    that orbit is integrated alone.

    The tolerance, TANGENCY_TOL, is much tighter than elsewhere: circular
    photon orbits are exponentially unstable, so local error injected at
    affine time l is amplified by roughly exp(kappa (span - l)) with
    kappa = N0/r0; resolving deviations at the 1e-5 level over spans of
    order 1e2 requires local errors near the roundoff floor.
    """
    r0 = surface.level_value
    n0 = surface.profile.lapse_d1(r0)[0]
    start = GeodesicState(ChartPoint(0.0, r0, 0.5 * math.pi, 0.0),
                          (1.0, 0.0, n0 / r0, 0.0))
    orbit = integrate_null(surface.profile, start, span, TANGENCY_TOL)
    return TangencyReport(float(np.max(np.abs(orbit.r - r0))), orbit.run)
