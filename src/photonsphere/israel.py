"""Israel-style uniqueness pipeline on a lapse foliation.

The exterior region is foliated by level sets of the lapse N between the
photon-sphere value N0 and a crossover radius, beyond which integrals use
the leading Schwarzschildean asymptotics in closed form (pure quadrature
cannot reach spatial infinity).  The level map u = 1 - N^2 = u0 ratio^s
is geometric in s on [0, 1]: quantities like rho ~ (1-N^2)^-2 blow up
toward N -> 1 like powers of u, which are exponentials in s, smooth over
the whole range.  The levels sit at the Chebyshev points of s, and
transverse derivatives apply the barycentric differentiation matrix of
those points (``quadrature.barycentric_diff_matrix``), spectrally
accurate in the level count.

Per level the pipeline computes leaf geometry (area radius, rho = 1/|nu(N)|,
mean curvature, Gauss curvature).  Every input is a radial profile, so
every leaf is a round sphere {r = r0} and each leaf field is the same at
every point of it: a leaf is sampled at the one point theta = pi/2,
phi = 0, and a leaf integral is the value there times the leaf area.  The
leaf Laplacian and gradient terms of the identities then vanish, and they
are not computed.  Nor is the trace-free norm of the second fundamental
form: at theta = pi/2, where sin^2 theta is 1, the leaf's two principal
curvatures have the same bits, so a round leaf is umbilic exactly.  The
leaf radii of all levels are bisected together (``quadrature.bisect``),
and one ``hypersurfaces.sample`` call (one ``shape``, the lapse gradient
inside it, and one induced ``curvature``) evaluates every leaf as one
(levels,) jet coordinate (see :mod:`.jets`); each of its entries equals
the same leaf evaluated alone bit for bit.  A ``Foliation`` holds each
field as one (levels,) array, and the checks below read the arrays whole.
The pipeline then checks

* the mass flux integral (level independent in vacuum),
* the three transverse identities coupling rho, H and N,
* the pointwise differential inequalities (whose right-left slack is a
  weighted sum of squares, zero exactly on Schwarzschild), and
* the integrated inequality chains with their analytic asymptotic tails,

before reconstructing the lapse from the rigidity ODE u'' = -2 u'/r and
delivering the isometry verdict, the conjunction of ``Gate``s, each of
which applies one bound to the one value it writes.  A gate on a leaf field
reads the field whole and names the level of its sup.

Residuals of identities whose terms vary over many orders of magnitude
are normalized by the largest participating term (floored at one), so a
single tolerance is meaningful across the whole foliation.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import hypersurfaces as hs
from . import quadrature as quad
from .spacetimes import DomainError

TOL_LVL = 1e-5
TAIL_RADIUS_FACTOR = 100.0
RECONSTRUCTION_NODES = 32   # Chebyshev collocation nodes of the rigidity ODE
RECONSTRUCTION_MAX_RATIO = 1e12   # largest r_max/r0 (or r0/r_max) they resolve
RECONSTRUCTION_RADII = 200   # radii of the reconstructed lapse profile
TAIL_REACH = 0.99   # the last leaf must reach this fraction of tail_radius
FLAT_MASS_RATIO = 1e-10   # a mass below this fraction of r is zero at r


class FlatnessError(RuntimeError):
    """Raised for m = 0 inputs: the slice is flat and has no photon sphere."""


def _reject_flat(mass, r, source):
    """Raise FlatnessError when ``mass`` is zero at the length scale r at
    every entry: |m| < FLAT_MASS_RATIO r.  This is the one flatness rule,
    so it holds alike at every mass scale."""
    if np.all(np.abs(mass) < FLAT_MASS_RATIO * np.asarray(r)):
        raise FlatnessError(f"{source}: the slice is flat (zero mass), and "
                            f"flat spacetime has no photon sphere")


def check_not_flat(profile, radii):
    """Raise FlatnessError where the lapse is flat at every radius of
    ``radii``: the Schwarzschild mass r (1 - N^2) / 2 that gives the lapse
    its value N there is zero at that radius (``_reject_flat``)."""
    r = np.asarray(radii, dtype=float)
    n = profile.lapse_d1(r)[0]
    _reject_flat(0.5 * r * (1.0 - n * n), r, f"the lapse is 1 at {r.size} "
                 f"radii in [{r.min():.6g}, {r.max():.6g}]")


def _leaf_block(profile, r_levels):
    """The leaf fields of the levels at radii ``r_levels``, each (levels,):
    sqrt(det sigma), rho, H, nu(N) and the Gauss curvature at
    theta = pi/2, phi = 0.

    Each leaf is the coordinate sphere {r = r0}: its normal is the gradient
    of the lapse, with no tangential component, and its induced metric
    sigma is diag(r0^2, r0^2 sin^2 theta), so at theta = pi/2,
    sqrt(det sigma) = sqrt(sigma_thth) sqrt(sigma_phph) is the leaf area
    over 4 pi.  The roots are taken before the product, so it underflows or
    overflows only where r0^2 does.  ``hs.sample`` runs the DN-floor check;
    a leaf area that is 0 or not finite raises DomainError naming the first
    leaf radius where it is.
    """
    surface = hs.lapse_level_set(profile, r_levels)
    sd, induced = hs.sample(surface)
    sigma = induced.metric_dd
    with np.errstate(all="ignore"):
        sqrt_s = np.sqrt(sigma[..., 0, 0]) * np.sqrt(sigma[..., 1, 1])
        area = 4.0 * math.pi * sqrt_s
    hs.require_finite(surface, "zero or non-finite area",
                      np.isfinite(area) & (area > 0.0))
    # |nu(N)| = |dN|, which ``hs.sample`` checked against the DN floor
    return (sqrt_s, 1.0 / np.abs(sd.normal_rate), sd.mean_curvature,
            sd.normal_rate, 0.5 * induced.scalar)


def build_foliation(profile, n0, levels, tail_radius=None, *, r_hint):
    """Foliate [N0, N(tail_radius)] by lapse level sets.

    ``r_hint`` is the photon-sphere radius, where N = N0; the default
    ``tail_radius`` is TAIL_RADIUS_FACTOR r_hint / 3, which is
    TAIL_RADIUS_FACTOR m on Schwarzschild.  Levels sit at the Chebyshev
    points of s in the geometric level map u = 1 - N^2 = u0 ratio^s (see
    module docstring).  The radii of all levels are bisected at once, in
    one ``quad.bisect`` call on one shared bracket from ``r_hint`` up; the
    leaves are then sampled together, each at its one point.  Raises
    DomainError naming the first level the bracket does not hold or a
    ``tail_radius`` where N is 1 to rounding, and FoliationError when |dN|
    degenerates.
    """
    if tail_radius is None:
        tail_radius = TAIL_RADIUS_FACTOR * r_hint / 3.0

    n_end = float(profile.lapse(tail_radius))
    if abs(n_end - 1.0) < 1e-13:  # N0 < 1 is required below: not a flat slice
        raise DomainError(f"lapse is 1 to within 1e-13 at tail_radius = "
                          f"{tail_radius!r}, so the levels toward it cannot be "
                          f"told apart: choose a smaller tail_radius")
    if not 0.0 < n0 < 1.0 or not n0 < n_end < 1.0:
        raise DomainError(f"invalid lapse range [{n0}, {n_end}]")

    u0, u_end = 1.0 - n0 ** 2, 1.0 - n_end ** 2
    ratio = u_end / u0
    s = quad.chebyshev_nodes(levels, 0.0, 1.0)
    u = u0 * ratio ** s
    n_values = np.sqrt(1.0 - u)
    dn_ds = -u * math.log(ratio) / (2.0 * n_values)

    # the lapse is monotone, so one bracket holds the root of every level
    r_lo, r_hi = r_hint * (1.0 - 1e-12), 1.01 * tail_radius
    try:
        radii = quad.bisect(lambda r: profile.lapse(r) - n_values,
                            np.full(levels, r_lo), np.full(levels, r_hi))
    except ValueError as exc:
        raise DomainError(f"lapse level not bracketed, one bracket per level "
                          f"from N0 = {n0!r}: {exc}") from exc

    return Foliation(s, n_values, radii, dn_ds, *_leaf_block(profile, radii),
                     float(tail_radius))


@dataclass(frozen=True)
class Foliation:
    """Lapse level sets between N0 and N(tail_radius), one entry per level.

    ``s`` (the level nodes, Chebyshev points of [0, 1]), ``N``,
    ``r_coord``, ``dN_ds`` (the exact derivative of the level map N(s),
    which converts derivatives in s into d/dN) and the leaf fields from
    ``sqrt_s`` to ``gauss_k`` are (levels,) arrays.  A leaf field is its
    value at every point of the round leaf, so a leaf integral is that
    value times the leaf area 4 pi ``sqrt_s``.
    """

    s: np.ndarray
    N: np.ndarray
    r_coord: np.ndarray
    dN_ds: np.ndarray
    sqrt_s: np.ndarray        # sqrt(det sigma) at theta = pi/2
    rho: np.ndarray
    H: np.ndarray
    nuN: np.ndarray
    gauss_k: np.ndarray
    tail_radius: float

    def __len__(self):
        return len(self.N)

    @property
    def area(self):
        return 4.0 * math.pi * self.sqrt_s

    @property
    def area_radius(self):
        return np.sqrt(self.sqrt_s)

    def integral(self, values):
        """Int values dmu over every leaf, one value per level."""
        return values * self.area


# ---------------------------------------------------------------------------
# Mass flux
# ---------------------------------------------------------------------------

def mass_flux(foliation):
    """ADM mass as the flux integral (1/4pi) Int nu(N) dmu, one per leaf."""
    return foliation.integral(foliation.nuN) / (4.0 * math.pi)


# ---------------------------------------------------------------------------
# Transverse identities and inequalities
# ---------------------------------------------------------------------------

def _normalized(residual, *terms):
    scale = np.maximum(1.0, np.max(np.abs(np.stack(np.broadcast_arrays(*terms))),
                                   axis=0))
    return np.abs(residual) / scale


@dataclass(frozen=True)
class IdentityResiduals:
    """The normalized residuals of the three identities and of the
    area-element evolution factor, each a (levels,) field: one value per
    level.  ``sup`` is the largest residual of the three identities, nan if
    any of them is nan."""

    res31: np.ndarray
    res32: np.ndarray
    res33: np.ndarray
    evolution: np.ndarray

    def sup(self):
        return float(np.max([self.res31, self.res32, self.res33]))


def _transverse_derivative(foliation, values):
    """d/dN of the leaf values ``values``, one per level: the derivative in
    s of their interpolant through the level nodes, over dN/ds."""
    d = quad.barycentric_diff_matrix(foliation.s)
    return quad.level_derivative(values, d) / foliation.dN_ds


def identity_residuals(foliation, lam):
    """Residuals of the three static-vacuum identities on every level.

    Each residual is normalized by its largest participating term
    (floored at 1), one value per level.  The leaf Laplacian terms
    -(2 / sqrt(rho)) Lap sqrt(rho) and -Lap log(rho) and the sum-of-squares
    bracket |grad rho|^2 / rho^2 + 2 |h_tracefree|^2 vanish on a round,
    umbilic leaf and are left out.
    """
    if len(foliation) < 7:
        raise ValueError("transverse derivatives need at least 7 levels")
    n, rho, h = foliation.N, foliation.rho, foliation.H
    h_n = _transverse_derivative(foliation, h)
    rho_n = _transverse_derivative(foliation, rho)
    ss_n = _transverse_derivative(foliation, foliation.sqrt_s)
    r_sigma = 2.0 * foliation.gauss_k

    t_a1 = (lam / rho) * (h / n)
    t_a2 = -(lam / rho) * h_n
    t_a3 = -0.5 * h ** 2
    res31 = t_a1 + t_a2 + t_a3

    t_b1 = (lam / rho) * (3.0 * h / n)
    t_b2 = -(lam / rho) * h_n
    t_b3 = -r_sigma
    res32 = t_b1 + t_b2 + t_b3

    t_c1 = rho_n
    t_c2 = -lam * rho ** 2 * h

    t_e1 = ss_n
    t_e2 = -lam * foliation.sqrt_s * h * rho
    return IdentityResiduals(_normalized(res31, t_a1, t_a2, t_a3),
                             _normalized(res32, t_b1, t_b2, t_b3),
                             _normalized(t_c1 + t_c2, t_c1, t_c2),
                             _normalized(t_e1 + t_e2, t_e1, t_e2))


@dataclass(frozen=True)
class InequalitySlacks:
    """Pointwise and integrated slack (RHS - LHS >= 0) of the inequality chain.

    ``slack34`` (over sqrt(r0), so dimensionless) and ``slack35`` are
    (levels,) fields, ``sup34``/``sup35`` their largest |slack|.  The
    integrated chains are evaluated both through the leaf integrals +
    asymptotic-tail route (``chain36``, ``chain38``) and in their
    simplified boundary forms (``ineq37``, ``ineq39``).
    """

    slack34: np.ndarray
    slack35: np.ndarray
    chain36: float
    ineq37: float
    chain38: float
    ineq39: float

    def sup34(self):
        return float(np.max(np.abs(self.slack34)))

    def sup35(self):
        return float(np.max(np.abs(self.slack35)))


def inequality_slacks(foliation, lam, mass):
    """Slacks of the pointwise and integrated inequalities on a foliation.

    Pointwise: slack = RHS - LHS of the two differential inequalities,
    which equals a positive multiple of the sum-of-squares bracket when
    the identities hold; that bracket and the leaf Laplacian terms vanish
    on a round, umbilic leaf, so the slack is zero where the identities
    hold.  Integrated: the asymptotic ends are replaced by their
    closed-form limits (H -> 2/r, rho -> r^2/|m|), giving 8 pi sqrt|m| for
    the first chain and 0 for the second.
    """
    if len(foliation) < 8:
        raise ValueError("inequality integration needs a dense foliation")
    sqrt_s, h, rho, n = foliation.sqrt_s, foliation.H, foliation.rho, foliation.N
    p_n = _transverse_derivative(foliation, sqrt_s * h * lam / (np.sqrt(rho) * n))
    q_n = _transverse_derivative(foliation,
                                 sqrt_s / rho * (h * n + 4.0 * lam / rho))
    r_sigma = 2.0 * foliation.gauss_k
    n0 = float(foliation.N[0])
    r0 = float(foliation.area_radius[0])
    # slack34 has units of length^(1/2): over sqrt(r0) it is dimensionless
    s34 = -p_n / math.sqrt(r0)
    s35 = -n * sqrt_s * r_sigma - q_n

    h0 = float(h[0])
    f_n0 = float(foliation.integral(h / np.sqrt(rho))[0]) / n0
    f_inf = 8.0 * math.pi * math.sqrt(abs(mass))
    chain36 = lam * (f_n0 - f_inf) / f_inf
    ineq37 = lam * (r0 * h0 - 2.0 * n0)

    g_n0 = float(foliation.integral((h * n0 + 4.0 * lam / rho) / rho)[0])
    chain38 = (g_n0 - 4.0 * math.pi * (1.0 - n0 ** 2)) / (4.0 * math.pi)
    ineq39 = abs(mass) * (h0 * n0 + 4.0 * mass / r0 ** 2) - (1.0 - n0 ** 2)
    return InequalitySlacks(s34, s35, chain36, ineq37, chain38, ineq39)


# ---------------------------------------------------------------------------
# Global sign and boundary constraints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GlobalSign:
    lam: int
    consistent: bool
    exclusion_slack: float       # (6 lam + 3) m^2 / r0^2 - 1, >= 0 required
    exclusion_equality: bool
    negative_branch_contradiction: bool


def sign_analysis(foliation, mass, frak_h, tol):
    """Global sign lambda and the exclusion of the negative branch.

    lambda = sign(nu(N)) must agree with sign(m), sign(frakH), sign(H0).
    The bound r0^2 <= (6 lam + 3) m^2 is then evaluated on both branches,
    its slack as the dimensionless (6 lam + 3) m^2 / r0^2 - 1; for lam = -1
    it reads r0^2 <= -3 m^2, a contradiction.  A mass that is
    zero at the photon-sphere area radius r0 (``_reject_flat``) raises
    FlatnessError.
    """
    r0 = float(foliation.area_radius[0])
    _reject_flat(mass, r0, f"the mass flux {float(mass):.3g} vanishes")
    lam = int(np.sign(foliation.nuN[0]))
    signs = np.sign([mass, frak_h, foliation.H[0]])
    slack = (6.0 * lam + 3.0) * (mass / r0) ** 2 - 1.0
    return GlobalSign(lam, bool(np.all(signs == lam)), slack, abs(slack) <= tol,
                      (6.0 * -1 + 3.0) * mass ** 2 < 0.0 <= r0 ** 2)


@dataclass(frozen=True)
class BoundaryConstraints:
    """Residuals of the closed-form relations at the photon-sphere level."""

    n0: float
    r0: float
    h0: float
    nuN0: float
    frak_h: float
    mass_from_frakH: float
    gauss_constraint: float      # |4 N0 - 4 m H0 - r0^2 N0 H0^2|
    frakH_r0: float              # |frakH r0 - sqrt(3)|
    n0_mass_frakH: float         # |N0 - m frakH|
    n0_schwarzschild: float      # |N0^2 - (1 - 2m/r0)|
    h0_relation: float           # |H0 - 2 N0 / r0|
    scalar_cross: float          # |R_sigma - (2/3) frakH^2|
    scalar_p_cross: float        # |R_p - (2/3) frakH^2|


def boundary_constraints(profile, foliation, mass):
    """The closed-form relations at the photon-sphere level, on the
    lambda = 1 branch that ``sign_analysis`` leaves."""
    fol = foliation
    n0 = float(fol.N[0])
    r0 = float(fol.area_radius[0])
    h0 = float(fol.H[0])
    nu0 = float(fol.nuN[0])
    r_sigma = 2.0 * float(fol.gauss_k[0])

    sd, induced = hs.sample(hs.cylinder(profile, fol.r_coord[0]))
    frak_h = float(sd.mean_curvature)
    r_p = float(induced.scalar)

    expected_scal = (2.0 / 3.0) * frak_h ** 2
    return BoundaryConstraints(
        n0=n0, r0=r0, h0=h0, nuN0=nu0, frak_h=frak_h,
        mass_from_frakH=1.0 / (math.sqrt(3.0) * frak_h),
        gauss_constraint=abs(4.0 * n0 - 4.0 * mass * h0 - r0 ** 2 * n0 * h0 ** 2),
        frakH_r0=abs(frak_h * r0 - math.sqrt(3.0)),
        n0_mass_frakH=abs(n0 - mass * frak_h),
        n0_schwarzschild=abs(n0 ** 2 - (1.0 - 2.0 * mass / r0)),
        h0_relation=abs(h0 - 2.0 * n0 / r0),
        scalar_cross=abs(r_sigma - expected_scal),
        scalar_p_cross=abs(r_p - expected_scal),
    )


# ---------------------------------------------------------------------------
# Lapse reconstruction from the rigidity ODE
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReconstructionResult:
    """Collocation solution of u'' = -2u'/r (u = N^2) and its closed form.

    The ODE is solved on [r0, r_max] from u(r0) = N0^2 and u'(r0) = 2m/r0^2,
    the slope the mean-curvature relation H = 2m/(r^3 N') pins at the
    boundary, by Chebyshev collocation in s = log r; ``lapse_profile`` is
    sqrt(u) at the radii ``r_grid``.  A least-squares fit over the solution
    then recovers u = A + B/r.  With the asymptotic condition N -> 1
    imposed, A must come out 1 and B = -2m.
    """

    a_ode: float
    b_ode: float
    a_closed: float
    b_closed: float
    sup_deviation: float     # against sqrt(1 - 2m/r) on [r0, r_max]
    r_grid: np.ndarray
    lapse_profile: np.ndarray


def reconstruct_lapse(mass, n0, r0, r_max):
    """Solve the rigidity ODE and fit the Schwarzschild constants.

    In s = log r the ODE reads u_ss + u_s = 0.  It is collocated on
    ``RECONSTRUCTION_NODES`` Chebyshev points of [log r0, log r_max], with
    the rows of the two end nodes replaced by the conditions u(s0) = N0^2
    and u_s(s0) = r0 u'(r0) (Trefethen, Spectral Methods in MATLAB, ch. 6
    and 13), and the solution is interpolated barycentrically onto
    ``RECONSTRUCTION_RADII`` radii spaced geometrically over [r0, r_max].
    The unknown is u - N0^2, which starts at zero, so that the constant
    solution of m = 0 comes out exact.

    The nodes resolve e^{-s} to about 1e-13 only while |log(r_max/r0)| <=
    log(RECONSTRUCTION_MAX_RATIO), and a wider range raises ValueError.
    The one caller, ``run_israel_pipeline``, passes the photon-sphere leaf's
    N0 in (0, 1) and area radius r0 > 0, and the tail radius as r_max > r0.
    """
    if abs(math.log(r_max / r0)) > math.log(RECONSTRUCTION_MAX_RATIO):
        raise ValueError(
            f"radius ratio r_max/r0 = {r_max / r0:.6g} is outside "
            f"[{1.0 / RECONSTRUCTION_MAX_RATIO:g}, {RECONSTRUCTION_MAX_RATIO:g}], "
            f"the range {RECONSTRUCTION_NODES} collocation nodes resolve")

    u0 = n0 ** 2
    du0 = 2.0 * mass / r0 ** 2
    s = quad.chebyshev_nodes(RECONSTRUCTION_NODES, math.log(r0), math.log(r_max))
    d = quad.barycentric_diff_matrix(s)
    system = d @ d + d
    rhs = np.zeros(RECONSTRUCTION_NODES)
    system[0] = 0.0
    system[0, 0] = 1.0
    system[-1] = d[0]
    rhs[-1] = r0 * du0
    w = np.linalg.solve(system, rhs)
    r_grid = np.geomspace(r0, r_max, RECONSTRUCTION_RADII)
    u = u0 + quad.barycentric_interpolate(s, w, np.log(r_grid))

    basis = np.stack([np.ones_like(r_grid), 1.0 / r_grid], axis=1)
    coef, *_ = np.linalg.lstsq(basis, u, rcond=None)
    a_ode, b_ode = float(coef[0]), float(coef[1])
    b_closed = -du0 * r0 ** 2
    a_closed = u0 - b_closed / r0

    lapse = np.sqrt(np.clip(u, 0.0, None))
    target = np.sqrt(np.clip(1.0 - 2.0 * mass / r_grid, 0.0, None))
    sup_dev = float(np.max(np.abs(lapse - target)))
    return ReconstructionResult(a_ode, b_ode, a_closed, b_closed, sup_dev,
                                r_grid, lapse)


# ---------------------------------------------------------------------------
# Report assembly and the rigidity verdict
# ---------------------------------------------------------------------------

_BOUNDS = {"<": operator.lt, ">=": operator.ge, ">": operator.gt}


@dataclass(frozen=True)
class Gate:
    """One verdict gate: ``passed`` is ``value <bound> threshold``, with
    ``bound`` one of ``<`` (the default), ``>=`` and ``>``, so a nan value
    fails every gate.  ``level`` is the foliation level where a sup was
    attained, None for a gate that is not a sup over levels."""

    name: str
    value: float
    threshold: float
    bound: str = "<"
    structural: bool = False
    level: int = None

    @property
    def passed(self):
        return bool(_BOUNDS[self.bound](self.value, self.threshold))

    @property
    def margin(self):
        """value / threshold, None where the threshold is not positive."""
        return self.value / self.threshold if self.threshold > 0 else None


def _field_gate(name, tol, *fields):
    """The ``< tol`` gate on the sup of |field| over (levels,) leaf fields,
    at its first argmax: ties go to the first level, then the first field,
    and a nan counts as the largest."""
    stacked = np.abs(np.stack(fields, axis=1))
    level, k = np.unravel_index(np.argmax(stacked), stacked.shape)
    return Gate(name, float(stacked[level, k]), tol, level=int(level))


@dataclass(frozen=True)
class IsraelReport:
    """The pipeline's results.  ``reconstruction`` is the one rigidity
    solve of the run, from the flux mass, which the ``reconstruction`` gate
    reads."""

    mass: float
    flux_by_level: tuple
    boundary: BoundaryConstraints
    identities: IdentityResiduals
    slacks: InequalitySlacks
    sign: GlobalSign
    foliation: Foliation
    reconstruction: ReconstructionResult
    gates: tuple
    verdict: str          # "isometric" | "not-isometric" | "inconclusive"
    tol: float


def run_israel_pipeline(profile, n0, r_ps, levels, tail_radius, tol):
    """Full proof-chain verification on a located photon sphere.

    Raises FlatnessError for m = 0 inputs (flat slice).  Returns an
    IsraelReport whose verdict is the conjunction of the gate list.
    """
    check_not_flat(profile, (r_ps, 10.0 * r_ps))
    foliation = build_foliation(profile, n0, levels, tail_radius, r_hint=r_ps)

    fluxes = mass_flux(foliation)
    mass = float(fluxes[0])
    bnd = boundary_constraints(profile, foliation, mass)
    sign = sign_analysis(foliation, mass, bnd.frak_h, tol)
    ids = identity_residuals(foliation, sign.lam)
    slacks = inequality_slacks(foliation, sign.lam, mass)
    recon = reconstruct_lapse(mass, bnd.n0, bnd.r0,
                              r_max=foliation.tail_radius)

    # relative to the mass, so the gate reads the same at every mass scale
    flux_spread = float(np.max(fluxes) - np.min(fluxes)) / abs(mass)
    n_in_range = (float(np.min(foliation.N)) >= n0 - 1e-12
                  and float(np.max(foliation.N)) < 1.0)

    gates = (
        _field_gate("identities", tol, ids.res31, ids.res32, ids.res33),
        _field_gate("evolution-factor", tol, ids.evolution),
        _field_gate("sharpness-34", tol, slacks.slack34),
        _field_gate("sharpness-35", tol, slacks.slack35),
        Gate("sharpness-36-chain", abs(slacks.chain36), tol),
        Gate("sharpness-37", abs(slacks.ineq37), tol),
        Gate("sharpness-38-chain", abs(slacks.chain38), tol),
        Gate("sharpness-39", abs(slacks.ineq39), tol),
        Gate("H-positive", float(np.min(foliation.H)), 0.0, ">"),
        Gate("sign-consistency", 0.0 if sign.consistent else 1.0, 0.5),
        Gate("lambda-exclusion", sign.exclusion_slack, -tol, ">="),
        Gate("flux-level-independence", flux_spread, 100 * 1e-8),
        Gate("N-range", 0.0 if n_in_range else 1.0, 0.5),
        Gate("reconstruction", recon.sup_deviation, tol),
        Gate("tail", float(foliation.r_coord[-1]) / foliation.tail_radius,
             TAIL_REACH, ">=", structural=True),
    )
    failed = {g.structural for g in gates if not g.passed}
    verdict = ("inconclusive" if True in failed
               else "not-isometric" if failed else "isometric")
    return IsraelReport(mass, tuple(fluxes.tolist()), bnd, ids, slacks, sign,
                        foliation, recon, gates, verdict, tol)
