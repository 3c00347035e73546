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
mean curvature, trace-free norm, Gauss curvature).  The leaf radii of all
levels are bisected together (``quadrature.bisect``) and the leaves
evaluated in stacked blocks: the radii of a block are one (levels, 1) jet
coordinate against the (n_theta,) Gauss-Legendre theta axis, and phi is
the one coordinate 0: every input is a radial profile, so no leaf field
depends on phi.  One ``shape``, one lapse gradient and one induced
``curvature`` call cover a block (see :mod:`.jets`).  A block holds at most
``BLOCK_ROWS`` (levels x theta) rows, which bounds the memory its jets
take, and each of its entries equals the same leaf evaluated alone bit for
bit.  A ``Foliation`` holds each field as one (levels, n_theta) stack, and
the checks below read the stacks whole; leaf integrals take every level in
one ``quadrature.sphere_integral`` call.  The pipeline then checks

* the mass flux integral (level independent in vacuum),
* the three transverse identities coupling rho, H and N,
* the pointwise differential inequalities (whose right-left slack is a
  weighted sum of squares, zero exactly on Schwarzschild), and
* the integrated inequality chains with their analytic asymptotic tails,

before reconstructing the lapse from the rigidity ODE u'' = -2 u'/r and
delivering the isometry verdict.

Residuals of identities whose terms vary over many orders of magnitude
are normalized by the largest participating term (floored at one), so a
single tolerance is meaningful across the whole foliation.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import hypersurfaces as hs
from . import quadrature as quad
from .calculus import curvature
from .spacetimes import DomainError

TOL_LVL = 1e-5
TAIL_RADIUS_FACTOR = 100.0
RECONSTRUCTION_NODES = 32   # Chebyshev collocation nodes of the rigidity ODE
RECONSTRUCTION_MAX_RATIO = 1e12   # largest r_max/r0 (or r0/r_max) they resolve
RECONSTRUCTION_RADII = 200   # radii of the reconstructed lapse profile
TAIL_REACH = 0.99   # the last leaf must reach this fraction of tail_radius
BLOCK_ROWS = 1024   # (levels x theta) rows of one stacked leaf evaluation
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


def _leaf_block(spacetime, r_levels, theta, weights):
    """The area of each leaf of a block of levels and all leaf fields at the
    theta nodes and phi = 0, each (levels, n_theta).

    Each leaf is the coordinate sphere {r = r0}: its normal is the gradient
    of the lapse, with no tangential component, and its induced metric is
    diag(r0^2, r0^2 sin^2 theta).  ``shape`` runs the DN-floor check.
    """
    n_levels = len(r_levels)
    point = (theta, 0.0)
    surface = hs.lapse_level_set(spacetime, r_levels[:, None])
    sd = hs.shape(surface, point)
    # nu(N) from the lapse gradient the level-set normal was built from;
    # |nu(N)| = |dN|, which ``shape`` has checked against the DN floor
    nuN = np.einsum("...a,...a->...", sd.normal_u, sd.level_gradient)

    sigma = sd.metric_dd[..., 1:, 1:]
    det_sigma = sigma[..., 0, 0] * sigma[..., 1, 1] - sigma[..., 0, 1] ** 2
    sqrt_s = np.sqrt(det_sigma)
    jac = sqrt_s / np.sin(theta)
    area = quad.sphere_integral(jac, weights)

    gauss_k = 0.5 * curvature(surface.induced_sampler(), point).scalar
    # a field that reads no theta has one value per level: give it a row
    return area, *(np.broadcast_to(f, (n_levels, len(theta)))
                   for f in (jac, sqrt_s, 1.0 / np.abs(nuN), sd.mean_curvature,
                             nuN, sd.tracefree_norm, gauss_k))


def build_foliation(spacetime, n0, levels, n_theta, tail_radius=None,
                    r_hint=None):
    """Foliate [N0, N(tail_radius)] by lapse level sets.

    Levels sit at the Chebyshev points of s in the geometric level map
    u = 1 - N^2 = u0 ratio^s (see module docstring).  The radii of all
    levels are bisected at once, in one ``quad.bisect`` call on one shared
    bracket; the leaves are then sampled at ``n_theta`` Gauss-Legendre theta
    nodes in blocks of at most ``BLOCK_ROWS`` (levels x theta) rows.  Raises
    DomainError naming the first level the bracket does not hold or a
    ``tail_radius`` where N is 1 to rounding, and FoliationError when |dN|
    degenerates.
    """
    profile = spacetime.profile
    mass_scale = abs(profile.mass_hint) if profile.mass_hint else None
    if tail_radius is None:
        base = mass_scale if mass_scale else (r_hint or 1.0) / 3.0
        tail_radius = TAIL_RADIUS_FACTOR * base

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
    r_lo = r_hint if r_hint else profile.r_min * (1.0 + 1e-6) + 1e-12
    r_lo, r_hi = r_lo * (1.0 - 1e-12), 1.01 * tail_radius
    try:
        radii = quad.bisect(lambda r: profile.lapse(r) - n_values,
                            np.full(levels, r_lo), np.full(levels, r_hi))
    except ValueError as exc:
        raise DomainError(f"lapse level not bracketed, one bracket per level "
                          f"from N0 = {n0!r}: {exc}") from exc

    theta, x, w = quad.sphere_grid(n_theta)
    per_block = max(1, BLOCK_ROWS // n_theta)
    blocks = [_leaf_block(spacetime, radii[k:k + per_block], theta, w)
              for k in range(0, levels, per_block)]
    area, *fields = (np.concatenate(parts) for parts in zip(*blocks))
    return Foliation(s, n_values, radii, dn_ds, area, *fields, x, w,
                     float(tail_radius))


@dataclass(frozen=True)
class Foliation:
    """Lapse level sets between N0 and N(tail_radius), stacked over levels.

    ``s`` (the level nodes, Chebyshev points of [0, 1]), ``N``,
    ``r_coord``, ``dN_ds`` (the exact derivative of the level map N(s),
    which converts derivatives in s into d/dN) and ``area`` hold one value
    per level.  The leaf fields from ``jacobian`` to ``gauss_k`` are
    (levels, n_theta): one value per level and Gauss-Legendre theta node,
    since no leaf field of a radial profile depends on phi.  Integrals and
    means take every leaf at once, through the (n_theta,) ``weights`` of
    ``quadrature.sphere_integral``; means are area-weighted.
    """

    s: np.ndarray
    N: np.ndarray
    r_coord: np.ndarray
    dN_ds: np.ndarray
    area: np.ndarray
    jacobian: np.ndarray      # sqrt(det sigma)/sin(theta) at nodes
    sqrt_s: np.ndarray        # sqrt(det sigma) at nodes
    rho: np.ndarray
    H: np.ndarray
    nuN: np.ndarray
    tracefree: np.ndarray     # |h_tracefree| at nodes
    gauss_k: np.ndarray
    x_nodes: np.ndarray
    weights: np.ndarray
    tail_radius: float

    def __len__(self):
        return len(self.N)

    @property
    def area_radius(self):
        return np.sqrt(self.area / (4.0 * math.pi))

    def integral(self, nodes):
        """Int nodes dmu over every leaf, one value per level."""
        return quad.sphere_integral(self.jacobian * nodes, self.weights)

    def mean(self, nodes):
        return self.integral(nodes) / self.area

    def std(self, nodes):
        var = self.integral((nodes - self.mean(nodes)[:, None]) ** 2) / self.area
        return np.sqrt(np.maximum(var, 0.0))

    def reaches_tail(self):
        return bool(self.r_coord[-1] >= TAIL_REACH * self.tail_radius)


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


def _sup_nodes(nodes):
    """Largest value of a stacked leaf field on each level and the theta row
    (Gauss-Legendre index) of its first argmax there."""
    k = np.argmax(nodes, axis=1)
    return nodes[np.arange(len(nodes)), k], k


def _min_max_nodes(nodes):
    """Per-level (min, max) of a stacked leaf field, one row per level, and
    the theta node of each."""
    (neg_lo, k_lo), (hi, k_hi) = _sup_nodes(-nodes), _sup_nodes(nodes)
    return np.stack([-neg_lo, hi], axis=1), np.stack([k_lo, k_hi], axis=1)


def _sup_position(values, nodes):
    """Level and theta node of the largest |value| of per-level sups.

    ``values`` and ``nodes`` have one row per level (and optionally one
    column per quantity); ties go to the first level, then the first column.
    """
    values = np.abs(np.reshape(values, (len(values), -1)))
    j, k = np.unravel_index(np.argmax(values), values.shape)
    return int(j), int(np.reshape(nodes, values.shape)[j, k])


@dataclass(frozen=True)
class IdentityResiduals:
    """Per-level sups of the normalized residuals of the three identities
    and of the area-element evolution factor.  ``nodes`` has one row per
    level: the theta node of each of those four sups, in that order."""

    res31: np.ndarray
    res32: np.ndarray
    res33: np.ndarray
    evolution: np.ndarray
    nodes: np.ndarray

    def sup(self):
        return float(max(np.max(self.res31), np.max(self.res32),
                         np.max(self.res33)))


def _transverse_derivative(foliation, nodes):
    """d/dN of stacked leaf values ``nodes``, shape (levels, n_theta): the
    derivative in s of their interpolant through the level nodes, over
    dN/ds."""
    d = quad.barycentric_diff_matrix(foliation.s)
    return quad.level_derivative(nodes, d) / foliation.dN_ds[:, None]


def _leaf_terms(foliation):
    """sqrt(rho), its sphere Laplacian, that of log(rho), and the
    sum-of-squares bracket |grad rho|^2 / rho^2 + 2 |h_tracefree|^2, each
    stacked over the leaves."""
    rho, x = foliation.rho, foliation.x_nodes
    r_area = foliation.area_radius[:, None]
    sqrt_rho = np.sqrt(rho)
    lap_sqrt_rho = quad.sphere_laplacian(sqrt_rho, x, r_area)
    lap_log_rho = quad.sphere_laplacian(np.log(rho), x, r_area)
    grad_sq = quad.sphere_grad_sq(rho, x, r_area)
    bracket = grad_sq / rho ** 2 + 2.0 * foliation.tracefree ** 2
    return sqrt_rho, lap_sqrt_rho, lap_log_rho, bracket


def identity_residuals(foliation, lam, terms):
    """Residuals of the three static-vacuum identities on every level.

    Each residual is normalized by its largest participating term
    (floored at 1), evaluated pointwise on the leaf, and reported as the
    per-level sup.  ``terms`` holds ``_leaf_terms`` of the foliation.
    """
    if len(foliation) < 7:
        raise ValueError("transverse derivatives need at least 7 levels")
    n, rho, h = foliation.N[:, None], foliation.rho, foliation.H
    h_n = _transverse_derivative(foliation, h)
    rho_n = _transverse_derivative(foliation, rho)
    ss_n = _transverse_derivative(foliation, foliation.sqrt_s)
    sqrt_rho, lap_sqrt_rho, lap_log_rho, bracket = terms
    r_sigma = 2.0 * foliation.gauss_k

    t_a1 = (lam / rho) * (h / n)
    t_a2 = -(lam / rho) * h_n
    t_a3 = -0.5 * h ** 2
    t_a4 = -(2.0 / sqrt_rho) * lap_sqrt_rho
    t_a5 = -0.5 * bracket
    res31 = t_a1 + t_a2 + t_a3 + t_a4 + t_a5

    t_b1 = (lam / rho) * (3.0 * h / n)
    t_b2 = -(lam / rho) * h_n
    t_b3 = -r_sigma
    t_b4 = -lap_log_rho
    t_b5 = -bracket
    res32 = t_b1 + t_b2 + t_b3 + t_b4 + t_b5

    t_c1 = rho_n
    t_c2 = -lam * rho ** 2 * h

    t_e1 = ss_n
    t_e2 = -lam * foliation.sqrt_s * h * rho
    sups = (_sup_nodes(_normalized(res31, t_a1, t_a2, t_a3, t_a4, t_a5)),
            _sup_nodes(_normalized(res32, t_b1, t_b2, t_b3, t_b4, t_b5)),
            _sup_nodes(_normalized(t_c1 + t_c2, t_c1, t_c2)),
            _sup_nodes(_normalized(t_e1 + t_e2, t_e1, t_e2)))
    values, nodes = (np.stack(c, axis=1) for c in zip(*sups))
    return IdentityResiduals(*values.T, nodes)


@dataclass(frozen=True)
class InequalitySlacks:
    """Pointwise and integrated slack (RHS - LHS >= 0) of the inequality chain.

    ``slack34``/``slack35`` carry per-level (min, max) over the leaf and
    ``nodes34``/``nodes35`` the theta node of each entry; ``bracket_min``
    is the most negative sum-of-squares bracket seen (analytically >= 0).
    The integrated chains are evaluated both through the quadrature +
    asymptotic-tail route (``chain36``, ``chain38``) and in their
    simplified boundary forms (``ineq37``, ``ineq39``).
    """

    slack34: np.ndarray
    slack35: np.ndarray
    nodes34: np.ndarray
    nodes35: np.ndarray
    bracket_min: float
    chain36: float
    ineq37: float
    chain38: float
    ineq39: float

    def sup34(self):
        return float(np.max(np.abs(self.slack34)))

    def sup35(self):
        return float(np.max(np.abs(self.slack35)))


def inequality_slacks(foliation, lam, mass, terms):
    """Slacks of the pointwise and integrated inequalities on a foliation.

    Pointwise: slack = RHS - LHS of the two differential inequalities,
    which equals a positive multiple of the sum-of-squares bracket when
    the identities hold (zero exactly on Schwarzschild data).  Integrated:
    the asymptotic ends are replaced by their closed-form limits
    (H -> 2/r, rho -> r^2/|m|), giving 8 pi sqrt|m| for the first chain
    and 0 for the second.  ``terms`` holds ``_leaf_terms`` of the
    foliation.
    """
    if len(foliation) < 8:
        raise ValueError("inequality integration needs a dense foliation")
    sqrt_s, h, rho = foliation.sqrt_s, foliation.H, foliation.rho
    n = foliation.N[:, None]
    p_n = _transverse_derivative(foliation, sqrt_s * h * lam / (np.sqrt(rho) * n))
    q_n = _transverse_derivative(foliation,
                                 sqrt_s / rho * (h * n + 4.0 * lam / rho))
    _, lap_sqrt_rho, lap_log_rho, bracket = terms
    r_sigma = 2.0 * foliation.gauss_k
    s34, n34 = _min_max_nodes(-2.0 * (sqrt_s / n) * lap_sqrt_rho - p_n)
    s35, n35 = _min_max_nodes(-n * sqrt_s * (lap_log_rho + r_sigma) - q_n)

    n0 = float(foliation.N[0])
    r0 = float(foliation.area_radius[0])
    h0 = float(foliation.mean(h)[0])
    f_n0 = float(foliation.integral(h / np.sqrt(rho))[0]) / n0
    f_inf = 8.0 * math.pi * math.sqrt(abs(mass))
    chain36 = lam * (f_n0 - f_inf) / f_inf
    ineq37 = lam * (r0 * h0 - 2.0 * n0)

    g_n0 = float(foliation.integral((h * n0 + 4.0 * lam / rho) / rho)[0])
    chain38 = (g_n0 - 4.0 * math.pi * (1.0 - n0 ** 2)) / (4.0 * math.pi)
    ineq39 = abs(mass) * (h0 * n0 + 4.0 * mass / r0 ** 2) - (1.0 - n0 ** 2)
    return InequalitySlacks(s34, s35, n34, n35, float(np.min(bracket)),
                            chain36, ineq37, chain38, ineq39)


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
    lam = int(np.sign(foliation.mean(foliation.nuN)[0]))
    signs = np.sign([mass, frak_h, foliation.mean(foliation.H)[0]])
    slack = (6.0 * lam + 3.0) * (mass / r0) ** 2 - 1.0
    negative_bound = (6.0 * -1 + 3.0) * mass ** 2
    return GlobalSign(lam, bool(np.all(signs == lam)),
                      slack, abs(slack) <= tol,
                      negative_bound < 0.0 <= r0 ** 2)


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


def boundary_constraints(spacetime, foliation, mass):
    """The closed-form relations at the photon-sphere level, on the
    lambda = 1 branch that ``sign_analysis`` leaves."""
    fol = foliation
    n0 = float(fol.N[0])
    r0 = float(fol.area_radius[0])
    h0 = float(fol.mean(fol.H)[0])
    nu0 = float(fol.mean(fol.nuN)[0])
    r_sigma = 2.0 * float(fol.mean(fol.gauss_k)[0])

    sd, induced = hs.cylinder_sample(hs.cylinder(spacetime, fol.r_coord[0]))
    frak_h = float(np.mean(sd.mean_curvature))
    r_p = float(np.mean(induced.scalar))

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


def reconstruct_lapse(mass, n0, r0, r_max=None):
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
    """
    if not 0.0 < n0 < 1.0:
        raise ValueError(f"N0 = {n0} outside the maximum-principle range (0, 1)")
    if r0 <= 0.0:
        raise ValueError("r0 must be positive")
    if r_max is None:
        r_max = TAIL_RADIUS_FACTOR * max(abs(mass), r0 / 3.0)
    if r_max == r0:
        raise ValueError("r_max must differ from r0")
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

@dataclass(frozen=True)
class Gate:
    """One verdict gate.  ``level`` is the foliation level where a per-level
    sup was attained, None for gates that are not a sup over levels;
    ``node`` is the theta node (Gauss-Legendre index) of a sup over the
    leaf's nodes at that level, None for gates that are not one."""

    name: str
    value: float
    threshold: float
    passed: bool
    structural: bool = False
    level: int = None
    node: int = None

    @property
    def margin(self):
        """value / threshold, None where the threshold is not positive."""
        return self.value / self.threshold if self.threshold > 0 else None


@dataclass(frozen=True)
class IsraelReport:
    """The pipeline's results.  ``rho_mean``, ``h_mean``, ``rho_std`` and
    ``tracefree_max`` hold the area-weighted mean of rho and H, the standard
    deviation of rho and the sup of the dimensionless trace-free norm
    r_area |h_tracefree| on each leaf, computed once for the gates and the
    written tables."""

    mass: float
    flux_by_level: tuple
    rho_mean: np.ndarray
    h_mean: np.ndarray
    rho_std: np.ndarray
    tracefree_max: np.ndarray
    boundary: BoundaryConstraints
    identities: IdentityResiduals
    slacks: InequalitySlacks
    sign: GlobalSign
    foliation: Foliation
    gates: tuple
    verdict: str          # "isometric" | "not-isometric" | "inconclusive"
    tol: float


def run_israel_pipeline(spacetime, n0, r_ps, levels, n_theta, tail_radius,
                        tol):
    """Full proof-chain verification on a located photon sphere.

    Raises FlatnessError for m = 0 inputs (flat slice).  Returns an
    IsraelReport whose verdict is the conjunction of the gate list.
    """
    check_not_flat(spacetime.profile, (r_ps, 10.0 * r_ps))
    foliation = build_foliation(spacetime, n0, levels, n_theta,
                                tail_radius, r_hint=r_ps)

    fluxes = mass_flux(foliation)
    mass = float(fluxes[0])
    bnd = boundary_constraints(spacetime, foliation, mass)
    sign = sign_analysis(foliation, mass, bnd.frak_h, tol)
    terms = _leaf_terms(foliation)
    ids = identity_residuals(foliation, sign.lam, terms)
    slacks = inequality_slacks(foliation, sign.lam, mass, terms)
    recon = reconstruct_lapse(mass, bnd.n0, bnd.r0,
                              r_max=foliation.tail_radius)

    # r_area |h_tracefree|: dimensionless, as the gate's tol is
    tf_by_level, tf_nodes = _sup_nodes(
        foliation.area_radius[:, None] * foliation.tracefree)
    tf_sup = float(np.max(tf_by_level))
    rho_mean, h_mean = foliation.mean(foliation.rho), foliation.mean(foliation.H)
    rho_std = foliation.std(foliation.rho)
    rho_by_level = rho_std / rho_mean
    rho_std_rel = float(np.max(rho_by_level))
    h_min = float(np.min(h_mean))
    # relative to the mass, so the gate reads the same at every mass scale
    flux_spread = float(np.max(fluxes) - np.min(fluxes)) / abs(mass)
    n_min, n_max = float(np.min(foliation.N)), float(np.max(foliation.N))

    id_level, id_node = _sup_position(
        np.column_stack([ids.res31, ids.res32, ids.res33]), ids.nodes[:, :3])
    ev_level, ev_node = _sup_position(ids.evolution, ids.nodes[:, 3])
    s34_level, s34_node = _sup_position(slacks.slack34, slacks.nodes34)
    s35_level, s35_node = _sup_position(slacks.slack35, slacks.nodes35)
    tf_level, tf_node = _sup_position(tf_by_level, tf_nodes)

    gates = (
        Gate("identities", ids.sup(), tol, ids.sup() < tol,
             level=id_level, node=id_node),
        Gate("evolution-factor", float(np.max(ids.evolution)), tol,
             float(np.max(ids.evolution)) < tol, level=ev_level, node=ev_node),
        Gate("sharpness-34", slacks.sup34(), tol, slacks.sup34() < tol,
             level=s34_level, node=s34_node),
        Gate("sharpness-35", slacks.sup35(), tol, slacks.sup35() < tol,
             level=s35_level, node=s35_node),
        Gate("sharpness-36-chain", abs(slacks.chain36), tol,
             abs(slacks.chain36) < tol),
        Gate("sharpness-37", abs(slacks.ineq37), tol,
             abs(slacks.ineq37) < tol),
        Gate("sharpness-38-chain", abs(slacks.chain38), tol,
             abs(slacks.chain38) < tol),
        Gate("sharpness-39", abs(slacks.ineq39), tol,
             abs(slacks.ineq39) < tol),
        Gate("bracket-nonnegative", slacks.bracket_min, -1e-14,
             slacks.bracket_min >= -1e-14),
        Gate("leaf-constancy-tracefree", tf_sup, tol, tf_sup < tol,
             level=tf_level, node=tf_node),
        Gate("leaf-constancy-rho", rho_std_rel, tol, rho_std_rel < tol,
             level=int(np.argmax(rho_by_level))),
        Gate("H-positive", h_min, 0.0, h_min > 0.0),
        Gate("sign-consistency", 0.0 if sign.consistent else 1.0, 0.5,
             sign.consistent),
        Gate("lambda-exclusion", sign.exclusion_slack, -tol,
             sign.exclusion_slack >= -tol and sign.negative_branch_contradiction),
        Gate("flux-level-independence", flux_spread, 100 * 1e-8,
             flux_spread < 100 * 1e-8),
        Gate("N-range", 0.0 if (n_min >= n0 - 1e-12 and n_max < 1.0) else 1.0,
             0.5, n_min >= n0 - 1e-12 and n_max < 1.0),
        Gate("reconstruction", recon.sup_deviation, tol,
             recon.sup_deviation < tol),
        Gate("tail", float(foliation.r_coord[-1]) / foliation.tail_radius,
             TAIL_REACH, foliation.reaches_tail(), structural=True),
    )
    structural_fail = any(not g.passed and g.structural for g in gates)
    physical_fail = any(not g.passed and not g.structural for g in gates)
    if structural_fail:
        verdict = "inconclusive"
    elif physical_fail:
        verdict = "not-isometric"
    else:
        verdict = "isometric"
    return IsraelReport(mass, tuple(fluxes.tolist()), rho_mean, h_mean, rho_std,
                        tf_by_level, bnd, ids, slacks, sign, foliation, gates,
                        verdict, tol)
