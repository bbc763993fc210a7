"""Closed-form enumeration of circling equilibria.

Every relative equilibrium of the closed-loop shape dynamics is a
circling orbit centered on the beacon.  Candidate equilibria are indexed
by a sign pattern sigma in {-1,+1}^n (which of the two bearing-offset
solutions each agent takes) and an integer winding m; the common offset
alpha* follows in closed form whenever 2M - n != 0, where M counts the
+1 entries.  A candidate survives iff two positivity conditions hold,
and then all shape values follow in closed form.  Both circling
directions are supported; the clockwise family is the sign-flipped image
of the counter-clockwise conditions.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateAlphaSumError, DegenerateBranchError,
                     EnumerationSizeError)
from .full_space import WorldState, heading_from_angle
from .numerics import cyclic_neighbors, wrap_angle
from .params import require_shape_assumptions
from .shape_space import ShapeState

# sin(sum alpha_i) below this is treated as degenerate (Theorem-1 gate).
ALPHA_SUM_TOL = 1e-9
# Positivity screening: strict margin, and the band reported as marginal.
STRICT_MARGIN = 1e-12
MARGINAL_BAND = 1e-9
# Branch enumeration cap: 2**n candidates.
MAX_ENUM_AGENTS = 16


@dataclass(frozen=True)
class BranchAssignment:
    """A candidate branch: sign pattern sigma and winding number m."""

    sigma: tuple
    m: int

    @property
    def M(self):
        return sum(1 for s in self.sigma if s == 1)

    @property
    def n(self):
        return len(self.sigma)

    def bitstring(self):
        return "".join("+" if s == 1 else "-" for s in self.sigma)


def _wrapped_alpha_star(m, M, n, alpha_sum):
    """alpha* = ((m + M - n) pi - sum alpha) / (2M - n), wrapped, for
    windings m and +1 counts M (integers or integer arrays) with
    2M - n != 0."""
    return wrap_angle(((m + M - n) * np.pi - alpha_sum) / (2 * M - n))


def alpha_star(branch, params):
    """Common bearing offset kappa_i - alpha_i on a branch, wrapped
    (requires A1-A3, as :func:`enumerate_equilibria` does).

    Undefined (DegenerateBranchError) when 2M - n = 0; those branches are
    handled by :func:`classify_degenerate`.
    """
    require_shape_assumptions(params)
    if 2 * branch.M - branch.n == 0:
        raise DegenerateBranchError(
            "branch has 2M - n = 0; no isolated alpha*")
    return float(_wrapped_alpha_star(branch.m, branch.M, branch.n,
                                     params.alpha_sum()))


@dataclass
class CirclingEquilibrium:
    """A circling equilibrium and its closed-form shape values.

    ``direction`` is +1 for counter-clockwise (kappa_ib = +pi/2) and -1
    for clockwise (kappa_ib = -pi/2).  ``margins`` holds the screening
    condition values (radius positivity first, then the n chord
    positivity values); all are strictly positive on an accepted branch.
    """

    branch: BranchAssignment
    alpha_star: float
    direction: int
    kappa: np.ndarray
    theta: np.ndarray
    rho: np.ndarray
    rho_b: float
    margins: np.ndarray
    marginal: bool = False

    @property
    def kappa_b(self):
        return self.direction * np.pi / 2.0

    @property
    def n(self):
        return self.kappa.shape[0]


class DegenerateClass(enum.Enum):
    """Classification of the 2M - n = 0 branches for even n."""

    CONTINUUM = "continuum"
    NO_BRANCH_EQUILIBRIA = "no-branch-equilibria"
    NOT_APPLICABLE = "not-applicable"


def classify_degenerate(params):
    """Classify the degenerate (2M - n = 0) branches.

    For even n these branches admit a continuum of relative equilibria
    exactly when the alpha_i sum to an integer multiple of pi; for odd n
    the case cannot occur.
    """
    if params.n % 2 == 1:
        return DegenerateClass.NOT_APPLICABLE
    total = params.alpha_sum()
    nearest = np.round(total / np.pi) * np.pi
    if abs(total - nearest) < ALPHA_SUM_TOL:
        return DegenerateClass.CONTINUUM
    return DegenerateClass.NO_BRANCH_EQUILIBRIA


def _margins(a_star, turn, lam, alpha0, direction):
    """Screening values (..., 1 + t) of candidates ``a_star`` (...):
    radius positivity first, then the chord positivity values
    ``sin(a_star + turn)``, with ``turn`` (..., t) = sigma * alpha."""
    a_star = np.asarray(a_star)
    c1 = lam * np.cos(alpha0) + (1.0 - lam) * direction * np.sin(a_star)
    c2 = np.sin(a_star[..., None] + turn)
    c2 *= direction
    return np.concatenate([c1[..., None], c2], axis=-1)


def _accept(margins, include_marginal):
    """Marginal flags and acceptance of screening values (..., c): every
    value clears the strict margin and none lies in the marginal band,
    or, with ``include_marginal``, a marginal row with positive values."""
    marginal = np.abs(margins).min(axis=-1) < MARGINAL_BAND
    take = (margins > STRICT_MARGIN).all(axis=-1) & ~marginal
    if include_marginal:
        take |= marginal & (margins > 0.0).all(axis=-1)
    return marginal, take


def _screen(a_star, sigma, params, direction, include_marginal):
    """Margins (r, n + 1), marginal flags (r,) and accepted row indices
    of candidates ``a_star`` (r,) with sign patterns ``sigma`` (r, n)."""
    margins = _margins(a_star, sigma * params.alpha, params.lam,
                       params.alpha0[0], direction)
    marginal, take = _accept(margins, include_marginal)
    return margins, marginal, np.flatnonzero(take)


def _equilibria(sigma, m, a_star, margins, marginal, direction, params):
    """The accepted candidates as equilibria, their shape values formed
    in one array pass: sign patterns ``sigma`` (E, n), windings ``m``
    (E,), offsets ``a_star`` (E,), margins (E, n + 1) and marginal flags
    (E,)."""
    turn = np.asarray(sigma, dtype=float)
    kappa = wrap_angle((1.0 - turn) * (np.pi / 2.0)
                       + turn * a_star[:, None] + params.alpha)
    theta = wrap_angle(np.pi - kappa[:, cyclic_neighbors(params.n)[1]])
    rho_b = params.lam / (params.mu * margins[:, 0])
    rho = 2.0 * rho_b[:, None] * margins[:, 1:]
    return [CirclingEquilibrium(
                branch=BranchAssignment(sigma=tuple(row), m=winding),
                alpha_star=star, direction=direction, kappa=kap, theta=th,
                rho=r, rho_b=rb, margins=mar, marginal=flag)
            for row, winding, star, kap, th, r, rb, mar, flag in zip(
                np.asarray(sigma).tolist(), np.asarray(m).tolist(),
                a_star.tolist(), kappa, theta, rho, rho_b.tolist(), margins,
                np.asarray(marginal).tolist())]


def enumerate_equilibria(params, direction=1, include_marginal=False):
    """All circling equilibria for one circling direction.

    Iterates every sign pattern with 2M - n != 0 and every winding in
    0..2n-1.  The wrapped alpha* of a pattern has period 2|2M - n| in m,
    so only its first 2|2M - n| windings reach the screen.  Candidates
    whose screening conditions clear the strict margin are returned;
    candidates inside the marginal band are flagged and only returned
    when ``include_marginal`` is set.

    Raises DegenerateAlphaSumError when sin(sum alpha_i) vanishes: the
    closed-form characterization does not cover that case (see
    classify_degenerate for the even-n degenerate branches; the remaining
    branches are unclassified).
    """
    require_shape_assumptions(params)
    if direction not in (1, -1):
        raise ValueError("direction must be +1 (ccw) or -1 (cw)")
    n = params.n
    if n > MAX_ENUM_AGENTS:
        raise EnumerationSizeError(
            f"branch enumeration needs 2**{n} sign patterns; cap is "
            f"2**{MAX_ENUM_AGENTS}")
    if abs(np.sin(params.alpha_sum())) <= ALPHA_SUM_TOL:
        raise DegenerateAlphaSumError(
            "sin(sum alpha_i) = 0: branch enumeration is unclassified; "
            "see classify_degenerate for the 2M - n = 0 branches")

    # sign patterns in itertools.product((-1, 1), repeat=n) order, less
    # the 2M - n = 0 rows
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    M = bits.sum(axis=1)
    keep = 2 * M - n != 0
    sigma, M = bits[keep] * 2 - 1, M[keep]
    alpha_sum = params.alpha_sum()

    hits = []
    for m in range(2 * n):
        rows = np.flatnonzero(2 * np.abs(2 * M - n) > m)
        a_star = _wrapped_alpha_star(m, M[rows], n, alpha_sum)
        margins, marginal, take = _screen(a_star, sigma[rows], params,
                                          direction, include_marginal)
        hits.append((rows[take], np.full(take.size, m), a_star[take],
                     margins[take], marginal[take]))
    rows, windings, a_star, margins, marginal = (np.concatenate(part)
                                                 for part in zip(*hits))
    # sigma in product order, then m ascending
    order = np.lexsort((windings, rows))
    return _equilibria(sigma[rows[order]], windings[order], a_star[order],
                       margins[order], marginal[order], direction, params)


def leftmost_equilibrium(params, m):
    """The counter-clockwise all-plus (leftmost-branch) equilibrium at
    winding m, as :func:`enumerate_equilibria` finds it, or None when the
    screen rejects it (requires A1-A3).  m is reduced modulo 2n, the
    period of its alpha*; 2M - n = n needs no 2**n cap or alpha-sum gate.
    """
    require_shape_assumptions(params)
    n = params.n
    m %= 2 * n
    a_star = _wrapped_alpha_star(m, np.array([n]), n, params.alpha_sum())
    sigma = np.ones((1, n), dtype=int)
    margins, marginal, take = _screen(a_star, sigma, params, 1, False)
    if not take.size:
        return None
    return _equilibria(sigma, [m], a_star, margins, marginal, 1, params)[0]


def equilibrium_shape(eq, params):
    """Full 5n shape state of a circling equilibrium."""
    n = eq.n
    return ShapeState(rho=eq.rho.copy(), kappa=eq.kappa.copy(),
                      theta=eq.theta.copy(),
                      rho_b=np.full(n, eq.rho_b),
                      kappa_b=np.full(n, eq.kappa_b))


def embed_world(eq, beacon=(0.0, 0.0), base_angle=0.0):
    """A world state realizing the equilibrium geometry.

    Agents sit on the circle of radius rho_b around the beacon; the
    position angle advances by 2*kappa_i from agent i to agent i+1 (the
    chord subtending kappa geometry), and headings are chosen so the
    extracted shape reproduces the equilibrium.  Any rigid motion of this
    embedding is equivalent; agent 1 is pinned at ``base_angle``.
    """
    beacon = np.asarray(beacon, dtype=float)
    n = eq.n
    beta = base_angle + np.concatenate([[0.0],
                                        np.cumsum(2.0 * eq.kappa[:-1])])
    positions = beacon + eq.rho_b * heading_from_angle(beta)
    heading_angles = beta + np.pi - eq.kappa_b
    return WorldState(positions=positions,
                      headings=heading_from_angle(heading_angles),
                      beacon=beacon)


def format_equilibrium_report(equilibria, params, direction_label=None):
    """Human-readable report, one record per equilibrium."""
    lines = []
    lines.append(f"circling equilibria: {len(equilibria)} found")
    lines.append(f"n = {params.n}, mu = {params.mu:.12g}, "
                 f"lambda = {params.lam:.12g}, "
                 f"alpha0 = {params.alpha0[0]:.12g} rad")
    if direction_label:
        lines.append(f"direction: {direction_label}")
    for idx, eq in enumerate(equilibria, start=1):
        lines.append("")
        lines.append(f"equilibrium {idx}"
                     + (" [MARGINAL]" if eq.marginal else ""))
        lines.append(f"  sigma = {eq.branch.bitstring()}  m = {eq.branch.m}  "
                     f"direction = {'ccw' if eq.direction == 1 else 'cw'}")
        lines.append(f"  alpha* = {eq.alpha_star:.12g} rad "
                     f"({eq.alpha_star / np.pi:.6f} pi)")
        lines.append("  kappa  = ["
                     + ", ".join(f"{v:.12g}" for v in eq.kappa)
                     + "] rad = ["
                     + ", ".join(f"{v / np.pi:.6f}" for v in eq.kappa)
                     + "] pi")
        lines.append("  rho    = ["
                     + ", ".join(f"{v:.12g}" for v in eq.rho) + "]")
        lines.append(f"  rho_b  = {eq.rho_b:.12g}")
        lines.append("  margins = ["
                     + ", ".join(f"{v:.6g}" for v in eq.margins) + "]")
    return "\n".join(lines) + "\n"
