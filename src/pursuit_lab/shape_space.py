"""Closed-loop shape dynamics under homogeneity assumptions A1-A3.

The shape of the collective relative to the beacon is described by five
scalar families per agent: the chase distance rho_i to the pursued
neighbor, the bearing kappa_i to that neighbor, the bearing theta_i back
to the pursuer, and the beacon range/bearing pair (rho_ib, kappa_ib).
These 5n variables overparameterize the relative configuration and are
tied together by a cycle-closure constraint g0 and per-agent consistency
pairs (g1_i, g2_i); all three residual families are invariants of the
closed loop and are monitored, never projected away.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CollisionError, ConstraintDriftError
from .numerics import DEFAULT_DT, cyclic_neighbors, rk4_integrate, wrap_angle
from .params import require_shape_assumptions

# Hard collocation floor (length units); distances at or below it abort.
EPS_COL = 1e-6
# Residual drift beyond this aborts a shape-space integration.
DRIFT_TOL = 1e-4


@dataclass
class ShapeState:
    """The 5n scalar shape variables of an n-agent collective.

    Arrays are indexed by agent; angles wrapped to (-pi, pi]; rho and
    rho_b must stay above the collocation floor.
    """

    rho: np.ndarray
    kappa: np.ndarray
    theta: np.ndarray
    rho_b: np.ndarray
    kappa_b: np.ndarray

    @property
    def n(self):
        return self.rho.shape[-1]

    def to_blocks(self):
        """Agent-major blocks (..., n, 5): (rho_i, kappa_i, theta_i,
        rho_ib, kappa_ib) per agent.  This block order is the
        linearization convention."""
        return np.stack(
            [self.rho, self.kappa, self.theta, self.rho_b, self.kappa_b],
            axis=-1)

    def to_vector(self):
        """The blocks flattened agent-major."""
        return self.to_blocks().ravel()

    @classmethod
    def from_vector(cls, vec, n):
        blocks = np.asarray(vec, dtype=float).reshape(n, 5)
        return cls(*(blocks[:, j].copy() for j in range(5)))


class ShapeRates(ShapeState):
    """Time derivatives of the five shape-variable families."""

    def max_abs(self):
        return float(np.max(np.abs(self.to_vector())))


@dataclass
class ConstraintResiduals:
    """Residuals of the cycle-closure and consistency constraints."""

    g0: float
    g1: np.ndarray
    g2: np.ndarray

    def max_abs(self):
        return max(abs(self.g0), float(np.max(np.abs(self.g1))),
                   float(np.max(np.abs(self.g2))))


def _residuals(blocks):
    """g0 (mod 2*pi, reduced to (-pi, pi]) and the per-agent consistency
    residuals g1_i, g2_i of shape blocks (..., n, 5): g0 has the leading
    shape, g1 and g2 add the agent axis."""
    nxt, _ = cyclic_neighbors(blocks.shape[-2])
    rho, kappa, theta, rho_b, kappa_b = np.moveaxis(blocks, -1, 0)
    theta_next = theta[..., nxt]
    rho_next_b = rho_b[..., nxt]
    g0 = wrap_angle(np.sum(np.pi + kappa - theta_next, axis=-1))
    rot_i = kappa_b - kappa
    rot_next = kappa_b[..., nxt] - theta_next
    g1 = rho - rho_b * np.cos(rot_i) - rho_next_b * np.cos(rot_next)
    g2 = rho_b * np.sin(rot_i) + rho_next_b * np.sin(rot_next)
    return g0, g1, g2


def _residual_summary(blocks):
    """Columns g0, max|g1|, max|g2| of shape blocks (..., n, 5)."""
    g0, g1, g2 = _residuals(blocks)
    return np.stack([g0, np.max(np.abs(g1), axis=-1),
                     np.max(np.abs(g2), axis=-1)], axis=-1)


def constraint_residuals(shape):
    """Evaluate g0 (mod 2*pi, reduced to (-pi, pi]) and the per-agent
    consistency residuals g1_i, g2_i."""
    g0, g1, g2 = _residuals(shape.to_blocks())
    return ConstraintResiduals(g0=float(g0), g1=g1, g2=g2)


def shape_derivative(shape, params):
    """Closed-loop shape rates under assumptions A1-A3.

    Raises :class:`AssumptionError` naming the violated assumption when
    the parameters are heterogeneous, and :class:`CollisionError` when a
    range sits at or below the collocation floor.
    """
    require_shape_assumptions(params)
    blocks = shape.to_blocks()
    _check_ranges(blocks)
    return ShapeRates(*np.moveaxis(_rates(blocks, params), -1, 0))


def _rates(blocks, params):
    """Closed-loop rates of shape blocks (..., n, 5), in the same layout,
    without validation (integration hot path)."""
    mu = params.mu
    lam = params.lam
    alpha0 = params.alpha0[0]

    nxt, prv = cyclic_neighbors(blocks.shape[-2])
    rho, kappa, theta, rho_b, kappa_b = np.moveaxis(blocks, -1, 0)
    theta_next = theta[..., nxt]
    lead = (np.sin(kappa) + np.sin(theta_next)) / rho

    out = np.empty_like(blocks)
    d_kappa = (-mu * ((1.0 - lam) * np.sin(kappa - params.alpha)
                      + lam * np.sin(kappa_b - alpha0))
               + lam * lead)
    out[..., 0] = -(np.cos(kappa) + np.cos(theta_next))
    out[..., 1] = d_kappa
    out[..., 2] = d_kappa - lead + lead[..., prv]
    out[..., 3] = -np.cos(kappa_b)
    out[..., 4] = d_kappa - lead + np.sin(kappa_b) / rho_b
    return out


def _check_ranges(blocks, t=None):
    """Raise :class:`CollisionError` naming the first chase range, else
    the first beacon range, of the (n, 5) blocks at or below the floor.
    One ``fmin`` over columns 0 and 3 (``::3``) decides; it skips a NaN,
    so it decides as ``np.any(x <= EPS_COL)`` did."""
    ranges = blocks[:, ::3]
    if not np.fmin.reduce(ranges, axis=None) <= EPS_COL:
        return
    n = blocks.shape[0]
    column, i = divmod(int(np.argmax(ranges.T <= EPS_COL)), n)
    if column == 0:
        raise CollisionError(
            f"chase range rho_{i + 1} at or below collocation floor",
            pair=(i, (i + 1) % n), t=t)
    raise CollisionError(
        f"beacon range rho_{i + 1}b at or below collocation floor",
        pair=(i, "beacon"), t=t)


@dataclass
class ShapeTrajectory:
    """Sampled shape-space trajectory with per-sample residual summary."""

    t: np.ndarray
    rho: np.ndarray
    kappa: np.ndarray
    theta: np.ndarray
    rho_b: np.ndarray
    kappa_b: np.ndarray
    residuals: np.ndarray  # columns: g0, max|g1|, max|g2|

    @property
    def n(self):
        return self.rho.shape[1]

    def state_at(self, idx):
        return ShapeState(self.rho[idx].copy(), self.kappa[idx].copy(),
                          self.theta[idx].copy(), self.rho_b[idx].copy(),
                          self.kappa_b[idx].copy())


def integrate_shape(shape0, params, T, dt=DEFAULT_DT, record_every=1):
    """Integrate the shape dynamics with fixed-step RK4.

    Angles are re-wrapped after every step and the constraint residuals
    are monitored: drift above ``DRIFT_TOL`` raises
    :class:`ConstraintDriftError` (the constraints are conserved by the
    exact flow, so drift signals integration failure), and a range at or
    below the collocation floor raises :class:`CollisionError`.
    """
    require_shape_assumptions(params)
    n = shape0.n

    def field(vec):
        blocks = vec.reshape(n, 5)
        _check_ranges(blocks)
        return _rates(blocks, params).ravel()

    def rewrap_and_check(vec, t):
        blocks = vec.reshape(n, 5)
        # the angle columns kappa, theta and kappa_b
        blocks[:, [1, 2, 4]] = wrap_angle(blocks[:, [1, 2, 4]])
        _check_ranges(blocks, t=t)
        g0, max_g1, max_g2 = _residual_summary(blocks)
        worst = max(abs(g0), max_g1, max_g2)
        if worst > DRIFT_TOL:
            raise ConstraintDriftError(
                f"constraint residual {worst:.3e} exceeds {DRIFT_TOL:.1e} "
                f"at t = {t:.6g}")
        return vec

    times, samples = rk4_integrate(field, shape0.to_vector(), T, dt,
                                   record_every, rewrap_and_check)
    stacked = samples.reshape(len(samples), n, 5)
    return ShapeTrajectory(
        t=times,
        rho=stacked[:, :, 0], kappa=stacked[:, :, 1], theta=stacked[:, :, 2],
        rho_b=stacked[:, :, 3], kappa_b=stacked[:, :, 4],
        residuals=_residual_summary(stacked))
