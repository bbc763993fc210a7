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
        return self.rho.shape[0]

    def to_vector(self):
        """Flatten agent-major: (rho_i, kappa_i, theta_i, rho_ib, kappa_ib)
        per agent.  This block order is the linearization convention."""
        return np.stack(
            [self.rho, self.kappa, self.theta, self.rho_b, self.kappa_b],
            axis=1).ravel()

    @classmethod
    def from_vector(cls, vec, n):
        blocks = np.asarray(vec, dtype=float).reshape(n, 5)
        return cls(rho=blocks[:, 0].copy(), kappa=blocks[:, 1].copy(),
                   theta=blocks[:, 2].copy(), rho_b=blocks[:, 3].copy(),
                   kappa_b=blocks[:, 4].copy())


@dataclass
class ShapeRates:
    """Time derivatives of the five shape-variable families."""

    rho: np.ndarray
    kappa: np.ndarray
    theta: np.ndarray
    rho_b: np.ndarray
    kappa_b: np.ndarray

    def to_vector(self):
        return np.stack(
            [self.rho, self.kappa, self.theta, self.rho_b, self.kappa_b],
            axis=1).ravel()

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


def constraint_residuals(shape):
    """Evaluate g0 (mod 2*pi, reduced to (-pi, pi]) and the per-agent
    consistency residuals g1_i, g2_i."""
    nxt, _ = cyclic_neighbors(shape.n)
    kappa_next_b = shape.kappa_b[nxt]
    rho_next_b = shape.rho_b[nxt]
    theta_next = shape.theta[nxt]
    g0 = float(wrap_angle(np.sum(np.pi + shape.kappa - theta_next)))
    rot_i = shape.kappa_b - shape.kappa
    rot_next = kappa_next_b - theta_next
    g1 = shape.rho - shape.rho_b * np.cos(rot_i) - rho_next_b * np.cos(rot_next)
    g2 = shape.rho_b * np.sin(rot_i) + rho_next_b * np.sin(rot_next)
    return ConstraintResiduals(g0=g0, g1=g1, g2=g2)


def shape_derivative(shape, params):
    """Closed-loop shape rates under assumptions A1-A3.

    Raises :class:`AssumptionError` naming the violated assumption when
    the parameters are heterogeneous, and :class:`CollisionError` when a
    range sits at or below the collocation floor.
    """
    require_shape_assumptions(params)
    _check_ranges(shape)
    return _shape_rates(shape, params)


def _shape_rates(shape, params):
    """The closed-loop rates without validation (integration hot path)."""
    mu = params.mu
    lam = params.lam
    alpha0 = params.alpha0[0]

    nxt, prv = cyclic_neighbors(shape.n)
    theta_next = shape.theta[nxt]
    sk = np.sin(shape.kappa)
    lead = (sk + np.sin(theta_next)) / shape.rho

    d_rho = -(np.cos(shape.kappa) + np.cos(theta_next))
    d_kappa = (-mu * ((1.0 - lam) * np.sin(shape.kappa - params.alpha)
                      + lam * np.sin(shape.kappa_b - alpha0))
               + lam * lead)
    d_theta = d_kappa - lead + lead[prv]
    d_rho_b = -np.cos(shape.kappa_b)
    d_kappa_b = d_kappa - lead + np.sin(shape.kappa_b) / shape.rho_b
    return ShapeRates(rho=d_rho, kappa=d_kappa, theta=d_theta,
                      rho_b=d_rho_b, kappa_b=d_kappa_b)


def _check_ranges(shape, t=None):
    if np.any(shape.rho <= EPS_COL):
        i = int(np.argmax(shape.rho <= EPS_COL))
        raise CollisionError(
            f"chase range rho_{i + 1} at or below collocation floor",
            pair=(i, (i + 1) % shape.n), t=t)
    if np.any(shape.rho_b <= EPS_COL):
        i = int(np.argmax(shape.rho_b <= EPS_COL))
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


def integrate_shape(shape0, params, T, dt=DEFAULT_DT, record_every=1,
                    drift_tol=DRIFT_TOL):
    """Integrate the shape dynamics with fixed-step RK4.

    Angles are re-wrapped after every step and the constraint residuals
    are monitored: drift above ``drift_tol`` raises
    :class:`ConstraintDriftError` (the constraints are conserved by the
    exact flow, so drift signals integration failure), and a range at or
    below the collocation floor raises :class:`CollisionError`.
    """
    require_shape_assumptions(params)
    n = shape0.n

    def field(vec):
        s = ShapeState.from_vector(vec, n)
        _check_ranges(s)
        return _shape_rates(s, params).to_vector()

    def rewrap_and_check(vec, t):
        state = ShapeState.from_vector(vec, n)
        state.kappa = wrap_angle(state.kappa)
        state.theta = wrap_angle(state.theta)
        state.kappa_b = wrap_angle(state.kappa_b)
        _check_ranges(state, t=t)
        worst = constraint_residuals(state).max_abs()
        if worst > drift_tol:
            raise ConstraintDriftError(
                f"constraint residual {worst:.3e} exceeds {drift_tol:.1e} "
                f"at t = {t:.6g}")
        return state.to_vector()

    times, samples = rk4_integrate(field, shape0.to_vector(), T, dt,
                                   record_every, rewrap_and_check)
    stacked = samples.reshape(len(samples), n, 5)
    # the driver keeps states only, so the recorded residual summary is
    # re-evaluated on the recorded samples
    res_rows = []
    for vec in samples:
        res = constraint_residuals(ShapeState.from_vector(vec, n))
        res_rows.append([res.g0, np.max(np.abs(res.g1)),
                         np.max(np.abs(res.g2))])
    return ShapeTrajectory(
        t=times,
        rho=stacked[:, :, 0], kappa=stacked[:, :, 1], theta=stacked[:, :, 2],
        rho_b=stacked[:, :, 3], kappa_b=stacked[:, :, 4],
        residuals=np.asarray(res_rows))


def write_shape_csv(traj, path, header_notes=()):
    """Shape trajectory CSV: t, then per-agent blocks (rho_i, kappa_i,
    theta_i, rho_ib, kappa_ib), then residual columns."""
    n = traj.n
    cols = ["t"]
    for i in range(1, n + 1):
        cols += [f"rho_{i}", f"kappa_{i}", f"theta_{i}",
                 f"rho_{i}b", f"kappa_{i}b"]
    cols += ["g0", "max_abs_g1", "max_abs_g2"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# shape-space trajectory; lengths in length units, "
                 "angles in radians wrapped to (-pi, pi]\n")
        for note in header_notes:
            fh.write(f"# {note}\n")
        fh.write(",".join(cols) + "\n")
        for idx in range(traj.t.size):
            row = [traj.t[idx]]
            for i in range(n):
                row += [traj.rho[idx, i], traj.kappa[idx, i],
                        traj.theta[idx, i], traj.rho_b[idx, i],
                        traj.kappa_b[idx, i]]
            row += list(traj.residuals[idx])
            fh.write(",".join(format(v, ".12g") for v in row) + "\n")
