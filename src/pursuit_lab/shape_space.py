"""Closed-loop shape dynamics under homogeneity assumptions A1-A3.

The shape of the collective relative to the beacon is described by five
scalar families per agent: the chase distance rho_i to the pursued
neighbor, the bearing kappa_i to that neighbor, the bearing theta_i back
to the pursuer, and the beacon range/bearing pair (rho_ib, kappa_ib).
These 5n variables overparameterize the relative configuration and are
tied together by a cycle-closure constraint g0 and per-agent consistency
pairs (g1_i, g2_i); all three residual families are invariants of the
closed loop and are monitored, never projected away.

The field, the range guard and the per-step drift screen run in scalar
math, one pass over the agents of the packed agent-major state (a list
of 5n Python floats) with math.sin and math.cos, for the reason given
in :mod:`pursuit_lab.pure_shape`: at n <= 10, numpy's per-call overhead
on length-n arrays costs several times the arithmetic.  The field keeps
the operands and order of the numpy array form, kept as the test
oracle, and equals it bit for bit wherever libm and numpy trig agree.
The scalar step overtakes the array form's between n = 25 and n = 50
(µs per RK4 step with its post-step, array form -> list state, best of
7 in two runs on one loaded 2-vCPU x86 VM: 208-326 -> 36-54 at n = 3,
290-348 -> 102-127 at n = 10, 226-302 -> 175-214 at n = 25, 324-334 ->
404-423 at n = 50); no shipped config, test or benchmark runs it past
n = 10.  The recorded residual columns stay in numpy (``_residuals``).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CollisionError, ConstraintDriftError
from .numerics import (DEFAULT_DT, _scalar_pass, _wrap, cyclic_neighbors,
                       rk4_integrate, wrap_angle)
from .params import require_shape_assumptions

# Hard collocation floor (length units); distances at or below it abort.
EPS_COL = 1e-6
# Residual drift beyond this aborts a shape-space integration.
DRIFT_TOL = 1e-4
# The scalar drift screen passes a step whose largest residual is at or
# below this; any other step is decided by ``_residuals``.  The margin is
# far above the roundoff by which the screen's sequential g0 sum can
# differ from np.sum's pairwise one (below 6e-14 on consistent shapes up
# to n = 50).
_DRIFT_SCREEN = DRIFT_TOL - 1e-9


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
    rates = _field(shape.to_vector().tolist(), *_field_constants(params))
    return ShapeRates.from_vector(rates, shape.n)


def _field(v, mu, lam, alpha, alpha0):
    """The range guard, then the closed-loop rates, of the packed state
    ``v`` (a list), as a list in the same layout: the field of
    :func:`integrate_shape` and :func:`shape_derivative`."""
    _check_ranges(v)
    return _scalar_pass(_rates, v, mu, lam, alpha, alpha0)


def _field_constants(params):
    """mu, lambda, the per-agent alpha (a list) and the common alpha0 of
    the shape field, as floats."""
    return (float(params.mu), float(params.lam), params.alpha.tolist(),
            float(params.alpha0[0]))


def _rates(v, mu, lam, alpha, alpha0, sin, cos):
    """Closed-loop rates of the packed agent-major state ``v`` (a list:
    rho_i, kappa_i, theta_i, rho_ib, kappa_ib per agent), in the same
    layout, one agent at a time in scalar arithmetic, without validation
    (integration hot path)."""
    weight = 1.0 - lam
    kappa = v[1::5]
    theta = v[2::5]
    theta_next = theta[1:] + theta[:1]
    # (sin kappa_i + sin theta_{i+1}) / rho_i, and its value at agent i - 1
    lead = [(sin(k) + sin(t)) / r
            for k, t, r in zip(kappa, theta_next, v[0::5])]
    out = []
    for kap, t_next, kap_b, rho_b, a, ld, ld_prev in zip(
            kappa, theta_next, v[4::5], v[3::5], alpha, lead,
            lead[-1:] + lead[:-1]):
        d_kappa = (-mu * (weight * sin(kap - a) + lam * sin(kap_b - alpha0))
                   + lam * ld)
        turn = d_kappa - ld
        out += (-(cos(kap) + cos(t_next)), d_kappa, turn + ld_prev,
                -cos(kap_b), turn + sin(kap_b) / rho_b)
    return out


def _check_ranges(v, t=None):
    """Raise :class:`CollisionError` naming the first chase range, else
    the first beacon range, of the packed state ``v`` (a list of 5n
    floats) at or below the floor.  A NaN range is skipped, as
    ``np.fmin`` skips it: Python's min returns NaN only when a NaN comes
    first, and that case falls to the scan, which skips it."""
    if min(v[0::5]) > EPS_COL and min(v[3::5]) > EPS_COL:
        return
    n = len(v) // 5
    for i, r in enumerate(v[0::5]):
        if r <= EPS_COL:
            raise CollisionError(
                f"chase range rho_{i + 1} at or below collocation floor",
                pair=(i, (i + 1) % n), t=t)
    for i, r in enumerate(v[3::5]):
        if r <= EPS_COL:
            raise CollisionError(
                f"beacon range rho_{i + 1}b at or below collocation floor",
                pair=(i, "beacon"), t=t)


def _largest_residual(v):
    """max(|g0|, |g1_i|, |g2_i|) of the finite packed state ``v`` (a
    list) in scalar math, with the operands of ``_residuals``; g0 sums
    in sequence where np.sum sums pairwise."""
    sin, cos = math.sin, math.cos
    theta = v[2::5]
    rho_b = v[3::5]
    kappa_b = v[4::5]
    total = 0.0
    worst = 0.0
    for rho, kappa, rb, kb, t_next, rb_next, kb_next in zip(
            v[0::5], v[1::5], rho_b, kappa_b, theta[1:] + theta[:1],
            rho_b[1:] + rho_b[:1], kappa_b[1:] + kappa_b[:1]):
        total += math.pi + kappa - t_next
        rot_i = kb - kappa
        rot_next = kb_next - t_next
        g1 = abs(rho - rb * cos(rot_i) - rb_next * cos(rot_next))
        g2 = abs(rb * sin(rot_i) + rb_next * sin(rot_next))
        if g1 > worst:
            worst = g1
        if g2 > worst:
            worst = g2
    return max(abs(_wrap(total)), worst)


def _rewrap_and_check(v, t):
    """The post-step of :func:`integrate_shape`, one scalar pass over the
    packed state ``v`` (a finite list, so math.sin and math.cos cannot
    raise): re-wrap kappa, theta and kappa_b in place, then the range
    guard, then the drift gate.

    The drift gate only has to agree with ``_residuals`` on the threshold
    decision.  A scalar screen passes a step whose largest residual is at
    or below ``_DRIFT_SCREEN``; any other step (a residual within 1e-9 of
    ``DRIFT_TOL`` or above it, or a NaN g0) is decided, and its error
    message formed, by ``_residuals`` itself.
    """
    for b in range(0, len(v), 5):
        v[b + 1] = _wrap(v[b + 1])
        v[b + 2] = _wrap(v[b + 2])
        v[b + 4] = _wrap(v[b + 4])
    _check_ranges(v, t=t)
    if not _largest_residual(v) <= _DRIFT_SCREEN:
        _check_drift(np.reshape(v, (-1, 5)), t)
    return v


def _check_drift(blocks, t):
    """Raise :class:`ConstraintDriftError` when the largest residual of
    the (n, 5) blocks exceeds ``DRIFT_TOL``."""
    g0, max_g1, max_g2 = _residual_summary(blocks)
    worst = max(abs(g0), max_g1, max_g2)
    if worst > DRIFT_TOL:
        raise ConstraintDriftError(
            f"constraint residual {worst:.3e} exceeds {DRIFT_TOL:.1e} "
            f"at t = {t:.6g}")


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

    The state steps as a list of floats through the scalar field, and
    each step ends in :func:`_rewrap_and_check`.
    """
    require_shape_assumptions(params)
    n = shape0.n
    consts = _field_constants(params)

    def field(v):
        return _field(v, *consts)

    times, samples = rk4_integrate(field, shape0.to_vector().tolist(), T,
                                   dt, record_every, _rewrap_and_check)
    stacked = samples.reshape(len(samples), n, 5)
    return ShapeTrajectory(
        t=times,
        rho=stacked[:, :, 0], kappa=stacked[:, :, 1], theta=stacked[:, :, 2],
        rho_b=stacked[:, :, 3], kappa_b=stacked[:, :, 4],
        residuals=_residual_summary(stacked))
