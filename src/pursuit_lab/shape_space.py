"""Closed-loop shape dynamics under homogeneity assumptions A1-A3.

The shape of the collective relative to the beacon is described by five
scalar families per agent: the chase distance rho_i to the pursued
neighbor, the bearing kappa_i to that neighbor, the bearing theta_i back
to the pursuer, and the beacon range/bearing pair (rho_ib, kappa_ib).
These 5n variables overparameterize the relative configuration and are
tied together by a cycle-closure constraint g0 and per-agent consistency
pairs (g1_i, g2_i); all three residual families are invariants of the
closed loop and are monitored, never projected away.

The field, the range guard and the post-step (re-wrap, range guard and
drift screen) run in scalar math on the packed agent-major state (a
list of 5n Python floats), for the reason given in
:mod:`pursuit_lab.pure_shape`, and as it does: one straight-line kernel
per agent count n, written by :func:`_kernel_source` from templates of
one agent's terms and compiled on first use by
``numerics._build_kernel`` (filed as ``<pursuit_lab shape-space
n=...>``); only n enters the source, and ``shape_derivative`` and
``integrate_shape`` call the kernel's functions directly.  The field
keeps the operands and order of the numpy array form, kept as the test
oracle, and equals it bit for bit wherever libm and numpy trig agree.
µs per RK4 step with its post-step, per-agent loop -> kernel, best of 7
in two runs on one 2-vCPU x86 VM: 34-35 -> 18 at n = 3, 68-104 -> 45 at
n = 10, 141-142 -> 109-110 at n = 25, 257-259 -> 211-218 at n = 50.
The numpy array form costs 183-257 µs over that range and overtakes the
kernel between n = 45 and n = 50; no shipped config or benchmark runs
it past n = 10.  The first call at an n builds its kernel: about 1, 3, 18 and
83 ms at n = 3, 10, 50 and 200.  The recorded residual columns stay
in numpy (``_residuals``).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CollisionError, ConstraintDriftError
from .numerics import (DEFAULT_DT, _build_kernel, _names, _scalar_pass,
                       _wrap_source, cyclic_neighbors, rk4_integrate,
                       wrap_angle)
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
    rates = _scalar_pass(_kernel(shape.n)["rates"],
                         shape.to_vector().tolist(), _constants(params))
    return ShapeRates.from_vector(rates, shape.n)


def _constants(params):
    """The flat constants the field kernel unpacks, as floats: mu,
    lambda, 1 - lambda, the per-agent alpha and the common alpha0."""
    lam = float(params.lam)
    return (float(params.mu), lam, 1.0 - lam, *params.alpha.tolist(),
            float(params.alpha0[0]))


# The packed agent-major state: the five shape variables of each agent.
_BLOCK = "r{i}, k{i}, th{i}, rb{i}, kb{i}"

# The kappa rate of agent {i}, and the turn that its theta and kappa_b
# rates share; ld{i} is (sin kappa_i + sin theta_{i+1}) / rho_i.
_AGENT = """\
    dk{i} = (-mu * (weight * sin(k{i} - a{i}) + lam * sin(kb{i} - alpha0))
        + lam * ld{i})
    tn{i} = dk{i} - ld{i}"""

# The residuals g1_i, g2_i of agent {i}, whose successor is {j}, in
# magnitude.
_RESIDUAL = """\
    rot{i} = kb{i} - k{i}
    rotn{i} = kb{j} - th{j}
    e{i} = abs(r{i} - rb{i} * cos(rot{i}) - rb{j} * cos(rotn{i}))
    f{i} = abs(rb{i} * sin(rot{i}) + rb{j} * sin(rotn{i}))"""


def _kernel_source(n):
    """The Python source of the shape-space kernel of n agents, with no
    loop over agents, on the packed agent-major state ``v`` (a list:
    rho_i, kappa_i, theta_i, rho_ib, kappa_ib per agent):
    ``ranges(v, t=None)``, the range guard, which raises
    :class:`CollisionError` naming the first chase range, else the first
    beacon range, at or below the floor (a NaN range is skipped, as
    ``np.fmin`` skips it); ``rates(v, c)``, the closed-loop rates in the
    layout of ``v``, with the range guard in front, on the flat
    constants ``c`` of :func:`_constants`; ``residual(v)``, the drift
    screen's largest residual max(|g0|, |g1_i|, |g2_i|); and
    ``post(v, t)``, the post-step of :func:`integrate_shape`: re-wrap
    kappa, theta and kappa_b, then the range guard, then the drift gate,
    returning the re-wrapped list.

    Every IEEE operation has the operands and order of the numpy array
    form (the test oracle), except that the screen's g0 sums in sequence
    where np.sum sums pairwise.  The drift gate only has to agree with
    ``_residuals`` on the threshold decision: the screen passes a step
    whose largest residual is at or below ``_DRIFT_SCREEN``, and any
    other step (a residual within 1e-9 of ``DRIFT_TOL`` or above it, or
    a NaN g0) is decided, and its error message formed, by
    ``_residuals`` itself (``_check_drift``).
    """
    state = ("    (" + ",\n     ".join(_BLOCK.format(i=i) for i in range(n))
             + ") = v")
    # the range guard's one test: a NaN range fails it, and the scan
    # of ranges() then skips it, as np.fmin does
    clear = _names(n, "    if not (", ("r{i} > EPS_COL", "rb{i} > EPS_COL"),
                   "):", sep=" and ")
    # g0 sums (pi + kappa_i - theta_{i+1}) in sequence, and the largest
    # residual skips a NaN g1 or g2 but not a NaN g0
    screen = [_RESIDUAL.format(i=i, j=(i + 1) % n) for i in range(n)]
    screen += ["    g0 = (" + " +\n        ".join(
                   f"(pi + k{i} - th{(i + 1) % n})" for i in range(n)) + ")",
               _names(n, f"    worst = max(abs({_wrap_source('g0')}),\n"
                      "        ", ("e{i}, f{i}",), ")")]
    lines = ["def ranges(v, t=None):", state]
    for i in range(n):
        lines += [f"    if r{i} <= EPS_COL:",
                  f"        raise CollisionError(\"chase range rho_{i + 1} at "
                  f"or below collocation floor\", pair=({i}, {(i + 1) % n}), "
                  f"t=t)"]
    for i in range(n):
        lines += [f"    if rb{i} <= EPS_COL:",
                  f"        raise CollisionError(\"beacon range rho_{i + 1}b "
                  f"at or below collocation floor\", pair=({i}, \"beacon\"), "
                  f"t=t)"]
    lines += ["", "", "def rates(v, c):", state, clear,
              "        ranges(v)",
              _names(n, "    (mu, lam, weight, ", ("a{i}",), ", alpha0) = c")]
    lines += [f"    ld{i} = (sin(k{i}) + sin(th{(i + 1) % n})) / r{i}"
              for i in range(n)]
    lines += [_AGENT.format(i=i) for i in range(n)]
    lines += ["    return [" + ",\n        ".join(
        f"-(cos(k{i}) + cos(th{(i + 1) % n})), dk{i}, tn{i} + ld{(i - 1) % n},"
        f" -cos(kb{i}), tn{i} + sin(kb{i}) / rb{i}" for i in range(n)) + "]"]
    lines += ["", "", "def residual(v):", state, *screen, "    return worst",
              "", "", "def post(v, t):", state]
    lines += [f"    {name}{i} = {_wrap_source(f'{name}{i}')}"
              for i in range(n) for name in ("k", "th", "kb")]
    lines += ["    out = [" + ",\n        ".join(_BLOCK.format(i=i)
                                         for i in range(n)) + "]",
              clear, "        ranges(out, t)", *screen,
              "    if not worst <= _DRIFT_SCREEN:",
              "        _check_drift(out, t)", "    return out"]
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def _kernel(n):
    """The compiled shape-space kernel of n agents (:func:`_kernel_source`),
    built on first use and filed as ``<pursuit_lab shape-space n=...>``:
    a dict of its functions ``ranges``, ``rates``, ``residual`` and
    ``post``."""
    return _build_kernel("shape-space", _kernel_source, n, {
        "EPS_COL": EPS_COL, "_DRIFT_SCREEN": _DRIFT_SCREEN,
        "CollisionError": CollisionError, "_check_drift": _check_drift,
        "pi": math.pi, "tau": 2.0 * math.pi, "sin": math.sin,
        "cos": math.cos})


def _check_drift(v, t):
    """Raise :class:`ConstraintDriftError` when the largest residual of
    the packed state ``v`` exceeds ``DRIFT_TOL``."""
    g0, max_g1, max_g2 = _residual_summary(np.reshape(v, (-1, 5)))
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

    The state steps as a list of floats through the kernel of n, whose
    post-step (``post``, see :func:`_kernel_source`) ends each step.
    """
    require_shape_assumptions(params)
    n = shape0.n
    kernel = _kernel(n)
    rates = kernel["rates"]
    const = _constants(params)

    def field(v):
        return _scalar_pass(rates, v, const)

    times, samples = rk4_integrate(field, shape0.to_vector().tolist(), T,
                                   dt, record_every, kernel["post"])
    stacked = samples.reshape(len(samples), n, 5)
    return ShapeTrajectory(
        t=times,
        rho=stacked[:, :, 0], kappa=stacked[:, :, 1], theta=stacked[:, :, 2],
        rho_b=stacked[:, :, 3], kappa_b=stacked[:, :, 4],
        residuals=_residual_summary(stacked))
