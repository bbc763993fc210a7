"""Planar particle model, beacon-referenced steering law and full-space
simulation.

Each agent is a unit-mass self-steering particle carried by a natural
frame (heading x_i of unit length, normal y_i = x_i rotated by +pi/2);
the steering control u_i is the path curvature.  The feedback is a convex
combination of constant-bearing pursuit of the next agent in the cycle
and constant-bearing tracking of a fixed beacon.

Both terms are one operation on two targets: turn the normal by a
bearing, project it on the unit line of sight, scale by a gain.  The law
is written once, as the template :data:`_AGENT` of one agent's terms,
and runs as one straight-line function per agent count n, with no loop
over agents.  :func:`_law_source` writes the kernel of n: one unpacking
of the 4n entries of a packed component-major state (px, py, hx, hy over
the agents) and of the flat constants, the lines of sight, one call of
:func:`_ranges` (one np.hypot and the collision check), then n agent
blocks whose chase term, beacon term and control are named locals.
:func:`_kernel` caches it per n, compiled on first use by
``numerics._build_kernel``, the builder of every generated kernel; its
code is filed as ``<pursuit_lab law n=...>``, so a traceback names the
kernel and shows its lines, and ``print(_law_source(3))`` shows a whole
one.
Only n enters the source: every parameter value is an argument, built
once per call by :func:`_constants`, so no configured value reaches
``exec`` and parameter sets of one n share one kernel.

The law is generated because it is evaluated four times per RK4 step,
and at small n a loop over agents costs more in interpreter overhead
(zipped iterables, tuple unpacking, appends) than in arithmetic.  µs per
law evaluation on floats, per-agent loop -> kernel, median of 7
alternating process pairs on one 2-vCPU x86 VM: 9.2 -> 4.7 at n = 3,
15.9 -> 10.6 at n = 10, 31 -> 27 at n = 25, 58 -> 52 at n = 50.  The
first call at an n builds its kernel: about 1, 3, 8, 15 and 56 ms at
n = 3, 10, 25, 50 and 200.  The entries are Python floats for one world
and arrays over the leading axes for a batch, so the same kernel steps
``simulate`` and serves ``control_profile``, ``particle_rates`` and the
recorded controls, each of which calls it directly; asked for the
controls alone, it returns them before any heading-rate product.

``simulate`` steps the packed state as a list of floats, for the reason
given in :mod:`pursuit_lab.pure_shape`: at small n, numpy's per-call
overhead on length-n arrays costs more than the arithmetic.  µs per RK4
step with its renormalisation, same pairs: 49 -> 30 at n = 3, 85 -> 65
at n = 10, 181 -> 164 at n = 25; unresolved at n = 50 (321 -> 342,
kernel faster in 3 of 7) and n = 200 (1262 -> 1304, 2 of 7).  Of an
n = 10 step of 62 µs, the four law calls take 42, the RK4 stage
arithmetic on lists 12.5, the renormalisation 3.6 and the driver's gate
and recording 4.  The ranges and the heading
norms come from np.hypot on the lists: Python's math.hypot is correctly
rounded and the C library's hypot, which np.hypot calls, is not, so
only np.hypot keeps the array form's bits.  Every other IEEE operation
keeps the operands and order of the agent-major array form kept as the
test oracle, so the two agree bit for bit.  ``simulate`` transposes its
samples to the agent-major (..., n, 2) arrays of :class:`WorldState`
and :class:`FullTrajectory` once, at the end; the public functions take
agent-major arrays over any leading axes.  The scalar shape form is kept
as a test oracle and agrees with the law to roundoff."""

import functools
from dataclasses import dataclass
from operator import truediv

import numpy as np

from .errors import CollisionError
from .numerics import (DEFAULT_DT, _build_kernel, _names, _scalar_pass,
                       cyclic_neighbors, rk4_integrate, wrap_angle)
from .shape_space import EPS_COL, ShapeState

# Side of the beacon-centered square random_world draws positions from.
WORLD_SIDE = 4.0
# Samples per steering-law evaluation of a recorded trajectory's controls
# (bounds the size of the law's array temporaries).
_RECORD_BLOCK = 4096


def heading_from_angle(angle):
    return np.stack((np.cos(angle), np.sin(angle)), axis=-1)


@dataclass
class WorldState:
    """Positions and frames of n agents plus the fixed beacon."""

    positions: np.ndarray  # (..., n, 2)
    headings: np.ndarray   # (..., n, 2), unit rows
    beacon: np.ndarray     # (2,)
    t: float = 0.0

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        self.headings = np.asarray(self.headings, dtype=float)
        self.beacon = np.asarray(self.beacon, dtype=float)

    @property
    def n(self):
        return self.positions.shape[-2]

    @classmethod
    def from_polar(cls, positions, heading_angles, beacon=(0.0, 0.0), t=0.0):
        return cls(positions=np.asarray(positions, dtype=float),
                   headings=heading_from_angle(np.asarray(heading_angles,
                                                          dtype=float)),
                   beacon=np.asarray(beacon, dtype=float), t=t)


def random_world(n, seed):
    """Random bounded initial condition: positions uniform in a square of
    side ``WORLD_SIDE`` centered on the beacon at the origin, headings
    uniform on the circle.  The seed fully determines the world."""
    rng = np.random.default_rng(seed)
    positions = rng.uniform(-WORLD_SIDE / 2.0, WORLD_SIDE / 2.0, size=(n, 2))
    angles = rng.uniform(-np.pi, np.pi, size=n)
    return WorldState.from_polar(positions, angles)


def _check_ranges(rho, rho_b):
    """Raise CollisionError, naming the pair, if a range is at or below
    the collocation floor.

    rho, rho_b: (..., n) ranges to the pursued neighbour and to the
    beacon.  Chase pairs are reported before the beacon, and within each
    the first hit in C order (first member, then lowest agent); a NaN
    range never counts, as np.fmin skips it.
    """
    n = rho.shape[-1]
    hit = rho <= EPS_COL
    if hit.any():
        i = int(np.argmax(hit)) % n
        raise CollisionError(
            f"agents {i + 1} and {(i + 1) % n + 1} are collocated",
            pair=(i, (i + 1) % n))
    hit = rho_b <= EPS_COL
    if hit.any():
        i = int(np.argmax(hit)) % n
        raise CollisionError(f"agent {i + 1} is collocated with the beacon",
                             pair=(i, "beacon"))


def _constants(params, beacon):
    """The steering law's constants: one flat tuple of Python floats that
    the kernel of n unpacks: the beacon's x and y, mu, 1 - lambda and
    lambda, then over the agents -cos, cos and sin of alpha, the same of
    alpha0, mu_b, nu and -nu."""
    cos_a, cos_b = np.cos(params.alpha), np.cos(params.alpha0)
    agents = np.concatenate((-cos_a, cos_a, np.sin(params.alpha), -cos_b,
                             cos_b, np.sin(params.alpha0), params.mu_b,
                             params.nu, -params.nu))
    return (float(beacon[0]), float(beacon[1]), float(params.mu),
            float(1.0 - params.lam), float(params.lam), *agents.tolist())


def _ranges(dx, dy):
    """The ranges np.hypot(dx, dy) of the 2n lines of sight, to the next
    agent and then to the beacon, as a list of floats (list entries) or
    of arrays, after the collision check.

    One minimum over the ranges decides the check: Python's min for
    floats, which skips a NaN unless it comes first, and that case falls
    to :func:`_check_ranges`, which skips it too; np.fmin for arrays.
    """
    stacked = np.hypot(dx, dy)
    if stacked.ndim == 1:
        ranges = stacked.tolist()
        nearest = min(ranges)
    else:
        ranges = list(stacked)
        nearest = np.fmin.reduce(stacked, axis=None)
    if not nearest > EPS_COL:
        n = len(ranges) // 2
        _check_ranges(np.moveaxis(stacked[:n], 0, -1),
                      np.moveaxis(stacked[n:], 0, -1))
    return ranges


# The law of agent {i}, whose successor is agent {j}: both terms turn the
# normal y = (-hy, hx) by a bearing, project it on the unit line of sight
# and scale it by a gain; turned by cos c and sin s, y is
# ((-c) hy - s hx, c hx - s hy).  The chase term adds the rotation of the
# line of sight to the successor, from the velocity relative to it.
_AGENT = """\
    lx{i} = ex{i} / r{i}
    ly{i} = ey{i} / r{i}
    chase{i} = mu * ((nca{i} * hy{i} - sa{i} * hx{i}) * lx{i}
        + (ca{i} * hx{i} - sa{i} * hy{i}) * ly{i})
    chase{i} = chase{i} + ((ly{i} * (wx{i} - wx{j}) - lx{i} * (wy{i} - wy{j}))
        / (nu{i} * r{i}))
    beacon{i} = mub{i} * ((ncb{i} * hy{i} - sb{i} * hx{i}) * (fx{i} / rb{i})
        + (cb{i} * hx{i} - sb{i} * hy{i}) * (fy{i} / rb{i}))
    u{i} = weight * chase{i} + lam * beacon{i}"""


def _law_source(n):
    """The Python source of the steering law of n agents: ``law(v, c,
    rates)`` on the packed state ``v`` and the flat constants ``c`` of
    :func:`_constants`, one :data:`_AGENT` block per agent and no loop.

    Only n enters the source; every parameter value arrives through
    ``c`` at call time.
    """
    lines = ["def law(v, c, rates):",
             _names(n, "    (", ("px{i}", "py{i}", "hx{i}", "hy{i}"), ") = v"),
             _names(n, "    (bx, by, mu, weight, lam, ",
                    [name + "{i}" for name in ("nca", "ca", "sa", "ncb", "cb",
                                               "sb", "mub", "nu", "nnu")],
                    ") = c"),
             "    # lines of sight to the next agent, then to the beacon"]
    for i in range(n):
        j = (i + 1) % n
        lines += [f"    ex{i} = px{j} - px{i}", f"    ey{i} = py{j} - py{i}"]
    for i in range(n):
        lines += [f"    fx{i} = bx - px{i}", f"    fy{i} = by - py{i}"]
    lines += [_names(n, "    (", ("r{i}", "rb{i}"), ") = _ranges("),
              _names(n, "        [", ("ex{i}", "fx{i}"), "],"),
              _names(n, "        [", ("ey{i}", "fy{i}"), "])"),
              "    # the velocities nu x, which are also the position rates"]
    for i in range(n):
        lines += [f"    wx{i} = nu{i} * hx{i}", f"    wy{i} = nu{i} * hy{i}"]
    lines += [_AGENT.format(i=i, j=(i + 1) % n) for i in range(n)]
    # the controls, or the rates with the heading rates nu u y
    lines += ["    if not rates:",
              _names(n, "        return [", ("u{i}",), "]"),
              _names(n, "    return [", ("wx{i}", "wy{i}",
                                         "(nnu{i} * u{i}) * hy{i}",
                                         "(nu{i} * u{i}) * hx{i}"), "]")]
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def _kernel(n):
    """The compiled steering law of n agents (:func:`_law_source`), built
    on first use and filed as ``<pursuit_lab law n=...>``.

    ``_kernel(n)(v, c, rates)`` gives the curvature commands, or with
    ``rates`` the particle-model rates r' = nu x and x' = nu u y packed
    as the state is, of the packed state ``v``: its 4n entries px, py,
    hx, hy over the agents, Python floats for one world or arrays of one
    shape for a batch of worlds; ``c`` is :func:`_constants`.
    """
    return _build_kernel("law", _law_source, n, {"_ranges": _ranges})["law"]


def _entries(packed):
    """The 4n entries of packed states (..., 4n), each an array over the
    leading axes (a numpy scalar for one world)."""
    return list(np.moveaxis(packed, -1, 0))


def _packed(positions, headings):
    """Agent-major (..., n, 2) positions and headings as packed rows
    px, py, hx, hy, (..., 4n)."""
    rows = np.concatenate((np.swapaxes(positions, -1, -2),
                           np.swapaxes(headings, -1, -2)), axis=-2)
    return rows.reshape(rows.shape[:-2] + (-1,))


def control_profile(world, params):
    """Curvature commands for all agents of a world state."""
    return np.stack(_kernel(params.n)(
        _entries(_packed(world.positions, world.headings)),
        _constants(params, world.beacon), False), axis=-1)


def particle_rates(positions, headings, beacon, params):
    """Particle-model rates r' = nu x, x' = nu u y (beacon fixed).

    positions/headings: (..., n, 2); returns one (2, ..., n, 2) array
    stacking r' and x'.
    """
    rates = np.stack(_kernel(params.n)(_entries(_packed(positions, headings)),
                                       _constants(params, beacon), True),
                     axis=-1)
    rates = rates.reshape(rates.shape[:-1] + (2, 2, -1))
    return np.ascontiguousarray(np.moveaxis(rates, -3, 0).swapaxes(-1, -2))


@dataclass
class FullTrajectory:
    """Sampled full-space trajectory (beacon constant across the run)."""

    t: np.ndarray
    positions: np.ndarray  # (m, n, 2)
    headings: np.ndarray   # (m, n, 2)
    controls: np.ndarray   # (m, n)
    beacon: np.ndarray

    @property
    def n(self):
        return self.positions.shape[1]

    def world_at(self, idx):
        return WorldState(self.positions[idx].copy(),
                          self.headings[idx].copy(),
                          self.beacon.copy(), t=float(self.t[idx]))


def _unit_headings(v, n):
    """Divide each heading of the packed list state ``v`` by its np.hypot
    norm, in place."""
    norms = np.hypot(v[2 * n:3 * n], v[3 * n:]).tolist()
    v[2 * n:] = map(truediv, v[2 * n:], norms + norms)
    return v


def simulate(world0, params, T, dt=DEFAULT_DT, record_every=1):
    """Fixed-step RK4 simulation of the full planar dynamics.

    The integrated state is packed component-major (px, py, hx, hy
    rows) and steps as a list of Python floats; a non-finite stage
    derivative is reported at its index there.  Headings are
    renormalized to unit length after every step (the exact flow
    preserves them; the discrete step does not), so |r'_i| = nu_i holds
    exactly at every sample.  The run aborts with CollisionError,
    carrying time and pair, if any monitored range reaches the
    collocation floor.
    """
    n = world0.n
    beacon = world0.beacon.copy()
    law = _kernel(params.n)
    const = _constants(params, beacon)

    def field(v):
        return _scalar_pass(law, v, const, True)

    def renormalize(v, t):
        return _scalar_pass(_unit_headings, v, n)

    times, samples = rk4_integrate(
        field, _packed(world0.positions, world0.headings).tolist(), T, dt,
        record_every, renormalize)
    try:
        # every sample but the last already fed a field evaluation; the
        # law's array temporaries are sized to a block of samples, not
        # the record
        controls = np.concatenate([
            np.stack(law(_entries(block), const, False), axis=-1)
            for block in np.split(samples, range(_RECORD_BLOCK,
                                                 len(samples),
                                                 _RECORD_BLOCK))])
    except CollisionError as err:
        raise CollisionError(str(err), pair=err.pair,
                             t=float(times[-1])) from None
    agent_major = np.ascontiguousarray(
        samples.reshape(-1, 2, 2, n).transpose(1, 0, 3, 2))
    return FullTrajectory(t=times, positions=agent_major[0],
                          headings=agent_major[1], controls=controls,
                          beacon=beacon)


def _shape_arrays(positions, headings, beacon):
    """Shape variables from cartesian data; supports leading batch axes.

    positions/headings: (..., n, 2); beacon: (2,).
    """
    nxt, prv = cyclic_neighbors(positions.shape[-2])
    h_ang = np.arctan2(headings[..., 1], headings[..., 0])
    d_next = positions[..., nxt, :] - positions
    rho = np.hypot(d_next[..., 0], d_next[..., 1])
    kappa = wrap_angle(np.arctan2(d_next[..., 1], d_next[..., 0]) - h_ang)
    d_prev = positions[..., prv, :] - positions
    theta = wrap_angle(np.arctan2(d_prev[..., 1], d_prev[..., 0]) - h_ang)
    d_b = beacon - positions
    rho_b = np.hypot(d_b[..., 0], d_b[..., 1])
    kappa_b = wrap_angle(np.arctan2(d_b[..., 1], d_b[..., 0]) - h_ang)
    return rho, kappa, theta, rho_b, kappa_b


def extract_shape(world):
    """Scalar shape variables of a world state.

    Raises CollisionError when a monitored range sits at the collocation
    floor (the bearings would be undefined).
    """
    rho, kappa, theta, rho_b, kappa_b = _shape_arrays(
        world.positions, world.headings, world.beacon)
    _check_ranges(rho, rho_b)
    return ShapeState(rho=rho, kappa=kappa, theta=theta, rho_b=rho_b,
                      kappa_b=kappa_b)


def extract_shape_trajectory(traj):
    """Shape variables along a full-space trajectory, as (m, n) arrays."""
    return _shape_arrays(traj.positions, traj.headings, traj.beacon)
