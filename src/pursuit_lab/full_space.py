"""Planar particle model, beacon-referenced steering law and full-space
simulation.

Each agent is a unit-mass self-steering particle carried by a natural
frame (heading x_i of unit length, normal y_i = x_i rotated by +pi/2);
the steering control u_i is the path curvature.  The feedback is a convex
combination of constant-bearing pursuit of the next agent in the cycle
and constant-bearing tracking of a fixed beacon.

Both terms are one operation on two targets: turn the normal by a
bearing, project it on the unit line of sight, scale by a gain.  So the
law is written once, in :class:`_SteeringLaw`, on a packed
component-major state: rows px, py, hx, hy over the agents, with the
beacon appended.  There the chase and beacon lines
of sight form one array, and the range, the collision check, the
normalisation, the bearing rotation, the projection and the gain each
run once for both terms.  ``simulate`` integrates the packed state and
transposes its samples to the agent-major (..., n, 2) arrays of
:class:`WorldState` and :class:`FullTrajectory` once, at the end; the
public functions take agent-major arrays over any leading axes.  The
scalar shape form is kept as a test oracle and agrees with the law to
roundoff.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CollisionError
from .numerics import (DEFAULT_DT, cyclic_neighbors, rk4_integrate,
                       wrap_angle)
from .shape_space import EPS_COL, ShapeState

# Side of the beacon-centered square random_world draws positions from.
WORLD_SIDE = 4.0
# Samples per steering-law evaluation of a recorded trajectory's controls.
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


class _SteeringLaw:
    """The steering law of one parameter set and beacon, over one leading
    shape of independent worlds.

    Each world is held packed, component-major, as ``packed`` (..., 4n)
    is given: rows px, py, hx, hy over the agents; the beacon's x and y
    follow them in one buffer.  One gather through a fixed index table
    lays out, as contiguous (..., 2, 2, n) blocks (component, term,
    agent), each agent's two targets (the next agent, the beacon), the
    agent itself and its heading; the two terms of the law then run as
    one pass: range, collision check, normalisation, bearing rotation,
    projection and gain each once.  Written on components, the normal
    y = (-hy, hx) turned by a bearing with cos c and sin s is
    (c (-hy) - s hx, c hx - s hy), so with the cos stacked as (-c, c)
    the rotation is (-c, c) (hy, hx) - s (hx, hy); a dot product is
    a_0 b_0 + a_1 b_1.  Every buffer and view is made here, once, so an
    evaluation only runs ufuncs into them.
    """

    def __init__(self, params, beacon, packed):
        n = params.n
        lead = packed.shape[:-1]
        nxt, _ = cyclic_neighbors(n)
        agents = np.arange(n)
        px, py, hx, hy = agents, n + agents, 2 * n + agents, 3 * n + agents
        bx, by = np.full(n, 4 * n), np.full(n, 4 * n + 1)
        # gathered blocks: targets, sources, swapped heading and heading,
        # each component by term by agent, then the next agent's swapped
        # heading
        self._index = np.concatenate([
            px[nxt], bx, py[nxt], by, px, px, py, py, hy, hy, hx, hx,
            hx, hx, hy, hy, hy[nxt], hx[nxt]])
        self._buffer = np.empty(lead + (4 * n + 2,))
        self._buffer[..., 4 * n:] = beacon
        self._packed = self._buffer[..., :4 * n]
        self._packed[...] = packed
        self._head = self._packed[..., 2 * n:].reshape(lead + (2, n))
        self._gathered = np.empty(lead + (18 * n,))
        self._targets, self._sources, self._swapped_pair, self._head_pair = (
            self._gathered[..., 4 * n * b:4 * n * (b + 1)]
            .reshape(lead + (2, 2, n)) for b in range(4))
        self._swapped = self._swapped_pair[..., 0, :]
        self._next_swapped = self._gathered[..., 16 * n:].reshape(
            lead + (2, n))

        (self._signed_cos, self._sin, self._gain, self._weight,
         self._signed_nu) = params._steering_coefficients
        self._nu = params.nu
        self._nu_next = params.nu[nxt]

        self._sight = np.empty(lead + (2, 2, n))
        self._sight_x = self._sight[..., 0, :, :]
        self._sight_y = self._sight[..., 1, :, :]
        self._chase_sight = self._sight[..., 0, :]
        self._range = np.empty(lead + (2, n))
        self._all_ranges = self._range.reshape(-1)
        self._range_pair = self._range[..., None, :, :]
        self._chase_range = self._range[..., 0, :]
        self._beacon_range = self._range[..., 1, :]
        self._turned = np.empty(lead + (2, 2, n))
        self._turned_x = self._turned[..., 0, :, :]
        self._turned_y = self._turned[..., 1, :, :]
        self._product = np.empty(lead + (2, 2, n))
        self._terms = np.empty(lead + (2, n))
        self._chase_term = self._terms[..., 0, :]
        self._beacon_term = self._terms[..., 1, :]
        self._relative = np.empty(lead + (2, n))
        self._next_velocity = np.empty(lead + (2, n))
        self._cross = np.empty(lead + (2, n))
        self._cross_x = self._cross[..., 0, :]
        self._cross_y = self._cross[..., 1, :]
        self._rotation = np.empty(lead + (n,))
        self._scale = np.empty(lead + (n,))
        self._u = np.empty(lead + (n,))
        self._u_pair = self._u[..., None, :]
        self._nu_u = np.empty(lead + (2, n))
        self._rates = np.empty(lead + (4 * n,))
        self._velocity = self._rates[..., :2 * n].reshape(lead + (2, n))
        self._turning = self._rates[..., 2 * n:].reshape(lead + (2, n))

    def _controls(self):
        """Curvature commands of the packed state, into ``self._u``."""
        np.take(self._buffer, self._index, axis=-1, out=self._gathered,
                mode="clip")
        sight, rng = self._sight, self._range
        np.subtract(self._targets, self._sources, out=sight)
        np.hypot(self._sight_x, self._sight_y, out=rng)
        # fmin skips NaN, so this decides as np.any(rng <= EPS_COL) does
        if np.fmin.reduce(self._all_ranges) <= EPS_COL:
            _check_ranges(self._chase_range, self._beacon_range)
        np.divide(sight, self._range_pair, out=sight)
        turned = self._turned
        np.multiply(self._signed_cos, self._swapped_pair, out=turned)
        np.multiply(self._sin, self._head_pair, out=self._product)
        np.subtract(turned, self._product, out=turned)
        np.multiply(turned, sight, out=turned)
        terms = self._terms
        np.add(self._turned_x, self._turned_y, out=terms)
        np.multiply(self._gain, terms, out=terms)
        # the rotation of the line of sight to the next agent: with the
        # relative velocity w = nu x - (nu x)_next held swapped, (wy, wx),
        # it is ly wx - lx wy
        relative = self._relative
        np.multiply(self._nu, self._swapped, out=relative)
        np.multiply(self._nu_next, self._next_swapped,
                    out=self._next_velocity)
        np.subtract(relative, self._next_velocity, out=relative)
        np.multiply(self._chase_sight, relative, out=self._cross)
        rotation = self._rotation
        np.subtract(self._cross_y, self._cross_x, out=rotation)
        np.multiply(self._nu, self._chase_range, out=self._scale)
        np.divide(rotation, self._scale, out=rotation)
        np.add(self._chase_term, rotation, out=self._chase_term)
        np.multiply(self._weight, terms, out=terms)
        return np.add(self._chase_term, self._beacon_term, out=self._u)

    def controls(self):
        """Curvature commands (..., n) of the packed state."""
        return self._controls().copy()

    def rates(self):
        """Particle-model rates r' = nu x and x' = nu u y of the packed
        state, packed as the state is: (..., 4n)."""
        self._controls()
        np.multiply(self._nu, self._head, out=self._velocity)
        # (-nu u, nu u) (hy, hx) is nu u (-hy, hx)
        np.multiply(self._signed_nu, self._u_pair, out=self._nu_u)
        np.multiply(self._nu_u, self._swapped, out=self._turning)
        return self._rates.copy()

    def field(self, vec):
        """Packed rates of a packed state vector (4n,)."""
        np.copyto(self._packed, vec)
        return self.rates()


def _packed(positions, headings):
    """Agent-major (..., n, 2) positions and headings as packed rows
    px, py, hx, hy, (..., 4n)."""
    rows = np.concatenate((np.swapaxes(positions, -1, -2),
                           np.swapaxes(headings, -1, -2)), axis=-2)
    return rows.reshape(rows.shape[:-2] + (-1,))


def control_profile(world, params):
    """Curvature commands for all agents of a world state."""
    return _SteeringLaw(params, world.beacon,
                        _packed(world.positions, world.headings)).controls()


def particle_rates(positions, headings, beacon, params):
    """Particle-model rates r' = nu x, x' = nu u y (beacon fixed).

    positions/headings: (..., n, 2); returns one (2, ..., n, 2) array
    stacking r' and x'.
    """
    rates = _SteeringLaw(params, beacon, _packed(positions, headings)).rates()
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


def simulate(world0, params, T, dt=DEFAULT_DT, record_every=1):
    """Fixed-step RK4 simulation of the full planar dynamics.

    The integrated state is packed component-major (px, py, hx, hy
    rows); a non-finite stage derivative is reported at its index there.
    Headings are renormalized to unit length after every step (the exact
    flow preserves them; the discrete step does not), so |r'_i| = nu_i
    holds exactly at every sample.  The run aborts with CollisionError,
    carrying time and pair, if any monitored range reaches the
    collocation floor.
    """
    n = world0.n
    beacon = world0.beacon.copy()

    def renormalize(vec, t):
        head = vec[2 * n:].reshape(2, n)
        np.divide(head, np.hypot(head[0], head[1]), out=head)
        return vec

    y0 = _packed(world0.positions, world0.headings)
    times, samples = rk4_integrate(_SteeringLaw(params, beacon, y0).field,
                                   y0, T, dt, record_every, renormalize)
    try:
        # every sample but the last already fed a field evaluation; the
        # law's buffers are sized to a block of samples, not the record
        controls = np.concatenate([
            _SteeringLaw(params, beacon, block).controls()
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
