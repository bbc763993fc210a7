"""Planar particle model, beacon-referenced steering law and full-space
simulation.

Each agent is a unit-mass self-steering particle carried by a natural
frame (heading x_i of unit length, normal y_i = x_i rotated by +pi/2);
the steering control u_i is the path curvature.  The feedback is a convex
combination of constant-bearing pursuit of the next agent in the cycle
and constant-bearing tracking of a fixed beacon.  The law is written once,
on the x/y components of positions and headings over any leading axes;
the scalar shape form is kept as a test oracle and agrees with it to
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


def _chase_geometry(px, py, beacon):
    """Range and unit bearings to the pursued neighbor and the beacon.

    px, py: (..., n) position components; beacon: (2,).  Returns the
    components of the unit line of sight to the next agent, its range,
    and the components of the unit line of sight to the beacon.  Raises CollisionError on any collocated
    pair (pursued neighbor or beacon), identifying the pair.
    """
    n = px.shape[-1]
    nxt, _ = cyclic_neighbors(n)
    dx = px[..., nxt] - px
    dy = py[..., nxt] - py
    rho = np.hypot(dx, dy)
    # fmin skips NaN, so this decides as np.any(rho <= EPS_COL) does
    if np.fmin.reduce(rho, axis=None) <= EPS_COL:
        i = int(np.argmax(rho <= EPS_COL)) % n
        raise CollisionError(
            f"agents {i + 1} and {(i + 1) % n + 1} are collocated",
            pair=(i, (i + 1) % n))
    bx = beacon[0] - px
    by = beacon[1] - py
    rho_b = np.hypot(bx, by)
    if np.fmin.reduce(rho_b, axis=None) <= EPS_COL:
        i = int(np.argmax(rho_b <= EPS_COL)) % n
        raise CollisionError(f"agent {i + 1} is collocated with the beacon",
                             pair=(i, "beacon"))
    return dx / rho, dy / rho, rho, bx / rho_b, by / rho_b


def _controls(positions, headings, beacon, params):
    """The steering law: curvature commands of all agents, as a convex
    combination of constant-bearing pursuit of the next agent and
    constant-bearing tracking of the beacon.

    positions/headings: (..., n, 2); returns (..., n).  Written on x/y
    components: the normal y (the heading x turned by +pi/2) is
    (-x_1, x_0), y turned by a bearing a is (c y_0 - s y_1, s y_0 + c y_1)
    with c, s = cos a, sin a, and a dot product is a_0 b_0 + a_1 b_1.
    """
    hx = headings[..., 0]
    hy = headings[..., 1]
    lx, ly, rho, ex, ey = _chase_geometry(positions[..., 0],
                                          positions[..., 1], beacon)
    ca, sa, cb, sb = params._bearing_trig
    nu = params.nu
    nxt, _ = cyclic_neighbors(params.n)
    ny = -hy                          # y_0; y_1 is hx
    vx = nu * hx
    vy = nu * hy
    wx = vx - vx[..., nxt]            # velocity relative to the next agent
    wy = vy - vy[..., nxt]
    u_cb = (params.mu * ((ca * ny - sa * hx) * lx + (sa * ny + ca * hx) * ly)
            + (ly * wx - lx * wy) / (nu * rho))
    u_b = params.mu_b * ((cb * ny - sb * hx) * ex + (sb * ny + cb * hx) * ey)
    return (1.0 - params.lam) * u_cb + params.lam * u_b


def control_profile(world, params):
    """Curvature commands for all agents of a world state."""
    return _controls(world.positions, world.headings, world.beacon, params)


def particle_rates(positions, headings, beacon, params):
    """Particle-model rates r' = nu x, x' = nu u y (beacon fixed).

    positions/headings: (..., n, 2); returns one (2, ..., n, 2) array
    stacking r' and x'.
    """
    u = params.nu * _controls(positions, headings, beacon, params)
    rates = np.empty((2,) + headings.shape)
    np.multiply(params.nu[:, None], headings, out=rates[0])
    np.multiply(u, -headings[..., 1], out=rates[1, ..., 0])
    np.multiply(u, headings[..., 0], out=rates[1, ..., 1])
    return rates


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

    Headings are renormalized to unit length after every step (the exact
    flow preserves them; the discrete step does not), so |r'_i| = nu_i
    holds exactly at every sample.  The run aborts with CollisionError,
    carrying time and pair, if any monitored range reaches the
    collocation floor.
    """
    n = world0.n
    beacon = world0.beacon.copy()

    def field(vec):
        state = vec.reshape(2, n, 2)
        return particle_rates(state[0], state[1], beacon, params).ravel()

    def renormalize(vec, t):
        head = vec[2 * n:].reshape(n, 2)
        head /= np.hypot(head[:, 0], head[:, 1])[:, None]
        return vec

    times, samples = rk4_integrate(
        field, np.concatenate([world0.positions.ravel(),
                               world0.headings.ravel()]),
        T, dt, record_every, renormalize)
    positions = samples[:, :2 * n].reshape(-1, n, 2)
    headings = samples[:, 2 * n:].reshape(-1, n, 2)
    try:
        # every sample but the last already fed a field evaluation
        controls = _controls(positions, headings, beacon, params)
    except CollisionError as err:
        raise CollisionError(str(err), pair=err.pair,
                             t=float(times[-1])) from None
    return FullTrajectory(t=times, positions=positions, headings=headings,
                          controls=controls, beacon=beacon)


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
    _chase_geometry(world.positions[..., 0], world.positions[..., 1],
                    world.beacon)
    rho, kappa, theta, rho_b, kappa_b = _shape_arrays(
        world.positions, world.headings, world.beacon)
    return ShapeState(rho=rho, kappa=kappa, theta=theta, rho_b=rho_b,
                      kappa_b=kappa_b)


def extract_shape_trajectory(traj):
    """Shape variables along a full-space trajectory, as (m, n) arrays."""
    return _shape_arrays(traj.positions, traj.headings, traj.beacon)
