import math
import operator
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from pursuit_lab import ControlParams, numerics
from pursuit_lab.errors import CollisionError, NumericError
from pursuit_lab.full_space import FullTrajectory
from pursuit_lab.numerics import _check_finite, cyclic_neighbors, step_count
from pursuit_lab.shape_space import EPS_COL
from pursuit_lab.stability import abd


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """One pass/fail line per acceptance criterion."""
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and "test_acceptance" in item.nodeid:
        status = "PASS" if report.passed else "FAIL"
        label = item.name.replace("test_", "")
        print(f"\nACCEPTANCE {label}: {status} ({report.duration:.1f}s)")


def multiset_distance(a, b):
    """Max matched distance between two complex multisets (Hungarian)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    assert a.size == b.size
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def same_bits(a, b):
    """True when a and b have the same shape and dtype and the same bit
    pattern in every element, so -0.0 and +0.0 differ."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    return np.array_equal(np.ascontiguousarray(a).reshape(-1).view(np.uint64),
                          np.ascontiguousarray(b).reshape(-1).view(np.uint64))


class FixedDraws:
    """A stand-in for hypothesis' ``data()`` in an explicit ``@example``,
    which hypothesis cannot fill: each ``draw`` returns a copy of the next
    of ``values``, in turn and whatever the strategy, so a test that
    draws them in that order runs unedited."""

    def __init__(self, *values):
        self._values = values
        self._drawn = 0

    def draw(self, strategy, label=None):
        value = self._values[self._drawn % len(self._values)]
        self._drawn += 1
        return list(value)


def reference_rk4_step(field, state, dt):
    """Oracle of ``numerics.rk4_step``: the step on an array state, whose
    field maps arrays to arrays, with the same stage gates."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    k1 = np.asarray(field(state), dtype=float)
    if not math.isfinite(np.add.reduce(k1, axis=None)):
        _check_finite(k1, 1)
    k2 = np.asarray(field(state + (0.5 * dt) * k1), dtype=float)
    if not math.isfinite(np.add.reduce(k2, axis=None)):
        _check_finite(k2, 2)
    k3 = np.asarray(field(state + (0.5 * dt) * k2), dtype=float)
    if not math.isfinite(np.add.reduce(k3, axis=None)):
        _check_finite(k3, 3)
    k4 = np.asarray(field(state + dt * k3), dtype=float)
    if not math.isfinite(np.add.reduce(k4, axis=None)):
        _check_finite(k4, 4)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def reference_rk4_integrate(field, y0, T, dt, record_every=1,
                            post_step=None):
    """Oracle of ``numerics.rk4_integrate``: the driver on an array state
    through :func:`reference_rk4_step`, with the same horizon rule,
    state gate, post-step and collision times; ``post_step`` gets and
    returns an array."""
    n_steps = step_count(T, dt)
    try:
        every = operator.index(record_every)
    except TypeError:
        every = 0
    if every < 1:
        raise ValueError(f"record_every must be a positive integer, got "
                         f"{record_every!r}")
    y = np.array(y0, dtype=float)
    samples = [y.copy()]
    times = [0.0]
    for step in range(1, n_steps + 1):
        t = step * dt
        try:
            y = reference_rk4_step(field, y, dt)
            total = np.add.reduce(y, axis=None)
            if not math.isfinite(total) and not np.isfinite(y).all():
                raise NumericError(f"non-finite state at t = {t:.6g}")
            if post_step is not None:
                y = post_step(y, t)
        except CollisionError as err:
            if err.t is not None:
                raise
            raise CollisionError(str(err), pair=err.pair, t=t) from None
        if step % every == 0 or step == n_steps:
            times.append(t)
            samples.append(y.copy())
    return np.asarray(times), np.asarray(samples)


# The linearization oracles: the 5x5 coupling blocks, the mode blocks D_k
# and the closed-form quintic of each mode.  They are the evidence chain
# from the dynamics to the closed-form cubics of ``stability``
# (criteria 05 and 06, TestCharPoly), which need none of them.
@dataclass(frozen=True)
class QCoefficients:
    """Entries of the linearization blocks (q4 = -mu^2 a^2 identically)."""

    q1: float
    q2: float
    q3: float
    q4: float
    q5: float


@dataclass(frozen=True)
class BlockTriple:
    """Self, next-neighbor and previous-neighbor coupling blocks."""

    A0: np.ndarray
    A1: np.ndarray
    Am1: np.ndarray


def block_triple(params, m):
    """The three 5x5 linearization blocks and their q coefficients.

    State order inside each agent block: (rho, kappa, theta, rho_b,
    kappa_b).  A1 couples to the next agent solely through its theta
    column; A-1 couples to the previous agent solely through the theta
    row.
    """
    co = abd(params, m)
    lam = params.lam
    mu = params.mu
    angle = co.m * np.pi / params.n
    sin_m = np.sin(angle)
    q1 = 0.5 * mu ** 2 * co.a ** 2 / sin_m
    q2 = 0.5 * mu * co.a / np.tan(angle)
    q3 = mu * (1.0 - lam) * np.cos(co.alpha_star)
    q4 = -2.0 * q1 * sin_m
    q5 = -mu * lam * np.sin(float(params.alpha0[0]))
    q = QCoefficients(q1=float(q1), q2=float(q2), q3=float(q3),
                      q4=float(q4), q5=float(q5))

    a0 = np.array([
        [0.0, sin_m, 0.0, 0.0, 0.0],
        [-lam * q1, lam * q2 - q3, 0.0, 0.0, q5],
        [(1 - lam) * q1, -(1 - lam) * q2 - q3, -q2, 0.0, q5],
        [0.0, 0.0, 0.0, 0.0, 1.0],
        [(1 - lam) * q1, -(1 - lam) * q2 - q3, 0.0, q4, q5],
    ])
    a1 = np.zeros((5, 5))
    a1[:, 2] = [sin_m, -lam * q2, (1 - lam) * q2, 0.0, (1 - lam) * q2]
    am1 = np.zeros((5, 5))
    am1[2, :] = [-q1, q2, 0.0, 0.0, 0.0]
    return BlockTriple(A0=a0, A1=a1, Am1=am1), q


def dk(blocks, k, n):
    """Mode block D_k = A0 + w^k A1 + w^-k A-1, w = exp(2 pi j / n).

    ``k`` is a mode index or an array of them; an array of shape s gives
    the stack of blocks, shape s + (5, 5).
    """
    k = np.asarray(k)
    if np.any((k < 0) | (k >= n)):
        raise ValueError("mode index k must satisfy 0 <= k < n")
    # the phase is a real division: dividing the complex 2 pi j k by n
    # would multiply by a rounded 1/n and move w in the last bit
    w = np.exp(1j * (2.0 * np.pi * k / n))[..., None, None]
    return blocks.A0.astype(complex) + w * blocks.A1 + np.conj(w) * blocks.Am1


def char_poly(params, m, k):
    """Coefficients (degree 5, highest first) of the mode-k
    characteristic polynomial, in closed form."""
    co = abd(params, m)
    lam = params.lam
    mu = params.mu
    a, b, d = co.a, co.b, co.d
    n = params.n
    cot_m = 1.0 / np.tan(m * np.pi / n)
    w = np.exp(2j * np.pi * k / n)
    one_minus = 1.0 - w
    one_plus = 1.0 + w
    cos_star = np.cos(co.alpha_star)
    c5 = 1.0
    c4 = mu * (b + 0.5 * a * (1.0 - lam) * one_minus * cot_m)
    c3 = 0.5 * mu ** 2 * a * (2.0 * a + one_minus * d + lam * a * one_plus)
    c2 = (0.5 * mu ** 3 * a ** 2 * (1.0 - lam) * one_minus
          * (cos_star + a * cot_m)
          + mu ** 3 * a ** 2 * b)
    c1 = 0.5 * mu ** 4 * a ** 3 * (one_minus * d + lam * a * one_plus)
    c0 = 0.5 * mu ** 5 * a ** 4 * one_minus * (1.0 - lam) * cos_star
    return np.array([c5, c4, c3, c2, c1, c0], dtype=complex)


def assemble_block_circulant(blocks, n):
    """The explicit 5n x 5n block-circulant Jacobian circ(A0, A1, 0, ...,
    A-1) of a :class:`BlockTriple`: row block i carries A0 on the
    diagonal, A1 at block i+1 and A-1 at block i-1 (indices mod n); at
    n = 2 both neighbours are one agent and its block is A1 + A-1."""
    big = np.zeros((5 * n, 5 * n))
    for i in range(n):
        big[5 * i:5 * i + 5, 5 * i:5 * i + 5] = blocks.A0
        j = (i + 1) % n
        big[5 * i:5 * i + 5, 5 * j:5 * j + 5] += blocks.A1
        j = (i - 1) % n
        big[5 * i:5 * i + 5, 5 * j:5 * j + 5] += blocks.Am1
    return big


@pytest.fixture
def traced_step_counts(monkeypatch):
    """Wrap numerics.rk4_step as a tracer does; the counts of steps and of
    field evaluations that pass through it."""
    counts = {"steps": 0, "fields": 0}
    step = numerics.rk4_step

    def counted_step(field, state, dt):
        counts["steps"] += 1

        def counted_field(vec):
            counts["fields"] += 1
            return field(vec)

        return step(counted_field, state, dt)

    monkeypatch.setattr(numerics, "rk4_step", counted_step)
    return counts


@pytest.fixture
def reference_params():
    """n=3, mu=1, lambda=1/2, alpha=pi/6, alpha0=pi/4 (winding m=1)."""
    return ControlParams.homogeneous(3, mu=1.0, lam=0.5, alpha=np.pi / 6,
                                     alpha0=np.pi / 4)


@pytest.fixture
def fig2_params():
    alpha = [np.pi / 6] * 3 + [np.pi / 7] * 3 + [np.pi / 8] * 4
    return ControlParams.homogeneous(10, mu=1.0, lam=0.5, alpha=alpha,
                                     alpha0=np.pi / 4)


@pytest.fixture
def spiral_params():
    """n=3 spiral-regime parameters (no reduced equilibrium at k=2)."""
    return ControlParams.homogeneous(3, mu=2.0, lam=0.5,
                                     alpha=7 * np.pi / 12,
                                     alpha0=11 * np.pi / 12)


def reference_equilibrium(params):
    """The canonical leftmost-branch ccw equilibrium of the reference
    parameters (sigma all +1, winding 1)."""
    from pursuit_lab import enumerate_equilibria
    matches = [eq for eq in enumerate_equilibria(params, direction=1)
               if eq.branch.sigma == (1, 1, 1) and eq.branch.m == 1]
    assert len(matches) == 1
    return matches[0]


def _reference_geometry(px, py, beacon):
    """Range and unit bearings to the pursued neighbor and the beacon.

    px, py: (..., n) position components; beacon: (2,).  Returns the
    components of the unit line of sight to the next agent, its range,
    and the components of the unit line of sight to the beacon.  Raises
    CollisionError on any collocated pair (pursued neighbor or beacon),
    identifying the pair.
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


def _reference_half_angles(kappa1, kappa_t, psi):
    """kappa_i+, Phi_i/2, Psi_i/2 and the suffix sums kappa~_i + ... +
    kappa~_n in numpy array form (empty sum for the last agent)."""
    suffix = np.cumsum(kappa_t[::-1])[::-1]
    kplus = 2.0 * kappa1 + kappa_t + 2.0 * np.concatenate([suffix[1:], [0.0]])
    psi_next = psi[cyclic_neighbors(kappa_t.shape[0])[0]]
    return kplus, 0.5 * (kplus + psi_next), 0.5 * (kappa_t - psi_next), suffix


def reference_a5_guards(kappa1, kappa_t, psi):
    """Oracle of the A5 guards: min |cos(Phi/2)|, |cos(Psi/2)|,
    |sin(Phi/2)| over agents, in numpy array form."""
    _, half_phi, half_psi, _ = _reference_half_angles(kappa1, kappa_t, psi)
    return (float(np.min(np.abs(np.cos(half_phi)))),
            float(np.min(np.abs(np.cos(half_psi)))),
            float(np.min(np.abs(np.sin(half_phi)))))


def reference_pure_rates(vec, n, mu, lam, alpha, alpha0):
    """Oracle of the transformed rates of a packed pure-shape state
    (kappa1, rho1, then the kappa~, psi, phi_b, rho~, rho~_b blocks), in
    numpy array form and in the same layout."""
    kappa1 = vec[0]
    rho1 = vec[1]
    kappa_t, psi, phi_b, rho_t, rho_tb = vec[2:].reshape(5, n)

    nxt, prv = cyclic_neighbors(n)
    kplus, half_phi, half_psi, suffix = _reference_half_angles(
        kappa1, kappa_t, psi)
    s_half = np.sin(half_phi)
    c_half = np.cos(half_phi)
    c_psi = np.cos(half_psi)
    spread = s_half * c_psi / rho_t           # sin(Phi/2)cos(Psi/2)/rho~
    squeeze = c_half * c_psi                  # cos(Phi/2)cos(Psi/2)

    d_kappa1 = (-mu * ((1.0 - lam) * np.sin(kappa1 - alpha)
                       + lam * np.sin(phi_b[0] + kappa1 - alpha0))
                + 2.0 * lam / rho1 * s_half[0] * c_psi[0])
    d_rho1 = -2.0 * squeeze[0]

    phi_next = phi_b[nxt]
    d_kappa_t = (-2.0 * mu * (
        (1.0 - lam) * np.sin(0.5 * kappa_t)
        * np.cos(0.5 * kplus - alpha)
        + lam * np.sin(0.5 * (phi_b - phi_next + kappa_t))
        * np.cos(0.5 * (phi_b + phi_next + kplus) - alpha0))
        + 2.0 * lam / rho1 * (spread - spread[nxt]))
    d_rho_t = 2.0 / rho1 * (rho_t * squeeze[0] - squeeze)
    d_psi = 2.0 / rho1 * (spread[prv] - spread)
    beacon_arg = phi_b + kappa1 + suffix
    d_rho_tb = (2.0 * rho_tb * squeeze[0] - np.cos(beacon_arg)) / rho1
    d_phi_b = (np.sin(beacon_arg) / rho_tb - 2.0 * spread) / rho1
    out = np.empty(2 + 5 * n)
    out[0] = d_kappa1
    out[1] = d_rho1
    out[2:].reshape(5, n)[:] = d_kappa_t, d_psi, d_phi_b, d_rho_t, d_rho_tb
    return out


def reference_shape_rates(blocks, params):
    """Oracle of the closed-loop shape rates of shape blocks (..., n, 5),
    in numpy array form and in the same layout."""
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


def reference_controls(positions, headings, beacon, params):
    """Oracle of the steering law: the agent-major component form, one
    term at a time.

    positions/headings: (..., n, 2); returns (..., n).  The normal y (the
    heading x turned by +pi/2) is (-x_1, x_0), y turned by a bearing a is
    (c y_0 - s y_1, s y_0 + c y_1) with c, s = cos a, sin a, and a dot
    product is a_0 b_0 + a_1 b_1.
    """
    hx = headings[..., 0]
    hy = headings[..., 1]
    lx, ly, rho, ex, ey = _reference_geometry(positions[..., 0],
                                              positions[..., 1], beacon)
    ca, sa = np.cos(params.alpha), np.sin(params.alpha)
    cb, sb = np.cos(params.alpha0), np.sin(params.alpha0)
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


def reference_rates(positions, headings, beacon, params):
    """Oracle of the particle-model rates r' = nu x, x' = nu u y, one
    (2, ..., n, 2) array."""
    u = params.nu * reference_controls(positions, headings, beacon, params)
    rates = np.empty((2,) + headings.shape)
    np.multiply(params.nu[:, None], headings, out=rates[0])
    np.multiply(u, -headings[..., 1], out=rates[1, ..., 0])
    np.multiply(u, headings[..., 0], out=rates[1, ..., 1])
    return rates


def reference_simulate(world0, params, T, dt, record_every=1):
    """Oracle of ``simulate``: the agent-major state (positions, then
    headings, each agent's x and y together) through
    ``reference_rk4_integrate`` and the oracle rates."""
    n = world0.n
    beacon = world0.beacon.copy()

    def field(vec):
        state = vec.reshape(2, n, 2)
        return reference_rates(state[0], state[1], beacon, params).ravel()

    def renormalize(vec, t):
        head = vec[2 * n:].reshape(n, 2)
        head /= np.hypot(head[:, 0], head[:, 1])[:, None]
        return vec

    times, samples = reference_rk4_integrate(
        field, np.concatenate([world0.positions.ravel(),
                               world0.headings.ravel()]),
        T, dt, record_every, renormalize)
    positions = samples[:, :2 * n].reshape(-1, n, 2)
    headings = samples[:, 2 * n:].reshape(-1, n, 2)
    try:
        controls = reference_controls(positions, headings, beacon, params)
    except CollisionError as err:
        raise CollisionError(str(err), pair=err.pair,
                             t=float(times[-1])) from None
    return FullTrajectory(t=times, positions=positions, headings=headings,
                          controls=controls, beacon=beacon)
