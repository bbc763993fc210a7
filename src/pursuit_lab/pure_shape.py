"""Pure-shape coordinates, invariant manifolds and reduced dynamics.

A change of variables splits the shape into a "pure shape" part --
relative bearings and length ratios, invariant under rotation and
uniform scaling -- plus the overall heading kappa_1 and scale rho_1.
For every k in {1, ..., n-1} there is an invariant manifold M_k on which
the pure shape is frozen (agents equally spaced on a circle around the
beacon, common bearing offsets) and only (kappa_1, rho_1) evolve, with
2-D reduced dynamics.  When the reduced circling equilibrium fails to
exist, an angular strip Delta is positively invariant and trajectories
spiral outward toward a computable asymptotic heading offset.

The transformed field, the A5 guard and the integrator's post-step run
in scalar math on Python floats, as one straight-line kernel per agent
count n with no loop over agents (:func:`_kernel`), because at the sizes
integrated here (n <= 10) numpy's per-call overhead on length-n arrays,
and a Python loop's per-agent overhead, cost more than the arithmetic.
:func:`_kernel_source` writes the kernel of n from templates of one
agent's terms, with the suffix sums, kappa_i+ and the half-angles as
named locals, and ``numerics._build_kernel`` compiles it on first use
(filed as ``<pursuit_lab pure-shape n=...>``); only n enters the
source, and parameter sets of one n share one kernel.  The integrator,
``pure_shape_derivative`` and ``a5_guard_values`` call the kernel's
functions directly.  The integrators step their state as a list of
floats, so no stage converts to or from an array.  Every IEEE operation
keeps the operands and order of the numpy array form, kept as the test
oracle: the two agree bit for bit wherever libm and numpy trig agree,
which the oracle test checks on the build.  µs per RK4 step with its
post-step, per-agent loop -> kernel, best of 7 in two runs on one
2-vCPU x86 VM: 42-43 -> 23 at n = 3, 98-104 -> 62-63 at n = 10,
200-204 -> 147-148 at n = 25, 372-378 -> 270-292 at n = 50.  The numpy
array form costs 188-335 µs over that range and overtakes the kernel
between n = 35 and n = 40; no shipped config or benchmark runs this
integrator past n = 10.  The first call at an n builds its kernel:
about 2, 5, 26 and 109 ms at n = 3, 10, 50 and 200.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (CollisionError, InconclusiveError,
                     PreconditionError, UndefinedManifoldError)
from .full_space import WorldState, heading_from_angle
from .numerics import (DEFAULT_DT, _build_kernel, _names, _scalar_pass,
                       _wrap_source, cyclic_neighbors, rk4_integrate,
                       wrap_angle)
from .params import (require_a6, require_analysis_assumptions, satisfies_a6)
from .shape_space import EPS_COL

# A5 guard: |cos(Phi/2)|, |cos(Psi/2)| or |sin(Phi/2)| below this is
# flagged (the manifold derivation divides by these quantities).
A5_GUARD_TOL = 1e-6


@dataclass
class PureShapeState:
    """Overall pose (kappa1, rho1) plus the scale-free shape variables."""

    kappa1: float
    rho1: float
    kappa_t: np.ndarray  # kappa_i - kappa_{i+1}
    psi: np.ndarray      # theta_i - kappa_i
    phi_b: np.ndarray    # kappa_ib - kappa_i
    rho_t: np.ndarray    # rho_i / rho_1 (first entry exactly 1)
    rho_tb: np.ndarray   # rho_ib / rho_1

    @property
    def n(self):
        return self.kappa_t.shape[0]

    def to_vector(self):
        return np.concatenate([[self.kappa1, self.rho1], self.kappa_t,
                               self.psi, self.phi_b, self.rho_t,
                               self.rho_tb])

    @classmethod
    def from_vector(cls, vec, n):
        vec = np.asarray(vec, dtype=float)
        return cls(float(vec[0]), float(vec[1]),
                   *_blocks(vec.copy(), n))


def _blocks(vec, n):
    """The kappa~, psi, phi_b, rho~ and rho~_b blocks (..., 5, n) of packed
    states (..., 2 + 5n): kappa1, rho1, then five blocks of n entries."""
    return vec[..., 2:].reshape(vec.shape[:-1] + (5, n))


def _check_rho1_floor(rho1):
    """Agent 1's chase range rho1 must stay above the collocation floor."""
    if rho1 <= EPS_COL:
        raise CollisionError("rho_1 at or below collocation floor",
                             pair=(0, 1))


def _check_rho1_positive(rho1):
    """A scale rho1 given to a reduced or lifted state must be positive."""
    if not rho1 > 0.0:
        raise PreconditionError("rho1 must be positive")


def to_pure_shape(shape):
    """Change of variables from a full shape state.

    Ratios are taken against agent 1's chase range, so the result is
    invariant under uniform rescaling of all lengths (except rho1
    itself).
    """
    _check_rho1_floor(shape.rho[0])
    return PureShapeState(
        kappa1=float(shape.kappa[0]),
        rho1=float(shape.rho[0]),
        kappa_t=wrap_angle(shape.kappa
                           - shape.kappa[cyclic_neighbors(shape.n)[0]]),
        psi=wrap_angle(shape.theta - shape.kappa),
        phi_b=wrap_angle(shape.kappa_b - shape.kappa),
        rho_t=shape.rho / shape.rho[0],
        rho_tb=shape.rho_b / shape.rho[0])


# The packed state: kappa1, rho1, then the kappa~, psi, phi_b, rho~ and
# rho~_b blocks of n entries.
_STATE = ("kt{i}", "psi{i}", "phib{i}", "rt{i}", "rtb{i}")


def _half_angle_lines(n):
    """Source lines of the suffix sums s_i = kappa~_i + ... + kappa~_n
    (and the empty sum s_n = 0), kappa_i+ and the half-angles Phi_i/2
    and Psi_i/2, as the locals s{i}, kp{i}, hphi{i} and hpsi{i}.

    kappa_i+ is formed from the suffix-sum identity (empty sum for the
    last agent) rather than by rolling recovered kappa values: the
    half-angle expressions are only 4*pi-periodic, and the identity form
    keeps them consistent for any wrapped representatives of kappa~.
    The sums run from the last agent as a cumulative sum does, and the
    last agent's kappa_n+ still adds 2 * 0.0, so a -0 there reads +0.
    """
    lines = [f"    s{n} = zero", f"    s{n - 1} = kt{n - 1}"]
    lines += [f"    s{i} = s{i + 1} + kt{i}" for i in range(n - 2, -1, -1)]
    lines.append("    k1x2 = two * kappa1")
    for i in range(n):
        j = (i + 1) % n
        lines += [f"    kp{i} = (k1x2 + kt{i}) + two * s{i + 1}",
                  f"    hphi{i} = half * (kp{i} + psi{j})",
                  f"    hpsi{i} = half * (kt{i} - psi{j})"]
    return lines


def _least(name, terms):
    """Source lines setting ``name`` to the least of the expressions
    ``terms``, or to NaN when any is NaN, as np.min gives (Python's min
    skips a NaN that does not come first): a later term replaces the
    least when it is smaller or NaN."""
    lines = [f"    {name} = {terms[0]}"]
    for term in terms[1:]:
        lines += [f"    x = {term}", f"    if x < {name} or x != x:",
                  f"        {name} = x"]
    return lines


def _guard_lines(n):
    """Source lines of the A5 guards, min |cos(Phi/2)|, |cos(Psi/2)| and
    |sin(Phi/2)| over agents, as the locals g_phi, g_psi and g_sin."""
    return (_least("g_phi", [f"abs(cos(hphi{i}))" for i in range(n)])
            + _least("g_psi", [f"abs(cos(hpsi{i}))" for i in range(n)])
            + _least("g_sin", [f"abs(sin(hphi{i}))" for i in range(n)]))


# The transformed rates of agent {i}, whose successor is {j} and
# predecessor {p}; sp is sin(Phi/2) cos(Psi/2) / rho~ and sq is
# cos(Phi/2) cos(Psi/2).
_AGENT = """\
    dkt{i} = (gain * (weight * sin(half * kt{i}) * cos(half * kp{i} - alpha)
        + lam * sin(half * (phib{i} - phib{j} + kt{i}))
        * cos(half * (phib{i} + phib{j} + kp{i}) - alpha0))
        + pull * (sp{i} - sp{j}))
    dpsi{i} = scale * (sp{p} - sp{i})
    ba{i} = phib{i} + kappa1 + s{i}
    dphib{i} = (sin(ba{i}) / rtb{i} - two * sp{i}) / rho1
    drt{i} = scale * (rt{i} * sq0 - sq{i})
    drtb{i} = (two * rtb{i} * sq0 - cos(ba{i})) / rho1"""


def _kernel_source(n):
    """The Python source of the pure-shape kernel of n agents, with no
    loop over agents: ``rates(v, c)``, the transformed field of the
    packed state ``v`` (a list), in its layout, on the flat constants
    ``c`` of :func:`_constants`, after the rho1 floor; ``guards(v)``,
    the A5 guards of the packed head kappa1, rho1, kappa~, psi; and
    ``post(v, t, flags)``, the integrator's post-step: re-wrap, the
    rho1 and ratio floors, and the A5 guards, a flagged sample appended
    to ``flags``.

    Every IEEE operation has the operands and order of the numpy array
    form (the test oracle).  The numbers the template needs, 0, 1/2 and
    2, are names in the kernel's namespace, so its code holds no float.
    """
    head = "    (kappa1, rho1,\n        "
    state = _names(n, head, _STATE, ") = v")
    lines = ["def rates(v, c):", state,
             "    if rho1 <= EPS_COL:",
             "        raise CollisionError(\"rho_1 at or below collocation "
             "floor\", pair=(0, 1))",
             "    (mu, lam, weight, gain, alpha, alpha0) = c"]
    lines += _half_angle_lines(n)
    for i in range(n):
        lines += [f"    cpsi{i} = cos(hpsi{i})",
                  f"    sp{i} = sin(hphi{i}) * cpsi{i} / rt{i}",
                  f"    sq{i} = cos(hphi{i}) * cpsi{i}"]
    lines += ["    pull = two * lam / rho1", "    scale = two / rho1",
              "    dk1 = (-mu * (weight * sin(kappa1 - alpha)",
              "                 + lam * sin(phib0 + kappa1 - alpha0))",
              "           + pull * sin(hphi0) * cpsi0)"]
    lines += [_AGENT.format(i=i, j=(i + 1) % n, p=(i - 1) % n)
              for i in range(n)]
    lines += [_names(n, "    return [dk1, -two * sq0,\n        ",
                     ("dkt{i}", "dpsi{i}", "dphib{i}", "drt{i}", "drtb{i}"),
                     "]")]
    lines += ["", "", "def guards(v):",
              _names(n, head, _STATE[:2], ") = v")]
    lines += _half_angle_lines(n) + _guard_lines(n)
    lines += ["    return g_phi, g_psi, g_sin", "", "",
              "def post(v, t, flags):", state,
              f"    kappa1 = {_wrap_source('kappa1')}"]
    lines += [f"    {name.format(i=i)} = {_wrap_source(name.format(i=i))}"
              for name in _STATE[:3] for i in range(n)]
    lines += ["    if (rho1 <= EPS_COL",
              _names(n, "            or min(", _STATE[3:],
                     ") * rho1 <= EPS_COL):"),
              "        raise CollisionError(\"a range reached the collocation "
              "floor\", t=t)"]
    lines += _half_angle_lines(n) + _guard_lines(n)
    lines += ["    if min(g_phi, g_psi, g_sin) < A5_GUARD_TOL:",
              "        flags.append((t, (g_phi, g_psi, g_sin)))",
              _names(n, "    return [kappa1, rho1,\n        ", _STATE, "]")]
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def _kernel(n):
    """The compiled pure-shape kernel of n agents (:func:`_kernel_source`),
    built on first use and filed as ``<pursuit_lab pure-shape n=...>``:
    a dict of its functions ``rates``, ``guards`` and ``post``."""
    return _build_kernel("pure-shape", _kernel_source, n, {
        "EPS_COL": EPS_COL, "A5_GUARD_TOL": A5_GUARD_TOL,
        "CollisionError": CollisionError, "zero": 0.0, "half": 0.5,
        "two": 2.0, "pi": math.pi, "tau": 2.0 * math.pi, "sin": math.sin,
        "cos": math.cos})


def a5_guard_values(state):
    """Min |cos(Phi/2)|, |cos(Psi/2)|, |sin(Phi/2)| over agents."""
    n = state.n
    guards = _scalar_pass(_kernel(n)["guards"],
                          state.to_vector()[:2 + 2 * n].tolist())
    return tuple(float(g) for g in guards)


def _constants(params):
    """The flat constants the field kernel unpacks, as floats: mu,
    lambda, 1 - lambda, -2 mu, alpha and alpha0."""
    mu, lam = float(params.mu), float(params.lam)
    return (mu, lam, 1.0 - lam, -2.0 * mu, float(params.alpha[0]),
            float(params.alpha0[0]))


def pure_shape_derivative(state, params):
    """Closed-loop rates of the transformed variables (requires A1-A4),
    in the :class:`PureShapeState` layout (each field its rate)."""
    require_analysis_assumptions(params)
    rates = _scalar_pass(_kernel(state.n)["rates"],
                         state.to_vector().tolist(), _constants(params))
    return PureShapeState.from_vector(rates, state.n)


@dataclass(frozen=True)
class ManifoldSpec:
    """The constants defining the invariant manifold M_k."""

    n: int
    k: int
    psi_const: float
    phi_const: float
    rho_tb_const: float

    def residuals(self, rows):
        """Max deviation from each defining constant family (kappa~ = 0,
        psi, phi_b, rho~ = 1, rho~_b) of packed states (..., 2 + 5n):
        one row of five per state, shape (..., 5)."""
        rows = np.asarray(rows, dtype=float)
        constants = np.array([0.0, self.psi_const, self.phi_const, 1.0,
                              self.rho_tb_const])
        dev = _blocks(rows, self.n) - constants[:, None]
        dev[..., :3, :] = wrap_angle(dev[..., :3, :])
        return np.max(np.abs(dev), axis=-1)


def _check_manifold_index(n, k):
    """The one manifold-index check: M_k needs k in {1, ..., n-1}."""
    if not 1 <= k <= n - 1:
        raise UndefinedManifoldError(
            f"manifold index k = {k} outside 1..{n - 1} (k = 0 and k = n "
            "leave the beacon ratio undefined)")


def manifold_spec(n, k):
    """Constants of M_k; defined for k in {1, ..., n-1} only."""
    _check_manifold_index(n, k)
    return ManifoldSpec(
        n=n, k=k,
        psi_const=float((n - 2 * k) * np.pi / n),
        phi_const=float((n - 2 * k) * np.pi / (2 * n)),
        rho_tb_const=float(1.0 / (2.0 * np.sin(k * np.pi / n))))


def lift(spec, kappa1, rho1):
    """A pure-shape state exactly on M_k plus a consistent world.

    The embedding pins the beacon at the origin, places agent 1 at
    position angle 0 on the circle of radius rho1 * rho_tb_const and
    advances the position angle by 2*k*pi/n per agent (counter-clockwise
    ordering); headings follow from the manifold's common beacon bearing.
    """
    _check_rho1_positive(rho1)
    n, k = spec.n, spec.k
    pure = PureShapeState(
        kappa1=float(wrap_angle(kappa1)), rho1=float(rho1),
        kappa_t=np.zeros(n),
        psi=np.full(n, spec.psi_const),
        phi_b=np.full(n, spec.phi_const),
        rho_t=np.ones(n),
        rho_tb=np.full(n, spec.rho_tb_const))
    beta = 2.0 * np.pi * k / n * np.arange(n)
    radius = rho1 * spec.rho_tb_const
    positions = radius * heading_from_angle(beta)
    kappa_b = wrap_angle(kappa1 + spec.phi_const)
    heading_angles = beta + np.pi - kappa_b
    world = WorldState(positions=positions,
                       headings=heading_from_angle(heading_angles),
                       beacon=np.zeros(2))
    return pure, world


def _require_manifold(params, k):
    """The checks of every reduced-dynamics entry point (assumptions A1-A4
    and a manifold index k in 1..n-1), then the constants of the reduced
    field on M_k: mu, lambda, alpha, alpha0 and k*pi/n."""
    require_analysis_assumptions(params)
    _check_manifold_index(params.n, k)
    return (params.mu, params.lam, params.alpha[0], params.alpha0[0],
            k * np.pi / params.n)


def _reduced_rates(kappa1, rho1, mu, lam, alpha, alpha0, kpn):
    """The reduced rates (kappa1', rho1') on M_k in scalar math, from the
    constants of :func:`_require_manifold`; the one form of the reduced
    field.  rho1' is the sum-to-product form; the difference-of-cosines
    form agrees to 1e-12."""
    return (-mu * ((1.0 - lam) * math.sin(kappa1 - alpha)
                   + lam * math.cos(kappa1 - kpn - alpha0))
            + 2.0 * lam / rho1 * math.cos(kappa1 - kpn) * math.sin(kpn),
            2.0 * math.sin(kappa1 - kpn) * math.sin(kpn))


def _strip_value(consts):
    """(1 - lambda) sin(k*pi/n - alpha) + lambda cos(alpha0): positive iff
    the reduced equilibrium exists, else the strip Delta is invariant."""
    _, lam, alpha, alpha0, kpn = consts
    return (1.0 - lam) * math.sin(kpn - alpha) + lam * math.cos(alpha0)


def reduced_derivative(kappa1, rho1, params, k):
    """The 2-D reduced rates (kappa1', rho1') on M_k (requires A1-A4)."""
    consts = _require_manifold(params, k)
    _check_rho1_positive(rho1)
    return _reduced_rates(kappa1, rho1, *consts)


def integrate_reduced(kappa1, rho1, params, k, T, dt=DEFAULT_DT,
                      record_every=1):
    """RK4 trajectory of the reduced dynamics.

    kappa1 is left unwrapped along the run (the field is 2*pi-periodic),
    keeping the recorded curve continuous for portrait use.  A starting
    scale rho1 that is not positive raises :class:`PreconditionError`
    before the first step; a scale reaching zero along the run raises
    :class:`CollisionError` carrying the time.
    """
    consts = [float(c) for c in _require_manifold(params, k)]
    _check_rho1_positive(rho1)

    def field(y):
        if not y[1] > 0.0:
            raise CollisionError("reduced scale rho1 reached zero",
                                 pair=(0, 1))
        return list(_reduced_rates(y[0], y[1], *consts))

    times, rows = rk4_integrate(field, [float(kappa1), float(rho1)], T, dt,
                                record_every)
    return times, rows[:, 0], rows[:, 1]


@dataclass
class ReducedEquilibrium:
    """A circling equilibrium of the reduced dynamics with its tag."""

    kappa1: float
    rho1: float
    stable: bool
    tag: str
    method: str


def reduced_equilibrium(params, k):
    """The circling equilibria of the reduced dynamics, or None.

    The two candidate headings kappa1 = k*pi/n and k*pi/n + pi share one
    radius; both are returned, tagged.  Absence (non-positive radius
    denominator) is a value, not an error.  The tags come from the
    closed-form Jacobian: trace -/+ mu*s with s = (1 - lambda)
    cos(k*pi/n - alpha) + lambda sin(alpha0), determinant 4 lambda
    sin^2(k*pi/n) / rho1*^2; either below 1e-9 reads marginal.  Under A6,
    s = -sin(gamma*pi - alpha0+) cos(gamma*pi + alpha0-): the sign test.
    """
    consts = _require_manifold(params, k)
    mu, lam, alpha, alpha0, kpn = consts
    denom = mu * _strip_value(consts)
    if denom <= 0.0:
        return None
    rho1_star = 2.0 * lam * math.sin(kpn) / denom
    s = (1.0 - lam) * math.cos(kpn - alpha) + lam * math.sin(alpha0)
    det = denom * denom / lam  # = 4 lambda sin^2(k*pi/n) / rho1*^2
    method = "a6-sign-test" if satisfies_a6(params) else "linearization"
    results = []
    for kap, trace in ((kpn, -mu * s), (kpn + math.pi, mu * s)):
        marginal = abs(trace) < 1e-9 or det < 1e-9
        stable = trace < 0.0 and not marginal
        tag = "marginal" if marginal else "stable" if stable else "unstable"
        results.append(ReducedEquilibrium(
            kappa1=float(wrap_angle(kap)), rho1=rho1_star, stable=stable,
            tag=tag, method=method))
    return results


@dataclass(frozen=True)
class ReducedParams:
    """Derived angles for the A6 reduced-dynamics analysis."""

    gamma_kn: float
    alpha0_plus: float
    alpha0_minus: float


def reduced_params(params, k):
    """The A6 angles of M_k (requires A1-A4 and k in 1..n-1)."""
    _require_manifold(params, k)
    return _reduced_params(params, k)


def _reduced_params(params, k):
    alpha = float(params.alpha[0])
    alpha0 = float(params.alpha0[0])
    return ReducedParams(gamma_kn=(2.0 * k - params.n) / (4.0 * params.n),
                         alpha0_plus=0.5 * (alpha0 + alpha),
                         alpha0_minus=0.5 * (alpha0 - alpha))


@dataclass(frozen=True)
class RegionCheck:
    """Whether the angular strip Delta is positively invariant."""

    holds: bool
    value: float
    k: int
    kappa1_low: float
    kappa1_high: float

    def contains(self, kappa1, rho1):
        offset = wrap_angle(kappa1 - self.kappa1_low)
        return rho1 > 0.0 and 0.0 < offset < np.pi


def invariant_region_check(params, k):
    """Evaluate the invariance condition for the strip
    Delta = (k*pi/n, k*pi/n + pi) x (0, inf)."""
    consts = _require_manifold(params, k)
    kpn = consts[-1]
    value = _strip_value(consts)
    return RegionCheck(holds=value <= 0.0, value=float(value), k=k,
                       kappa1_low=float(kpn), kappa1_high=float(kpn + math.pi))


def asymptote_prediction(params, k):
    """The limiting heading offset inside Delta (A6 gains required).

    Returns gamma*pi + alpha0_plus when the selector cosine is positive,
    the antipode when negative; a selector within 1e-9 of zero is
    inconclusive.
    """
    require_a6(params)
    region = invariant_region_check(params, k)
    if not region.holds:
        raise PreconditionError(
            "asymptote analysis applies only when the invariant-region "
            f"condition holds (value = {region.value:.6g} > 0)")
    rp = _reduced_params(params, k)
    selector = math.cos(rp.gamma_kn * math.pi + rp.alpha0_minus)
    if abs(selector) < 1e-9:
        raise InconclusiveError(
            "asymptote selector cos(gamma*pi + alpha0^-) vanishes")
    limit = rp.gamma_kn * math.pi + rp.alpha0_plus
    if selector < 0.0:
        limit += math.pi
    return float(wrap_angle(limit))


@dataclass
class PureShapeTrajectory:
    """Sampled trajectory of the transformed dynamics with A5 guards."""

    t: np.ndarray
    states: np.ndarray          # (m, 2 + 5n) packed vectors
    n: int
    a5_flags: list = field(default_factory=list)

    def state_at(self, idx):
        return PureShapeState.from_vector(self.states[idx], self.n)

    @property
    def kappa1(self):
        return self.states[:, 0]

    @property
    def rho1(self):
        return self.states[:, 1]


def integrate_pure_shape(state0, params, T, dt=DEFAULT_DT, record_every=1):
    """RK4 trajectory of the full transformed dynamics.

    Angle blocks are re-wrapped each step; positivity of rho1 and the
    length ratios is enforced; samples where an A5 guard quantity falls
    within 1e-6 of zero are recorded in ``a5_flags`` (the sufficient
    conditions behind the manifold derivation degenerate there).
    """
    require_analysis_assumptions(params)
    n = state0.n
    kernel = _kernel(n)
    rates, post = kernel["rates"], kernel["post"]
    const = _constants(params)

    def field(v):
        return _scalar_pass(rates, v, const)

    flags = []

    def rewrap_and_guard(v, t):
        # the state is finite (rk4_integrate checks it), so math.sin and
        # math.cos cannot raise
        return post(v, t, flags)

    times, rows = rk4_integrate(field, state0.to_vector().tolist(), T, dt,
                                record_every, rewrap_and_guard)
    return PureShapeTrajectory(t=times, states=rows, n=n, a5_flags=flags)


@dataclass(frozen=True)
class GridSpec:
    """Rectangular sampling grid for the reduced phase plane."""

    kappa_min: float
    kappa_max: float
    kappa_samples: int
    rho_min: float
    rho_max: float
    rho_samples: int

    def __post_init__(self):
        if not (-np.pi < self.kappa_min < self.kappa_max <= np.pi):
            raise ValueError("kappa grid must lie inside (-pi, pi]")
        if not 0.0 < self.rho_min < self.rho_max:
            raise ValueError("rho grid must satisfy 0 < rho_min < rho_max")
        if self.kappa_samples < 2 or self.rho_samples < 2:
            raise ValueError("need at least 2 samples per axis")


@dataclass
class PhasePortrait:
    """Sampled vector field plus integrated seed trajectories."""

    kappa_grid: np.ndarray
    rho_grid: np.ndarray
    d_kappa: np.ndarray
    d_rho: np.ndarray
    trajectories: list  # (t, kappa1, rho1) triples


def phase_portrait(params, k, grid, seeds=(), T=50.0, dt=1e-2):
    """Sample the reduced vector field on a grid and integrate seeds.

    Deterministic: grid order is row-major in (kappa, rho) and seed
    trajectories keep their input order.
    """
    consts = _require_manifold(params, k)
    kappas = np.linspace(grid.kappa_min, grid.kappa_max, grid.kappa_samples)
    rhos = np.linspace(grid.rho_min, grid.rho_max, grid.rho_samples)
    kk, rr = np.meshgrid(kappas, rhos, indexing="ij")
    rates = np.array([_reduced_rates(ka, rh, *consts)
                      for ka in kappas.tolist() for rh in rhos.tolist()])
    d_kappa, d_rho = rates.T.reshape((2,) + kk.shape)
    trajectories = [integrate_reduced(ka, rh, params, k, T, dt)
                    for ka, rh in seeds]
    return PhasePortrait(kappa_grid=kk, rho_grid=rr, d_kappa=d_kappa,
                         d_rho=d_rho, trajectories=trajectories)
