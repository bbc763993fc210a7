"""Local stability analysis of the counter-clockwise leftmost-branch
circling equilibrium under assumptions A1-A4.

The linearized shape dynamics couple each agent only to its cyclic
neighbors, so the 5n x 5n Jacobian is block circulant in the three 5x5
blocks (A0, A1, A-1) and its spectrum decomposes over the n-th roots of
unity into 5x5 mode blocks D_k.  Each mode's characteristic polynomial
factors into a constraint pair (x^2 + mu^2 a^2) and a complex cubic; a
Routh-type test on the cubic coefficients gives necessary conditions for
stability, mode by mode.  The gain mu only scales the spectrum, so the
verdict is mu-independent.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from .equilibria import _accept, _margins
from .errors import EquilibriumNotFoundError, NumericError, SingularModeError
from .numerics import poly_roots, wrap_angle
from .params import lam_inside, require_analysis_assumptions

# Zero threshold for sin(m*pi/n) (mode geometry degenerates there).
_SING_TOL = 1e-12
# Imaginary-axis band: an informative eigenvalue inside it is borderline.
IMAG_AXIS_TOL = 1e-6


@dataclass(frozen=True)
class ABDCoefficients:
    """The three scalars that generate every linearization quantity
    (arrays of them over the samples of a :func:`sweep`)."""

    a: float
    b: float
    d: float
    alpha_star: float
    m: int


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


@dataclass(frozen=True)
class CubicCoefficients:
    """Real/imaginary coefficient pairs of the mode-k cubic factor.

    The `_t` members are the real (tilde) parts and the `_h` members the
    imaginary (hat) parts; at k = 0 every hat entry and e_t vanish.  For
    an array of modes ``k`` every member is an array of that shape.
    """

    c_t: float
    c_h: float
    d_t: float
    d_h: float
    e_t: float
    e_h: float
    k: int

    def modes(self):
        """The single-mode coefficients of each entry, in order."""
        columns = (np.asarray(getattr(self, f.name)).ravel().tolist()
                   for f in fields(self))
        return [CubicCoefficients(*mode) for mode in zip(*columns)]

    def polynomial(self, mu, a):
        """Monic cubic factor, highest degree first, on the last axis: a
        table of modes gives one cubic per mode."""
        return np.stack(np.broadcast_arrays(
            1.0 + 0.0j,
            mu * (self.c_t - 1j * self.c_h),
            mu ** 2 * a * (self.d_t + 1j * self.d_h),
            mu ** 3 * _pow2(a) * (self.e_t - 1j * self.e_h),
        ), axis=-1)


def _pow2(x):
    """x squared through libm ``pow``, element by element, as the scalar
    ``x ** 2`` forms it; ``x * x`` and ``np.square`` round differently on
    about 1 input in 1,000."""
    return np.float_power(x, 2.0)


def _single(x):
    """A 0-d result (one mode) as a Python scalar; arrays pass through."""
    return np.asarray(x).item() if np.ndim(x) == 0 else x


def abd(params, m):
    """Closed-form a, b, d coefficients at the leftmost-branch equilibrium.

    Requires A1-A4.  Raises SingularModeError when sin(m*pi/n) = 0 and
    EquilibriumNotFoundError when no counter-clockwise equilibrium exists
    at this winding: a chord with non-positive length, a <= 0, or a
    screening margin inside the marginal band of
    :func:`~pursuit_lab.equilibria.enumerate_equilibria`.
    """
    require_analysis_assumptions(params)
    n = params.n
    sin_m = np.sin(m * np.pi / n)
    if abs(sin_m) < _SING_TOL:
        raise SingularModeError(f"sin({m}*pi/{n}) = 0: mode geometry "
                                "is singular")
    if sin_m < 0.0:
        raise EquilibriumNotFoundError(
            f"winding m = {m} gives sin(m*pi/n) < 0: chord length would "
            "be non-positive on the counter-clockwise branch")
    co, exists = _abd(n, m, params.lam, float(params.alpha[0]),
                      float(params.alpha0[0]))
    if co.a <= 0.0:
        raise EquilibriumNotFoundError(
            f"a = {co.a:.6g} <= 0: no circling equilibrium at winding m = {m}")
    if not exists:
        raise EquilibriumNotFoundError(
            f"a = {co.a:.6g}: a screening margin is inside the marginal "
            f"band, no circling equilibrium at winding m = {m}")
    return ABDCoefficients(a=float(co.a), b=float(co.b), d=float(co.d),
                           alpha_star=float(co.alpha_star), m=m)


def _abd(n, m, lam, alpha, alpha0):
    """The closed form of :func:`abd` on scalars or on arrays of one
    shape (a sample axis), with no checks: the coefficients, and whether
    the enumeration's screen accepts the leftmost branch at abd's
    alpha*."""
    angle = m * np.pi / n
    a_star = wrap_angle(angle - alpha)
    cos_star = np.cos(a_star)
    a = np.cos(alpha0) + (1.0 / lam - 1.0) * np.sin(a_star)
    b = lam * np.sin(alpha0) + (1.0 - lam) * cos_star
    d = a + (1.0 - lam) * cos_star / np.tan(angle)
    _, exists = _accept(_margins(a_star, np.asarray(alpha)[..., None], lam,
                                 alpha0, 1), False)
    return ABDCoefficients(a=a, b=b, d=d, alpha_star=a_star, m=m), exists


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


def cubic_coeffs(params, m, k):
    """Coefficients of the mode-k cubic factor.

    The quintic splits as (x^2 + mu^2 a^2) times a complex cubic; the
    six coefficients below are trigonometric in k*pi/n and carry no mu.
    ``k`` is a mode index (Python float members) or an array of them
    (array members of the same shape).
    """
    return _cubic(params.n, params.lam, abd(params, m), k)


def _cubic(n, lam, co, k):
    k = np.asarray(k)
    angle = k * np.pi / n
    sk = np.sin(angle)
    ck = np.cos(angle)
    sk2 = _pow2(sk)
    a, b, d = co.a, co.b, co.d
    cot_m = 1.0 / np.tan(co.m * np.pi / n)
    cos_star = np.cos(co.alpha_star)
    return CubicCoefficients(
        c_t=_single(b + a * (1.0 - lam) * sk2 * cot_m),
        c_h=_single(a * (1.0 - lam) * sk * ck * cot_m),
        d_t=_single(d * sk2 + lam * a * _pow2(ck)),
        d_h=_single((lam * a - d) * sk * ck),
        e_t=_single((1.0 - lam) * cos_star * sk2),
        e_h=_single((1.0 - lam) * cos_star * sk * ck),
        k=_single(k))


@dataclass
class RouthVerdict:
    """Necessary-condition verdict, mode by mode.

    ``values`` (n, 3) holds each mode's three condition values and
    ``passed`` (n,) whether its applicable ones are positive; ``overall``
    is their conjunction.  The third condition is identically zero at
    k = 0 (every hat coefficient vanishes there) and is treated as
    vacuous for that mode; conditions 1-2 at k = 0 reduce to b > 0 given
    a > 0.  ``abd`` and ``cubic`` are the coefficients the values were
    computed from: the equilibrium's a, b, d and every mode's cubic.
    """

    values: np.ndarray
    passed: np.ndarray
    overall: bool
    notes: list = field(default_factory=list)
    abd: ABDCoefficients = None
    cubic: CubicCoefficients = None


def routh_conditions(params, m, k):
    """The three Theorem-style condition values for mode k (floats), or
    for an array of modes (three arrays of its shape)."""
    co = abd(params, m)
    return tuple(_single(v)
                 for v in _routh(co, _cubic(params.n, params.lam, co, k)))


def _routh(co, cc):
    a = co.a
    c_t, c_h, d_t, d_h, e_t, e_h = (cc.c_t, cc.c_h, cc.d_t, cc.d_h,
                                    cc.e_t, cc.e_h)
    cond1 = c_t
    cond2 = c_t * (c_t * d_t - a * e_t) - d_h * (c_t * c_h + a * d_h)
    gamma = c_t * (c_t * d_t - c_h * d_h) - a * (d_h * d_h + c_t * e_t)
    lam_k = c_t * (c_h * e_t - c_t * e_h) + a * d_h * e_t
    cond3 = _pow2(gamma) * e_t + gamma * lam_k * d_h - _pow2(lam_k) * c_t
    return cond1, cond2, cond3


def _passed(values):
    """Whether each mode's applicable conditions, ``values`` (..., n, 3),
    are positive; the third is vacuous at k = 0."""
    positive = values > 0.0
    positive[..., 0, 2] = True
    return positive.all(axis=-1)


def routh_necessary(params, m):
    """Evaluate the necessary stability conditions for every mode, from
    one ``abd`` and one array pass over all n modes."""
    co = abd(params, m)
    cc = _cubic(params.n, params.lam, co, np.arange(params.n))
    values = np.stack(_routh(co, cc), axis=-1)
    passed = _passed(values)
    notes = ["k=0: third condition is identically zero (vacuous); "
             "conditions 1-2 amount to b > 0"]
    return RouthVerdict(values=values, passed=passed,
                        overall=bool(passed.all()), notes=notes, abd=co,
                        cubic=cc)


@dataclass
class CorollaryReport:
    """Quick-check specializations of the necessary conditions."""

    b_value: float
    b_positive: bool
    even_n: bool
    even_values: tuple = ()
    even_passed: bool = True

    @property
    def passed(self):
        return self.b_positive and self.even_passed


def corollary_checks(params, m):
    """The k = 0 shortcut (b > 0) and, for even n, the k = n/2 trio."""
    return _corollaries(params, abd(params, m))


def _corollaries(params, co):
    report_even = params.n % 2 == 0
    even_values = ()
    even_passed = True
    if report_even:
        lam = params.lam
        cot_m = 1.0 / np.tan(co.m * np.pi / params.n)
        cos_star = np.cos(co.alpha_star)
        v1 = cos_star
        v2 = (lam * np.sin(float(params.alpha0[0]))
              + (1.0 - lam) * (cos_star + co.a * cot_m))
        v3 = (co.b * co.d
              + co.a * (1.0 - lam) * (co.d * cot_m - cos_star))
        even_values = (float(v1), float(v2), float(v3))
        even_passed = all(v > 0.0 for v in even_values)
    return CorollaryReport(b_value=co.b, b_positive=co.b > 0.0,
                           even_n=report_even, even_values=even_values,
                           even_passed=even_passed)


@dataclass
class SpectrumReport:
    """The 5n eigenvalues of the linearization, grouped.

    ``by_mode[k]`` holds mode k's eigenvalues as a (constraint,
    informative) pair of arrays.  The constraint part is the closed-form
    pair +j*mu*a, -j*mu*a (and the cubic's exact zero root at k = 0), in
    that order; the informative part is the other roots of the mode's
    cubic factor.  Over all modes the constraint group holds 2n + 1
    eigenvalues and the informative group the remaining 3n - 1, which
    decide stability.
    """

    by_mode: list
    diagnostics: list
    mu_a: float

    @property
    def constraint(self):
        return np.concatenate([c for c, _ in self.by_mode])

    @property
    def informative(self):
        return np.concatenate([i for _, i in self.by_mode])

    @property
    def ok(self):
        return not self.diagnostics

    def max_informative_real(self):
        return float(np.max(self.informative.real))


def spectrum_report(params, m):
    """Full 5n spectrum from the factorisation: each mode's constraint
    pair in closed form and its cubic's roots."""
    co = abd(params, m)
    return _report(_cubic_roots(_cubic_table(params, co)), params.mu * co.a)


def sweep(params, m, name, values):
    """Existence, Routh verdict and largest informative real part of
    ``params`` with the scalar ``name`` (``"lam"``, ``"alpha"`` or
    ``"alpha0"``) set to each of ``values`` (S,), in one array pass:
    :func:`abd` over the samples, the (S, n) cubic and Routh tables,
    then one root solve over the cubics of every existing sample.

    A sample exists where ``ControlParams`` accepts its lambda and
    :func:`abd` returns; there the verdict and the real part equal
    ``routh_necessary(...).overall`` and
    ``spectrum_report(...).max_informative_real()`` of that parameter
    set.  Elsewhere they read False and nan, and a sample whose own root
    solve fails keeps its verdict with a nan real part.
    """
    require_analysis_assumptions(params)
    n = params.n
    scalars = {"lam": params.lam, "alpha": float(params.alpha[0]),
               "alpha0": float(params.alpha0[0])}
    if name not in scalars:
        raise ValueError(f"cannot sweep {name!r}; expected one of "
                         + ", ".join(scalars))
    scalars[name] = values
    lam, alpha, alpha0 = np.broadcast_arrays(
        *(np.asarray(scalars[key], dtype=float)
          for key in ("lam", "alpha", "alpha0")))
    # a rejected lambda (0 or 1) or a singular winding divides by zero
    # on its way to "no equilibrium"
    with np.errstate(divide="ignore", invalid="ignore"):
        co, exists = _abd(n, m, lam, alpha, alpha0)
        exists &= lam_inside(lam)
        rows = np.flatnonzero(exists)
        co = ABDCoefficients(*(x[rows, None] for x in (co.a, co.b, co.d,
                                                       co.alpha_star)), m=m)
        cc = _cubic(n, lam[rows, None], co, np.arange(n))
    verdict = np.zeros(lam.shape, dtype=bool)
    verdict[rows] = _passed(np.stack(_routh(co, cc), axis=-1)).all(axis=-1)
    tables = cc.polynomial(params.mu, co.a)
    try:
        roots = _cubic_roots(tables.reshape(-1, 4)).reshape(rows.size, n, 3)
    except NumericError:
        roots = np.stack([_roots_or_nan(table) for table in tables])
    worst = np.full(lam.shape, np.nan)
    # the k = 0 cubic's third root is its exact zero, a constraint root
    worst[rows] = np.concatenate(
        [roots[:, 0, :2], roots[:, 1:].reshape(rows.size, 3 * (n - 1))],
        axis=1).real.max(axis=1)
    return exists, verdict, worst


def _roots_or_nan(table):
    """The cubic roots of one sample's table (n, 4), all nan when their
    solve fails."""
    try:
        return _cubic_roots(table)
    except NumericError:
        return np.full((len(table), 3), complex(np.nan, np.nan))


def _cubic_table(params, co):
    return _cubic(params.n, params.lam, co,
                  np.arange(params.n)).polynomial(params.mu, co.a)


def _cubic_roots(table):
    """Roots of the monic cubics ``table`` (B, 4), row by row.

    Where a cubic has a known simple root r, its roots are the quadratic
    factor's, in closed form, then r itself: r is 0 where the constant
    term is exactly 0 (every k = 0 cubic; ``poly_roots`` never sees
    these rows), or the third root where ``poly_roots`` merged two close
    roots onto one double root.  That keeps close but distinct roots
    apart and the zero root exact.  Every root then takes two Newton
    steps on its cubic, each kept only where it lowers |p|.
    """
    c1, c2, c3 = (table[:, i, None] for i in (1, 2, 3))
    zero = c3[:, 0] == 0
    roots = np.zeros((len(table), 3), dtype=complex)
    roots[~zero] = poly_roots(table[~zero])
    z0, z1, z2 = roots.T
    equal = np.stack([z1 == z2, z0 == z2, z0 == z1], axis=-1)
    split = zero | (equal.sum(axis=-1) == 1)
    r = np.where(zero, 0.0,
                 roots[np.arange(len(roots)), equal.argmax(axis=-1)])
    s = c1[:, 0] + r
    h, t = -0.5 * s, c2[:, 0] + r * s
    disc = np.sqrt(h * h - t)
    q = np.where(np.abs(h + disc) >= np.abs(h - disc), h + disc, h - disc)
    other = np.divide(t, q, out=np.zeros_like(q), where=q != 0)
    roots[split] = np.stack([q, other, r], axis=-1)[split]

    def value(z):
        return ((z + c1) * z + c2) * z + c3

    for _ in range(2):
        p = value(roots)
        slope = (3.0 * roots + 2.0 * c1) * roots + c2
        moved = roots - np.divide(p, slope, out=np.zeros_like(roots),
                                  where=slope != 0)
        roots = np.where(np.abs(value(moved)) < np.abs(p), moved, roots)
    # + 0.0 turns the negative zeros that real k = 0 coefficients leave
    # in the imaginary parts into +0
    return roots + 0.0


def _report(roots, mu_a):
    """SpectrumReport of one set's (n, 3) cubic roots.  The k = 0 cubic's
    constant term is exactly 0: its exact zero root joins that mode's
    constraint pair, and its other two roots are informative."""
    by_mode = [(np.array([complex(0.0, mu_a), complex(0.0, -mu_a), 0j]),
                roots[0, :2])]
    by_mode += [(np.array([complex(0.0, mu_a), complex(0.0, -mu_a)]), r)
                for r in roots[1:]]
    diagnostics = [f"k={k}: informative eigenvalue {z:.6g} is within "
                   "the imaginary-axis band (borderline)"
                   for k, (_, rest) in enumerate(by_mode)
                   for z in rest if abs(z.real) < IMAG_AXIS_TOL]
    return SpectrumReport(by_mode=by_mode, diagnostics=diagnostics,
                          mu_a=float(mu_a))


def format_stability_report(params, verdict, spectrum):
    """Per-mode report: cubic coefficients and condition values (from
    ``verdict``, the :class:`RouthVerdict` of ``params`` at its winding),
    cubic roots and eigenvalues (from ``spectrum``, a
    :class:`SpectrumReport` of the same parameters and winding) and the
    overall verdict."""
    co = verdict.abd
    corollaries = _corollaries(params, co)
    lines = []
    lines.append(f"stability analysis at winding m = {co.m} "
                 f"(counter-clockwise leftmost branch)")
    lines.append(f"n = {params.n}, mu = {params.mu:.12g}, "
                 f"lambda = {params.lam:.12g}")
    lines.append(f"alpha* = {co.alpha_star:.12g} rad "
                 f"({co.alpha_star / np.pi:.6f} pi), a = {co.a:.12g}, "
                 f"b = {co.b:.12g}, d = {co.d:.12g}")
    for k, (cc, (constraint, informative)) in enumerate(
            zip(verdict.cubic.modes(), spectrum.by_mode)):
        eigs = np.concatenate([constraint, informative])
        lines.append("")
        lines.append(f"mode k = {k}: "
                     + ("PASS" if verdict.passed[k] else "FAIL"))
        lines.append(f"  cubic: c~ = {cc.c_t:.12g}, c^ = {cc.c_h:.12g}, "
                     f"d~ = {cc.d_t:.12g}, d^ = {cc.d_h:.12g}, "
                     f"e~ = {cc.e_t:.12g}, e^ = {cc.e_h:.12g}")
        conds = ", ".join(f"{v:.12g}" for v in verdict.values[k])
        if k == 0:
            conds += " (vacuous)"
        lines.append(f"  conditions: {conds}")
        # the cubic's roots are every eigenvalue but the constraint pair
        for name, values in (("cubic roots", eigs[2:]),
                             ("eigenvalues", eigs)):
            lines.append(f"  {name}: " + ", ".join(
                f"{z.real:+.9f}{z.imag:+.9f}j"
                for z in np.sort_complex(values)))
    lines.append("")
    lines.append(f"constraint group ({spectrum.constraint.size} on the "
                 "imaginary axis), informative group "
                 f"({spectrum.informative.size})")
    lines.append(f"max informative Re = "
                 f"{spectrum.max_informative_real():.12g}")
    lines.append(f"corollary b > 0: {corollaries.b_value:.12g} -> "
                 + ("pass" if corollaries.b_positive else "fail"))
    if corollaries.even_n:
        lines.append("even-n corollary values: "
                     + ", ".join(f"{v:.12g}" for v in corollaries.even_values)
                     + (" -> pass" if corollaries.even_passed else " -> fail"))
    for note in verdict.notes:
        lines.append(f"note: {note}")
    for diag in spectrum.diagnostics:
        lines.append(f"diagnostic: {diag}")
    lines.append(f"necessary conditions verdict: "
                 + ("PASS" if verdict.overall else "FAIL"))
    return "\n".join(lines) + "\n"
