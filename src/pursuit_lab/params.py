"""System and controller parameters, plus the homogeneity assumptions
(A1-A4, A6) that gate the analysis modules: the three ``require_*``
gates are the only checks of them, and behind a gate the common values
are read directly (``params.alpha[0]``, ``params.alpha0[0]``)."""

from dataclasses import dataclass, field

import numpy as np

from .errors import AssumptionError

# Tolerance for "entries are equal" in the homogeneity flags.
_EQ_TOL = 1e-12
# Tolerance for the A6 gain pattern (lambda = 1/2, mu = 2).
_A6_TOL = 1e-9


def _per_agent(value, n, name):
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.size == 1:
        arr = np.full(n, float(arr[0]))
    if arr.shape != (n,):
        raise ValueError(f"{name} must be a scalar or a length-{n} sequence")
    return arr


def _all_equal(values, value):
    return bool(np.all(np.abs(values - value) <= _EQ_TOL))


def lam_inside(lam):
    """Whether lambda lies strictly inside (0, 1), element by element
    for an array of values; the one range check of lambda."""
    return (0.0 < lam) & (lam < 1.0)


@dataclass(frozen=True)
class HomogeneityFlags:
    """Which of the homogeneity assumptions hold for a parameter set."""

    a1_equal_speed: bool
    a2_equal_gains: bool
    a3_common_alpha0: bool
    a4_common_alpha: bool


@dataclass(frozen=True)
class ControlParams:
    """Parameters of an n-agent beacon-referenced pursuit collective.

    Attributes
    ----------
    n : int
        Number of agents (>= 2).
    mu : float
        Neighbor-pursuit gain, > 0 (common to all agents).
    lam : float
        Convex weight between neighbor pursuit and beacon tracking,
        strictly inside (0, 1).
    alpha : ndarray, shape (n,)
        Per-agent bearing offset toward the pursued neighbor (rad).
    alpha0 : ndarray, shape (n,)
        Per-agent bearing offset toward the beacon (rad); common under A3.
    mu_b : ndarray, shape (n,)
        Per-agent beacon gains, > 0; equal to ``mu`` under A2.
    nu : ndarray, shape (n,)
        Per-agent speeds, > 0; all 1 under A1.
    """

    n: int
    mu: float
    lam: float
    alpha: np.ndarray
    alpha0: np.ndarray
    mu_b: np.ndarray
    nu: np.ndarray
    _flags: HomogeneityFlags = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if not self.mu > 0.0:
            raise ValueError("mu must be positive")
        if not lam_inside(self.lam):
            raise ValueError("lambda must lie strictly inside (0, 1)")
        for name in ("alpha", "alpha0", "mu_b", "nu"):
            arr = _per_agent(getattr(self, name), self.n, name)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if np.any(self.mu_b <= 0.0):
            raise ValueError("beacon gains mu_b must be positive")
        if np.any(self.nu <= 0.0):
            raise ValueError("speeds nu must be positive")
        object.__setattr__(self, "_flags", HomogeneityFlags(
            a1_equal_speed=_all_equal(self.nu, self.nu[0]),
            a2_equal_gains=_all_equal(self.mu_b, self.mu),
            a3_common_alpha0=_all_equal(self.alpha0, self.alpha0[0]),
            a4_common_alpha=_all_equal(self.alpha, self.alpha[0])))

    @classmethod
    def homogeneous(cls, n, mu=1.0, lam=0.5, alpha=0.0, alpha0=0.0, nu=1.0):
        """Convenience constructor with common beacon gain mu_b = mu."""
        return cls(n=n, mu=mu, lam=lam, alpha=alpha, alpha0=alpha0,
                   mu_b=mu, nu=nu)

    def flags(self):
        """The homogeneity flags for assumptions A1-A4 (derived once, at
        construction)."""
        return self._flags

    def alpha_sum(self):
        return float(np.sum(self.alpha))


def require_shape_assumptions(params):
    """Raise unless A1-A3 hold (with the A1 normalization nu = 1).

    The closed-loop shape dynamics are derived under common unit speed,
    common gains and a common beacon bearing offset; heterogeneous values
    are only meaningful to the full-space simulator.
    """
    flags = params.flags()
    failed = {}
    if not (flags.a1_equal_speed and abs(params.nu[0] - 1.0) <= _EQ_TOL):
        failed["A1"] = "common unit speed"
    if not flags.a2_equal_gains:
        failed["A2"] = "equal gains mu_b = mu"
    if not flags.a3_common_alpha0:
        failed["A3"] = "common beacon bearing alpha0"
    if failed:
        raise AssumptionError(
            "assumption(s) violated: "
            + ", ".join(f"{name} ({what})" for name, what in failed.items()),
            failed=tuple(failed))


def require_analysis_assumptions(params):
    """Raise unless A1-A4 hold (A1-A3 plus a common alpha)."""
    require_shape_assumptions(params)
    if not params.flags().a4_common_alpha:
        raise AssumptionError(
            "assumption(s) violated: A4 (common neighbor bearing alpha)",
            failed=("A4",))


def satisfies_a6(params):
    """True when the special gain pattern lambda = 1/2, mu = 2 holds."""
    return (abs(params.lam - 0.5) <= _A6_TOL
            and abs(params.mu - 2.0) <= _A6_TOL)


def require_a6(params):
    if not satisfies_a6(params):
        raise AssumptionError(
            "A6 violated: analysis requires lambda = 1/2 and mu = 2")
