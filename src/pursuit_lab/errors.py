"""Exception hierarchy for pursuit_lab.

Errors are grouped into four families, each with a fixed CLI exit code:
configuration (2), numeric failure (3), collision/collocation (4) and
violated preconditions (5).
"""


class PursuitLabError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(PursuitLabError):
    """Invalid or inconsistent run configuration."""

    exit_code = 2


class NumericError(PursuitLabError):
    """A numerical routine failed (non-convergence, non-finite values)."""

    exit_code = 3


class IntegrationError(NumericError):
    """A derivative evaluation produced non-finite entries."""


class ConstraintDriftError(NumericError):
    """Shape constraints drifted beyond tolerance: the integration can no
    longer be trusted (the constraints are invariants of the closed loop)."""


class CollisionError(PursuitLabError):
    """Two bodies came closer than the collocation floor.

    ``pair`` identifies the offending bodies (agent indices, or an agent
    index and the string ``"beacon"``); ``t`` is the simulation time at
    which the run was aborted, when known.
    """

    exit_code = 4

    def __init__(self, message, pair=None, t=None):
        super().__init__(message)
        self.pair = pair
        self.t = t


class PreconditionError(PursuitLabError):
    """An operation was called outside its documented domain."""

    exit_code = 5


class AssumptionError(PreconditionError):
    """A homogeneity assumption (A1-A4, A6) required by an analysis
    routine does not hold for the supplied parameters.

    ``failed`` names the violated assumptions ("A1", ...) in check order;
    it is empty when the raiser does not list them.
    """

    def __init__(self, message, failed=()):
        super().__init__(message)
        self.failed = tuple(failed)


class DegenerateBranchError(PreconditionError):
    """Branch with 2M - n = 0: the common bearing offset is undetermined."""


class DegenerateAlphaSumError(PreconditionError):
    """sin(sum of alpha_i) vanishes; closed-form branch enumeration does
    not apply.  Route to :func:`pursuit_lab.equilibria.classify_degenerate`
    for the even-n degenerate branches; other branches are unclassified."""


class EnumerationSizeError(PreconditionError):
    """Branch enumeration requested for n above the 2**n budget."""


class SingularModeError(PreconditionError):
    """sin(m*pi/n) = 0: the linearization blocks are undefined."""


class EquilibriumNotFoundError(PreconditionError):
    """No counter-clockwise leftmost-branch circling equilibrium exists
    for the requested winding number."""


class UndefinedManifoldError(PreconditionError):
    """Pure-shape manifold index k outside {1, ..., n-1}."""


class InconclusiveError(PreconditionError):
    """The asymptote selector sits on a sign boundary; no prediction."""
