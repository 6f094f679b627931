"""Exception hierarchy.

Two families: ``InputError`` for malformed or inconsistent problem data
(CLI exit code 2) and ``SolveError`` for numerical failures during a run
(CLI exit code 1).
"""


class IfipmError(Exception):
    """Base class for all package errors."""


class InputError(IfipmError):
    """Invalid or inconsistent input data."""


class SolveError(IfipmError):
    """A solver or the interior point loop failed at run time.

    Raised by the loop or the refinement driver, it carries the
    ``iterate`` it stopped at and the ``trace`` of the steps taken so far;
    elsewhere both are None.
    """

    def __init__(self, message, iterate=None, trace=None):
        super().__init__(message)
        self.iterate = iterate
        self.trace = trace


# --- problem construction / preprocessing ---

class RankDeficient(InputError):
    """Constraint matrix has rank below its row count."""


class DimensionOrder(InputError):
    """More constraint rows than variables (m > n)."""


class NonFinite(InputError):
    """NaN or Inf in problem data."""


class DimensionMismatch(InputError):
    """Vector or matrix shapes do not agree."""


class SingularBasis(InputError):
    """Supplied basis columns are linearly dependent."""


class InvalidParameters(InputError):
    """IPM parameters fail their validity conditions."""


class NotInNeighborhood(InputError):
    """Starting point violates the central-path neighborhood precondition."""


# --- generator ---

class InteriorSearchFailed(SolveError):
    """No strictly interior start found within the resample budget."""


# --- Newton system assembly / recovery ---

class SingularDiagonal(SolveError):
    """Iterate has a nonpositive component, scaling matrices undefined."""


class BasisNotFound(SolveError):
    """Greedy basis selection found fewer than m independent columns."""


class TooLarge(InputError):
    """Instance exceeds the size limit of an enumeration routine."""


# --- linear solvers ---

class SingularMatrix(SolveError):
    """Matrix is numerically singular."""


class NotSPD(SolveError):
    """Conjugate gradient detected a non-symmetric-positive-definite matrix."""


class Stalled(SolveError):
    """Iterative refinement stopped reducing the residual."""


# --- interior point loop ---

class LeftNeighborhood(SolveError):
    """An iterate exited the central-path neighborhood (invariant breach)."""


class MaxIterations(SolveError):
    """Iteration budget exhausted before reaching the target precision."""


class SolverFailure(SolveError):
    """Inner linear solve missed its residual target."""


class NoProgress(SolveError):
    """Outer refinement loop failed to contract the duality gap."""


class InsufficientData(InputError):
    """Not enough trace rows in the requested window."""
