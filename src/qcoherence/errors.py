"""Exception hierarchy shared by all modules, and the one invariant gate.

Validation errors signal a rejected input; the two runtime errors signal
numerical failures that should never occur for valid inputs.  Every
quantity that the theory bounds (the agreement of the five routes, mu <= P,
the pure-weight identity and bound, the search ceiling, unitarity, the
commutator structure, the radicand and cap clamps, the Bloch residue) is
checked through :func:`enforce`, so each violation raises
InternalInvariantViolation with one message format, and the CLI exits 3.
"""


class CoherenceError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(CoherenceError, ValueError):
    """An input failed a physicality or format check."""


class NotSquareError(ValidationError):
    """Matrix is not square."""


class DimensionTooSmallError(ValidationError):
    """Dimension below the supported minimum of 2."""


class NotHermitianError(ValidationError):
    """Hermiticity defect exceeds the tolerance."""


class NotUnitTraceError(ValidationError):
    """Trace differs from 1 beyond the tolerance."""


class NotPSDError(ValidationError):
    """Matrix has an eigenvalue below the negative tolerance."""


class WrongDimensionError(ValidationError):
    """Operation requires a specific dimension."""


class InvalidRankError(ValidationError):
    """Requested rank is outside [1, dim]."""


class InvalidParameterError(ValidationError):
    """Parameter outside its documented bounds, or malformed input data."""


class DegenerateDiagonalError(ValidationError):
    """All diagonal pair products vanish, so the basis-dependent degree of
    coherence is a 0/0 form in this basis."""


class AllZeroError(ValidationError):
    """Probability vector has no positive mass."""


class EmptyStateError(ValidationError):
    """All coefficients of a truncated state are zero."""


class NotNormalizedError(ValidationError):
    """Trace or phase-space normalisation deviates beyond the tolerance."""


class GridTooCoarseError(ValidationError):
    """Sampling grid cannot resolve the truncated band of the state."""


class GridMismatchError(ValidationError):
    """State and operation refer to different lattices or representations."""


class EigenSolverFailure(CoherenceError, RuntimeError):
    """The eigensolver did not converge; reported rather than silently wrong."""


class InternalInvariantViolation(CoherenceError, RuntimeError):
    """A quantity that the theory forces to hold failed beyond float noise;
    indicates a logic bug, not bad input."""


def enforce(name: str, value: float, limit: float) -> None:
    """Raise InternalInvariantViolation unless ``value <= limit``.

    ``name`` says what ``value`` measures, and opens the message
    "<name> <value> is not <= <limit>".  A NaN value fails every gate.
    """
    if value <= limit:
        return
    raise InternalInvariantViolation(f"{name} {float(value)!r} is not <= {float(limit)!r}")
