"""Exception types shared across the package."""


class DephasimError(Exception):
    """Base class for every failure raised by this package."""


class NotHermitianError(DephasimError):
    """Input matrix is not Hermitian within tolerance."""


class NotNormalizedError(DephasimError, ValueError):
    """A density matrix or amplitude vector is not normalized within tolerance."""


class InvalidArgument(DephasimError, ValueError):
    """A constructor or function argument is out of its allowed range."""


class NotPSDError(InvalidArgument):
    """Matrix has an eigenvalue below the allowed negative clamp window."""


class NonFiniteError(DephasimError):
    """Matrix contains NaN or Inf entries."""


class ConvergenceFailure(DephasimError):
    """An iterative LAPACK routine failed to converge."""


class DimensionMismatch(DephasimError):
    """Operands have incompatible dimensions."""


class NotQubit(DephasimError):
    """A qubit-only quantity was requested for a system of dimension != 2."""


class NotHermitianGenerator(DephasimError):
    """A schedule segment carries a non-Hermitian environment generator."""


class EmptySchedule(DephasimError):
    """Schedule contains no segments."""


class TimeOutOfRange(DephasimError):
    """Query time lies outside the total duration of the schedule."""


class CutoffCapExceeded(DephasimError):
    """No cutoff up to the cap satisfies the truncation policy."""


class ConfigError(DephasimError):
    """Base class for configuration problems."""


class ParseError(ConfigError):
    """Configuration document is not valid JSON."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class ValidationError(ConfigError):
    """Configuration document is valid JSON but violates the schema."""

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field}: {reason}")
