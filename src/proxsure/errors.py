"""Exception hierarchy shared across the package."""


class ProxsureError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(ProxsureError):
    """An input vector or matrix has the wrong size."""

    def __init__(self, what, expected, actual):
        super().__init__(f"{what}: expected length {expected}, got {actual}")
        self.expected = expected
        self.actual = actual


class SingularSystemError(ProxsureError):
    """A linear system required by a step is numerically singular."""


class UnsupportedArchitectureError(ProxsureError):
    """Operation restricted to single-layer symmetric recurrent stacks
    on the identity operator with the data step skipped."""


class PathCapExceededError(ProxsureError):
    """Path enumeration refused: 2^T subsets would exceed the configured cap."""


class NonFiniteError(ProxsureError):
    """A forward pass or gradient produced a non-finite value."""


class TrainingFailureError(ProxsureError):
    """Every learning rate in the grid diverged."""


class DatasetFormatError(ProxsureError):
    """Base class for dataset container errors."""


class DatasetHeaderError(DatasetFormatError):
    """Bad magic string or malformed header."""


class DatasetChecksumError(DatasetFormatError):
    """CRC32 of the payload does not match the trailer."""


class DatasetTruncatedError(DatasetFormatError):
    """File ends before the declared payload is complete."""


class ConfigError(ProxsureError):
    """Configuration text failed validation."""

    def __init__(self, field, message, line=None):
        loc = f" (line {line})" if line is not None else ""
        super().__init__(f"config field '{field}'{loc}: {message}")
        self.field = field
        self.line = line
