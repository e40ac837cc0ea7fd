"""Exception types shared across the toolkit.

The CLI maps these onto process exit codes, so library code should raise the
most specific class that applies instead of bare ValueError/RuntimeError.
"""


class OrdchangeError(Exception):
    """Base class for all toolkit errors."""


class InvalidInputError(OrdchangeError, ValueError):
    """An operation was called with inputs violating a documented precondition."""


class ConfigError(OrdchangeError, ValueError):
    """A configuration value is invalid, inconsistent, or unknown."""


class DataError(OrdchangeError):
    """A dataset cannot support the requested operation (e.g. empty class)."""


class NumericError(OrdchangeError):
    """Training or evaluation produced non-finite numbers."""


class CheckpointError(OrdchangeError):
    """A checkpoint file is unreadable, corrupted, or version-mismatched."""


class AlignmentError(OrdchangeError):
    """Prediction and truth record keys do not line up."""


class UndefinedMetricError(InvalidInputError):
    """A metric is undefined for the given confusion matrix (e.g. no samples)."""
