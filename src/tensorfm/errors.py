"""Exception types shared across the package."""


class TensorFMError(Exception):
    """Base class for all errors raised by this package. ``exit_code`` is
    the command line's exit status for the error: 3, a data error, unless
    a subclass states another."""

    exit_code = 3


class SchemaError(TensorFMError):
    """Invalid field schema or schema mismatch between components."""


class DataError(TensorFMError):
    """Unreadable, malformed, or otherwise unusable input data."""


class ConfigError(TensorFMError):
    """Inconsistent model or training configuration: a usage error."""

    exit_code = 2


class ModelIOError(TensorFMError):
    """Corrupt, truncated, or incompatible model file."""


class NumericError(TensorFMError):
    """Non-finite values encountered during training or scoring."""

    exit_code = 4


class MetricError(TensorFMError):
    """A metric is undefined for the given inputs (e.g. single-class AUC)."""
