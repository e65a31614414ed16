"""Exception types shared across the package, the integer check that every
config class makes, and the one that every reader of labels makes."""

from numbers import Integral

import numpy as np


class InvsenError(Exception):
    """Base class for all invsen errors."""


class ShapeError(InvsenError, ValueError):
    """Array dimensions do not line up with what an operation expects."""


class ConfigError(InvsenError, ValueError):
    """A configuration value is missing, out of range, or inconsistent."""


class DataFormatError(InvsenError, ValueError):
    """A dataset or metrics file does not conform to its documented format."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc += f"{path}"
        if line is not None:
            loc += f":{line}"
        super().__init__(f"{loc}: {message}" if loc else message)
        self.path = path
        self.line = line


class CheckpointError(InvsenError, ValueError):
    """A checkpoint file is corrupt, truncated, or from an unknown version."""


class NumericsError(InvsenError, ArithmeticError):
    """A numerical routine produced non-finite values or failed to converge."""


class TrainingDiverged(InvsenError, RuntimeError):
    """The training loss went non-finite or exploded past the guard threshold."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report or {}


def check_integers(config, names, lists=()) -> None:
    """Refuse with a ConfigError any field of config named in names that is
    not an integer (a bool is not one), and any field named in lists that
    is not a tuple or list of integers."""
    for name in (*names, *lists):
        value = getattr(config, name)
        items = value if name in lists else (value,)
        if not isinstance(items, (tuple, list)) or any(
                isinstance(v, bool) or not isinstance(v, Integral) for v in items):
            raise ConfigError(f"{name} must be an integer or integers, not {value!r}")


def integer_labels(labels) -> np.ndarray:
    """labels as an int array, once the cast keeps every entry (1.0 reads
    as 1): a ConfigError for a fractional, NaN, infinite or out-of-range
    label, which the cast alone would silently change."""
    labels = np.asarray(labels)
    if labels.dtype.kind not in "biu":
        with np.errstate(invalid="ignore"):
            kept = labels.astype(int) == labels
        if not kept.all():
            raise ConfigError(f"labels must be integers, not {labels[~kept][0]}")
    return labels.astype(int)
