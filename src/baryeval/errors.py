"""Exception types of the library, and `as_floats` and `as_index`, which read caller input."""

import operator
import reprlib

import numpy as np


class BaryevalError(Exception):
    """Base class for all library errors."""


class InvalidSizeError(BaryevalError, ValueError):
    """Node count outside the supported range."""


class DegenerateNodesError(BaryevalError, ValueError):
    """Duplicate interpolation nodes."""


class ConvergenceError(BaryevalError, RuntimeError):
    """A computed node set failed its safety check: the nodes are not strictly ascending."""


class CollocationError(BaryevalError, ValueError):
    """A point coincides with an interpolation node where the regular
    formula divides by zero; callers must use the collocated branch."""


class InvalidInputError(BaryevalError, ValueError):
    """Mismatched array lengths or otherwise malformed input."""


_FLOAT64 = np.dtype(float)


def _holds_complex(x):
    """Whether object array x holds a complex number or array, also inside an array it holds."""
    return any(_holds_complex(v) if isinstance(v, np.ndarray) and v.dtype.kind == "O"
               else np.iscomplexobj(v) for v in x.flat)


def as_floats(value, what):
    """value as a float array, read as `np.asarray(value, dtype=float)` reads it.

    True is 1.0, "0.1" is 0.1 and None is NaN.  What does not read as real
    numbers (a non-numeric string, a complex number, a dict, a ragged list, an
    object array of these, NumPy complex scalars among them) raises
    InvalidInputError naming `what`.  Shape and finiteness rules belong to
    the module that owns the input.
    """
    try:
        x = np.asarray(value)
        if x.dtype is not _FLOAT64:
            if x.dtype.kind == "c" or (x.dtype.kind == "O" and _holds_complex(x)):
                raise TypeError  # a cast would drop the imaginary part with only a warning
            x = x.astype(float)
        return x
    except (TypeError, ValueError, OverflowError):
        raise InvalidInputError(
            f"{what} must be real numbers, got {reprlib.repr(value)}") from None


def as_index(value):
    """value as an int, read as `operator.index` reads it (True is 1), or None
    for what that refuses; the caller raises its own error."""
    try:
        return operator.index(value)
    except TypeError:
        return None


class OutOfRegionError(BaryevalError, ValueError):
    """Query point lies outside the reference region beyond tolerance."""


class SingularCollapseError(BaryevalError, ValueError):
    """Operation requested at a singular face of the coordinate collapse."""


class ConfigError(BaryevalError, ValueError):
    """Invalid solver configuration."""


class ReportError(BaryevalError, ValueError):
    """Benchmark report cannot be assembled from the given records."""
