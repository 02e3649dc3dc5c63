"""Exception types shared across the package, and the range checks of numeric settings."""

import math
import numbers


class GeogressError(Exception):
    """Base class for all geogress errors."""


class DimensionMismatch(GeogressError):
    """Array shapes are inconsistent with each other or with the model."""


class NotOrthonormal(GeogressError):
    """A matrix required to have orthonormal columns does not."""


class NotTangent(GeogressError):
    """The direction basis is not orthogonal to the base basis."""


class NonpositiveTime(GeogressError):
    """A curvature weight was requested at a non-positive time."""


class RankTooLarge(GeogressError):
    """Requested SVD rank exceeds what the data can support."""


class InitFailure(GeogressError):
    """An initialization strategy cannot produce a model for this dataset."""


class EmptySegment(GeogressError):
    """A knot interval contains no samples."""


class InvalidSpec(GeogressError):
    """An experiment specification violates its invariants."""


class IoFailure(GeogressError):
    """Reading or writing a file failed at the OS level."""


class MalformedFile(GeogressError):
    """A file does not conform to the expected text format."""


class RankCollapseWarning(UserWarning):
    """The Procrustes target matrix is numerically rank deficient.

    The update is still valid (the orthogonal polar factor remains a Stiefel
    point), but some columns are no longer pinned down by the data.
    """


def check_setting(name: str, value, low, high=math.inf) -> None:
    """Raise ValueError naming the setting unless `value` is finite and low <= value <= high.

    NaN and +-inf fail whatever the bounds.
    """
    if not (low <= value <= high and -math.inf < value < math.inf):
        bounds = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be finite and {bounds}, got {value}")


def is_integer(value) -> bool:
    """Whether `value` is a Python or numpy integer; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_count(name: str, value, low) -> None:
    """Raise ValueError naming the setting unless `value` is an integer >= low."""
    if not is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    check_setting(name, value, low)
