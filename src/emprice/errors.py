"""Semantic exceptions shared across the package."""

__all__ = [
    "EmpriceError", "InvalidEnvironmentError", "InvalidMenuError",
    "TiedSampleError", "UnsupportedPairError", "MissingDensityError", "CollapsedGridError",
]


class EmpriceError(Exception):
    """Base class for all library errors."""


class InvalidEnvironmentError(EmpriceError, ValueError):
    """An economic environment violates its model assumptions."""


class InvalidMenuError(EmpriceError, ValueError):
    """A menu violates its contract (free positive quantity, out-of-range item)."""


class TiedSampleError(EmpriceError, ValueError):
    """An operation that requires distinct observations received ties."""


class UnsupportedPairError(EmpriceError, ValueError):
    """No solver is available for this (distribution, cost) pair."""


class MissingDensityError(EmpriceError, ValueError):
    """The distribution has no density where one is required."""


class CollapsedGridError(EmpriceError, ValueError):
    """A law's quantile grid repeats a point at float resolution."""
