"""Exception types shared across the package, and its integer range check."""

from numbers import Integral


class FusionFrameError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(FusionFrameError):
    """Ambient dimensions disagree, or a dimension is out of range."""


class RankDeficient(FusionFrameError):
    """Input matrix does not have full column rank."""


class LengthMismatch(FusionFrameError):
    """A list argument has the wrong number of entries."""


class NotAFrame(FusionFrameError):
    """The frame operator is singular; the collection does not span R^d."""


class SizeGuardExceeded(FusionFrameError):
    """A monomial-count guard was hit; the requested expansion is too large."""


class MixedDimensions(FusionFrameError):
    """Operation requires all subspaces to share one dimension."""


class SingleSubspace(FusionFrameError):
    """Operation requires at least two subspaces."""


class ParameterError(FusionFrameError):
    """Parameters outside the supported range."""


class GroupTooLarge(FusionFrameError):
    """Group closure exceeded the allowed order."""


class NotOrthogonal(FusionFrameError):
    """A supposed orthogonal matrix fails the orthogonality check."""


class UnknownName(FusionFrameError):
    """Catalog lookup with an unrecognized name."""


class FrameFormatError(FusionFrameError):
    """A frame/generator/line-set file violates the documented format."""


def check_range(name: str, value, lo: int, hi: int | None = None) -> None:
    """Refuse a parameter that is not an integer in [lo, hi] (no upper bound
    when hi is None): Python and numpy integers pass, booleans do not."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if value < lo or (hi is not None and value > hi):
        raise ParameterError(f"{name}={value} not in [{lo}, {'inf' if hi is None else hi}]")


def check_order(p) -> None:
    """Refuse an order p that is not an integer >= 1."""
    check_range("p", p, 1)
