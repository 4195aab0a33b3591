"""Exception types shared across the package, its integer range check, and
the one table of the thresholds behind every verdict, refusal and stop.
Each threshold is compared with one measured quantity, which its comment
names with its normalization: absolute, or relative to a named quantity."""

import sys
from numbers import Integral

# Orthonormality, absolute: max |B^T B - I| of a basis, and |<v, v> - 1| of a
# complex line vector (the Gram matrix of its realified 2-column basis).
ORTHO_TOL = 1e-12
# Full rank, relative: a basis's smallest singular value over its largest,
# and the frame operator's smallest eigenvalue over its largest.
RANK_TOL = 1e-10
# Read correction, absolute: the largest entry change of a basis under its
# QR; a frame file's bases must be orthonormal to this.
READ_CORRECTION_TOL = 1e-6
# Equality, absolute: max-norm gap of projectors, group elements and orbit
# rows; the equiangularity spread; relative to the largest weight, the
# spread of the weights that the equal-weights formula needs.
EQUALITY_TOL = 1e-8
# Certification, relative: the tightness coefficient gap over the largest
# coefficient of A (sum x_i^2)^p; the Lie residual over p ||g||.
CERTIFY_TOL = 1e-9
# Group orthogonality, absolute: max |G^T G - I| of a generator.
GROUP_ORTHO_TOL = 1e-10
# Molien rounding, absolute: the gap of a Molien mean from its integer.
MOLIEN_TOL = 1e-6
# Stagnation, relative: a descent's fall over STALL_WINDOW steps over |value|.
STALL_RTOL = 100 * sys.float_info.epsilon
# Gradient stop, absolute: minimize_ffp's tangent gradient norm; low enough
# that its frames certify as cubatures.
TOL_GRAD = 1e-11
# Success, relative: minimize_ffp's best potential's excess over the moment.
TARGET_MARGIN = 1e-5
# Restart tie-break, relative: a later restart wins by more than this
# times the best final potential so far.
RESTART_RTOL = 1e-10

# Size limits read by more than one module.  Largest table formed at once:
# optimizer Hessian chunks, gram_matrix blocks.
GRAM_BUDGET = 2 ** 20
# Largest monomial count of a certificate or Molien expansion.
POWER_FORM_GUARD = 10 ** 6
# Largest table of a Newton problem, in entries: one restart's Hessian N^2
# or differentials N d^2, a batch of starts, a frame's projector rows on the
# sphere.  (n, k, d) = (400, 1, 10) has N^2 = 1.3e7.
NEWTON_GUARD = 2 ** 24
# Largest order p of a moment or invariant count: 627 partitions at p = 20
# (about 10 ms per moment, 0.1 s per d = 100 table).
P_MAX = 20


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
    """A size guard was hit; the requested table is too large."""


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


def check_newton_size(**entries) -> None:
    """Refuse a Newton problem whose tables would exceed NEWTON_GUARD entries."""
    for name, size in entries.items():
        if size > NEWTON_GUARD:
            raise SizeGuardExceeded(f"{name}: {size} entries > limit {NEWTON_GUARD}")
