"""Exception types shared across the package.

Every failure mode that callers are expected to handle (bad input, moves
that are not legal in a given position, internal consistency checks that
double as mathematical assertions) gets its own class so tests and the
command line tool can react precisely.
"""

from __future__ import annotations


class GridHfkError(Exception):
    """Base class for all package-specific errors."""


class EmptyWord(GridHfkError):
    """A braid word with no letters was supplied."""


class NotPermutation(GridHfkError):
    """Grid data whose rows/columns are not a pair of permutations."""


class CoincidentDecorations(GridHfkError):
    """An X and an O occupy the same cell of the grid."""


class MultiComponentClosure(GridHfkError):
    """The closure of the braid word is a link with several components."""


class MultiComponent(GridHfkError):
    """The grid diagram traces out more than one closed curve."""


class TooSmall(GridHfkError):
    """A move would shrink the grid below the minimum size two."""


class IllegalCastling(GridHfkError):
    """Adjacent row/column exchange blocked by interleaved decorations."""


class DegenerateDeterminant(GridHfkError):
    """The winding matrix determinant vanished or failed to normalize."""


class PointOnDiagram(GridHfkError):
    """A winding-number query for a point lying on the curve itself."""


class InvalidOmission(GridHfkError):
    """A vertical/horizontal line omission that no valid configuration allows."""


class BoundarySquareNonzero(GridHfkError):
    """The boundary operator failed the d-squared-equals-zero check."""


class AlexanderConstantInvalid(GridHfkError):
    """The doubled Alexander constant of a diagram is fractional or odd."""


class GradingViolation(GridHfkError):
    """A boundary entry changes a2 or does not lower the Maslov grading by one."""


class SignAssignmentFailed(GridHfkError):
    """Rectangle signs are inconsistent or a signed boundary entry is not a unit."""


class DuplicateGenerator(GridHfkError):
    """A generator was added twice to the same complex."""


class NonUnitPivot(GridHfkError):
    """A cancellation was requested on an entry that is not a unit."""


class ScheduleAssertionFailed(GridHfkError):
    """A retraction event violated its pairing/grading invariants."""


class CrosscheckFailed(GridHfkError):
    """Two independent computations disagreed on the same invariant."""


class InconsistentTensor(GridHfkError):
    """Tensor-factor removal or skip reconstruction met inconsistent data."""


class InconsistentHomology(GridHfkError):
    """Boundary blocks give a negative free rank."""


class InvalidInvariant(GridHfkError):
    """Homology no knot has: zero everywhere, or at an odd doubled Alexander grading."""


class UnderdeterminedSkip(GridHfkError):
    """Skipped slices are more than n−1, or do not fit in n−1 consecutive ones."""


class RectangleCornerMissing(GridHfkError):
    """An empty rectangle's new corners are not crossings of the configuration."""


class DomainSystemSingular(GridHfkError):
    """Some domain multiplicity has no ±1 pivot in the corner constraints."""


class CancelledTargetReached(GridHfkError):
    """A short-differential row has an entry on a cancelled generator."""


class MissingDomain(GridHfkError):
    """A nonzero short-differential entry joins two generators no domain joins."""


class SliceWorkerDied(GridHfkError):
    """A worker process reducing Alexander slices ended without a result."""


class GridTooLarge(GridHfkError):
    """The long oval generators of the grid do not pack into 63-bit keys."""
