"""Exception hierarchy shared by the whole toolkit.

Everything user-facing derives from :class:`CCError`, which the CLI maps to
exit code 2 (validation error).
"""

from __future__ import annotations

import numbers


class CCError(Exception):
    """Base class for all toolkit validation errors."""


# -- complex construction ---------------------------------------------------

class EmptyCell(CCError):
    """A cell with no vertices."""


class OutOfRangeNode(CCError):
    """A cell references a node id outside 0..num_nodes-1."""


class DuplicateCell(CCError):
    """Two cells share both vertex set and rank."""


class RankViolation(CCError):
    """A cell strictly contains another cell of higher rank."""


class UnknownCell(CCError):
    """A queried cell is not part of the complex."""


class WrongKind(CCError):
    """A neighborhood spec of the wrong kind for this operation."""


class ParseError(CCError):
    """Malformed serialized input (JSON or edge-list)."""


# -- generators / lifting ----------------------------------------------------

class PeriodTooSmall(CCError):
    """A torus/strip period below the minimum of 3."""


class BadParams(CCError):
    """Structurally invalid generator parameters."""


def integer(value, name: str) -> int:
    """value as an int when it is an integer (numbers.Integral, numpy's
    included, but not bool); BadParams otherwise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise BadParams(f"{name} must be an integer, got {value!r}")
    return int(value)


class DegenerateCover(CCError):
    """A pooling interval cover with non-positive length."""


# -- covering ----------------------------------------------------------------

class NotDivisible(CCError):
    """Torus mod-map requested without coordinatewise divisibility."""


class DimensionMismatch(CCError):
    """Source and target complexes of a cell map differ in dimension."""


class MapNotWellDefined(CCError):
    """A vertex-level map does not send every source cell onto a target cell."""


# -- invariants ----------------------------------------------------------------

class EmptySkeleton(CCError):
    """An operation requires a non-empty skeleton."""


class CellWithoutFaces(CCError):
    """A cell has no faces of the requested rank."""


class NotAChainComplex(CCError):
    """Boundary composition is nonzero over GF(2); ``violation`` is the first
    (r, row in X_{r+1}, col in X_{r-1}) where d_{r+1} d_r is."""

    def __init__(self, message: str, violation: tuple[int, int, int]):
        super().__init__(message)
        self.violation = violation


class DimensionTooLow(CCError):
    """An operation requires dimension >= 2."""


# -- refinement ----------------------------------------------------------------

class RankOutOfRange(CCError):
    """A refinement config references a rank beyond the complex dimension."""


class PoolWithoutScl(CCError):
    """A pool stage with no live pair coloring to fold."""


class MarkingUnsupported(CCError):
    """A pair-marking strategy undefined for the requested rank pair."""
