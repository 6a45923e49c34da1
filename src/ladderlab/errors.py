"""Exception types shared across the package."""

from __future__ import annotations


class LadderLabError(Exception):
    """Base class for all errors raised by this package."""


class ResourceCapExceeded(LadderLabError):
    """A predicted size exceeds one of the package's resource caps."""


class SpecParseError(LadderLabError):
    """A group spec document is malformed."""


class AxiomViolation(LadderLabError):
    """A loaded multiplication table is not a group; carries a witness."""

    def __init__(self, message: str, witness: tuple | None = None):
        super().__init__(message)
        self.witness = witness


class InfiniteFactor(LadderLabError):
    """An element-level operation was requested on an infinite stub factor."""


class InvalidElement(LadderLabError):
    """An element index is out of range for its factor."""


class ContextMismatch(LadderLabError):
    """Words from different free-product contexts were combined."""


class BallTooLarge(ResourceCapExceeded):
    """Predicted ball size exceeds the configured cap."""

    def __init__(self, cap: int, predicted: int):
        super().__init__(
            f"predicted ball size {predicted} exceeds cap {cap}"
        )
        self.cap = cap
        self.predicted = predicted


class WordParseError(LadderLabError):
    """A word-DSL string (or reduced-word rendering) failed to parse."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class ArityMismatch(LadderLabError):
    """An assignment tuple does not match a word's arity."""


class AnnotationMismatch(LadderLabError):
    """A block's factor annotations are absent, mixed, or wrong for the factor."""


class UnannotatedSyllable(LadderLabError):
    """Block decomposition was asked for on a word with unannotated syllables."""


class LengthExceedsRadius(LadderLabError):
    """A word is too long to embed into the change-of-variables template."""


class DomainTooLarge(ResourceCapExceeded):
    """Predicted ladder-search branching exceeds the configured cap."""

    def __init__(self, cap: int, predicted: int):
        super().__init__(
            f"predicted per-depth branching {predicted} exceeds cap {cap}"
        )
        self.cap = cap
        self.predicted = predicted


class ArityTooLarge(ResourceCapExceeded):
    """A word search's rows would hold more cells (arity x rows, summed over
    both tuples) than the configured cap."""

    def __init__(self, cap: int, predicted: int):
        super().__init__(f"predicted row cells {predicted} (arity x rows) exceed cap {cap}")
        self.cap = cap
        self.predicted = predicted


class MissingSuppliedIndex(LadderLabError):
    """An infinite stub factor has no supplied index for a queried word shape."""


class FactorTooLarge(ResourceCapExceeded):
    """A factor's order exceeds ``groups.MAX_FACTOR_ORDER``."""


class BoundTooLarge(ResourceCapExceeded):
    """An exact integer was requested for a bound too large to materialize."""
