"""Exception types shared across the package."""

from __future__ import annotations

import math

# a count with more digits is written by its size, ~10^N
_COUNT_DIGITS = 100


class LadderLabError(Exception):
    """Base class for all errors raised by this package."""


class ResourceCapExceeded(LadderLabError):
    """A predicted size exceeds one of the package's resource caps."""


def _count_text(n: int) -> str:
    """``n`` in digits, or ``~10^N`` once it has more than _COUNT_DIGITS
    (``str`` refuses ints past 4,300 digits)."""
    if n < 10**_COUNT_DIGITS:
        return str(n)
    return f"~10^{math.log10(n):.0f}"


class CountOverCap(ResourceCapExceeded):
    """A predicted count over a cap. ``cap`` and ``predicted`` stay exact
    ints; each subclass's ``template`` words the message."""

    template: str

    def __init__(self, cap: int, predicted: int):
        super().__init__(self.template.format(cap=cap, predicted=_count_text(predicted)))
        self.cap = cap
        self.predicted = predicted


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


class BallTooLarge(CountOverCap):
    """Predicted ball size exceeds the configured cap."""

    template = "predicted ball size {predicted} exceeds cap {cap}"


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


class DomainTooLarge(CountOverCap):
    """Predicted ladder-search branching exceeds the configured cap."""

    template = "predicted per-depth branching {predicted} exceeds cap {cap}"


class ArityTooLarge(CountOverCap):
    """A word search's rows would hold more cells (arity x rows, summed over
    both tuples) than the configured cap."""

    template = "predicted row cells {predicted} (arity x rows) exceed cap {cap}"


class TraceTooLarge(CountOverCap):
    """A certificate trace would hold more ranges plus subproduct refs than
    ``bounds.TRACE_CAP``; ``predicted`` is the count at the first block
    length that passes the cap."""

    template = (
        "predicted certificate trace of at least {predicted} ranges and subproduct refs exceeds cap {cap}"
    )


class MissingSuppliedIndex(LadderLabError):
    """An infinite stub factor has no supplied index for a queried word shape."""


class FactorTooLarge(ResourceCapExceeded):
    """A factor's order exceeds ``groups.MAX_FACTOR_ORDER``."""


class BoundTooLarge(ResourceCapExceeded):
    """An exact integer was requested for a bound too large to materialize."""
