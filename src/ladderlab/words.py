"""Syntactic group words w(x̄, ȳ): parsing, evaluation, and the
change-of-variables rewrite with its block decomposition.

A word is a flat sequence of syllables (variable, ±1). Variables live in two
tuples 'x' and 'y' with 1-based positions and may carry a factor annotation
('x2@1' is the second x-variable attached to factor 1). Annotations are
all-or-none per word: the annotated form is the separated shape produced by
the change of variables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Sequence

from .errors import (
    AnnotationMismatch,
    ArityMismatch,
    ContextMismatch,
    LengthExceedsRadius,
    UnannotatedSyllable,
    WordParseError,
)
from .freeproduct import FreeProduct, ReducedWord
from .groups import FactorElement, FactorGroup


@dataclass(frozen=True)
class Syllable:
    """A variable of the x- or y-tuple, optionally annotated with a factor,
    raised to the exponent +1 or -1."""

    tuple_name: str  # "x" | "y"
    position: int  # 1-based
    exponent: int  # +1 | -1
    annotation: int | None = None

    def render_variable(self) -> str:
        base = f"{self.tuple_name}{self.position}"
        if self.annotation is not None:
            base += f"@{self.annotation}"
        return base

    def render(self) -> str:
        return self.render_variable() + ("^-1" if self.exponent < 0 else "")

    def inverse(self) -> "Syllable":
        return Syllable(self.tuple_name, self.position, -self.exponent, self.annotation)


@dataclass(frozen=True)
class GroupWord:
    """A formal product of variables and their inverses."""

    syllables: tuple[Syllable, ...]
    arity_x: int
    arity_y: int
    # per syllable: (an x-variable?, 0-based position, inverted?), for evaluation
    steps: tuple[tuple[bool, int, bool], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        steps = tuple((s.tuple_name == "x", s.position - 1, s.exponent < 0) for s in self.syllables)
        object.__setattr__(self, "steps", steps)

    @classmethod
    def from_syllables(cls, syllables: Sequence[Syllable]) -> "GroupWord":
        syllables = tuple(syllables)
        ax = ay = 0
        annotated = None
        for s in syllables:
            if s.tuple_name not in ("x", "y") or s.position < 1:
                raise WordParseError(f"bad variable {s.render_variable()!r}")
            if s.exponent not in (1, -1):
                raise WordParseError(f"bad exponent {s.exponent} on {s.render_variable()!r}")
            has = s.annotation is not None
            if annotated is None:
                annotated = has
            elif annotated != has:
                raise AnnotationMismatch("word mixes annotated and unannotated syllables")
            if s.tuple_name == "x":
                ax = max(ax, s.position)
            else:
                ay = max(ay, s.position)
        return cls(syllables, ax, ay)

    @property
    def annotated(self) -> bool:
        return bool(self.syllables) and self.syllables[0].annotation is not None

    def __len__(self) -> int:
        return len(self.syllables)

    def render(self) -> str:
        return " ".join(s.render() for s in self.syllables)

    def formal_inverse(self) -> "GroupWord":
        return GroupWord.from_syllables(tuple(s.inverse() for s in reversed(self.syllables)))

    def slice(self, start: int, stop: int) -> "GroupWord":
        return GroupWord.from_syllables(self.syllables[start:stop])


def concat_words(u: GroupWord, v: GroupWord) -> GroupWord:
    """Formal concatenation; no group-level simplification."""
    return GroupWord.from_syllables(u.syllables + v.syllables)


# -- DSL parsing -------------------------------------------------------------
#
# word := item { item } | "" ;  item := atom [ "^-1" ] ;
# atom := var | "(" word ")" ;  var := ("x"|"y") digits [ "@" digits ]
#
# Digits are decimal digits (any script's), at most 4,300 to a number, the
# limit of CPython's int(); whitespace is str.isspace.

_VARIABLE = re.compile(r"([xy])(\d*)(@(\d*))?")


def parse_word(text: str) -> GroupWord:
    """Parse the word DSL into a GroupWord; raises WordParseError with position.
    Open groups wait on an explicit stack, so nesting depth costs no recursion."""
    groups: list[list[Syllable]] = [[]]  # the word, then each open "(" group
    pos = 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        ch = text[pos : pos + 1]
        if ch == "(":
            pos += 1
            groups.append([])
            continue
        if ch == ")" and len(groups) > 1:
            pos += 1
            syllables = groups.pop()
        elif var := _VARIABLE.match(text, pos):
            name, digits, at, annotation = var.groups()
            if not digits:
                raise WordParseError("expected digits for variable position", position=pos + 2)
            numbers = []
            for group in (2, 4):
                try:
                    numbers.append(int(var[group] or 0))
                except ValueError:  # more digits than int() reads
                    raise WordParseError("too many digits", position=var.start(group) + 1) from None
            if numbers[0] < 1:
                raise WordParseError("variable positions are 1-based", position=pos + 1)
            if at and not annotation:
                raise WordParseError("expected digits for factor annotation", position=var.end() + 1)
            pos = var.end()
            syllables = [Syllable(name, numbers[0], 1, numbers[1] if at else None)]
        elif ch:
            raise WordParseError(f"unexpected character {ch!r}", position=pos + 1)
        elif len(groups) > 1:
            raise WordParseError("unbalanced parenthesis", position=pos + 1)
        else:
            break
        if text.startswith("^", pos):
            if not text.startswith("^-1", pos):
                raise WordParseError("expected '^-1'", position=pos + 1)
            pos += 3
            syllables = [s.inverse() for s in reversed(syllables)]
        groups[-1].extend(syllables)
    try:
        return GroupWord.from_syllables(groups[0])
    except AnnotationMismatch as exc:
        raise WordParseError(str(exc)) from exc


def render_word(w: GroupWord) -> str:
    return w.render()


# -- evaluation ---------------------------------------------------------------


def check_arities(w: GroupWord, arity_x: int, arity_y: int) -> None:
    """Raise ArityMismatch unless an assignment of these arities fits w."""
    if arity_x != w.arity_x or arity_y != w.arity_y:
        raise ArityMismatch(
            f"assignment arities ({arity_x},{arity_y}) do not match "
            f"word arities ({w.arity_x},{w.arity_y})"
        )


def _runs(
    context: FreeProduct,
    w: GroupWord,
    a_values: Sequence[ReducedWord],
    b_values: Sequence[ReducedWord],
) -> list[tuple[int, ...]]:
    """The fold's runs for w under the assignment: per syllable, the codes of
    its value, or of the value's inverse if the syllable is inverted."""
    check_arities(w, len(a_values), len(b_values))
    runs = []
    for is_x, index, inverted in w.steps:
        value = (a_values if is_x else b_values)[index]
        if value.context is not context:
            raise ContextMismatch("assignment value from a different context")
        runs.append(value.inverse_codes if inverted else value.codes)
    return runs


def evaluate(
    context: FreeProduct,
    w: GroupWord,
    a_values: Sequence[ReducedWord],
    b_values: Sequence[ReducedWord],
) -> ReducedWord:
    """Value of w under the assignment, in normal form. Annotations are ignored."""
    return ReducedWord(tuple(context.fold(_runs(context, w, a_values, b_values))), context)


def evaluates_to_identity(
    context: FreeProduct,
    w: GroupWord,
    a_values: Sequence[ReducedWord],
    b_values: Sequence[ReducedWord],
) -> bool:
    """Whether ``evaluate`` would return 1, without building the value."""
    return not context.fold(_runs(context, w, a_values, b_values))


# -- word shapes that decide 'w = 1' with fewer folds ---------------------------


def split_word(w: GroupWord) -> tuple[GroupWord, GroupWord] | None:
    """``(u, v⁻¹)`` when a cyclic rotation of w is u(x̄)·v(ȳ), else None.

    A rotation is a conjugate, so w(ā, b̄) = 1 exactly when u(ā) = v(b̄)⁻¹.
    u keeps w's x-arity and no y-variables, v⁻¹ its y-arity and no
    x-variables, so ``evaluate(context, u, a_values, ())`` checks the
    a-values as evaluating w does, and likewise v⁻¹ the b-values."""
    syllables = w.syllables
    # the x-block starts at the one x-syllable that follows a y-syllable
    start = next(
        (k for k, s in enumerate(syllables)
         if s.tuple_name == "x" and syllables[k - 1].tuple_name == "y"),
        0,
    )
    rotated = syllables[start:] + syllables[:start]
    names = [s.tuple_name for s in rotated]
    if names != sorted(names):  # "x" < "y"
        return None
    cut = names.count("x")
    v_inverse = tuple(s.inverse() for s in reversed(rotated[cut:]))
    return GroupWord(rotated[:cut], w.arity_x, 0), GroupWord(v_inverse, 0, w.arity_y)


def swap_symmetric(w: GroupWord) -> bool:
    """Whether swapping x and y turns w into a cyclic rotation of w or of
    w⁻¹. Then w(b̄, ā) is conjugate to w(ā, b̄) or to its inverse, so one is
    1 exactly when the other is."""
    if w.arity_x != w.arity_y:
        return False
    swapped = tuple((not is_x, index, inverted) for is_x, index, inverted in w.steps)
    inverse = tuple((is_x, index, not inverted) for is_x, index, inverted in reversed(w.steps))
    return any(
        steps[k:] + steps[:k] == swapped
        for steps in (w.steps, inverse)
        for k in range(max(len(steps), 1))
    )


def commutator_word(w: GroupWord) -> bool:
    """Whether w is a spelling of [x1^±1, y1^±1] up to cyclic rotation:
    arity (1, 1), four syllables that alternate x and y cyclically, and each
    variable once with +1 and once with -1. Then w(a, b) = 1 exactly when a
    commutes with b."""
    steps = w.steps
    return (
        (w.arity_x, w.arity_y) == (1, 1)
        and len(steps) == 4
        and all(steps[k][0] != steps[k - 1][0] for k in range(4))
        and steps[0][2] != steps[2][2]
        and steps[1][2] != steps[3][2]
    )


def evaluate_in_group(
    group: FactorGroup,
    w: GroupWord,
    a_elems: Sequence[int],
    b_elems: Sequence[int],
) -> int:
    """Value of w inside one finite group, as an element index."""
    check_arities(w, len(a_elems), len(b_elems))
    result = group.identity
    for s in w.syllables:
        e = (a_elems if s.tuple_name == "x" else b_elems)[s.position - 1]
        if s.exponent < 0:
            e = group.inv(e)
        result = group.mul(result, e)
    return result


# -- change of variables -------------------------------------------------------


def template_length(r: int, k: int) -> int:
    """Number of fresh variables one original variable expands into."""
    return r + 1 if k == 2 else k * r


def template_factor(slot: int, k: int) -> int:
    """Factor annotation of the slot-th (0-based) fresh variable."""
    return slot % k


def change_of_variables(w: GroupWord, r: int, k: int) -> GroupWord:
    """Formally replace each variable by its fresh-variable template.

    For two factors the template is r+1 variables alternating between the
    factors starting with factor 0; for k > 2 it is the cyclic factor pattern
    repeated r times. Inverses take the visual inverse of the template;
    concatenation only, never group simplification.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if k < 2:
        raise ValueError("need at least 2 factors")
    if w.annotated:
        raise AnnotationMismatch("change of variables expects an unannotated word")
    t = template_length(r, k)
    out: list[Syllable] = []
    for s in w.syllables:
        base = (s.position - 1) * t
        expansion = [
            Syllable(s.tuple_name, base + slot + 1, 1, template_factor(slot, k))
            for slot in range(t)
        ]
        if s.exponent < 0:
            expansion = [e.inverse() for e in reversed(expansion)]
        out.extend(expansion)
    return GroupWord.from_syllables(out)


# -- block decomposition ---------------------------------------------------


@dataclass(frozen=True)
class Block:
    """A maximal run of equally annotated syllables: [start, stop)."""

    factor: int
    start: int
    stop: int


@dataclass(frozen=True)
class BlockDecomposition:
    word: GroupWord
    blocks: tuple[Block, ...]
    ell: int

    def block_word(self, i: int) -> GroupWord:
        b = self.blocks[i]
        return self.word.slice(b.start, b.stop)


def block_decompose(w: GroupWord) -> BlockDecomposition:
    """Split an annotated word into maximal same-factor runs."""
    for s in w.syllables:
        if s.annotation is None:
            raise UnannotatedSyllable(f"syllable {s.render()!r} has no annotation")
    blocks: list[Block] = []
    start = 0
    for i in range(1, len(w.syllables) + 1):
        if i == len(w.syllables) or w.syllables[i].annotation != w.syllables[start].annotation:
            blocks.append(Block(w.syllables[start].annotation, start, i))
            start = i
    return BlockDecomposition(w, tuple(blocks), len(blocks))


# -- interpretation of ball elements in the template -------------------------


def interpret_in_template(z: ReducedWord, r: int, k: int) -> tuple[FactorElement, ...]:
    """Greedy left-to-right placement of z's letters into the template slots.

    Unused slots are identity-padded. Deterministic; always succeeds for
    length(z) <= r because each letter consumes at most one factor cycle.
    """
    context = z.context
    if k != context.k:
        raise ValueError(f"template is for {k} factors, context has {context.k}")
    if len(z) > r:
        raise LengthExceedsRadius(f"word of length {len(z)} exceeds radius {r}")
    t = template_length(r, k)
    slots = [
        FactorElement(template_factor(s, k), context.factors[template_factor(s, k)].identity)
        for s in range(t)
    ]
    cursor = 0
    for letter in z.letters:
        while cursor < t and template_factor(cursor, k) != letter.factor:
            cursor += 1
        if cursor == t:
            raise LengthExceedsRadius(
                f"could not place {letter.render()} into the template"
            )
        slots[cursor] = letter
        cursor += 1
    return tuple(slots)


def expand_assignment(
    values: Sequence[ReducedWord], r: int, k: int
) -> tuple[ReducedWord, ...]:
    """Flatten ball elements into fresh-variable values for the rewritten word."""
    out: list[ReducedWord] = []
    for z in values:
        out.extend(z.context.embed(fe) for fe in interpret_in_template(z, r, k))
    return tuple(out)


# -- canonical shapes ---------------------------------------------------------


def word_shape(w: GroupWord) -> str:
    """Canonical rendering: annotations stripped, positions renumbered by
    first occurrence within each tuple. Used for stub keys and memo keys."""
    return canonicalize_word(w).render()


def canonicalize_word(w: GroupWord) -> GroupWord:
    maps: dict[str, dict[int, int]] = {"x": {}, "y": {}}
    out = []
    for s in w.syllables:
        m = maps[s.tuple_name]
        if s.position not in m:
            m[s.position] = len(m) + 1
        out.append(Syllable(s.tuple_name, m[s.position], s.exponent))
    return GroupWord.from_syllables(out)


def shape_key(w: GroupWord, negated: bool) -> str:
    """Key into an infinite stub's supplied_indices map."""
    return f"{word_shape(w)} {'!=' if negated else '='} 1"
