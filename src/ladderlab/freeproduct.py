"""Normal-form elements of a free product of factor groups.

A reduced word is an alternating sequence of non-identity letters from the
factors; the empty word is the canonical identity. Reduction is one fold that
merges adjacent same-factor letters on two int stacks through the factors'
tables, so multiplication is amortized linear in the input length.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import (
    BallTooLarge,
    ContextMismatch,
    InfiniteFactor,
    InvalidElement,
    WordParseError,
)
from .groups import FactorElement, FactorGroup

DEFAULT_BALL_CAP = 10**6

IDENTITY_RENDERING = "ε"  # ε
LETTER_SEPARATOR = "·"  # ·

_LETTER_RE = re.compile(r"^f(\d+):(\d+)$")


# a letter of a normal form is a non-identity factor element
Letter = FactorElement


@dataclass(frozen=True)
class ReducedWord:
    """An element of the free product in normal form."""

    letters: tuple[Letter, ...]
    context: "FreeProduct" = field(compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __mul__(self, other: "ReducedWord") -> "ReducedWord":
        return self.context.concat(self, other)

    def inverse(self) -> "ReducedWord":
        return self.context.invert(self)

    def render(self) -> str:
        if not self.letters:
            return IDENTITY_RENDERING
        return LETTER_SEPARATOR.join(l.render() for l in self.letters)


@dataclass(frozen=True)
class Ball:
    """All reduced words of length at most ``radius``, in canonical order."""

    radius: int
    members: tuple[ReducedWord, ...]

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[ReducedWord]:
        return iter(self.members)


class FreeProduct:
    """Context object holding the factors of ``G_0 * G_1 * ... * G_{k-1}``."""

    def __init__(self, factors: Sequence[FactorGroup]):
        if not factors:
            raise ValueError("a free product needs at least one factor")
        self.factors = tuple(
            f.with_id(i) for i, f in enumerate(factors)
        )
        self.identity = ReducedWord((), self)
        # read by the fold; all None for a stub, whose letters never reach it
        self._tables = tuple((f.identity, f.table, f.inverses) for f in self.factors)

    @property
    def k(self) -> int:
        return len(self.factors)

    @classmethod
    def from_documents(cls, docs: Sequence) -> "FreeProduct":
        from .groups import load_group

        return cls([load_group(doc, index=i) for i, doc in enumerate(docs)])

    def factor(self, fid: int) -> FactorGroup:
        if not 0 <= fid < self.k:
            raise InvalidElement(f"no factor with id {fid} (have {self.k} factors)")
        return self.factors[fid]

    def require_finite(self) -> None:
        for f in self.factors:
            if f.declared_infinite:
                raise InfiniteFactor(
                    f"factor {f.id} ({f.name}) is an infinite stub"
                )

    # -- construction ---------------------------------------------------

    def letter(self, fid: int, elem: int) -> ReducedWord:
        """A length-<=1 word from one factor element (identity gives ε)."""
        f = self.factor(fid)
        f.check_elem(elem)
        if elem == f.identity:
            return self.identity
        return ReducedWord((Letter(fid, elem),), self)

    def embed(self, fe: FactorElement) -> ReducedWord:
        return self.letter(fe.factor, fe.elem)

    def fold(self, runs: Iterable) -> tuple[list[int], list[int]]:
        """Reduce runs of letters on two parallel int stacks.

        Each run is a ``(letters, inverted)`` pair; an inverted run is read
        backwards with every letter inverted. Identity letters are dropped.
        Returns the normal form as (factor ids, element indices).
        """
        tables = self._tables
        fids: list[int] = []
        elems: list[int] = []
        for letters, inverted in runs:
            for letter in reversed(letters) if inverted else letters:
                fid = letter.factor
                identity, table, inverses = tables[fid]
                elem = inverses[letter.elem] if inverted else letter.elem
                if fids and fids[-1] == fid:
                    fids.pop()
                    elem = table[elems.pop()][elem]
                if elem != identity:
                    fids.append(fid)
                    elems.append(elem)
        return fids, elems

    def from_fold(self, fids: list[int], elems: list[int]) -> ReducedWord:
        """The ReducedWord of a fold's result."""
        return ReducedWord(tuple(map(Letter, fids, elems)), self)

    def reduce(self, raw: Iterable) -> ReducedWord:
        """Normal form of a raw letter sequence of (factor, elem) pairs."""
        letters: list[Letter] = []
        for item in raw:
            if isinstance(item, Letter):
                fid, elem = item.factor, item.elem
            else:
                fid, elem = item
            self.factor(fid).check_elem(elem)
            letters.append(Letter(fid, elem))
        return self.from_fold(*self.fold([(letters, False)]))

    # -- arithmetic ------------------------------------------------------

    def _check_context(self, w: ReducedWord) -> None:
        if w.context is not self:
            raise ContextMismatch("word belongs to a different free-product context")

    def concat(self, u: ReducedWord, v: ReducedWord) -> ReducedWord:
        self._check_context(u)
        self._check_context(v)
        return self.from_fold(*self.fold([(u.letters, False), (v.letters, False)]))

    def invert(self, u: ReducedWord) -> ReducedWord:
        self._check_context(u)
        return self.from_fold(*self.fold([(u.letters, True)]))

    # -- ball enumeration --------------------------------------------------

    def predicted_ball_size(self, radius: int) -> int:
        """Count of words of length <= radius via the alternating recurrence."""
        self.require_finite()
        counts = {f.id: f.order - 1 for f in self.factors}  # length-1 words per last factor
        total = 1 + sum(counts.values()) if radius >= 1 else 1
        for _ in range(2, radius + 1):
            nxt = {}
            for f in self.factors:
                nxt[f.id] = (f.order - 1) * sum(
                    c for g, c in counts.items() if g != f.id
                )
            counts = nxt
            total += sum(counts.values())
        return total

    def ball(self, radius: int, cap: int = DEFAULT_BALL_CAP) -> Ball:
        """All reduced words of length <= radius, deterministically ordered."""
        if radius < 0:
            raise ValueError("radius must be >= 0")
        self.require_finite()
        predicted = self.predicted_ball_size(radius)
        if predicted > cap:
            raise BallTooLarge(cap, predicted)
        members: list[ReducedWord] = [self.identity]
        level: list[tuple[Letter, ...]] = [()]
        for _ in range(radius):
            nxt: list[tuple[Letter, ...]] = []
            for prefix in level:
                last = prefix[-1].factor if prefix else None
                for f in self.factors:
                    if f.id == last:
                        continue
                    for e in range(f.order):
                        if e == f.identity:
                            continue
                        nxt.append(prefix + (Letter(f.id, e),))
            members.extend(ReducedWord(w, self) for w in nxt)
            level = nxt
        return Ball(radius, tuple(members))

    # -- parsing -----------------------------------------------------------

    def parse_letters(self, text: str) -> list[tuple[int, int]]:
        """Raw (factor, elem) pairs from 'f0:1 f1:2' / 'f0:1·f1:2' / 'ε'."""
        text = text.strip()
        if text in ("", IDENTITY_RENDERING):
            return []
        pairs = []
        for token in text.replace(LETTER_SEPARATOR, " ").split():
            m = _LETTER_RE.match(token)
            if not m:
                raise WordParseError(f"bad letter token {token!r}")
            pairs.append((int(m.group(1)), int(m.group(2))))
        return pairs

    def parse_word_text(self, text: str) -> ReducedWord:
        """Parse a rendered or raw letter sequence and reduce it."""
        return self.reduce(self.parse_letters(text))
