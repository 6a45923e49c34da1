"""Normal-form elements of a free product of factor groups.

A reduced word is an alternating sequence of non-identity letters from the
factors; the empty word is the canonical identity. A word holds its letters
as int codes, ``factor << CODE_SHIFT | element``. Reduction is one fold over
runs of reduced codes: two reduced words can only cancel or merge where they
meet, so the fold works letter by letter only at the boundary between the
stack and each run, through per-code merge rows built from the factors'
tables, and appends the rest of the run whole. Multiplication is amortized
linear in the input length.
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
from .groups import MAX_FACTOR_ORDER, FactorElement, FactorGroup

DEFAULT_BALL_CAP = 10**6

IDENTITY_RENDERING = "ε"  # ε
LETTER_SEPARATOR = "·"  # ·

_LETTER_RE = re.compile(r"^f(\d+):(\d+)$")


# a letter of a normal form is a non-identity factor element
Letter = FactorElement

# A letter's code is ``factor << CODE_SHIFT | element``. No element index
# reaches MAX_FACTOR_ORDER, so a code names the same letter in every context,
# and codes are equal exactly when the letters are.
CODE_SHIFT = (MAX_FACTOR_ORDER - 1).bit_length()
ELEMENT_MASK = (1 << CODE_SHIFT) - 1


@dataclass(frozen=True, slots=True)
class ReducedWord:
    """An element of the free product in normal form, held as the codes of
    its letters. The constructor does not reduce: ``codes`` must already be
    a normal form of ``context``."""

    codes: tuple[int, ...]
    context: "FreeProduct" = field(compare=False, repr=False)
    _inverse: tuple[int, ...] | None = field(default=None, init=False, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def letters(self) -> tuple[Letter, ...]:
        return tuple(Letter(c >> CODE_SHIFT, c & ELEMENT_MASK) for c in self.codes)

    @property
    def inverse_codes(self) -> tuple[int, ...]:
        """The codes of the inverse's normal form, computed once per value."""
        if self._inverse is None:
            inverse = self.context._inverse_code
            object.__setattr__(self, "_inverse", tuple(inverse[c] for c in reversed(self.codes)))
        return self._inverse

    @property
    def is_identity(self) -> bool:
        return not self.codes

    def __mul__(self, other: "ReducedWord") -> "ReducedWord":
        return self.context.concat(self, other)

    def inverse(self) -> "ReducedWord":
        return self.context.invert(self)

    def render(self) -> str:
        if not self.codes:
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
        # Per letter code: its merge row, the code of its product with each
        # element of its factor or -1 for the identity, and its inverse's
        # code. None at codes that name no letter, a stub's included.
        self._merge: list[tuple[int, ...] | None] = [None] * (self.k << CODE_SHIFT)
        self._inverse_code: list[int | None] = [None] * (self.k << CODE_SHIFT)
        for f in self.factors:
            if f.declared_infinite:
                continue
            base = f.id << CODE_SHIFT
            for a in range(f.order):
                if a != f.identity:
                    self._merge[base | a] = tuple(
                        -1 if p == f.identity else base | p for p in f.table[a]
                    )
                    self._inverse_code[base | a] = base | f.inverses[a]

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
        return ReducedWord((fid << CODE_SHIFT | elem,), self)

    def embed(self, fe: FactorElement) -> ReducedWord:
        return self.letter(fe.factor, fe.elem)

    def fold(self, runs: Iterable[Sequence[int]]) -> list[int]:
        """The normal form of a product of reduced words, as codes.

        Each run is the codes of a reduced word. Only the stack's top and the
        run's next letter can interact: while they lie in one factor they
        merge, and a product of 1 pops the top and goes on, any other
        replaces the top and ends the merging. The rest of the run cannot
        interact with what it follows and is appended whole.
        """
        merge = self._merge
        stack: list[int] = []
        for run in runs:
            i = 0
            while stack and run:
                top, code = stack[-1], run[i]
                if top ^ code > ELEMENT_MASK:  # letters of different factors
                    break
                i += 1
                product = merge[top][code & ELEMENT_MASK]
                if product >= 0:
                    stack[-1] = product
                    break
                stack.pop()
                if i == len(run):
                    break
            stack.extend(run[i:] if i else run)
        return stack

    def reduce(self, raw: Iterable) -> ReducedWord:
        """Normal form of a raw letter sequence of (factor, elem) pairs."""
        runs: list[tuple[int]] = []
        for item in raw:
            if isinstance(item, Letter):
                fid, elem = item.factor, item.elem
            else:
                fid, elem = item
            f = self.factor(fid)
            f.check_elem(elem)
            if elem != f.identity:
                runs.append((fid << CODE_SHIFT | elem,))
        return ReducedWord(tuple(self.fold(runs)), self)

    # -- arithmetic ------------------------------------------------------

    def _check_context(self, w: ReducedWord) -> None:
        if w.context is not self:
            raise ContextMismatch("word belongs to a different free-product context")

    def concat(self, u: ReducedWord, v: ReducedWord) -> ReducedWord:
        self._check_context(u)
        self._check_context(v)
        return ReducedWord(tuple(self.fold((u.codes, v.codes))), self)

    def invert(self, u: ReducedWord) -> ReducedWord:
        self._check_context(u)
        return ReducedWord(tuple(self.fold((u.inverse_codes,))), self)

    # -- structure ---------------------------------------------------------

    def images(self, values: Iterable[ReducedWord]) -> list[tuple[int, ...]]:
        """Each value's image under the natural map onto G_0 × … × G_{k-1}:
        per factor, the product of the value's letters from that factor, in
        order. The map is a homomorphism, so every relation that holds in the
        free product holds on the images. A value whose prefix came earlier,
        as in a ball, takes one step from the prefix's image."""
        identity = [f.identity for f in self.factors]
        known: dict[tuple[int, ...], tuple[int, ...]] = {}
        out = []
        for value in values:
            self._check_context(value)
            codes = value.codes
            prefix = known.get(codes[:-1]) if codes else None
            image, rest = (list(prefix), codes[-1:]) if prefix is not None else (identity[:], codes)
            for c in rest:
                f = c >> CODE_SHIFT
                image[f] = self.factors[f].table[image[f]][c & ELEMENT_MASK]
            known[codes] = image = tuple(image)
            out.append(image)
        return out

    def centraliser(self, g: ReducedWord, longest: int) -> list[tuple[int, ...]]:
        """The codes of the members of g's centraliser no longer than
        ``longest``, for g ≠ ε.

        Two commuting elements of a free product lie in one conjugate of a
        factor or are powers of one element (Magnus, Karrass & Solitar,
        §4.1). So with g = h·t·h⁻¹, t cyclically reduced or one letter, the
        centraliser is h·C_G(t)·h⁻¹ when t is a letter of the factor G, and
        h·⟨s⟩·h⁻¹ for the shortest prefix s with t = s^m otherwise.
        """
        self._check_context(g)
        if not g.codes:
            raise ValueError("the centraliser of ε is the whole group")
        t, h = list(g.codes), []
        # peel: conjugate by the first letter while the ends share a factor
        while len(t) > 1 and t[0] ^ t[-1] <= ELEMENT_MASK:
            a = t.pop(0)
            h.append(a)
            last = t.pop()
            if last != self._inverse_code[a]:
                t.append(self._merge[last][a & ELEMENT_MASK])
                break
        h_inverse = tuple(self._inverse_code[c] for c in reversed(h))
        h = tuple(h)
        members = [()]
        if len(t) == 1:
            # t's neighbours in g lie in other factors, so no member reduces
            fid, x = t[0] >> CODE_SHIFT, t[0] & ELEMENT_MASK
            f = self.factors[fid]
            members.extend(
                h + (fid << CODE_SHIFT | z,) + h_inverse
                for z in range(f.order)
                if z != f.identity and f.table[x][z] == f.table[z][x]
            )
        else:
            n = len(t)
            p = next(p for p in range(1, n + 1) if n % p == 0 and t == t[:p] * (n // p))
            s = tuple(t[:p])
            for root in (s, tuple(self._inverse_code[c] for c in reversed(s))):
                power = root
                # lengths grow with the exponent, so stop at the first too long
                while len(member := tuple(self.fold((h, power, h_inverse)))) <= longest:
                    members.append(member)
                    power += root
        return [m for m in members if len(m) <= longest]

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
        letter_codes = [
            [f.id << CODE_SHIFT | e for e in range(f.order) if e != f.identity]
            for f in self.factors
        ]
        members: list[ReducedWord] = [self.identity]
        level: list[tuple[int, ...]] = [()]
        for _ in range(radius):
            nxt: list[tuple[int, ...]] = []
            for prefix in level:
                last = prefix[-1] >> CODE_SHIFT if prefix else None
                for fid, codes in enumerate(letter_codes):
                    if fid != last:
                        nxt.extend([prefix + (c,) for c in codes])
            members.extend([ReducedWord(w, self) for w in nxt])
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
