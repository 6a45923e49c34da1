"""Stability-index search.

A ladder of length m for a formula φ(x̄, ȳ) over a finite domain B is a pair
of row sequences ā_1..ā_m, b̄_1..b̄_m with φ(ā_i, b̄_j) holding exactly when
i <= j. Ladders are prefix-closed, so the search is an exact depth-first walk
over one-pair extensions on Python-int row masks, after the bit-parallel
maximum-clique search of San Segundo, Rodríguez-Losada & Jiménez (2011).

The walk prunes in the same spirit. A row bound: each later b-row of a ladder
through a-row i is a distinct b-row on which i holds, so i is skipped when
those cannot make the path longer than the best ladder found. A profile rule:
two a-rows of one node that hold on the same candidate b-rows have the same
children, as do two b-rows under one a-row that leave the same candidate
a-rows, so only the first of each is walked. Both drop only subtrees that
cannot beat the best ladder or that repeat one already walked, so the first
longest ladder in walk order, and with it the witness, is unchanged.

The walk reads the holds relation only through two mask queries, and where
they come from depends on the formula. In general each pair is evaluated at
most once, when the walk first asks for it. For a word formula 'w = 1' whose
cyclic rotation u(x̄)·v(ȳ) splits, w(ā, b̄) = 1 exactly when u(ā) = v(b̄)⁻¹,
so each row is folded once into its key and the queries read key buckets.
When swapping x and y turns w into a rotation of w or of w⁻¹, and both sides
range over the same rows, the relation is symmetric and each unordered pair
is folded at most once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product
from math import prod
from typing import Callable, Sequence

from .errors import ArityMismatch, ArityTooLarge, DomainTooLarge, MissingSuppliedIndex
from .freeproduct import Ball, FreeProduct
from .groups import FactorElement, FactorGroup
from .words import (
    GroupWord,
    evaluate,
    evaluate_in_group,
    evaluates_to_identity,
    shape_key,
    split_word,
    swap_symmetric,
)

DEFAULT_CUTOFF = 8
BRANCH_CAP = 10**7  # row pairs (|A| x |B|) a ladder search may range over, and its row cells


@dataclass(frozen=True)
class Formula:
    """A boolean predicate ``holds(a_row, b_row)`` with fixed arities.

    ``word_formula`` also records ``word``, its (context, word, negated), from
    which ``max_ladder`` may fill the holds masks with fewer folds; a formula
    without it is evaluated pair by pair."""

    arity_x: int
    arity_y: int
    holds: Callable[[tuple, tuple], bool]
    description: str = ""
    word: tuple[FreeProduct, GroupWord, bool] | None = field(default=None, compare=False)


def word_formula(
    context: FreeProduct, w: GroupWord, negated: bool = False
) -> Formula:
    """The formula 'w = 1' (or 'w != 1') over free-product values."""

    def predicate(a_row: tuple, b_row: tuple) -> bool:
        return evaluates_to_identity(context, w, a_row, b_row) != negated

    op = "!=" if negated else "="
    return Formula(w.arity_x, w.arity_y, predicate, f"{w.render()} {op} 1", (context, w, negated))


def group_word_formula(
    group: FactorGroup, w: GroupWord, negated: bool = False
) -> Formula:
    """The formula 'w = 1' (or 'w != 1') over elements of a single factor."""

    def predicate(a_row: tuple, b_row: tuple) -> bool:
        value = evaluate_in_group(
            group,
            w,
            [v.elem if isinstance(v, FactorElement) else v for v in a_row],
            [v.elem if isinstance(v, FactorElement) else v for v in b_row],
        )
        return (value == group.identity) != negated

    op = "!=" if negated else "="
    return Formula(w.arity_x, w.arity_y, predicate, f"{w.render()} {op} 1 in {group.name}")


def formula_not(f: Formula) -> Formula:
    return Formula(
        f.arity_x, f.arity_y, lambda a, b: not f.holds(a, b), f"not({f.description})"
    )


def _combine(f: Formula, g: Formula, op: Callable[[bool, bool], bool], name: str) -> Formula:
    ax = max(f.arity_x, g.arity_x)
    ay = max(f.arity_y, g.arity_y)

    def predicate(a_row: tuple, b_row: tuple) -> bool:
        return op(
            f.holds(a_row[: f.arity_x], b_row[: f.arity_y]),
            g.holds(a_row[: g.arity_x], b_row[: g.arity_y]),
        )

    return Formula(ax, ay, predicate, f"{name}({f.description}, {g.description})")


def formula_or(f: Formula, g: Formula) -> Formula:
    return _combine(f, g, lambda p, q: p or q, "or")


def formula_and(f: Formula, g: Formula) -> Formula:
    return _combine(f, g, lambda p, q: p and q, "and")


@dataclass(frozen=True)
class SearchDomain:
    """An ordered, duplicate-free list of candidate row values."""

    kind: str
    values: tuple

    def __post_init__(self):
        if not self.values:
            raise ValueError("search domain must be non-empty")
        if len(set(self.values)) != len(self.values):
            raise ValueError("search domain contains duplicates")

    @classmethod
    def from_ball(cls, ball: Ball) -> "SearchDomain":
        return cls(f"ball:{ball.radius}", tuple(ball.members))

    @classmethod
    def from_factor(cls, group: FactorGroup) -> "SearchDomain":
        return cls(f"factor:{group.id}", tuple(group.elements()))

    @classmethod
    def from_values(cls, values: Sequence, kind: str = "explicit") -> "SearchDomain":
        return cls(kind, tuple(values))


@dataclass(frozen=True)
class Ladder:
    m: int
    a_rows: tuple[tuple, ...]
    b_rows: tuple[tuple, ...]


@dataclass(frozen=True)
class IndexResult:
    index: int
    witness: Ladder | None
    cutoff_hit: bool
    nodes_explored: int


def is_ladder(formula: Formula, a_rows: Sequence[tuple], b_rows: Sequence[tuple]) -> bool:
    """True iff φ(ā_i, b̄_j) holds exactly when i <= j, over all pairs."""
    if len(a_rows) != len(b_rows):
        raise ArityMismatch("a_rows and b_rows must have equal length")
    for row in a_rows:
        if len(row) != formula.arity_x:
            raise ArityMismatch(f"a-row {row!r} has wrong arity")
    for row in b_rows:
        if len(row) != formula.arity_y:
            raise ArityMismatch(f"b-row {row!r} has wrong arity")
    m = len(a_rows)
    for i in range(m):
        for j in range(m):
            if formula.holds(a_rows[i], b_rows[j]) != (i <= j):
                return False
    return True


def max_ladder(
    formula: Formula,
    domain: SearchDomain,
    cutoff: int = DEFAULT_CUTOFF,
    a_domains: Sequence[SearchDomain] | None = None,
    b_domains: Sequence[SearchDomain] | None = None,
) -> IndexResult:
    """Maximal ladder length over the domain, up to ``cutoff``.

    Rows range over the domain coordinatewise; per-coordinate domains may be
    supplied for factor-constrained searches. Rows are bits of int masks in
    domain order, taken low to high, so the witness is the lexicographically
    least maximal ladder. The holds masks are filled lazily and live for this
    call only. A formula's pairs are evaluated each at most once, and only
    those the walk visits; a split word formula instead folds each row once,
    when the walk first needs it, and a swap-symmetric one each unordered
    pair at most once. ``nodes_explored`` counts the pruned walk; subtrees
    that cannot beat the best ladder, or that repeat a walked one, are
    skipped, so the index, witness and ``cutoff_hit`` are those of the full
    walk, and a formula evaluated pair by pair sees no pair that the full
    walk would not evaluate.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    a_doms = list(a_domains) if a_domains is not None else [domain] * formula.arity_x
    b_doms = list(b_domains) if b_domains is not None else [domain] * formula.arity_y
    if len(a_doms) != formula.arity_x or len(b_doms) != formula.arity_y:
        raise ArityMismatch("per-coordinate domain count does not match formula arity")

    branching = prod(len(d.values) for d in a_doms + b_doms)
    if branching > BRANCH_CAP:
        raise DomainTooLarge(BRANCH_CAP, branching)

    a_cands = tuple(product(*[d.values for d in a_doms]))
    b_cands = tuple(product(*[d.values for d in b_doms]))
    row, col = _masks(formula, a_doms, b_doms, a_cands, b_cands)

    path: list[tuple[int, int]] = []
    best: list[tuple[int, int]] = []
    nodes = 0

    def extend(a_cand: int, b_cand: int) -> bool:
        """Walk the extensions of ``path``. Every a-row of ``path`` holds on
        each b-row in b_cand, and each a-row in a_cand fails on every b-row of
        ``path``; so choosing (i, j) keeps the b-rows on which i holds and
        drops the a-rows that hold on j. True once ``cutoff`` is reached.
        Skips the subtrees that the row bound and the profile rule drop."""
        nonlocal best, nodes
        deeper = len(path) + 1 < cutoff
        rows_tried = set()
        rest = a_cand
        while rest:
            i = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            b_next = js = row(i, b_cand)
            if len(path) + b_next.bit_count() <= len(best) or b_next in rows_tried:
                continue
            rows_tried.add(b_next)
            cols_tried = set()
            while js:
                j = (js & -js).bit_length() - 1
                js &= js - 1
                if deeper:
                    # only below the cutoff, where the child needs this column
                    a_next = a_cand & ~col(j, a_cand)
                    if a_next in cols_tried:
                        continue
                    cols_tried.add(a_next)
                nodes += 1
                path.append((i, j))
                if len(path) > len(best):
                    best = path[:]
                stop = not deeper or extend(a_next, b_next)
                path.pop()
                if stop:
                    return True
        return False

    cutoff_hit = extend((1 << len(a_cands)) - 1, (1 << len(b_cands)) - 1)
    a_rows = tuple(a_cands[i] for i, _ in best)
    witness = Ladder(len(best), a_rows, tuple(b_cands[j] for _, j in best))
    return IndexResult(witness.m, witness, cutoff_hit, nodes)


Masks = Callable[[int, int], int]


def _lazy_masks(holds: Callable, a_cands: tuple, b_cands: tuple) -> tuple[Masks, Masks]:
    """``row`` and ``col`` for any predicate: each pair is evaluated at most
    once, when a query first asks for it, into masks that live for one
    search."""
    # a-row i: the b-rows evaluated / holding; b-row j: a-rows looked up / holding
    row_seen, row_true = [0] * len(a_cands), [0] * len(a_cands)
    col_seen, col_true = [0] * len(b_cands), [0] * len(b_cands)

    def row(i: int, mask: int) -> int:
        """The b-rows in ``mask`` on which a-row i holds."""
        todo = mask & ~row_seen[i]
        row_seen[i] |= todo
        while todo:
            j = (todo & -todo).bit_length() - 1
            todo &= todo - 1
            if holds(a_cands[i], b_cands[j]):
                row_true[i] |= 1 << j
        return row_true[i] & mask

    def col(j: int, mask: int) -> int:
        """The a-rows in ``mask`` that hold against b-row j. Evaluates the
        pairs not yet seen itself, recording them as ``row`` does."""
        todo = mask & ~col_seen[j]
        col_seen[j] |= todo
        bit, b_row = 1 << j, b_cands[j]
        while todo:
            i = (todo & -todo).bit_length() - 1
            todo &= todo - 1
            if not row_seen[i] & bit:
                row_seen[i] |= bit
                if holds(a_cands[i], b_row):
                    row_true[i] |= bit
            if row_true[i] & bit:
                col_true[j] |= 1 << i
        return col_true[j] & mask

    return row, col


def _symmetric_masks(holds: Callable, cands: tuple) -> tuple[Masks, Masks]:
    """``row`` and ``col`` for a predicate with holds(cands[i], cands[j]) ==
    holds(cands[j], cands[i]), over the same rows on both sides. Each pair
    evaluated is recorded at (i, j) and at (j, i), so an unordered pair is
    evaluated at most once, and the a-rows that hold against b-row j are the
    b-rows on which a-row j holds."""
    seen, true = [0] * len(cands), [0] * len(cands)

    def row(i: int, mask: int) -> int:
        todo = mask & ~seen[i]
        if todo:
            seen[i] |= todo
            bit, a_row = 1 << i, cands[i]
            while todo:
                j = (todo & -todo).bit_length() - 1
                todo &= todo - 1
                seen[j] |= bit
                if holds(a_row, cands[j]):
                    true[i] |= 1 << j
                    true[j] |= bit
        return true[i] & mask

    return row, row


def _buckets(key_of: Callable[[int], object], n: int):
    """Rows 0..n-1 by key. ``key(i)`` computes row i's key once, on first
    use; ``members(k, mask)`` is the rows in ``mask`` whose key is k, after
    keying those rows of ``mask`` not keyed yet. A key's mask is built when a
    query first asks for that key, so unasked keys cost no mask."""
    keys: list = [None] * n
    keyed = 0
    unmasked: dict = {}  # per key without a mask yet, its rows keyed so far
    masks: dict = {}

    def key(i: int):
        nonlocal keyed
        k = keys[i]
        if k is None:
            k = keys[i] = key_of(i)
            keyed |= 1 << i
            if k in masks:
                masks[k] |= 1 << i
            else:
                unmasked.setdefault(k, []).append(i)
        return k

    def members(k, mask: int) -> int:
        todo = mask & ~keyed
        while todo:
            i = (todo & -todo).bit_length() - 1
            todo &= todo - 1
            key(i)
        m = masks.get(k)
        if m is None:
            m = masks[k] = sum(1 << i for i in unmasked.pop(k, ()))
        return m & mask

    return key, members


def _split_masks(
    context: FreeProduct,
    u: GroupWord,
    v_inverse: GroupWord,
    a_cands: tuple,
    b_cands: tuple,
    negated: bool,
) -> tuple[Masks, Masks]:
    """``row`` and ``col`` for 'w = 1' (or '!= 1') where a rotation of w is
    u(x̄)·v(ȳ): a-row i holds on b-row j exactly when u(ā_i) = v(b̄_j)⁻¹.
    Each row's side of that equation is one fold, its key."""
    a_key, a_members = _buckets(lambda i: evaluate(context, u, a_cands[i], ()).codes, len(a_cands))
    b_key, b_members = _buckets(lambda j: evaluate(context, v_inverse, (), b_cands[j]).codes, len(b_cands))

    def row(i: int, mask: int) -> int:
        equal = b_members(a_key(i), mask)
        return mask & ~equal if negated else equal

    def col(j: int, mask: int) -> int:
        equal = a_members(b_key(j), mask)
        return mask & ~equal if negated else equal

    return row, col


def _masks(
    formula: Formula,
    a_doms: list[SearchDomain],
    b_doms: list[SearchDomain],
    a_cands: tuple,
    b_cands: tuple,
) -> tuple[Masks, Masks]:
    """The search's ``row(i, mask)``, the b-rows in ``mask`` on which a-row i
    holds, and ``col(j, mask)``, the a-rows in ``mask`` that hold against
    b-row j. A word formula whose word splits answers from one key per row;
    one whose word is swap-symmetric, with the same domains on both sides,
    evaluates each unordered pair at most once; any other formula evaluates
    each ordered pair at most once."""
    if formula.word is not None:
        context, w, negated = formula.word
        halves = split_word(w)
        if halves is not None:
            return _split_masks(context, *halves, a_cands, b_cands, negated)
        same = len(a_doms) == len(b_doms) and all(a is b for a, b in zip(a_doms, b_doms))
        if same and swap_symmetric(w):
            return _symmetric_masks(formula.holds, a_cands)
    return _lazy_masks(formula.holds, a_cands, b_cands)


def _coordinate_domains(
    w: GroupWord, domain: SearchDomain
) -> tuple[list[SearchDomain], list[SearchDomain]]:
    """Per-coordinate domains for searching w as written: ``domain`` at each
    position w uses, and a one-value domain holding its least value at each
    position it does not. Their product lists the rows of a search over the
    used coordinates alone, in the same order, each padded with that value.
    Before anything is built, raises DomainTooLarge as max_ladder would, and
    ArityTooLarge if those rows would hold more than BRANCH_CAP cells."""
    used = {(s.tuple_name, s.position) for s in w.syllables}
    a_count, b_count = (len(domain.values) ** sum(t == name for t, _ in used) for name in "xy")
    if a_count * b_count > BRANCH_CAP:
        raise DomainTooLarge(BRANCH_CAP, a_count * b_count)
    cells = w.arity_x * a_count + w.arity_y * b_count
    if cells > BRANCH_CAP:
        raise ArityTooLarge(BRANCH_CAP, cells)
    least = SearchDomain(domain.kind, domain.values[:1])

    def domains(name: str, arity: int) -> list[SearchDomain]:
        return [domain if (name, p) in used else least for p in range(1, arity + 1)]

    return domains("x", w.arity_x), domains("y", w.arity_y)


def word_index(
    context: FreeProduct,
    w: GroupWord,
    domain: SearchDomain,
    cutoff: int = DEFAULT_CUTOFF,
    threads: int = 1,
    negated: bool = False,
) -> IndexResult:
    """Stability index of 'w = 1' over the domain.

    The word is searched as written. An unused variable never changes the
    index, so its coordinate ranges over the least domain value alone; the
    witness is then the lexicographically least maximal ladder in the word's
    own coordinates. ``threads`` is ignored; it stays only for the benchmark
    worker's ``threads=1``.
    """
    a_domains, b_domains = _coordinate_domains(w, domain)
    formula = word_formula(context, w, negated=negated)
    return max_ladder(formula, domain, cutoff, a_domains=a_domains, b_domains=b_domains)


def qf_stability_index(
    factor: FactorGroup,
    block: GroupWord,
    negated: bool = False,
    cutoff: int | None = None,
) -> IndexResult:
    """Stability index of 'block = 1' (or '!= 1') over the whole factor.

    For infinite stubs the supplied index for the block's canonical shape is
    passed through (witness absent). For finite factors the block is searched
    as written, each unused variable over the factor's least element alone,
    so the witness is a ladder for the block in its own coordinates. With the
    default cutoff the result is exact: ladder rows are pairwise distinct, so
    no ladder is longer than the number of distinct a-rows or b-rows.
    """
    if factor.declared_infinite:
        key = shape_key(block, negated)
        value = factor.supplied_indices.get(key)
        if value is None:
            raise MissingSuppliedIndex(
                f"stub factor {factor.id} ({factor.name}) has no supplied index "
                f"for {key!r}"
            )
        return IndexResult(value, None, False, 0)

    domain = SearchDomain.from_factor(factor)
    a_domains, b_domains = _coordinate_domains(block, domain)
    hard_limit = min(prod(len(d.values) for d in a_domains),
                     prod(len(d.values) for d in b_domains))
    effective = hard_limit if cutoff is None else min(cutoff, hard_limit)
    formula = group_word_formula(factor, block, negated=negated)
    result = max_ladder(formula, domain, effective, a_domains=a_domains, b_domains=b_domains)
    if result.cutoff_hit and result.index >= hard_limit:
        # rows are pairwise distinct, so hard_limit-length ladders are maximal
        result = replace(result, cutoff_hit=False)
    return result
