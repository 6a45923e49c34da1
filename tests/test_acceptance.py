"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is sized for a laptop.
"""

from __future__ import annotations

import itertools
import json
import random

from ladderlab import (
    BoundCertificate,
    Formula,
    SearchDomain,
    certificate_le,
    change_of_variables,
    conjunction_bound,
    disjunction_bound,
    evaluate,
    expand_assignment,
    max_ladder,
    negation_bound,
    parse_word,
    render_word,
    replay_certificate,
    run_verify,
    theorem_bound,
    verify_certificate,
)
from ladderlab.ramsey import ramsey_exact
from ladderlab.words import GroupWord, Syllable, canonicalize_word

from conftest import alternating_ball_count


def report(criterion: int, name: str) -> None:
    print(f"ACCEPTANCE {criterion} ({name}): PASS")


def random_raw(rng, context, max_len):
    out = []
    for _ in range(rng.randrange(max_len + 1)):
        f = context.factors[rng.randrange(context.k)]
        out.append((f.id, rng.randrange(f.order)))
    return out


def test_criterion_1_normal_form_suite(z2z2, z3s3):
    rng = random.Random(20260809)
    for context in (z2z2, z3s3):
        words = [context.reduce(random_raw(rng, context, 10)) for _ in range(10_000)]
        for w in words:
            assert context.reduce(w.letters) == w  # reduce idempotence
            assert w.inverse().inverse() == w  # invert involution
        for u, v, t in zip(words, words[1:], words[2:]):
            assert (u * v) * t == u * (v * t)  # concat associativity
            assert len(u * v) <= len(u) + len(v)  # length subadditivity
    report(1, "normal-form suite, 10^4 random words per product")


def test_criterion_2_ball_counts(z2z2, z2z3):
    assert len(z2z2.ball(1)) == 3
    assert len(z2z2.ball(2)) == 5
    assert len(z2z2.ball(3)) == 7
    assert len(z2z3.ball(1)) == 4
    for context, orders in ((z2z2, [2, 2]), (z2z3, [2, 3])):
        for r in range(4):
            assert len(context.ball(r)) == alternating_ball_count(orders, r)
    report(2, "ball counts vs alternating-word oracle")


def test_criterion_3_ramsey_sanity():
    assert ramsey_exact(2, 2) == 2
    assert ramsey_exact(2, 3) == 6
    assert ramsey_exact(3, 2) == 2

    # exhaustive K5 edge 2-colorings: some coloring has no mono triangle
    edges = list(itertools.combinations(range(5), 2))
    triangles = list(itertools.combinations(range(5), 3))
    witness = None
    for bits in range(1 << 10):
        coloring = {e: (bits >> i) & 1 for i, e in enumerate(edges)}

        def color(a, b):
            return coloring[(a, b) if a < b else (b, a)]

        if not any(color(a, b) == color(b, c) == color(a, c) for a, b, c in triangles):
            witness = coloring
            break
    assert witness is not None

    # monotone on a 20-point grid
    grid = {(c, m): ramsey_exact(c, m) for c in range(1, 5) for m in range(1, 6)}
    assert len(grid) == 20
    for (c, m), v in grid.items():
        if (c + 1, m) in grid:
            assert grid[(c + 1, m)] >= v
        if (c, m + 1) in grid:
            assert grid[(c, m + 1)] >= v
    report(3, "ramsey values, K5 exactness witness, monotone grid")


SYLLABLE_CHOICES = [
    Syllable(t, p, e)
    for t in ("x", "y")
    for p in (1, 2)
    for e in (1, -1)
]


def all_words(max_syllables: int) -> list[GroupWord]:
    words = []
    for n in range(max_syllables + 1):
        for combo in itertools.product(SYLLABLE_CHOICES, repeat=n):
            words.append(GroupWord.from_syllables(combo))
    return words


def word_table(group, word: GroupWord, rows) -> int:
    """Truth bitmask of 'word = 1' over padded arity-(2,2) row pairs."""
    from ladderlab.words import evaluate_in_group

    bits = 0
    k = 0
    padded = GroupWord(word.syllables, 2, 2)
    for a in rows:
        for b in rows:
            if evaluate_in_group(group, padded, a, b) == group.identity:
                bits |= 1 << k
            k += 1
    return bits


def table_index(bits: int, n_rows: int, memo: dict) -> int:
    cached = memo.get(bits)
    if cached is not None:
        return cached
    domain = SearchDomain.from_values(tuple(range(n_rows)))
    f = Formula(1, 1, lambda a, b: bool(bits >> (a[0] * n_rows + b[0]) & 1))
    result = max_ladder(f, domain, cutoff=n_rows)
    # ladder rows are pairwise distinct, so n_rows is a hard maximum
    memo[bits] = result.index
    return result.index


def test_criterion_4_boolean_combination_soundness(z2, z3):
    for group in (z2, z3):
        rows = list(itertools.product(range(group.order), repeat=2))
        n_rows = len(rows)
        full = (1 << (n_rows * n_rows)) - 1
        tables = {word_table(group, w, rows) for w in all_words(3)}
        memo: dict[int, int] = {}

        for bits in tables:
            idx = table_index(bits, n_rows, memo)
            neg = table_index(full & ~bits, n_rows, memo)
            assert neg <= negation_bound(idx)

        indices = {bits: table_index(bits, n_rows, memo) for bits in tables}
        for t1, t2 in itertools.product(tables, repeat=2):
            i_or = table_index(t1 | t2, n_rows, memo)
            assert i_or <= disjunction_bound(indices[t1], indices[t2])
            i_and = table_index(t1 & t2, n_rows, memo)
            assert i_and <= conjunction_bound(indices[t1], indices[t2])
    report(4, "boolean-combination bounds dominate, exhaustive <=3 syllables")


def test_criterion_5_change_of_variables_soundness(z2z2):
    seen = set()
    words = []
    for w in all_words(4):
        c = canonicalize_word(w)
        key = render_word(c)
        if key not in seen:
            seen.add(key)
            words.append(c)

    for r in (1, 2):
        ball = z2z2.ball(r)
        expansion = {z: expand_assignment((z,), r, 2) for z in ball.members}

        def expand(values):
            out = []
            for z in values:
                out.extend(expansion[z])
            return tuple(out)

        tuples = {
            n: [
                (t, expand(t))
                for t in itertools.product(ball.members, repeat=n)
            ]
            for n in range(3)
        }
        for w in words:
            rewritten = change_of_variables(w, r, 2) if w.syllables else w
            for a, ea in tuples[w.arity_x]:
                for b, eb in tuples[w.arity_y]:
                    lhs = evaluate(z2z2, w, a, b)
                    rhs = evaluate(z2z2, rewritten, ea, eb)
                    assert lhs == rhs, (render_word(w), r)
    report(5, "change-of-variables soundness, exhaustive <=4 syllables, r<=2")


MATRIX_WORDS = ["x1 y1", "x1 y1 x1^-1 y1^-1", "x1 y1 x2", "x1 y1^-1"]


def test_criterion_6_theorem_domination(z2z2, z2z3, z3z3):
    for context in (z2z2, z2z3, z3z3):
        for text in MATRIX_WORDS:
            for r in (1, 2):
                rep = run_verify(context, parse_word(text), r, cutoff=8)
                assert rep.verdict == "VERIFIED", (text, r, rep.verdict)
                assert not rep.cutoff_hit
    report(6, "theorem bound dominates search on the full matrix")


def test_criterion_7_bound_monotone_in_r(z2z2, z2z3, z3z3):
    for context in (z2z2, z2z3, z3z3):
        for text in MATRIX_WORDS:
            w = parse_word(text)
            certs = [theorem_bound(w, r, context.factors) for r in (1, 2, 3)]
            assert certificate_le(certs[0], certs[1]) is True, (text, "r1<=r2")
            assert certificate_le(certs[1], certs[2]) is True, (text, "r2<=r3")
    report(7, "bound non-decreasing in r on the matrix extended to r=3")


def test_criterion_8_three_factors(z2z2z2):
    for text in ("x1 y1", "x1 y1 x1^-1 y1^-1"):
        rep = run_verify(z2z2z2, parse_word(text), 1, cutoff=8)
        assert rep.verdict == "VERIFIED", (text, rep.verdict)
    report(8, "three-factor product verified at r=1")


def test_criterion_9_certificate_replay(z2z2, z2z3, z3z3, z2z2z2):
    rng = random.Random(99)
    contexts = [z2z2, z2z3, z3z3, z2z2z2]
    checked = 0
    while checked < 100:
        context = contexts[rng.randrange(len(contexts))]
        n = rng.randrange(1, 5)
        syllables = [
            SYLLABLE_CHOICES[rng.randrange(len(SYLLABLE_CHOICES))] for _ in range(n)
        ]
        w = GroupWord.from_syllables(syllables)
        # three-factor templates at r=2 give block counts past 20, which is
        # out of desk-scale budget; sample those at r=1
        r = 1 if context.k > 2 else rng.choice([1, 2])
        cert = theorem_bound(w, r, context.factors)
        assert replay_certificate(cert) == cert.bound
        assert verify_certificate(cert)
        round_tripped = BoundCertificate.from_json(
            json.loads(json.dumps(cert.to_json()))
        )
        assert replay_certificate(round_tripped) == cert.bound
        checked += 1
    report(9, "100 certificates replay to identical bounds")
