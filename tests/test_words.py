from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderlab import (
    AnnotationMismatch,
    ArityMismatch,
    Letter,
    LengthExceedsRadius,
    UnannotatedSyllable,
    WordParseError,
    block_decompose,
    change_of_variables,
    concat_words,
    evaluate,
    evaluate_in_group,
    expand_assignment,
    interpret_in_template,
    parse_word,
    render_word,
    shape_key,
    word_formula,
    word_shape,
)

from conftest import reference_evaluate, reference_reduce



def syllables_of(w):
    return [(s.tuple_name, s.position, s.annotation, s.exponent) for s in w.syllables]


def test_parse_commutator():
    w = parse_word("x1 y1 x1^-1 y1^-1")
    assert len(w) == 4
    assert w.arity_x == 1 and w.arity_y == 1
    assert syllables_of(w) == [
        ("x", 1, None, 1),
        ("y", 1, None, 1),
        ("x", 1, None, -1),
        ("y", 1, None, -1),
    ]


def test_parse_group_inverse():
    w = parse_word("(x1 y1)^-1")
    assert syllables_of(w) == [("y", 1, None, -1), ("x", 1, None, -1)]


def test_parse_nested_groups():
    w = parse_word("((x1 y1)^-1 x2)^-1")
    assert syllables_of(w) == [("x", 2, None, -1), ("x", 1, None, 1), ("y", 1, None, 1)]


def test_parse_zero_position_rejected():
    with pytest.raises(WordParseError) as exc:
        parse_word("x0")
    assert exc.value.position is not None


def test_parse_errors():
    with pytest.raises(WordParseError):
        parse_word("z1")
    with pytest.raises(WordParseError):
        parse_word("(x1")
    with pytest.raises(WordParseError):
        parse_word("x1^2")
    with pytest.raises(WordParseError):
        parse_word("x1 @3")
    with pytest.raises(WordParseError):
        parse_word("x1 y1@0")  # mixed annotation


def test_parse_deep_parentheses():
    # open groups wait on an explicit stack, so depth costs no recursion
    assert parse_word("(" * 5000 + "x1 y1" + ")" * 5000) == parse_word("x1 y1")


def test_parse_nested_inverses():
    # each "(...)^-1" level inverts the word inside it
    for depth in (1, 2, 3, 501, 502):
        text = "x1 y2^-1"
        for _ in range(depth):
            text = f"({text})^-1"
        expected = "y2 x1^-1" if depth % 2 else "x1 y2^-1"
        assert parse_word(text) == parse_word(expected)


def test_parse_unbalanced_positions():
    for text, message in (("((x1)", "unbalanced parenthesis (at position 6)"),
                          ("(x1))", "unexpected character ')' (at position 5)"),
                          ("(x1) ^-1", "unexpected character '^' (at position 6)")):
        with pytest.raises(WordParseError) as exc:
            parse_word(text)
        assert str(exc.value) == message


def test_parse_non_decimal_digit_positions():
    # "²" is a digit but not a decimal digit, so it is no position or annotation
    for text, position in (("x²", 2), ("x1@²", 4)):
        with pytest.raises(WordParseError) as exc:
            parse_word(text)
        assert exc.value.position == position
    # a decimal digit of another script still reads as its value
    assert parse_word("x\u0661") == parse_word("x1")


def test_parse_too_many_digits_positions():
    # CPython's int() reads at most 4,300 digits by default; a longer
    # position or annotation is a parse error at its first digit
    for text, position in (("x" + "1" * 5000, 2), ("x1@" + "1" * 5000, 4)):
        with pytest.raises(WordParseError) as exc:
            parse_word(text)
        assert exc.value.position == position


def test_parse_empty():
    w = parse_word("")
    assert len(w) == 0
    assert render_word(w) == ""


def test_parse_annotated():
    w = parse_word("x1@0 x2@1")
    assert w.annotated
    assert syllables_of(w) == [("x", 1, 0, 1), ("x", 2, 1, 1)]


@st.composite
def dsl_words(draw):
    """Plain or all-annotated variables, some runs of them wrapped in
    ``( ... )^-1`` groups, which may nest."""
    n = draw(st.integers(0, 6))
    annotated = draw(st.booleans())
    parts = []
    for _ in range(n):
        t = draw(st.sampled_from(["x", "y"]))
        p = draw(st.integers(1, 3))
        a = f"@{draw(st.integers(0, 2))}" if annotated else ""
        inv = draw(st.booleans())
        parts.append(f"{t}{p}{a}" + ("^-1" if inv else ""))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(parts)))
        j = draw(st.integers(i, len(parts)))
        parts[i:j] = [f"({' '.join(parts[i:j])})^-1"]
    return " ".join(parts)


@settings(max_examples=200, deadline=None)
@given(dsl_words(), st.integers(1, 3), st.integers(2, 3))
def test_render_parse_round_trip(text, r, k):
    w = parse_word(text)
    assert parse_word(render_word(w)) == w
    if not w.annotated:
        rewritten = change_of_variables(w, r, k)
        assert parse_word(render_word(rewritten)) == rewritten


def test_formal_inverse_involution():
    w = parse_word("x1 y2^-1 x2 x1^-1")
    assert w.formal_inverse().formal_inverse() == w
    assert render_word(w.formal_inverse()) == "x1 x2^-1 y2 x1^-1"


def test_concat_words():
    u = parse_word("x1 y1")
    v = parse_word("x1^-1")
    assert render_word(concat_words(u, v)) == "x1 y1 x1^-1"


# -- evaluation ---------------------------------------------------------------


def test_evaluate_commutator_same_value(z2z2):
    w = parse_word("x1 y1 x1^-1 y1^-1")
    u = z2z2.reduce([(0, 1), (1, 1)])
    assert evaluate(z2z2, w, (u,), (u,)).is_identity


def test_evaluate_commutator_distinct_letters(z2z2):
    w = parse_word("x1 y1 x1^-1 y1^-1")
    g = z2z2.letter(0, 1)
    h = z2z2.letter(1, 1)
    value = evaluate(z2z2, w, (g,), (h,))
    # oracle: direct reduction of the letter sequence g h g^-1 h^-1
    oracle = z2z2.reduce([(0, 1), (1, 1), (0, 1), (1, 1)])
    assert value == oracle
    assert len(value) == 4


def test_evaluate_empty_word(z2z2):
    assert evaluate(z2z2, parse_word(""), (), ()).is_identity


def test_evaluate_arity_mismatch(z2z2):
    w = parse_word("x1 y1")
    with pytest.raises(ArityMismatch):
        evaluate(z2z2, w, (), (z2z2.identity,))


def test_evaluate_in_group_agrees_with_free_product(z2z3):
    # a single-factor block evaluates to the same letter in the free product
    rng = random.Random(9)
    block = parse_word("x1@1 y1@1 x2@1^-1")
    factor = z2z3.factors[1]
    for _ in range(100):
        a = [rng.randrange(3), rng.randrange(3)]
        b = [rng.randrange(3)]
        fe = factor.elements()[evaluate_in_group(factor, block, a, b)]
        words_a = tuple(z2z3.letter(1, e) for e in a)
        words_b = tuple(z2z3.letter(1, e) for e in b)
        expected = evaluate(z2z3, block, words_a, words_b)
        assert z2z3.embed(fe) == expected


# -- change of variables ---------------------------------------------------


def test_change_of_variables_two_factor_template():
    w = parse_word("x1 y1")
    out = change_of_variables(w, 1, 2)
    assert render_word(out) == "x1@0 x2@1 y1@0 y2@1"


def test_change_of_variables_visual_inverse():
    out = change_of_variables(parse_word("x1^-1"), 1, 2)
    assert render_word(out) == "x2@1^-1 x1@0^-1"


def test_change_of_variables_three_factors():
    out = change_of_variables(parse_word("x1"), 2, 3)
    assert len(out) == 6
    assert render_word(out) == "x1@0 x2@1 x3@2 x4@0 x5@1 x6@2"


def test_change_of_variables_fresh_positions_distinct():
    out = change_of_variables(parse_word("x1 x2"), 1, 2)
    assert render_word(out) == "x1@0 x2@1 x3@0 x4@1"
    assert out.arity_x == 4


def test_change_of_variables_validation():
    with pytest.raises(ValueError):
        change_of_variables(parse_word("x1"), 0, 2)
    with pytest.raises(ValueError):
        change_of_variables(parse_word("x1"), 1, 1)
    with pytest.raises(AnnotationMismatch):
        change_of_variables(parse_word("x1@0"), 1, 2)


# -- block decomposition -----------------------------------------------------


def test_block_decompose_alternating():
    d = block_decompose(parse_word("x1@0 x2@1 y1@0 y2@1"))
    assert d.ell == 4
    assert [b.factor for b in d.blocks] == [0, 1, 0, 1]


def test_block_decompose_merges_runs():
    d = block_decompose(parse_word("x1@0 x2@1 y2@1^-1 y1@0^-1"))
    assert d.ell == 3
    middle = d.block_word(1)
    assert render_word(middle) == "x2@1 y2@1^-1"


def test_block_decompose_single_annotation():
    d = block_decompose(parse_word("x1@1 y1@1 x2@1"))
    assert d.ell == 1


def test_block_decompose_requires_annotations():
    with pytest.raises(UnannotatedSyllable):
        block_decompose(parse_word("x1 y1"))


def test_block_concat_recovers_word():
    w = change_of_variables(parse_word("x1 y1 x1^-1 y1^-1"), 2, 2)
    d = block_decompose(w)
    for a, b in zip(d.blocks, d.blocks[1:]):
        assert a.factor != b.factor
    rebuilt = []
    for i in range(d.ell):
        rebuilt.extend(d.block_word(i).syllables)
    assert tuple(rebuilt) == w.syllables


# -- template interpretation ----------------------------------------------


def test_interpret_identity(z2z2):
    slots = interpret_in_template(z2z2.identity, 1, 2)
    assert [(fe.factor, fe.elem) for fe in slots] == [(0, 0), (1, 0)]


def test_interpret_single_h_letter(z2z2):
    z = z2z2.letter(1, 1)
    slots = interpret_in_template(z, 1, 2)
    assert [(fe.factor, fe.elem) for fe in slots] == [(0, 0), (1, 1)]


def test_interpret_round_trip(z2z3):
    # template evaluation reproduces z for every ball element
    for r in (1, 2, 3):
        template = change_of_variables(parse_word("x1"), r, 2)
        for z in z2z3.ball(r):
            values = expand_assignment((z,), r, 2)
            assert evaluate(z2z3, template, values, ()) == z


def test_interpret_round_trip_three_factors(z2z2z2):
    for r in (1, 2):
        template = change_of_variables(parse_word("x1"), r, 3)
        for z in z2z2z2.ball(r):
            values = expand_assignment((z,), r, 3)
            assert evaluate(z2z2z2, template, values, ()) == z


def test_interpret_rejects_long_words(z2z2):
    z = z2z2.reduce([(0, 1), (1, 1)])
    with pytest.raises(LengthExceedsRadius):
        interpret_in_template(z, 1, 2)


def test_rewrite_soundness_sample(z2z2):
    # evaluate(w, z̄) == evaluate(w', interpreted z̄) on a sample grid
    words = ["x1 y1", "x1 y1 x1^-1 y1^-1", "x1 y1^-1", "x1 x1 y1"]
    r = 2
    ball = z2z2.ball(r)
    for text in words:
        w = parse_word(text)
        rewritten = change_of_variables(w, r, 2)
        for a in itertools.product(ball.members, repeat=w.arity_x):
            for b in itertools.product(ball.members, repeat=w.arity_y):
                lhs = evaluate(z2z2, w, a, b)
                rhs = evaluate(
                    z2z2,
                    rewritten,
                    expand_assignment(a, r, 2),
                    expand_assignment(b, r, 2),
                )
                assert lhs == rhs


# -- canonical shapes -------------------------------------------------------


def test_word_shape_renumbers():
    assert word_shape(parse_word("x2@1 y2@1^-1")) == "x1 y1^-1"
    assert word_shape(parse_word("y3 x2 y3")) == "y1 x1 y1"
    assert shape_key(parse_word("x2@1 y2@1"), False) == "x1 y1 = 1"
    assert shape_key(parse_word("x2@1 y2@1"), True) == "x1 y1 != 1"


def test_evaluate_context_mismatch(z2z2, z2z3):
    from ladderlab import ContextMismatch

    w = parse_word("x1")
    foreign = z2z3.letter(0, 1)
    with pytest.raises(ContextMismatch):
        evaluate(z2z2, w, (foreign,), ())


def test_interpret_context_factor_count_checked(z2z3):
    with pytest.raises(ValueError):
        interpret_in_template(z2z3.identity, 1, 3)


# -- the int fold against the Letter-stack reduction it replaced ---------------

FOLD_CONTEXTS = ("z2z3", "z3s3", "z2z2z2")


def random_group_word(rng):
    """A word of arity at most (2, 2) with 1..6 syllables, some inverted."""
    names = [f"x{i}" for i in range(1, rng.randint(0, 2) + 1)]
    names += [f"y{i}" for i in range(1, rng.randint(0, 2) + 1)]
    if not names:
        return parse_word("")
    return parse_word(
        " ".join(
            rng.choice(names) + rng.choice(("", "^-1"))
            for _ in range(rng.randint(1, 6))
        )
    )


@pytest.mark.parametrize("name", FOLD_CONTEXTS)
def test_evaluate_and_holds_match_reference(name, request):
    context = request.getfixturevalue(name)
    values = context.ball(2).members
    rng = random.Random(f"fold-{name}")
    identities = 0
    for _ in range(400):
        w = random_group_word(rng)
        pool = rng.sample(values, 2)  # few distinct values, so some words cancel
        a = tuple(rng.choice(pool) for _ in range(w.arity_x))
        b = tuple(rng.choice(pool) for _ in range(w.arity_y))
        expected = reference_evaluate(context, w, a, b)
        value = evaluate(context, w, a, b)
        assert value == expected and value.context is context
        identities += expected.is_identity
        for negated in (False, True):
            holds = word_formula(context, w, negated).holds(a, b)
            assert holds == (expected.is_identity != negated)
        u, v = pool
        assert context.concat(u, v) == reference_reduce(context, u.letters + v.letters)
        inverse = [
            (l.factor, context.factors[l.factor].inv(l.elem)) for l in reversed(u.letters)
        ]
        assert context.invert(u) == reference_reduce(context, inverse)
    assert 0 < identities < 400


@pytest.mark.parametrize("name", FOLD_CONTEXTS)
def test_reduce_matches_reference_on_raw_letters(name, request):
    context = request.getfixturevalue(name)
    rng = random.Random(f"reduce-{name}")
    seen = {"identity": 0, "merge": 0, "cancel": 0}
    for _ in range(400):
        raw = []
        for _ in range(rng.randint(0, 8)):
            fid = rng.randrange(context.k)
            elem = rng.randrange(context.factors[fid].order)
            raw.append(Letter(fid, elem) if rng.random() < 0.5 else (fid, elem))
        expected = reference_reduce(context, raw)
        assert context.reduce(raw) == expected
        pairs = [(x.factor, x.elem) if isinstance(x, Letter) else x for x in raw]
        kept = [(f, e) for f, e in pairs if e != context.factors[f].identity]
        seen["identity"] += len(kept) < len(pairs)
        adjacent = [(f, e, h) for (f, e), (g, h) in zip(kept, kept[1:]) if f == g]
        seen["merge"] += bool(adjacent)
        seen["cancel"] += any(
            context.factors[f].mul(e, h) == context.factors[f].identity
            for f, e, h in adjacent
        )
    assert all(seen.values()), seen


FOLD_WORDS = ("x1 x1^-1", "x1 y1 y1^-1 x1^-1", "x1 y1 x1^-1 y1^-1", "x1 x1", "x1 y1 x1 y1")


def boundary_outcomes(context, w, a_values, b_values):
    """How each run of w's evaluation met the reduced product before it, read
    off the reference: "cancel" (the whole run cancelled into it), "merge" (a
    merge ended at a non-identity letter), "none" (both were non-empty and
    no letter interacted) or "partial" (some letters cancelled, then none)."""
    product = context.identity
    outcomes = []
    for s in w.syllables:
        value = (a_values if s.tuple_name == "x" else b_values)[s.position - 1]
        if s.exponent < 0:
            value = reference_reduce(context, [
                (l.factor, context.factors[l.factor].inv(l.elem)) for l in reversed(value.letters)
            ])
        after = reference_reduce(context, product.letters + value.letters)
        lost = len(product) + len(value) - len(after)
        if product.is_identity or value.is_identity:
            pass
        elif lost == 2 * len(value):
            outcomes.append("cancel")
        elif lost % 2:
            outcomes.append("merge")
        else:
            outcomes.append("partial" if lost else "none")
        product = after
    return outcomes


@pytest.mark.parametrize("radius", (3, 4))
@pytest.mark.parametrize("name", FOLD_CONTEXTS)
def test_fold_matches_reference_at_every_boundary_outcome(name, radius, request):
    context = request.getfixturevalue(name)
    values = context.ball(radius).members
    rng = random.Random(f"boundary-{name}-{radius}")
    seen = dict.fromkeys(("cancel", "merge", "none", "partial"), 0)
    for trial in range(300):
        if trial % 3:
            w = random_group_word(rng)
        else:
            w = parse_word(rng.choice(FOLD_WORDS))
        pool = rng.sample(values, 2)
        a = tuple(rng.choice(pool) for _ in range(w.arity_x))
        b = tuple(rng.choice(pool) for _ in range(w.arity_y))
        expected = reference_evaluate(context, w, a, b)
        assert evaluate(context, w, a, b) == expected
        assert word_formula(context, w).holds(a, b) == expected.is_identity
        for outcome in boundary_outcomes(context, w, a, b):
            seen[outcome] += 1
        u, v = pool
        assert context.concat(u, v) == reference_reduce(context, u.letters + v.letters)
        inverse = [
            (l.factor, context.factors[l.factor].inv(l.elem)) for l in reversed(u.letters)
        ]
        assert context.invert(u) == reference_reduce(context, inverse)
    assert seen["cancel"] and seen["none"], seen
    if name == "z2z2z2":
        # two letters of one Z2 factor always cancel, never merge
        assert seen["merge"] == 0, seen
    else:
        assert seen["merge"], seen


def test_commutator_word_shapes():
    from ladderlab.words import commutator_word

    spellings = [
        f"{p}^{e} {q}^{f} {p}^{-e} {q}^{-f}".replace("^1", "")
        for p, q in (("x1", "y1"), ("y1", "x1"))
        for e in (1, -1)
        for f in (1, -1)
    ]
    assert len(set(spellings)) == 8
    for text in spellings:
        assert commutator_word(parse_word(text)), text
    for text in ("x1 y1 x1 y1", "x1 y1 x1^-1 y1", "x1 x1^-1 y1 y1^-1", "x1 y1 x2^-1 y1^-1",
                 "x2 y1 x2^-1 y1^-1", "x1 y1 x1^-1 y1^-1 x1 y1 x1^-1 y1^-1", "x1 y1", ""):
        assert not commutator_word(parse_word(text)), text
