from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderlab import (
    BallTooLarge,
    ContextMismatch,
    FreeProduct,
    InfiniteFactor,
    InvalidElement,
    WordParseError,
)
from ladderlab.groups import MAX_FACTOR_ORDER

from conftest import S3_DOC, Z2_DOC, Z3_DOC, alternating_ball_count


def random_raw(rng, context, max_len=10):
    out = []
    for _ in range(rng.randrange(max_len + 1)):
        f = context.factors[rng.randrange(context.k)]
        out.append((f.id, rng.randrange(f.order)))
    return out


def test_reduce_full_cancellation(z2z2):
    # g h h g over Z2*Z2: the middle pair cancels, then the outer pair
    raw = [(0, 1), (1, 1), (1, 1), (0, 1)]
    assert z2z2.reduce(raw).is_identity


def test_reduce_empty_and_idempotent(z2z3):
    assert z2z3.reduce([]).is_identity
    rng = random.Random(11)
    for _ in range(300):
        w = z2z3.reduce(random_raw(rng, z2z3))
        assert z2z3.reduce(w.letters) == w


def test_reduced_word_invariants(z2z3):
    rng = random.Random(5)
    for _ in range(300):
        w = z2z3.reduce(random_raw(rng, z2z3))
        for a, b in zip(w.letters, w.letters[1:]):
            assert a.factor != b.factor
        for letter in w.letters:
            assert letter.elem != z2z3.factors[letter.factor].identity


def test_concat_identities(z2z3):
    rng = random.Random(2)
    for _ in range(200):
        u = z2z3.reduce(random_raw(rng, z2z3))
        assert (z2z3.identity * u) == u
        assert (u * z2z3.identity) == u
        assert (u * u.inverse()).is_identity
        assert len(u.inverse()) == len(u)


def test_concat_subadditive_and_associative(z2z3):
    rng = random.Random(3)
    for _ in range(200):
        u = z2z3.reduce(random_raw(rng, z2z3))
        v = z2z3.reduce(random_raw(rng, z2z3))
        w = z2z3.reduce(random_raw(rng, z2z3))
        assert len(u * v) <= len(u) + len(v)
        assert (u * v) * w == u * (v * w)


def test_invert_involution(z2z3):
    rng = random.Random(4)
    for _ in range(200):
        u = z2z3.reduce(random_raw(rng, z2z3))
        assert u.inverse().inverse() == u


def test_normal_form_uniqueness_with_inserted_cancellations(z2z3):
    # inserting a cancelling pair anywhere must not change the normal form
    rng = random.Random(6)
    for _ in range(300):
        raw = random_raw(rng, z2z3)
        w = z2z3.reduce(raw)
        pos = rng.randrange(len(raw) + 1)
        f = z2z3.factors[rng.randrange(z2z3.k)]
        e = rng.randrange(f.order)
        noisy = raw[:pos] + [(f.id, e), (f.id, f.inv(e))] + raw[pos:]
        assert z2z3.reduce(noisy) == w


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2)), max_size=12))
def test_reduce_idempotent_hypothesis(pairs):
    context = FreeProduct.from_documents([Z2_DOC, Z3_DOC])
    raw = [(f, e % (2 if f == 0 else 3)) for f, e in pairs]
    w = context.reduce(raw)
    assert context.reduce(w.letters) == w


def test_ball_counts_z2z2(z2z2):
    assert len(z2z2.ball(0)) == 1
    assert len(z2z2.ball(1)) == 3
    assert len(z2z2.ball(2)) == 5
    assert len(z2z2.ball(3)) == 7


def test_ball_counts_against_oracle(z2z3, z3z3, z3s3):
    for context, orders in ((z2z3, [2, 3]), (z3z3, [3, 3]), (z3s3, [3, 6])):
        for r in range(5):
            assert len(context.ball(r)) == alternating_ball_count(orders, r)
            assert context.predicted_ball_size(r) == alternating_ball_count(orders, r)


def test_ball_invariants(z2z3):
    ball = z2z3.ball(3)
    members = set(ball.members)
    assert z2z3.identity in members
    assert len(members) == len(ball.members)
    for w in ball:
        assert len(w) <= 3
        assert w.inverse() in members


def test_ball_deterministic(z2z3):
    b1 = z2z3.ball(3)
    b2 = z2z3.ball(3)
    assert b1.members == b2.members


def test_ball_cap(z3z3):
    with pytest.raises(BallTooLarge) as exc:
        z3z3.ball(4, cap=10)
    assert exc.value.cap == 10
    assert exc.value.predicted == len(z3z3.ball(4))


def test_render_and_parse(z2z3):
    w = z2z3.reduce([(0, 1), (1, 2)])
    assert w.render() == "f0:1·f1:2"
    assert z2z3.identity.render() == "ε"
    assert z2z3.parse_word_text("f0:1·f1:2") == w
    assert z2z3.parse_word_text("f0:1 f1:2") == w
    assert z2z3.parse_word_text("ε").is_identity
    assert z2z3.parse_word_text("").is_identity
    with pytest.raises(WordParseError):
        z2z3.parse_word_text("g0:1")


def test_reduce_errors(z2z3):
    with pytest.raises(InvalidElement):
        z2z3.reduce([(0, 5)])
    with pytest.raises(InvalidElement):
        z2z3.reduce([(9, 0)])


def test_context_mismatch():
    c1 = FreeProduct.from_documents([Z2_DOC, Z2_DOC])
    c2 = FreeProduct.from_documents([Z2_DOC, Z2_DOC])
    u = c1.letter(0, 1)
    v = c2.letter(0, 1)
    with pytest.raises(ContextMismatch):
        c1.concat(u, v)


def test_infinite_factor_rejected_in_ball():
    stub = {"name": "stub", "kind": "infinite-stub", "supplied_indices": {}}
    context = FreeProduct.from_documents([Z2_DOC, stub])
    with pytest.raises(InfiniteFactor):
        context.ball(1)


def test_stub_context_reduces_finite_letters():
    stub = {"name": "stub", "kind": "infinite-stub", "supplied_indices": {}}
    context = FreeProduct.from_documents([Z2_DOC, stub])
    u = context.letter(0, 1)
    assert context.concat(u, u).is_identity
    assert context.invert(u) == u
    assert context.reduce([(0, 0), (0, 1)]) == u
    with pytest.raises(InfiniteFactor):
        context.letter(1, 0)
    with pytest.raises(InfiniteFactor):
        context.reduce([(0, 1), (1, 0)])


def test_ball_recurrence_crosscheck(z2z3):
    # linear recurrence on per-factor word counts against direct enumeration
    p, q = 2, 3
    a, b = p - 1, q - 1  # words of length 1 ending in factor 0 / factor 1
    total = 1 + a + b
    sizes = [1, total]
    for _ in range(2, 5):
        a, b = (p - 1) * b, (q - 1) * a
        total += a + b
        sizes.append(total)
    for r in range(5):
        assert len(z2z3.ball(r)) == sizes[r]


def test_equality_and_hash_follow_letters_across_contexts():
    """A word is its letters: codes are factor * MAX_FACTOR_ORDER + element,
    so words of Z2*Z3 and Z3*Z2 are equal, and hash equal, exactly when their
    (factor, element) letters are, whatever groups the factors are."""
    left = FreeProduct.from_documents([Z2_DOC, Z3_DOC]).ball(3).members
    right = FreeProduct.from_documents([Z3_DOC, Z2_DOC]).ball(3).members
    equal = 0
    for u in left + right:
        assert u.codes == tuple(l.factor * MAX_FACTOR_ORDER + l.elem for l in u.letters)
    for u in left:
        for v in right:
            same = u.letters == v.letters
            assert (u == v) == same and (v == u) == same
            if same:
                assert hash(u) == hash(v)
                equal += 1
    assert 0 < equal < len(left)
    assert len(set(left) | set(right)) == len({u.letters for u in left + right})


def test_stub_factor_anywhere_builds_and_its_letters_raise():
    stub = {"name": "stub", "kind": "infinite-stub", "supplied_indices": {}}
    context = FreeProduct.from_documents([stub, S3_DOC, stub, Z3_DOC])
    for fid in (0, 2):
        with pytest.raises(InfiniteFactor):
            context.letter(fid, 1)
        with pytest.raises(InfiniteFactor):
            context.reduce([(1, 1), (fid, 0)])
    with pytest.raises(InfiniteFactor):
        context.ball(1)
    u, v = context.letter(1, 1), context.letter(3, 1)
    assert context.concat(u, u).is_identity  # a transposition of S3
    assert context.concat(v, v) == context.invert(v) == context.letter(3, 2)
    assert context.reduce([(3, 1), (1, 1), (1, 1), (3, 1)]) == context.letter(3, 2)


# -- the direct-product image and centralisers ---------------------------------


def _product_of_images(context, u, v):
    return tuple(
        f.table[x][y] if not f.declared_infinite else x
        for f, x, y in zip(context.factors, u, v)
    )


@pytest.mark.parametrize("name", ["z2z3", "z3s3", "z2z2z2", "s3s3"])
def test_image_is_a_homomorphism(request, name):
    context = request.getfixturevalue(name)
    rng = random.Random(name)
    members = list(context.ball(3))
    identity = tuple(f.identity for f in context.factors)
    assert context.images([context.identity]) == [identity]
    for _ in range(200):
        u, v = rng.choice(members), rng.choice(members)
        values = [context.concat(u, v), u, v, u.inverse()]
        # images taken from scratch and, listed the other way, from prefixes
        for images in (context.images(values), context.images(values[::-1])[::-1]):
            image_uv, image_u, image_v, image_u_inverse = images
            assert image_uv == _product_of_images(context, image_u, image_v)
            assert _product_of_images(context, image_u, image_u_inverse) == identity


@pytest.mark.parametrize("name", ["z2z3", "z3s3", "z2z2z2", "s3s3"])
def test_image_filter_is_sound(request, name):
    # w(a, b) = 1 in the free product forces w = 1 on the images, factor by factor
    from ladderlab import evaluate_in_group, parse_word
    from ladderlab.words import evaluates_to_identity

    context = request.getfixturevalue(name)
    rng = random.Random(name)
    members = list(context.ball(2))
    words = [parse_word(t) for t in
             ("x1 y1 x1^-1 y1^-1", "x1 y1 x1 y1", "x1 y1 x2 y2", "x1 x1 y1 x1 y1^-1")]
    seen = 0
    for _ in range(3_000):
        w = rng.choice(words)
        a = [rng.choice(members) for _ in range(w.arity_x)]
        b = [rng.choice(members) for _ in range(w.arity_y)]
        if not evaluates_to_identity(context, w, a, b):
            continue
        seen += 1
        images = context.images(a + b)
        for f in context.factors:
            xs = [image[f.id] for image in images[: w.arity_x]]
            ys = [image[f.id] for image in images[w.arity_x :]]
            assert evaluate_in_group(f, w, xs, ys) == f.identity
    assert seen > 100


def _brute_centraliser(context, g, members):
    return {z.codes for z in members if context.concat(g, z) == context.concat(z, g)}


@pytest.mark.parametrize("name, radius, longest", [
    ("z2z3", 3, 6), ("z3s3", 3, 4), ("z2z2z2", 3, 5), ("s3s3", 2, 3), ("z2z2", 3, 8),
])
def test_centraliser_equals_brute_force(request, name, radius, longest):
    context = request.getfixturevalue(name)
    members = list(context.ball(longest))
    for g in context.ball(radius):
        if g.is_identity:
            continue
        assert set(context.centraliser(g, longest)) == _brute_centraliser(context, g, members), g.render()


def test_centraliser_shapes(z2z3, z3s3, s3s3, z2z2z2):
    # the peeling cases by name, each against brute force
    def product(context, *values):
        out = context.identity
        for v in values:
            out = context.concat(out, v)
        return out

    a, b = z3s3.letter(0, 1), z3s3.letter(1, 1)
    s = z2z3.concat(z2z3.letter(0, 1), z2z3.letter(1, 1))
    h = product(z2z2z2, z2z2z2.letter(0, 1), z2z2z2.letter(1, 1))
    s3 = s3s3.factors[1]
    cycle = next(c for c in range(s3.order) if c != s3.identity and s3.mul(s3.mul(c, c), c) == s3.identity)
    x, c = s3s3.letter(0, 1), s3s3.letter(1, cycle)
    cases = [
        # first and last letters in one factor, last != first^-1: t merges
        (z3s3, product(z3s3, a, b, a), 5, []),
        # a proper power t = s^2: s is a member
        (z2z3, product(z2z3, s, s), 6, [s, s.inverse()]),
        # a conjugated letter over three factors: h z h^-1 for z in C_G(c)
        (z2z2z2, product(z2z2z2, h, z2z2z2.letter(2, 1), h.inverse()), 5, []),
        # a conjugated 3-cycle of S3: its square is a member too
        (s3s3, product(s3s3, x, c, x.inverse()), 3, [product(s3s3, x, c, c, x.inverse())]),
    ]
    for context, g, longest, more in cases:
        found = set(context.centraliser(g, longest))
        assert found == _brute_centraliser(context, g, context.ball(longest)), g.render()
        assert {(), g.codes, g.inverse().codes} | {m.codes for m in more} <= found, g.render()
    with pytest.raises(ValueError):
        z2z3.centraliser(z2z3.identity, 4)
    with pytest.raises(ContextMismatch):
        z2z3.centraliser(z3s3.letter(0, 1), 4)
