from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest

from ladderlab import (
    ArityMismatch,
    ContextMismatch,
    DomainTooLarge,
    Formula,
    MissingSuppliedIndex,
    SearchDomain,
    formula_and,
    formula_not,
    formula_or,
    group_word_formula,
    is_ladder,
    load_group,
    max_ladder,
    parse_word,
    qf_stability_index,
    word_formula,
)

from conftest import naive_max_ladder, reference_max_ladder


def ball_domain(context, r):
    return SearchDomain.from_ball(context.ball(r))


def test_is_ladder_basics(z2z2):
    f = word_formula(z2z2, parse_word("x1 y1"))
    e = z2z2.identity
    g = z2z2.letter(0, 1)
    # m=1 with w(a1,b1) = 1
    assert is_ladder(f, [(g,)], [(g,)])  # g*g = e in Z2
    # m=1 with w(a1,b1) != 1
    assert not is_ladder(f, [(g,)], [(e,)])
    # i > j pair must fail: a2*b1 = e breaks it
    assert not is_ladder(f, [(g,), (g,)], [(g,), (g,)])
    with pytest.raises(ArityMismatch):
        is_ladder(f, [(g, g)], [(g,)])


def test_equality_formula_index_1(z2z2):
    # x = y has index 1 over any domain with >= 2 elements
    f = word_formula(z2z2, parse_word("x1 y1^-1"))
    result = max_ladder(f, ball_domain(z2z2, 1))
    assert result.index == 1
    assert not result.cutoff_hit
    assert result.witness.m == 1


def test_empty_word_index_1(z2z2):
    f = word_formula(z2z2, parse_word(""))
    result = max_ladder(f, ball_domain(z2z2, 1))
    assert result.index == 1


def test_index_matches_naive_oracle(z2z2, z2z3):
    for context in (z2z2, z2z3):
        dom = ball_domain(context, 1)
        for text in ("x1 y1", "x1 y1^-1", "x1 y1 x1", "x1 x1 y1"):
            w = parse_word(text)
            f = word_formula(context, w)
            result = max_ladder(f, dom, cutoff=3)
            rows_a = list(itertools.product(dom.values, repeat=w.arity_x))
            rows_b = list(itertools.product(dom.values, repeat=w.arity_y))
            expected = naive_max_ladder(f.holds, rows_a, rows_b, 3)
            assert result.index == expected, text


def test_random_formulas_match_naive_oracle():
    # arbitrary bipartite relations over small abstract domains
    rng = random.Random(42)
    for n in (2, 3, 5, 6):
        domain = SearchDomain.from_values(tuple(range(n)))
        for _ in range(30):
            table = {
                (a, b): rng.random() < 0.5
                for a in range(n)
                for b in range(n)
            }
            f = Formula(1, 1, lambda a, b, t=table: t[(a[0], b[0])])
            result = max_ladder(f, domain, cutoff=3)
            expected = naive_max_ladder(
                f.holds, [(v,) for v in range(n)], [(v,) for v in range(n)], 3
            )
            got = min(result.index, 3)
            assert got == expected


def test_random_arity2_formulas_match_naive_oracle():
    rng = random.Random(17)
    domain = SearchDomain.from_values((0, 1, 2))
    rows = list(itertools.product(domain.values, repeat=2))
    for _ in range(10):
        table = {(a, b): rng.random() < 0.4 for a in rows for b in rows}
        f = Formula(2, 2, lambda a, b, t=table: t[(a, b)])
        result = max_ladder(f, domain, cutoff=3)
        expected = naive_max_ladder(f.holds, rows, rows, 3)
        assert min(result.index, 3) == expected


def test_witness_prefix_closure(z2z3):
    f = word_formula(z2z3, parse_word("x1 y1 x1^-1 y1^-1"))
    result = max_ladder(f, ball_domain(z2z3, 1))
    w = result.witness
    for m in range(1, w.m + 1):
        assert is_ladder(f, w.a_rows[:m], w.b_rows[:m])


def test_domain_monotonicity(z2z2):
    w = parse_word("x1 y1 x1^-1 y1^-1")
    f = word_formula(z2z2, w)
    small = max_ladder(f, ball_domain(z2z2, 1), cutoff=8)
    large = max_ladder(word_formula(z2z2, w), ball_domain(z2z2, 2), cutoff=8)
    assert large.index >= small.index


def test_witness_is_lex_least(z2z2):
    # enumerate all maximal ladders by brute force; the witness must be the
    # lexicographically least under the interleaved domain-index order
    dom = ball_domain(z2z2, 1)
    f = word_formula(z2z2, parse_word("x1 y1 x1^-1 y1^-1"))
    result = max_ladder(f, dom)
    m = result.index
    idx = {v: i for i, v in enumerate(dom.values)}

    def key(a_rows, b_rows):
        out = []
        for a, b in zip(a_rows, b_rows):
            out.append(tuple(idx[v] for v in a))
            out.append(tuple(idx[v] for v in b))
        return tuple(out)

    candidates = []
    rows = [(v,) for v in dom.values]
    for a_rows in itertools.product(rows, repeat=m):
        for b_rows in itertools.product(rows, repeat=m):
            if is_ladder(f, list(a_rows), list(b_rows)):
                candidates.append(key(a_rows, b_rows))
    assert key(result.witness.a_rows, result.witness.b_rows) == min(candidates)


def test_cutoff_reported(z2z2):
    f = word_formula(z2z2, parse_word("x1 y1"))
    result = max_ladder(f, ball_domain(z2z2, 1), cutoff=1)
    assert result.cutoff_hit
    assert result.index == 1


def test_domain_too_large(z2z3):
    f = word_formula(z2z3, parse_word("x1 x2 y1"))
    with pytest.raises(DomainTooLarge):
        max_ladder(f, ball_domain(z2z3, 2), branch_cap=10)


def test_qf_stability_index_z2(z2):
    w = parse_word("x1 y1")
    result = qf_stability_index(z2, w)
    assert result.index == 1
    assert not result.cutoff_hit
    negated = qf_stability_index(z2, w, negated=True)
    assert negated.index <= result.index + 1


def test_qf_stability_index_annotated_block(z2):
    result = qf_stability_index(z2, parse_word("x2@0 y2@0"))
    assert result.index == 1


def test_qf_index_unsatisfiable_negation(z2):
    # x1 x1 = 1 holds identically over Z2, so its negation has index 0
    result = qf_stability_index(z2, parse_word("x1 x1"), negated=True)
    assert result.index == 0
    assert result.witness.m == 0


# an order-2 table group whose identity is element 1, not 0
K_DOC = {"name": "K", "kind": "table", "order": 2, "table": [[1, 0], [0, 1]]}


@pytest.mark.parametrize("negated", [False, True])
@pytest.mark.parametrize(
    "text", ["x2 y1", "y2 x2", "x2 y1 x1 y1^-1", "x3 y2 x1 y1^-1", "x3@0 y3@0^-1"]
)
def test_factor_witness_is_a_ladder_for_the_word_as_written(z2, s3, text, negated):
    # unused positions, and used positions out of order, keep the word's own
    # coordinates: the witness rows have its arities and are a ladder for it
    w = parse_word(text)
    for g in (z2, s3, load_group(K_DOC, 0)):
        result = qf_stability_index(g, w, negated=negated)
        witness = result.witness
        assert all(len(row) == w.arity_x for row in witness.a_rows)
        assert all(len(row) == w.arity_y for row in witness.b_rows)
        assert is_ladder(group_word_formula(g, w, negated), witness.a_rows, witness.b_rows)


def test_qf_stability_stub_passthrough():
    stub = load_group(
        {
            "name": "stub",
            "kind": "infinite-stub",
            "supplied_indices": {"x1 y1 = 1": 5},
        },
        0,
    )
    result = qf_stability_index(stub, parse_word("x2@0 y2@0"))
    assert result.index == 5
    assert result.witness is None
    with pytest.raises(MissingSuppliedIndex):
        qf_stability_index(stub, parse_word("x1"), negated=False)


def test_formula_combinators(z3):
    f = group_word_formula(z3, parse_word("x1 y1"))
    g = group_word_formula(z3, parse_word("x1 y1^-1"))
    a = (z3.elements()[1],)
    b = (z3.elements()[2],)
    assert f.holds(a, b)  # 1 + 2 = 0
    assert not g.holds(a, b)  # 1 - 2 != 0
    assert formula_or(f, g).holds(a, b)
    assert not formula_and(f, g).holds(a, b)
    assert not formula_not(f).holds(a, b)


def test_per_coordinate_domains(z2z3):
    # factor-constrained rows: x1 ranges over factor 0 letters, y1 over factor 1
    w = parse_word("x1 y1")
    f = word_formula(z2z3, w)
    d0 = SearchDomain.from_values(
        tuple(z2z3.embed(e) for e in z2z3.factors[0].elements()), "factor0"
    )
    d1 = SearchDomain.from_values(
        tuple(z2z3.embed(e) for e in z2z3.factors[1].elements()), "factor1"
    )
    result = max_ladder(
        f, d0, cutoff=4, a_domains=[d0], b_domains=[d1]
    )
    assert result.index >= 1
    for row in result.witness.a_rows:
        assert all(len(v) == 0 or v.letters[0].factor == 0 for v in row)


def test_commutator_search_pinned(z2z3):
    # index, lex-least witness and visit count of a full search; any change
    # to the visiting order, the checks or the pruning shows here (the
    # unpruned walk visits 412 nodes)
    w = parse_word("x1 y1 x1^-1 y1^-1")
    result = max_ladder(word_formula(z2z3, w), ball_domain(z2z3, 2), cutoff=8)
    e, a, b = z2z3.identity, z2z3.letter(0, 1), z2z3.letter(1, 1)
    assert (result.index, result.cutoff_hit, result.nodes_explored) == (3, False, 24)
    assert result.witness.a_rows == ((e,), (b,), (z2z3.concat(a, b),))
    assert result.witness.b_rows == ((a,), (b,), (e,))


def test_exhaustive_commutator_search_pinned(z3z3):
    # a search that must prove no 4-rung ladder exists; the unpruned walk
    # visits 496,105 nodes for the same witness
    w = parse_word("x1 y1 x1^-1 y1^-1")
    result = max_ladder(word_formula(z3z3, w), ball_domain(z3z3, 4), cutoff=8)
    e, a, b = z3z3.identity, z3z3.letter(0, 1), z3z3.letter(1, 1)
    assert (result.index, result.cutoff_hit) == (3, False)
    assert result.nodes_explored <= 1_336
    assert result.witness.a_rows == ((e,), (b,), (z3z3.concat(a, b),))
    assert result.witness.b_rows == ((a,), (b,), (e,))


def test_holds_memo_lives_for_one_call(z2z2):
    calls = Counter()
    commutator = word_formula(z2z2, parse_word("x1 y1 x1^-1 y1^-1"))

    def counted(a_row, b_row):
        calls[(a_row, b_row)] += 1
        return commutator.holds(a_row, b_row)

    f = Formula(1, 1, counted)
    dom = ball_domain(z2z2, 2)
    first = max_ladder(f, dom)
    evaluated = sum(calls.values())
    assert evaluated > 0 and max(calls.values()) == 1
    calls.clear()
    # the formula keeps nothing: a second search evaluates every pair again
    assert max_ladder(f, dom) == first
    assert sum(calls.values()) == evaluated and max(calls.values()) == 1


def _same_as_reference(formula, domain):
    """Index, lex-least witness and cutoff flag equal the unpruned walk's at
    cutoffs below, at and above the true index, and the pruned walk visits
    no more nodes. Returns how many of those cutoffs it visited fewer at."""
    index = reference_max_ladder(formula, domain.values, 64)[0]
    fewer = 0
    for cutoff in sorted({1, max(index - 1, 1), max(index, 1), index + 1, 8}):
        r = max_ladder(formula, domain, cutoff=cutoff)
        *expected, reference_nodes = reference_max_ladder(formula, domain.values, cutoff)
        got = [r.index, r.witness.a_rows, r.witness.b_rows, r.cutoff_hit]
        assert got == expected, cutoff
        assert r.nodes_explored <= reference_nodes, cutoff
        fewer += r.nodes_explored < reference_nodes
    return fewer


def test_kernel_matches_reference_walk_on_random_formulas():
    rng = random.Random(2011)
    for arity, n, density in ((1, 4, 0.5), (1, 7, 0.5), (1, 9, 0.3), (2, 3, 0.4)):
        domain = SearchDomain.from_values(tuple(range(n)))
        rows = list(itertools.product(domain.values, repeat=arity))
        for _ in range(12):
            table = {(a, b): rng.random() < density for a in rows for b in rows}
            f = Formula(arity, arity, lambda a, b, t=table: t[(a, b)])
            _same_as_reference(f, domain)


def test_kernel_matches_reference_walk_on_profile_relations():
    # rows and columns drawn from 2-4 profiles of a small base relation, so
    # that many a-rows (b-rows) of one node share their b-rows (a-rows);
    # a few flipped pairs make profiles agree only on some candidate sets
    rng = random.Random(2014)
    domain = SearchDomain.from_values(tuple(range(9)))
    fewer = 0
    for _ in range(40):
        p, q = rng.randint(2, 4), rng.randint(2, 4)
        base = [[rng.random() < 0.5 for _ in range(q)] for _ in range(p)]
        row_class = [rng.randrange(p) for _ in domain.values]
        col_class = [rng.randrange(q) for _ in domain.values]
        table = {
            (a, b): base[row_class[a]][col_class[b]]
            for a in domain.values
            for b in domain.values
        }
        for _ in range(rng.choice((0, 0, 2, 4))):
            pair = (rng.randrange(9), rng.randrange(9))
            table[pair] = not table[pair]
        f = Formula(1, 1, lambda a, b, t=table: t[(a[0], b[0])])
        fewer += _same_as_reference(f, domain)
    assert fewer > 0


def test_kernel_matches_reference_walk_on_word_formulas(z2z2, z2z3, z3s3):
    cases = [
        (z2z2, "x1 y1 x1^-1 y1^-1", 2),
        (z2z3, "x1 y1 x1^-1 y1^-1", 2),
        (z2z3, "x1 y1 x1", 2),
        (z2z3, "x1 x2 y1 y2", 1),
        (z3s3, "x1 y1 x1 y1", 1),
        (z3s3, "x1 y1 x1^-1 y1^-1", 1),
    ]
    for context, text, radius in cases:
        w = parse_word(text)
        domain = ball_domain(context, radius)
        for negated in (False, True):
            _same_as_reference(word_formula(context, w, negated), domain)


def test_early_stop_evaluates_each_pair_at_most_once(z3s3):
    calls = Counter()
    base = word_formula(z3s3, parse_word("x1 y1 x1 y1"))

    def counted(a_row, b_row):
        calls[(a_row, b_row)] += 1
        return base.holds(a_row, b_row)

    domain = ball_domain(z3s3, 3)
    result = max_ladder(Formula(1, 1, counted), domain, cutoff=3)
    assert (result.index, result.cutoff_hit, result.nodes_explored) == (3, True, 8)
    assert max(calls.values()) == 1
    # the masks are filled only for the rows visited and their candidate
    # columns: 1,011 of the 98 x 98 = 9,604 pairs (the per-pair walk with a
    # memo evaluated 8,751; a holds matrix built up front costs all 9,604)
    assert len(domain.values) ** 2 == 9_604
    assert sum(calls.values()) <= 1_011


def test_word_formula_keeps_evaluate_checks(z2z2, z2z3):
    holds = word_formula(z2z2, parse_word("x1 y1")).holds
    one = z2z2.identity
    with pytest.raises(ContextMismatch):
        holds((z2z3.letter(0, 1),), (one,))
    with pytest.raises(ArityMismatch):
        holds((), (one,))
    with pytest.raises(ArityMismatch):
        holds((one,), (one, one))


@pytest.mark.parametrize(
    "text, nodes, evaluations",
    [("x1 y1 x1 y1", 3, 1_089), ("x1 y1 x1^-1 y1^-1", 5, 1_482)],
)
def test_early_stop_evaluations_pinned(z3s3, text, nodes, evaluations):
    # the walk fills a chosen b-row's column only when a child will read it,
    # so an early stop evaluates exactly the pairs the unpruned walk did
    calls = Counter()
    base = word_formula(z3s3, parse_word(text))

    def counted(a_row, b_row):
        calls[(a_row, b_row)] += 1
        return base.holds(a_row, b_row)

    result = max_ladder(Formula(1, 1, counted), ball_domain(z3s3, 4), cutoff=3)
    assert (result.index, result.cutoff_hit, result.nodes_explored) == (3, True, nodes)
    assert max(calls.values()) == 1
    assert sum(calls.values()) == evaluations
