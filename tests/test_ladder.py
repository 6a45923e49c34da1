from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import replace

import pytest

from ladderlab import (
    ArityMismatch,
    ArityTooLarge,
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
    word_index,
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


def test_domain_too_large(z3s3):
    # 298^4 row pairs, over the 10^7 cap: raises before any row is built
    f = word_formula(z3s3, parse_word("x1 x2 y1 y2"))
    with pytest.raises(DomainTooLarge) as info:
        max_ladder(f, ball_domain(z3s3, 4))
    assert (info.value.cap, info.value.predicted) == (10**7, 298**4)


def test_arity_too_large(z2, z2z2, z3s3):
    # rows of arity x |rows| cells over the cap: refused before the search
    # builds one coordinate domain per position
    wide = parse_word("x1 y5000000")
    for search, predicted in ((lambda w, d: qf_stability_index(z2, w), 2 + 5_000_000 * 2),
                              (lambda w, d: word_index(z2z2, w, d), 3 + 5_000_000 * 3)):
        with pytest.raises(ArityTooLarge) as info:
            search(wide, ball_domain(z2z2, 1))
        assert (info.value.cap, info.value.predicted) == (10**7, predicted)
    # a branching over the cap is refused first, as max_ladder would refuse it
    with pytest.raises(DomainTooLarge) as info:
        word_index(z3s3, parse_word("x1 x999999999 y1 y2"), ball_domain(z3s3, 4))
    assert (info.value.cap, info.value.predicted) == (10**7, 298**4)
    # a high position over few rows is searched; unused positions take one value
    high = word_index(z2z2, parse_word("x5000 y1"), ball_domain(z2z2, 1))
    assert high.index == word_index(z2z2, parse_word("x1 y1"), ball_domain(z2z2, 1)).index


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


# -- word-aware mask sources -------------------------------------------------

MASK_SOURCE_WORDS = [
    ("x1 x2 y1 y2", "_split_masks"),
    ("y1 x1 x2 y2", "_split_masks"),  # split only after a rotation
    ("x1 x2^-1 x1", "_split_masks"),
    ("y1 y1 y2", "_split_masks"),
    ("", "_split_masks"),
    ("x1 y1 x1^-1 y1^-1", "_symmetric_masks"),
    ("x1 y1 x1 y1", "_symmetric_masks"),
    ("x1 y1 x2 y2", "_lazy_masks"),  # neither split nor swap-symmetric
]


def _random_ball_domains(request, rng, count=3):
    """Seeded random subsets of balls of Z2∗Z3, Z3∗S3 and Z2∗Z2∗Z2, in
    shuffled order."""
    domains = []
    for name in ("z2z3", "z3s3", "z2z2z2"):
        context = request.getfixturevalue(name)
        members = list(context.ball(3))
        for _ in range(count):
            domains.append((context, SearchDomain.from_values(rng.sample(members, rng.randint(3, 6)))))
    return domains


@pytest.mark.parametrize("text, source", MASK_SOURCE_WORDS)
def test_mask_sources_match_the_generic_masks(request, text, source):
    from ladderlab.ladder import _coordinate_domains, _lazy_masks, _masks

    rng = random.Random(text)
    w = parse_word(text)
    for context, domain in _random_ball_domains(request, rng):
        a_doms, b_doms = _coordinate_domains(w, domain)
        a_cands = tuple(itertools.product(*[d.values for d in a_doms]))
        b_cands = tuple(itertools.product(*[d.values for d in b_doms]))
        all_a, all_b = (1 << len(a_cands)) - 1, (1 << len(b_cands)) - 1
        for negated in (False, True):
            f = word_formula(context, w, negated)
            g_row, g_col = _lazy_masks(f.holds, a_cands, b_cands)
            rows = [g_row(i, all_b) for i in range(len(a_cands))]
            cols = [g_col(j, all_a) for j in range(len(b_cands))]
            row, col = _masks(f, a_doms, b_doms, a_cands, b_cands)
            assert row.__qualname__.startswith(source + ".")
            # random partial queries first, so keys and masks fill mid-walk
            for _ in range(40):
                if rng.random() < 0.5:
                    i, mask = rng.randrange(len(a_cands)), rng.getrandbits(len(b_cands))
                    assert row(i, mask) == rows[i] & mask
                else:
                    j, mask = rng.randrange(len(b_cands)), rng.getrandbits(len(a_cands))
                    assert col(j, mask) == cols[j] & mask
            assert [row(i, all_b) for i in range(len(a_cands))] == rows
            assert [col(j, all_a) for j in range(len(b_cands))] == cols


@pytest.mark.parametrize("text, source", MASK_SOURCE_WORDS)
def test_word_formula_search_equals_the_pairwise_search(request, text, source):
    rng = random.Random(text)
    w = parse_word(text)
    for context, domain in _random_ball_domains(request, rng, count=2):
        for negated in (False, True):
            f = word_formula(context, w, negated)
            generic = Formula(f.arity_x, f.arity_y, f.holds, f.description)
            for cutoff in (2, 8):
                assert max_ladder(f, domain, cutoff) == max_ladder(generic, domain, cutoff)


def test_split_word_indices_are_at_most_one_and_two(z2z3, z3s3, z2z2z2):
    # w = 1 iff u(a) = v(b)^-1: a-row i holds on b-row j iff their keys are
    # equal. Two a-rows that both hold on some b-row share its key, so they
    # agree on every b-row, and a ladder needs its a-rows to differ on a rung
    # above the first: '= 1' has index at most 1 and '!= 1' at most 2.
    rng = random.Random(2009)
    letters = [(name, p, e) for name in "xy" for p in (1, 2) for e in (1, -1)]
    reached = set()
    for context in (z2z3, z3s3, z2z2z2):
        domain = SearchDomain.from_values(rng.sample(list(context.ball(2)), 5))
        for _ in range(6):
            xs = [s for s in rng.choices(letters, k=6) if s[0] == "x"]
            ys = [s for s in rng.choices(letters, k=6) if s[0] == "y"]
            syllables = xs + ys
            k = rng.randrange(len(syllables) + 1)
            syllables = syllables[k:] + syllables[:k]
            text = " ".join(f"{n}{p}" + ("^-1" if e < 0 else "") for n, p, e in syllables)
            w = parse_word(text)
            for negated, most in ((False, 1), (True, 2)):
                result = word_index(context, w, domain, cutoff=8, negated=negated)
                assert not result.cutoff_hit and result.index <= most, (text, negated)
                reached.add((negated, result.index))
    assert {(False, 1), (True, 2)} <= reached  # both bounds are met


def _count_folds(monkeypatch):
    from ladderlab.freeproduct import FreeProduct

    calls = [0]
    fold = FreeProduct.fold

    def counted(self, runs):
        calls[0] += 1
        return fold(self, runs)

    monkeypatch.setattr(FreeProduct, "fold", counted)
    return calls


@pytest.mark.parametrize("product, text, radius, cutoff, folds, pairs", [
    # the verify-search benchmark searches: symmetric words fold each
    # unordered pair once, split words one key per row
    ("z3z3", "x1 y1 x1^-1 y1^-1", 3, 8, 435, 29 * 29),
    ("z3s3", "x1 y1 x1^-1 y1^-1", 2, 8, 406, 28 * 28),
    ("z2z3", "x1 x2 y1 y2", 2, 8, 128, 64 * 64),
    ("z2z2z2", "x1 y1 x1^-1 y1^-1", 1, 8, 10, 4 * 4),
    ("z3z3", "x1 y1", 3, 8, 58, 29 * 29),
    # early stops: 14,982 and 9,249 folds pair by pair
    ("z3s3", "x1 y1 x1^-1 y1^-1", 6, 3, 8_991, None),
    ("z3s3", "x1 y1 x1 y1", 6, 3, 6_252, None),
    # neither split nor symmetric: the pairwise masks' count
    ("z2z3", "x1 y1 x2 y2", 6, 3, 10_396, None),
])
def test_word_search_fold_counts_pinned(request, monkeypatch, product, text, radius, cutoff, folds, pairs):
    context = request.getfixturevalue(product)
    domain = ball_domain(context, radius)
    calls = _count_folds(monkeypatch)
    w = parse_word(text)
    result = word_index(context, w, domain, cutoff=cutoff)
    assert calls[0] == folds
    if pairs is not None:  # exhaustive: the pairwise masks fold every pair
        a_doms, b_doms = [domain] * w.arity_x, [domain] * w.arity_y
        assert len(domain.values) ** (w.arity_x + w.arity_y) == pairs
        calls[0] = 0
        generic = word_formula(context, w)
        generic = Formula(generic.arity_x, generic.arity_y, generic.holds)
        assert max_ladder(generic, domain, cutoff, a_doms, b_doms) == result
        assert calls[0] == pairs


@pytest.mark.parametrize("text", ["x1 x2 y1 y2", "x1 y1 x1^-1 y1^-1"])
def test_word_masks_keep_the_evaluate_checks(z2z2, z2z3, text):
    w = parse_word(text)
    foreign = ball_domain(z2z3, 1)
    with pytest.raises(ContextMismatch):
        word_index(z2z2, w, foreign)
    # a formula whose rows are longer than its word's arity
    f = word_formula(z2z2, w)
    wide = replace(f, arity_x=f.arity_x + 1, arity_y=f.arity_y + 1)
    with pytest.raises(ArityMismatch):
        max_ladder(wide, ball_domain(z2z2, 1))
