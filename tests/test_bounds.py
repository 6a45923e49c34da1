from __future__ import annotations

import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

from ladderlab import (
    BoundCertificate,
    MissingSuppliedIndex,
    SearchDomain,
    TraceTooLarge,
    base_indices,
    block_decompose,
    certificate_le,
    change_of_variables,
    conjunction_bound,
    disjunction_bound,
    formula_and,
    formula_not,
    formula_or,
    group_word_formula,
    lemma_bound,
    load_group,
    max_ladder,
    negation_bound,
    parse_word,
    qf_stability_index,
    replay_certificate,
    theorem_bound,
    verify_certificate,
    word_formula,
)
from ladderlab import bounds
from ladderlab.bounds import FORMAT_V1, FORMAT_V2, RangeCert
from ladderlab.ramsey import bv_exact, bv_max, bv_ramsey, bv_succ, is_ge_int, le_bound
from ladderlab.words import template_length


# `ladderlab bound --word "x1 y1" --radius 1 --groups specs/z2.json
# specs/z2.json --json` as written in format @1, which recorded every proper
# subrange of a composite range
V1_FIXTURE = Path(__file__).parent / "data" / "certificate_v1_z2z2_x1y1_r1.json"


def load_v1_fixture() -> BoundCertificate:
    return BoundCertificate.from_json(json.loads(V1_FIXTURE.read_text(encoding="utf-8")))


def test_negation_bound_values():
    assert negation_bound(1) == 2
    assert negation_bound(0) == 1


def test_negation_bound_dominates_search(z2, z3):
    for g in (z2, z3):
        for text in ("x1 y1", "x1 y1 x1", "x1 y1^-1"):
            w = parse_word(text)
            plain = qf_stability_index(g, w).index
            negated = qf_stability_index(g, w, negated=True).index
            assert negated <= negation_bound(plain)


def test_disjunction_bound_values():
    # mu = max + 2: R(2,2,3) and R(2,2,4)
    assert disjunction_bound(1, 1) == 6
    assert disjunction_bound(2, 1) == 20


def test_disjunction_mu_plus_one_is_unsound(z3):
    # the witness pair that rules out mu = max + 1: 'x1 y1 = 1' and
    # 'x2 y2 = 1' over Z3 have index 1 each, but their disjunction reaches
    # index 3 > R(2,2,2) = 2
    domain = SearchDomain.from_factor(z3)
    phi = group_word_formula(z3, parse_word("x1 y1"))
    psi = group_word_formula(z3, parse_word("x2 y2"))
    n_phi = max_ladder(phi, domain, cutoff=9).index
    n_psi = max_ladder(psi, domain, cutoff=9).index
    n_or = max_ladder(formula_or(phi, psi), domain, cutoff=9).index
    assert n_phi == 1 and n_psi == 1
    assert n_or == 3
    assert n_or <= disjunction_bound(n_phi, n_psi)


def test_conjunction_bound_values():
    assert conjunction_bound(1, 1) == 21
    assert conjunction_bound(0, 0) == 7


def test_boolean_bounds_dominate_search(z3):
    # spot check; the exhaustive sweep lives in the acceptance suite
    domain = SearchDomain.from_factor(z3)
    wf = group_word_formula(z3, parse_word("x1 y1"))
    wg = group_word_formula(z3, parse_word("x1 y1^-1"))
    nf = max_ladder(wf, domain, cutoff=9).index
    ng = max_ladder(wg, domain, cutoff=9).index
    nor = max_ladder(formula_or(wf, wg), domain, cutoff=9).index
    nand = max_ladder(formula_and(wf, wg), domain, cutoff=9).index
    nneg = max_ladder(formula_not(wf), domain, cutoff=9).index
    assert nor <= disjunction_bound(nf, ng)
    assert nand <= conjunction_bound(nf, ng)
    assert nneg <= negation_bound(nf)


def test_lemma_bound_single_block(z2):
    decomp = block_decompose(parse_word("x1@0 y1@0"))
    cert = lemma_bound(decomp, [(3, 3)], 1)
    assert cert.bound == bv_exact(3)
    assert cert.ell == 1


def test_lemma_bound_two_blocks_all_ones(z2z2):
    word = parse_word("x1@0 x2@1")
    decomp = block_decompose(word)
    cert = lemma_bound(decomp, [(1, 1)] * decomp.ell, 2)
    # mu = 2, so the 16-color bound collapses to 2
    assert cert.bound == bv_exact(2)
    rc = cert.ranges[(0, 1)]
    assert rc.colors == 16


def test_lemma_bound_dominates_annotated_search(z2z2):
    # blocks x1^G y1^G and x2^H y2^H with factor-constrained rows
    word = parse_word("x1@0 y1@0 x2@1 y2@1")
    decomp = block_decompose(word)
    assert decomp.ell == 2

    cert = lemma_bound(decomp, list(base_indices(decomp, z2z2.factors)), 2)

    f = word_formula(z2z2, word)
    d0 = SearchDomain.from_values(
        tuple(z2z2.embed(e) for e in z2z2.factors[0].elements()), "f0"
    )
    d1 = SearchDomain.from_values(
        tuple(z2z2.embed(e) for e in z2z2.factors[1].elements()), "f1"
    )
    result = max_ladder(
        f, d0, cutoff=8, a_domains=[d0, d1], b_domains=[d0, d1]
    )
    assert not result.cutoff_hit
    assert is_ge_int(cert.bound, result.index) is True


def test_theorem_bound_empty_word(z2z2):
    cert = theorem_bound(parse_word(""), 3, z2z2.factors)
    assert cert.bound == bv_exact(1)
    assert cert.ell == 0
    assert replay_certificate(cert) == cert.bound
    assert json.dumps(cert.to_json(), sort_keys=True) == (
        '{"bound": 0, "bound_text": "1", "coloring": {"cases_per_block": 4, "rule": '
        '"product over block coordinates"}, "ell": 0, "format": "ladderlab-certificate@2", '
        '"num_factors": 2, "radius": 3, "ranges": [], "rewritten": "", "root": null, '
        '"values": [{"kind": "exact", "value": "1"}], "word": ""}'
    )


def test_lemma_bound_empty_decomposition(z2z2):
    cert = lemma_bound(block_decompose(parse_word("")), [], 2)
    assert (cert.bound, cert.root, cert.ranges, cert.ell) == (bv_exact(1), None, {}, 0)
    assert verify_certificate(cert)
    stray = RangeCert(0, 0, "base", bv_exact(1), factor=0, shape="x1", eq_index=1, neq_index=1)
    for forged in (replace(cert, bound=bv_exact(2)), replace(cert, ranges={(0, 0): stray})):
        parsed = BoundCertificate.from_json(json.loads(json.dumps(forged.to_json())))
        assert verify_certificate(forged) is False
        assert verify_certificate(parsed) is False


def test_lemma_bound_needs_one_index_pair_per_block():
    decomp = block_decompose(parse_word("x1@0 x2@1"))
    for indices in ([(1, 1)], [(1, 1)] * 3):
        with pytest.raises(ValueError, match="base index pairs given for 2 blocks"):
            lemma_bound(decomp, indices, 2)


def test_base_indices_searches_each_shape_once(z2z2, z2, monkeypatch):
    decomp = block_decompose(parse_word("x1@0 x2@1 x3@0 y1@1 x4@0"))
    searched = []
    search = bounds.qf_stability_index
    monkeypatch.setattr(bounds, "qf_stability_index", lambda f, w: searched.append(f.id) or search(f, w))
    found = list(base_indices(decomp, z2z2.factors))
    assert searched == [0, 1, 1]  # x1 in each factor, then y1
    assert len(found) == 5 and found[2] == found[0] and found[0][1] == negation_bound(found[0][0])
    with pytest.raises(ValueError, match=r"range \(1, 1\) names factor 1, which is not given"):
        list(base_indices(decomp, [z2]))


def test_trace_cap_by_format():
    for fmt, largest in ((FORMAT_V2, 632), (FORMAT_V1, 57)):
        subranges = bounds._SUBRANGES[fmt]
        bounds._check_trace_size(largest, subranges)
        with pytest.raises(TraceTooLarge) as exc:
            bounds._check_trace_size(largest + 1, subranges)
        assert exc.value.cap == bounds.TRACE_CAP < exc.value.predicted


def test_theorem_bound_counts_blocks_before_rewriting(z2z2, z2z2z2):
    # the count is a floor on ell, so it never refuses a word the rules admit
    for context in (z2z2, z2z2z2):
        k = len(context.factors)
        for text in ("x1", "x1 x1", "x1^-1 x1", "x1 x1^-1", "x1 y1 x1^-1 y1^-1", "x1^-1 x2^-1 x2 x1"):
            w = parse_word(text)
            for r in (1, 2, 3):
                ell = block_decompose(change_of_variables(w, r, k)).ell
                assert len(w) * (template_length(r, k) - 1) <= ell
    # a billion-block rewritten word is refused before it is built
    with pytest.raises(TraceTooLarge):
        theorem_bound(parse_word("x1 y1"), 10**9, z2z2.factors)


def test_theorem_bound_structure(z2z2):
    cert = theorem_bound(parse_word("x1 y1"), 1, z2z2.factors)
    assert cert.ell == 4
    assert cert.rewritten == "x1@0 x2@1 y1@0 y2@1"
    assert cert.root == (0, 3)
    assert cert.ranges[(0, 3)].colors == 4**4
    assert is_ge_int(cert.bound, 9) is True


def test_theorem_bound_validation(z2z2, z2):
    with pytest.raises(ValueError):
        theorem_bound(parse_word("x1"), 0, z2z2.factors)
    with pytest.raises(ValueError):
        theorem_bound(parse_word("x1"), 1, [z2])


def test_theorem_bound_monotone_in_r(z2z3):
    w = parse_word("x1 y1 x2")
    certs = [theorem_bound(w, r, z2z3.factors) for r in (1, 2, 3)]
    assert certificate_le(certs[0], certs[1]) is True
    assert certificate_le(certs[1], certs[2]) is True


def test_theorem_bound_with_stub():
    z2 = {"name": "Z2", "kind": "cyclic", "order": 2}
    stub = {
        "name": "stub",
        "kind": "infinite-stub",
        "supplied_indices": {"x1 = 1": 1, "y1 = 1": 1, "x1 y1 = 1": 2},
    }
    factors = [load_group(z2, 0), load_group(stub, 1)]
    cert = theorem_bound(parse_word("x1 y1"), 1, factors)
    assert is_ge_int(cert.bound, 3) is True
    base = cert.ranges[(1, 1)]
    assert base.kind == "base"
    assert base.factor == 1
    assert base.eq_index == 1
    assert base.neq_index == 2  # derived via negation_bound, not a lookup

    missing = [load_group(z2, 0), load_group(
        {"name": "stub", "kind": "infinite-stub", "supplied_indices": {}}, 1
    )]
    with pytest.raises(MissingSuppliedIndex):
        theorem_bound(parse_word("x1 y1"), 1, missing)


def test_certificate_json_round_trip(z2z3):
    cert = theorem_bound(parse_word("x1 y1 x1^-1 y1^-1"), 1, z2z3.factors)
    doc = json.loads(json.dumps(cert.to_json()))
    back = BoundCertificate.from_json(doc)
    assert back.bound == cert.bound
    assert back.ell == cert.ell
    assert set(back.ranges) == set(cert.ranges)
    assert verify_certificate(back)


def test_replay_matches(z2z2, z2z3):
    for context in (z2z2, z2z3):
        for text in ("x1 y1", "x1 y1^-1", "x1 y1 x1^-1 y1^-1"):
            for r in (1, 2):
                cert = theorem_bound(parse_word(text), r, context.factors)
                assert replay_certificate(cert) == cert.bound
                assert verify_certificate(cert)


def test_replay_detects_tampering(z2z2):
    cert = theorem_bound(parse_word("x1 y1"), 1, z2z2.factors)
    doc = cert.to_json()
    # corrupt one base index
    for rdoc in doc["ranges"]:
        if rdoc["kind"] == "base":
            rdoc["eq_index"] += 1
            break
    tampered = BoundCertificate.from_json(doc)
    assert replay_certificate(tampered) != tampered.bound or not verify_certificate(
        tampered
    )


def test_theorem_bound_dominates_random_words(z2z2, z2z3, z3z3):
    # randomized slice of the central soundness property: for arbitrary words
    # the searched index never exceeds the certified bound
    from ladderlab import run_verify
    from ladderlab.words import GroupWord, Syllable

    rng = random.Random(4242)
    choices = [
        Syllable(t, p, e)
        for t in ("x", "y")
        for p in (1, 2)
        for e in (1, -1)
    ]
    contexts = [z2z2, z2z3, z3z3]
    for _ in range(25):
        context = contexts[rng.randrange(3)]
        n = rng.randrange(1, 5)
        w = GroupWord.from_syllables(
            [choices[rng.randrange(len(choices))] for _ in range(n)]
        )
        r = rng.choice([1, 2])
        rep = run_verify(context, w, r, cutoff=8)
        assert rep.verdict == "VERIFIED", (w.render(), r, rep.verdict)


def test_subproducts_enumerated():
    cert = load_v1_fixture()
    rc = cert.ranges[(0, 3)]
    ranges = {(s.start, s.stop) for s in rc.subproducts}
    expected = {
        (a, b)
        for a in range(4)
        for b in range(a, 4)
        if (a, b) != (0, 3)
    }
    assert ranges == expected
    for s in rc.subproducts:
        assert s.polarity in ("eq", "neq")


def test_certificate_round_trip_returns_same_nodes(z2z3):
    cert = theorem_bound(parse_word("x1 y1 x1^-1 y1^-1"), 2, z2z3.factors)
    back = BoundCertificate.from_json(json.loads(json.dumps(cert.to_json())))
    assert back.bound is cert.bound
    for key, rc in cert.ranges.items():
        assert back.ranges[key].value is rc.value
        assert back.ranges[key].mu is rc.mu
    assert replay_certificate(back) is cert.bound


def test_certificate_chains_in_one_process(z2z3):
    # a second chain in the same process once ran against memo tables left
    # by the first; now both build the same nodes and agree
    w = parse_word("x1 y1 x1^-1 y1^-1")

    def chain():
        previous = theorem_bound(w, 1, z2z3.factors)
        cert = theorem_bound(w, 2, z2z3.factors)
        parsed = BoundCertificate.from_json(json.loads(json.dumps(cert.to_json())))
        assert verify_certificate(parsed)
        assert replay_certificate(parsed) is cert.bound
        assert le_bound(previous.bound, parsed.bound) is True
        return cert

    cert1, cert2 = chain(), chain()
    assert cert1.bound is cert2.bound
    assert verify_certificate(cert1) and verify_certificate(cert2)


# -- forged certificates: consistent arithmetic, broken rules -----------------


def forge_root(cert, colors=None, subproducts=None):
    """Change the root range's colors or subproducts and recompute its mu,
    value and the bound consistently, so only the rules are broken."""
    root = cert.ranges[cert.root]
    subs = tuple(root.subproducts if subproducts is None else subproducts)
    colors = root.colors if colors is None else colors
    mu = bv_succ(bv_max([s.value for s in subs]))
    rc = replace(root, colors=colors, subproducts=subs, mu=mu, value=bv_ramsey(colors, mu))
    return replace(cert, bound=rc.value, ranges={**cert.ranges, cert.root: rc})


def forge_colors_one(cert):
    # one color and one kept subproduct: the certificate claims bound 2
    return forge_root(cert, colors=1, subproducts=cert.ranges[cert.root].subproducts[:1])


def forge_colors(cert):
    return forge_root(cert, colors=4**3)


def forge_dropped_subproduct(cert):
    subs = cert.ranges[cert.root].subproducts
    return forge_root(cert, subproducts=[s for s in subs if (s.start, s.stop) != (0, 2)])


def forge_duplicated_subproduct(cert):
    subs = list(cert.ranges[cert.root].subproducts)
    subs[-1] = subs[0]
    return forge_root(cert, subproducts=subs)


def forge_base_over_blocks(cert):
    base = RangeCert(0, 3, "base", bv_exact(1), factor=0, shape="x1", eq_index=1, neq_index=1)
    return replace(cert, bound=base.value, ranges={**cert.ranges, (0, 3): base})


def forge_root_range(cert):
    return replace(cert, root=(0, 2), bound=cert.ranges[(0, 2)].value)


def forge_ell(cert):
    ranges = {k: v for k, v in cert.ranges.items() if k[1] < 3}
    return replace(cert, ell=3, root=(0, 2), bound=cert.ranges[(0, 2)].value, ranges=ranges)


def forge_missing_range(cert):
    return replace(cert, ranges={k: v for k, v in cert.ranges.items() if k != (1, 2)})


def forge_mu(cert):
    root = cert.ranges[cert.root]
    rc = replace(root, mu=bv_succ(root.mu), value=bv_ramsey(root.colors, bv_succ(root.mu)))
    return replace(cert, bound=rc.value, ranges={**cert.ranges, cert.root: rc})


def forge_value(cert):
    return replace(cert, bound=bv_exact(5))


def forge_rewritten_cut(cert):
    # a consistent three-block trace of a rewritten word cut short
    ranges = {k: v for k, v in cert.ranges.items() if k[1] < 3}
    return replace(
        cert,
        rewritten="x1@0 x2@1 y1@0",
        ell=3,
        root=(0, 2),
        bound=cert.ranges[(0, 2)].value,
        ranges=ranges,
    )


def forge_base_shape(cert):
    base = replace(cert.ranges[(0, 0)], shape="x1 y1 x1")
    return replace(cert, ranges={**cert.ranges, (0, 0): base})


def forge_base_factor(cert):
    base = replace(cert.ranges[(0, 0)], factor=1)
    return replace(cert, ranges={**cert.ranges, (0, 0): base})


def forge_word_radius(cert):
    return replace(cert, word="x1 y1 x1", radius=7)


def forge_child_swapped(cert):
    # the root records the smaller (0, 1) where (0, 2) belongs
    inner = cert.ranges[(0, 1)].value
    swapped = {"eq": inner, "neq": bv_succ(inner)}
    subs = [
        replace(s, stop=1, value=swapped[s.polarity]) if (s.start, s.stop) == (0, 2) else s
        for s in cert.ranges[cert.root].subproducts
    ]
    return forge_root(cert, subproducts=subs)


FORGERIES = [
    forge_colors_one,
    forge_colors,
    forge_dropped_subproduct,
    forge_duplicated_subproduct,
    forge_base_over_blocks,
    forge_root_range,
    forge_ell,
    forge_missing_range,
    forge_mu,
    forge_value,
    forge_rewritten_cut,
    forge_base_shape,
    forge_base_factor,
    forge_word_radius,
    forge_child_swapped,
]


@pytest.mark.parametrize("forge", FORGERIES)
def test_verify_rejects_forged_certificate(z2z2, forge):
    cert = theorem_bound(parse_word("x1 y1"), 1, z2z2.factors)
    assert verify_certificate(cert)
    forged = forge(cert)
    parsed = BoundCertificate.from_json(json.loads(json.dumps(forged.to_json())))
    assert verify_certificate(forged) is False
    assert verify_certificate(parsed) is False


def test_colors_one_forgery_claims_two():
    cert = load_v1_fixture()
    forged = forge_colors_one(cert)
    assert forged.bound is bv_exact(2)
    # replay derives colors and subproducts from the rules, not the trace
    assert replay_certificate(forged) is cert.bound
    assert verify_certificate(forged) is False


# -- certificate formats: @2 records two children, @1 every proper subrange ---


@pytest.mark.parametrize("forge", FORGERIES)
def test_verify_rejects_forged_v1_certificate(forge):
    cert = load_v1_fixture()
    assert cert.format == FORMAT_V1
    assert verify_certificate(cert)
    forged = forge(cert)
    parsed = BoundCertificate.from_json(json.loads(json.dumps(forged.to_json())))
    assert parsed.format == FORMAT_V1
    assert verify_certificate(forged) is False
    assert verify_certificate(parsed) is False


def test_v2_records_the_two_maximal_children(z2z3):
    cert = theorem_bound(parse_word("x1 y1 x1^-1 y1^-1"), 2, z2z3.factors)
    assert cert.format == FORMAT_V2
    assert cert.ell == 9
    composite = [rc for rc in cert.ranges.values() if rc.stop > rc.start]
    assert len(composite) == 9 * 8 // 2
    for rc in composite:
        i, j = rc.start, rc.stop
        assert [(s.start, s.stop, s.polarity) for s in rc.subproducts] == [
            (i, j - 1, "eq"),
            (i, j - 1, "neq"),
            (i + 1, j, "eq"),
            (i + 1, j, "neq"),
        ]
    assert cert.to_json()["format"] == FORMAT_V2


def test_v2_bound_equals_v1_bound_on_corpus(z2z2, z2z3, z3z3):
    # R(c, t) >= t, so mu over the two children is the same number as mu over
    # every proper subrange; the @1 rule replays the same trace
    words = ("x1 y1", "x1 y1^-1", "x1 y1 x1^-1 y1^-1", "x1 x2 y1 y2", "x1 y1 x2")
    for context in (z2z2, z2z3, z3z3):
        for text in words:
            for r in (1, 2):
                cert = theorem_bound(parse_word(text), r, context.factors)
                v1 = replay_certificate(replace(cert, format=FORMAT_V1))
                assert le_bound(cert.bound, v1) is True, (text, r)
                assert le_bound(v1, cert.bound) is True, (text, r)


def test_walk_rejects_an_unknown_format(z2z2):
    cert = replace(theorem_bound(parse_word("x1 y1"), 1, z2z2.factors), format="ladderlab-certificate@9")
    assert verify_certificate(cert) is False
    with pytest.raises(ValueError, match="unknown certificate format"):
        replay_certificate(cert)


def test_from_json_accepts_both_formats(z2z2):
    assert load_v1_fixture().format == FORMAT_V1
    cert = theorem_bound(parse_word("x1 y1"), 1, z2z2.factors)
    back = BoundCertificate.from_json(json.loads(json.dumps(cert.to_json())))
    assert back.format == FORMAT_V2
    assert back.bound is cert.bound


def _v2_doc(z2z2) -> dict:
    return json.loads(json.dumps(theorem_bound(parse_word("x1 y1"), 1, z2z2.factors).to_json()))


@pytest.mark.parametrize("fmt", ["ladderlab-certificate@3", "", "ladderlab-certificate"])
def test_from_json_rejects_an_unknown_format(z2z2, fmt):
    doc = _v2_doc(z2z2)
    doc["format"] = fmt
    with pytest.raises(ValueError, match="unknown certificate format"):
        BoundCertificate.from_json(doc)


@pytest.mark.parametrize(
    "path",
    [("format",), ("ranges",), ("values",), ("bound",), ("ell",), ("word",), ("ranges", 0, "range"),
     ("ranges", -1, "mu"), ("ranges", -1, "subproducts", 0, "polarity"), ("values", 0, "kind")],
)
def test_from_json_rejects_a_missing_key(z2z2, path):
    doc = _v2_doc(z2z2)
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    del parent[path[-1]]
    with pytest.raises(ValueError):
        BoundCertificate.from_json(doc)


@pytest.mark.parametrize(
    "path, value",
    [
        (("format",), 2),
        (("ell",), "4"),
        (("ell",), True),
        (("bound",), "3"),
        (("bound",), 10_000),
        (("ranges",), {}),
        (("root",), [0]),
        (("ranges", 0, "range"), [0, "0"]),
        (("ranges", 0, "eq_index"), 1.5),
        (("ranges", -1, "colors"), None),
        (("ranges", -1, "subproducts"), "none"),
        (("values",), [None]),
        (("values", 0), {"kind": "succ", "of": 99}),
        (("values", 1), {"kind": "succ", "of": -1}),
        (("values", 1), {"kind": "max", "of": [0, 1]}),
    ],
)
def test_from_json_rejects_a_wrong_type(z2z2, path, value):
    doc = _v2_doc(z2z2)
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    with pytest.raises(ValueError):
        BoundCertificate.from_json(doc)


@pytest.mark.parametrize("load", ["v1", "v2"])
def test_verify_rejects_a_stray_range(z2z2, load):
    cert = load_v1_fixture() if load == "v1" else theorem_bound(parse_word("x1 y1"), 1, z2z2.factors)
    stray = replace(cert.ranges[(0, 0)], start=5, stop=5)
    forged = replace(cert, ranges={**cert.ranges, (5, 5): stray})
    assert replay_certificate(forged) is cert.bound
    assert verify_certificate(forged) is False


def test_from_json_rejects_a_range_listed_twice(z2z2):
    doc = _v2_doc(z2z2)
    doc["ranges"].append(doc["ranges"][0])
    with pytest.raises(ValueError, match="listed twice"):
        BoundCertificate.from_json(doc)


# -- the committed @2 fixture and the single derivation ------------------------

# `ladderlab bound --word "x1 y1" --radius 1 --groups specs/z2.json
# specs/z2.json --json` as written by the recursive producer that preceded
# `_derive_trace`; with the @1 fixture it pins the trace independently of the
# rule function that now both writes and checks certificates
V2_FIXTURE = Path(__file__).parent / "data" / "certificate_v2_z2z2_x1y1_r1.json"


def test_theorem_bound_writes_the_v2_fixture(z2z2):
    from ladderlab import check_certificate

    text = V2_FIXTURE.read_text(encoding="utf-8")
    fixture = json.loads(text)
    doc = theorem_bound(parse_word("x1 y1"), 1, z2z2.factors).to_json()
    assert doc.keys() == fixture.keys()
    for key in fixture:
        assert doc[key] == fixture[key], key
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == text
    parsed = BoundCertificate.from_json(fixture)
    assert parsed.format == FORMAT_V2
    assert check_certificate(parsed) is parsed.bound


@pytest.mark.parametrize("word, forged, message", [
    ("x1 y1", {"num_factors": 1, "radius": 2}, "the num_factors field: need at least 2 factors"),
    ("", {"num_factors": 1}, "the num_factors field: need at least 2 factors"),
    ("", {"radius": 0}, "the radius field: r must be >= 1"),
    ("x1 y1", {"word": "x1 y1!"}, "the word field: unexpected character '!' (at position 6)"),
    ("x1 y1", {"word": "x1@0 y1@1"}, "the word field: change of variables expects an unannotated word"),
    ("x1 y1", {"rewritten": "x1@0 x2@1 y1@0 y2@"}, "the rewritten field: expected digits"),
    ("x1 y1", {"rewritten": "x1 x2 y1 y2", "radius": None, "num_factors": None}, "the rewritten field: "),
])
def test_check_certificate_names_the_header_field(z2z2, word, forged, message):
    from ladderlab import check_certificate

    cert = replace(theorem_bound(parse_word(word), 1, z2z2.factors), **forged)
    with pytest.raises(ValueError) as exc:
        check_certificate(cert)
    assert str(exc.value).startswith(message)
    assert exc.value.__cause__ is not None  # the parser's or rewriter's own error


def _with_fixtures(z2z2):
    return [load_v1_fixture(), theorem_bound(parse_word("x1 y1"), 1, z2z2.factors)]


def test_replay_reads_only_the_base_entries(z2z2):
    for cert in _with_fixtures(z2z2):
        for dropped in [(1, 2), (0, 1), cert.root]:
            forged = replace(cert, ranges={k: v for k, v in cert.ranges.items() if k != dropped})
            assert replay_certificate(forged) is cert.bound
            assert verify_certificate(forged) is False
        bases = {k: v for k, v in cert.ranges.items() if k[0] == k[1]}
        assert replay_certificate(replace(cert, ranges=bases)) is cert.bound


def test_reordered_subproducts_are_rejected(z2z2):
    # the same refs, so mu and the value are unchanged; only the order breaks
    for cert in _with_fixtures(z2z2):
        subs = cert.ranges[cert.root].subproducts
        forged = forge_root(cert, subproducts=subs[::-1])
        assert forged.bound is cert.bound
        assert replay_certificate(forged) is cert.bound
        assert verify_certificate(forged) is False
        swapped = forge_root(cert, subproducts=(subs[1], subs[0]) + subs[2:])
        assert verify_certificate(swapped) is False
