from __future__ import annotations

import itertools
import random
import time

import pytest

from ladderlab import (
    AxiomViolation,
    InfiniteFactor,
    SpecParseError,
    load_group,
)
from ladderlab import groups
from ladderlab.groups import compose_perms

from conftest import S3_DOC, Z3_DOC, compose_perm_oracle


def test_cyclic_z3():
    g = load_group(Z3_DOC, 0)
    assert g.order == 3
    assert g.identity == 0
    assert g.mul(1, 2) == 0
    assert g.inv(1) == 2
    assert g.inv(g.identity) == g.identity
    assert [e.elem for e in g.elements()] == [0, 1, 2]


def test_table_group_valid():
    doc = {"name": "K", "kind": "table", "order": 2, "table": [[0, 1], [1, 0]]}
    g = load_group(doc, 0)
    assert g.identity == 0
    assert g.mul(1, 1) == 0


def test_identity_law_everywhere(s3):
    e = s3.identity
    for g in range(s3.order):
        assert s3.mul(e, g) == g
        assert s3.mul(g, e) == g


def test_s3_from_perm_gens(s3):
    assert s3.order == 6


def test_s3_composition_convention(s3):
    # elements are generated from the identity by right-composition with the
    # generators; locate the two transpositions and check (12)*(13) oracle-side
    elements = []
    identity = tuple(range(3))
    queue = [identity]
    seen = {identity: 0}
    gens = [tuple(g) for g in S3_DOC["generators"]]
    while queue:
        p = queue.pop(0)
        elements.append(p)
        for gen in gens:
            q = compose_perm_oracle(p, gen)
            if q not in seen:
                seen[q] = len(seen)
                queue.append(q)
    t12 = seen[(1, 0, 2)]
    t13 = seen[(2, 1, 0)]
    expected = seen[compose_perm_oracle((1, 0, 2), (2, 1, 0))]
    assert compose_perm_oracle((1, 0, 2), (2, 1, 0)) == (2, 0, 1)
    assert s3.mul(t12, t13) == expected


def test_associativity_random_triples(s3, z3):
    rng = random.Random(7)
    for g in (s3, z3):
        for _ in range(200):
            a, b, c = (rng.randrange(g.order) for _ in range(3))
            assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))


def test_inverses_two_sided(s3):
    for a in range(s3.order):
        assert s3.mul(a, s3.inv(a)) == s3.identity
        assert s3.mul(s3.inv(a), a) == s3.identity


def test_nonassociative_table_rejected():
    # build a latin square with identity that fails associativity, then expect
    # a violation naming a concrete triple
    base = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    # sanity: latin with identity 0
    for i in range(5):
        assert sorted(base[i]) == list(range(5))
        assert sorted(base[j][i] for j in range(5)) == list(range(5))
    doc = {"name": "loop5", "kind": "table", "order": 5, "table": base}
    with pytest.raises(AxiomViolation) as exc:
        load_group(doc, 0)
    assert exc.value.witness is not None
    a, b, c = exc.value.witness
    assert base[base[a][b]][c] != base[a][base[b][c]]


def test_no_identity_rejected():
    doc = {"name": "bad", "kind": "table", "order": 2, "table": [[1, 1], [1, 1]]}
    with pytest.raises(AxiomViolation):
        load_group(doc, 0)


def test_closure_violation_rejected():
    doc = {"name": "bad", "kind": "table", "order": 2, "table": [[0, 1], [1, 7]]}
    with pytest.raises(AxiomViolation):
        load_group(doc, 0)


def test_fuzz_single_cell_mutations(z3, s3):
    # flipping one cell of a valid table either breaks an axiom or still
    # yields a valid group; it must never crash or silently misload
    for g in (z3, s3):
        table = [list(row) for row in g.table]
        n = g.order
        for i, j in itertools.product(range(n), repeat=2):
            original = table[i][j]
            for v in range(n):
                if v == original:
                    continue
                table[i][j] = v
                doc = {"name": "mut", "kind": "table", "order": n, "table": table}
                try:
                    load_group(doc, 0)
                except AxiomViolation:
                    pass
            table[i][j] = original


def test_infinite_stub():
    doc = {
        "name": "stub",
        "kind": "infinite-stub",
        "supplied_indices": {"x1 y1 = 1": 5},
    }
    g = load_group(doc, 1)
    assert g.declared_infinite
    assert g.supplied_indices["x1 y1 = 1"] == 5
    with pytest.raises(InfiniteFactor):
        g.mul(0, 0)
    with pytest.raises(InfiniteFactor):
        g.elements()


def test_spec_parse_errors():
    with pytest.raises(SpecParseError):
        load_group({"kind": "nope"}, 0)
    with pytest.raises(SpecParseError):
        load_group({"kind": "cyclic", "order": 0}, 0)
    with pytest.raises(SpecParseError):
        load_group({"kind": "table", "order": 2}, 0)
    with pytest.raises(SpecParseError):
        load_group('{"kind": "cyclic", "order": }', 0)
    with pytest.raises(SpecParseError):
        load_group({"kind": "cyclic", "order": 2, "supplied_indices": {}}, 0)
    with pytest.raises(SpecParseError):
        load_group({"kind": "perm-gens", "generators": [[0, 0, 1]]}, 0)


def test_perm_gens_declared_order_checked():
    doc = dict(S3_DOC)
    doc["order"] = 5
    with pytest.raises(SpecParseError):
        load_group(doc, 0)


def test_compose_perms_matches_oracle():
    rng = random.Random(3)
    for _ in range(50):
        p = list(range(4))
        q = list(range(4))
        rng.shuffle(p)
        rng.shuffle(q)
        assert compose_perms(p, q) == compose_perm_oracle(tuple(p), tuple(q))


# -- a JSON boolean is not an integer ----------------------------------------


def test_boolean_cyclic_order_rejected():
    with pytest.raises(SpecParseError, match="'order' must be a natural number >= 1, got True"):
        load_group({"kind": "cyclic", "order": True}, 0)


def test_boolean_table_entries_rejected():
    doc = {"kind": "table", "order": 2, "table": [[False, True], [True, False]]}
    with pytest.raises(AxiomViolation, match=r"closure violated: table\[0\]\[0\] = False not an element"):
        load_group(doc, 0)


def test_boolean_generator_rejected():
    with pytest.raises(SpecParseError, match=r"generator \[True, False\] is not a permutation of 0..1"):
        load_group({"kind": "perm-gens", "generators": [[True, False]]}, 0)


def test_boolean_declared_order_rejected():
    doc = {"kind": "perm-gens", "generators": [[0, 1]], "order": True}
    with pytest.raises(SpecParseError, match="declared order True does not match generated order 1"):
        load_group(doc, 0)


def test_boolean_supplied_index_rejected():
    doc = {"kind": "infinite-stub", "supplied_indices": {"x1 = 1": True}}
    with pytest.raises(SpecParseError, match="supplied index 'x1 = 1': True must map a string shape to a natural"):
        load_group(doc, 0)


# -- tables associative by construction load without the O(n^3) check --------


def _assert_loaded_as(g, elements, compose):
    """``g``'s table, identity and inverses are those of ``compose`` on
    ``elements``, element i of ``g`` being ``elements[i]``."""
    index = {e: i for i, e in enumerate(elements)}
    assert len(index) == g.order == len(elements)
    assert g.table == tuple(tuple(index[compose(a, b)] for b in elements) for a in elements)
    unit = next(e for e in elements if all(compose(e, x) == x for x in elements))
    assert g.identity == index[unit]
    assert g.inverses == tuple(
        next(index[b] for b in elements if compose(a, b) == unit) for a in elements)


def test_large_cyclic_loads_as_addition_mod_n():
    start = time.perf_counter()
    g = load_group({"kind": "cyclic", "order": 256}, 0)
    assert time.perf_counter() - start < 0.2
    assert g.identity == 0 and g.inverses == tuple(-a % 256 for a in range(256))
    _assert_loaded_as(g, list(range(256)), lambda a, b: (a + b) % 256)


def test_large_perm_gens_loads_as_composition():
    # S5 x Z2 on seven points, order 240: S5 moves 0..4, Z2 swaps 5 and 6
    gens = [[1, 0, 2, 3, 4, 5, 6], [1, 2, 3, 4, 0, 5, 6], [0, 1, 2, 3, 4, 6, 5]]
    start = time.perf_counter()
    g = load_group({"kind": "perm-gens", "generators": gens}, 0)
    assert time.perf_counter() - start < 0.2
    expected = {p + s for p in itertools.permutations(range(5)) for s in ((5, 6), (6, 5))}
    elements = groups._close_perm_generators(gens)
    assert set(elements) == expected
    _assert_loaded_as(g, elements, compose_perm_oracle)
