from __future__ import annotations

import copy
import gc
import itertools
import json
import math
import random
import re
from functools import lru_cache

import pytest

from ladderlab import BoundTooLarge, bound_from_json, bound_to_json, ramsey_upper
from ladderlab import ramsey
from ladderlab.ramsey import (
    BExact,
    BMax,
    BRamsey,
    BSucc,
    bv_exact,
    bv_max,
    bv_ramsey,
    bv_succ,
    is_ge_int,
    le_bound,
    ramsey_exact,
    ramsey_sat,
    render_bound,
    sat_min,
)


@lru_cache(maxsize=None)
def naive_recurrence(targets: tuple) -> int:
    """Direct tuple-form recurrence, independent of the pattern collapse."""
    if any(n == 1 for n in targets):
        return 1
    k = len(targets)
    total = 2 - k
    for i in range(k):
        child = targets[:i] + (targets[i] - 1,) + targets[i + 1 :]
        total += naive_recurrence(tuple(sorted(child)))
    return total


def test_ramsey_known_values():
    assert ramsey_upper(2, 2) == 2
    assert ramsey_upper(2, 3) == 6
    assert ramsey_upper(3, 2) == 2
    assert ramsey_upper(1, 7) == 7
    assert ramsey_upper(2, 4) == 20


def test_pattern_collapse_matches_naive():
    for colors in (1, 2, 3, 4):
        for target in (1, 2, 3, 4, 5):
            expected = naive_recurrence(tuple([target] * colors))
            assert ramsey_exact(colors, target) == expected, (colors, target)


def test_threes_match_pattern_recurrence():
    # ramsey_exact answers target 3 from the one-child recurrence of _threes
    for colors in range(3, 40):
        assert ramsey_exact(colors, 3) == ramsey._pattern_exact((3,) * colors)


def test_two_color_equals_binomial():
    for m in range(1, 9):
        assert ramsey_upper(2, m) <= math.comb(2 * m - 2, m - 1)
        if m >= 2:
            assert ramsey_upper(2, m) == math.comb(2 * m - 2, m - 1)


def test_monotone_grid():
    values = {
        (c, m): ramsey_exact(c, m) for c in range(1, 5) for m in range(1, 6)
    }
    for (c, m), v in values.items():
        if (c + 1, m) in values:
            assert values[(c + 1, m)] >= v
        if (c, m + 1) in values:
            assert values[(c, m + 1)] >= v


def test_r33_exactness_by_k5_search():
    # some 2-coloring of K5's edges has no monochromatic triangle, so the
    # recurrence value 6 is the exact Ramsey number for (2, 3)
    edges = list(itertools.combinations(range(5), 2))
    triangles = list(itertools.combinations(range(5), 3))
    found = False
    for bits in range(1 << len(edges)):
        coloring = {e: (bits >> i) & 1 for i, e in enumerate(edges)}

        def color(a, b):
            return coloring[(a, b) if a < b else (b, a)]

        if not any(
            color(a, b) == color(b, c) == color(a, c) for a, b, c in triangles
        ):
            found = True
            break
    assert found


def test_unmaterializable_raises():
    with pytest.raises(BoundTooLarge):
        ramsey_upper(16, 50)


def test_target_past_float_range_stays_symbolic():
    # lgamma takes a float; a 401-digit target must not overflow it
    assert math.isinf(ramsey.digits_estimate(2, 10**400))
    assert not ramsey.is_materializable(2, 10**400)
    big = bv_ramsey(2, bv_exact(10**400))
    assert isinstance(big, BRamsey)
    assert sat_min(big, 8) == 8
    with pytest.raises(BoundTooLarge) as exc:
        ramsey_upper(2, 10**400)
    assert "inf" not in str(exc.value)


def test_ramsey_sat_matches_exact():
    for colors in (1, 2, 3, 4, 16):
        for target in (1, 2, 3, 4):
            exact = ramsey_exact(colors, target)
            for cap in (1, 2, 3, 5, 17, 100, 10_000):
                assert ramsey_sat(colors, target, cap) == min(exact, cap)


def test_ramsey_sat_saturates_huge():
    assert ramsey_sat(4**9, 6, 9) == 9
    assert ramsey_sat(4**15, 12, 9) == 9
    assert ramsey_sat(64, 10_000, 9) == 9


def test_ramsey_sat_walks_targets_up_from_three(monkeypatch):
    # R grows with the target, so R(7, 4) >= 20,000 settles R(7, 15) without
    # building the pattern of seven 15s
    seen = []
    inner = ramsey._pattern_exact

    def spy(pattern):
        seen.append(max(pattern))
        return inner(pattern)

    monkeypatch.setattr(ramsey, "_pattern_exact", spy)
    assert ramsey_sat(7, 15, 20_000) == 20_000
    assert seen and max(seen) <= 4


def test_materialized_values_convert_to_str():
    # a value has at most floor(digits_estimate) + 1 digits, and CPython
    # refuses str() past 4,300 of them
    assert len(str(bv_ramsey(2, bv_exact(7000)).value)) == 4212
    for colors in (2, 3):
        t = 3
        while ramsey.is_materializable(colors, t + 1):
            t += 1
        assert len(str(ramsey_exact(colors, t))) <= 4300
    big = bv_ramsey(2, bv_exact(7200))
    assert isinstance(big, BRamsey)
    assert render_bound(big) == "R(2,2,7200)"
    assert bound_from_json(bound_to_json(big)) is big


@pytest.mark.parametrize("root", [-1, 3, True, 1.0, "0", None])
def test_bound_from_json_checks_the_root(root):
    v = BSucc(BRamsey(2, BExact(3)))
    doc = bound_to_json(v)  # three values, v the last
    assert bound_from_json(dict(doc, root=2)) is v
    with pytest.raises(ValueError, match=f"^root refers to {re.escape(repr(root))},"):
        bound_from_json(dict(doc, root=root))


@pytest.mark.parametrize("node", [{"kind": "exact", "value": text} for text in ("0", "7", "10")])
def test_pool_reads_exact_values_as_bound_pool_writes_them(node):
    assert ramsey.pool_to_values([node]) == [BExact(int(node["value"]))]


@pytest.mark.parametrize("node", [
    {"kind": "exact", "value": text} for text in (" +2", "02", "00", "-1", "2.0", "\u0662", "", 2, True, None)
] + [{"kind": "ramsey", "colors": colors, "target": 0} for colors in (64.5, True, "300", None)])
def test_pool_rejects_numbers_bound_pool_does_not_write(node):
    with pytest.raises(ValueError, match="^value 1 "):
        ramsey.pool_to_values([{"kind": "exact", "value": "3"}, node])


def test_le_bound_past_the_str_digit_limit():
    # upper_int of the left side has about 7,160 digits; comparing it with
    # the right side counts them without str()
    x = bv_succ(bv_ramsey(3, bv_exact(5000)))
    assert le_bound(x, bv_ramsey(5, bv_exact(10**7))) is True


def test_deep_values_carry_their_saturation():
    # every node holds min(value, SAT_CAP_LIMIT) from construction, so a
    # 5,000-level chain is answered without a walk
    v, value = BRamsey(2, BExact(3)), 6
    for i in range(5000):
        if i % 2:
            v, value = BMax((v, BExact(i))), max(value, i)
        else:
            v, value = BSucc(v), value + 1
    for cap in (0, 8, value - 1, value, ramsey.SAT_CAP_LIMIT):
        assert sat_min(v, cap) == min(value, cap)
    assert is_ge_int(v, value) is True
    assert is_ge_int(v, value + 1) is False
    assert bound_from_json(bound_to_json(v)) is v


def test_bv_constructors_normalize():
    assert bv_succ(bv_exact(3)) == bv_exact(4)
    assert bv_max([bv_exact(1), bv_exact(5), bv_exact(2)]) == bv_exact(5)
    assert bv_ramsey(2, bv_exact(3)) == bv_exact(6)
    assert bv_ramsey(16, bv_exact(2)) == bv_exact(2)
    big = bv_ramsey(64, bv_exact(10**30))
    assert isinstance(big, BRamsey)
    nested = bv_max([bv_max([bv_exact(1), big]), bv_exact(2)])
    assert isinstance(nested, BMax)
    assert len(nested.items) == 2  # exacts merged, nesting flattened


def test_bv_max_deduplicates():
    big = bv_ramsey(64, bv_exact(10**30))
    same = bv_ramsey(64, bv_exact(10**30))
    v = bv_max([big, same, bv_exact(1)])
    assert isinstance(v, BMax)
    assert len(v.items) == 2


def test_sat_min_random_small_values():
    rng = random.Random(8)

    def build(depth):
        roll = rng.random()
        if depth == 0 or roll < 0.3:
            return bv_exact(rng.randrange(20))
        if roll < 0.5:
            return bv_succ(build(depth - 1))
        if roll < 0.8:
            return bv_max([build(depth - 1) for _ in range(rng.randrange(1, 4))])
        # keep Ramsey targets shallow so the naive oracle stays computable
        return bv_ramsey(rng.choice([1, 2, 3]), bv_exact(rng.randrange(1, 8)))

    def eval_exact(v):
        if isinstance(v, BExact):
            return v.value
        if isinstance(v, BSucc):
            return eval_exact(v.base) + 1
        if isinstance(v, BMax):
            return max(eval_exact(i) for i in v.items)
        return naive_recurrence(tuple([eval_exact(v.target)] * v.colors))

    for _ in range(150):
        v = build(3)
        exact = eval_exact(v)
        for cap in (1, 3, 10, 100, 5000):
            assert sat_min(v, cap) == min(exact, cap), render_bound(v)


def test_is_ge_int():
    big = bv_ramsey(256, bv_succ(bv_ramsey(64, bv_exact(10**40))))
    assert is_ge_int(big, 9) is True
    assert is_ge_int(big, 10**30) is True  # bridges through R(2, K)
    assert is_ge_int(bv_exact(5), 9) is False
    assert is_ge_int(bv_exact(5), 5) is True


def test_le_bound_rules():
    small = bv_ramsey(16, bv_exact(6))  # materialized exact
    assert isinstance(small, BExact)
    big64 = bv_ramsey(64, bv_exact(10**40))
    big256 = bv_ramsey(256, bv_exact(10**40 + 5))
    assert le_bound(bv_exact(3), bv_exact(7)) is True
    assert le_bound(bv_exact(7), bv_exact(3)) is False
    assert le_bound(big64, big256) is True  # colors and target monotone
    assert le_bound(small, big64) is True  # exact below a tower
    assert le_bound(big64, bv_exact(10)) is False
    # x <= R(c, t) via x <= t
    t = bv_max([small, bv_exact(12)])
    r = bv_ramsey(1024, bv_succ(t))
    assert le_bound(small, r) is True
    # max on the left needs all elements below
    assert le_bound(bv_max([small, big64]), big256) is True
    # succ on both sides
    assert le_bound(bv_succ(big64), bv_succ(big256)) is True


def test_le_bound_total_orderish_on_exacts():
    rng = random.Random(3)
    for _ in range(100):
        a, b = rng.randrange(10**6), rng.randrange(10**6)
        assert le_bound(bv_exact(a), bv_exact(b)) is (a <= b)


def test_bound_json_round_trip():
    big = bv_ramsey(256, bv_succ(bv_max([bv_exact(11), bv_ramsey(64, bv_exact(10**33))])))
    doc = bound_to_json(big)
    text = json.dumps(doc)
    assert bound_from_json(json.loads(text)) == big


def test_render_bound():
    assert render_bound(bv_exact(42)) == "42"
    v = bv_ramsey(64, bv_exact(10**40))
    assert render_bound(v) == f"R(64,2,{10**40})"
    assert render_bound(bv_succ(v)) == f"(R(64,2,{10**40}) + 1)"
    deep = v
    for _ in range(40):
        deep = bv_max([bv_ramsey(64, bv_succ(deep)), deep])
    s = render_bound(deep, limit=500)
    assert len(s) < 700
    assert s.endswith("…")


def test_equal_constructions_are_identical():
    # hash-consing: helpers, direct constructors and JSON round trips all
    # return the one live node for a value
    assert bv_exact(7) is BExact(7)
    assert bv_succ(bv_exact(6)) is bv_exact(7)
    big = bv_ramsey(64, bv_exact(10**30))
    assert big is BRamsey(64, BExact(10**30))
    assert bv_succ(big) is BSucc(big)
    m = bv_max([big, bv_exact(3)])
    assert m is BMax(m.items)
    assert bv_max([bv_exact(3), bv_ramsey(64, bv_exact(10**30))]) is m
    assert bound_from_json(json.loads(json.dumps(bound_to_json(m)))) is m
    assert copy.deepcopy(m) is m
    assert BExact(8) is not BExact(9)
    assert BSucc(big) is not BRamsey(64, BExact(10**30))


def test_bound_values_compare_by_identity():
    for cls in (ramsey.BoundValue, BExact, BSucc, BMax, BRamsey):
        assert "__eq__" not in vars(cls)
        assert "__hash__" not in vars(cls)
    big = bv_ramsey(64, bv_exact(10**30))
    assert hash(big) == object.__hash__(big)
    # ordering keeps the structural hash, which fixes certificate node order
    assert big.sort_key() == (3, 64, hash((3, 64, hash((0, 10**30)))))


def test_interned_nodes_are_freed():
    gc.collect()
    before = len(ramsey._INTERNED)
    v = bv_ramsey(256, bv_succ(bv_max([bv_exact(12_345_678_901), bv_ramsey(64, bv_exact(10**41 + 17))])))
    assert len(ramsey._INTERNED) >= before + 5
    del v
    gc.collect()
    assert len(ramsey._INTERNED) == before


def test_comparisons_keep_no_module_state():
    # memos live for one call: repeated comparisons neither grow module
    # state nor keep their arguments alive
    gc.collect()
    before = len(ramsey._INTERNED)
    x = bv_ramsey(64, bv_succ(bv_exact(10**40 + 3)))
    y = bv_ramsey(256, bv_succ(x))
    assert le_bound(x, y) is True
    assert le_bound(x, y) is True
    assert is_ge_int(y, 10**30) is True
    assert sat_min(y, 9) == 9
    del x, y
    gc.collect()
    assert len(ramsey._INTERNED) == before


def test_upper_int_walks_shared_nodes_once(monkeypatch):
    # each level refers to the one below twice; an unmemoized walk doubles
    # per level
    deep = bv_exact(10**40)
    for _ in range(40):
        deep = bv_max([bv_ramsey(64, bv_succ(deep)), bv_succ(deep)])
    calls = []
    inner = ramsey._compare_rule

    def counted(key):
        calls.append(key)
        return inner(key)

    monkeypatch.setattr(ramsey, "_compare_rule", counted)
    assert ramsey.upper_int(deep) is None
    # one rule evaluation per distinct node, each written once to a pool
    nodes = len(bound_to_json(deep)["values"])
    assert len(calls) == len(set(calls)) == nodes == 3 * 40
    calls.clear()
    assert ramsey.upper_int(deep) is None
    assert len(calls) == nodes  # the memo lives for one call


def test_recurrence_sweeps_keep_no_module_tables():
    # the pattern memo lives for one call: a sweep of exact and saturating
    # values leaves every module-level table of ``ramsey`` at its size
    def table_sizes():
        return {
            name: len(value)
            for name, value in vars(ramsey).items()
            if isinstance(value, (dict, list, set))
        }

    before = table_sizes()
    for colors in range(3, 8):
        for target in range(3, 9):
            exact = ramsey_exact(colors, target)
            for cap in (5, 100, 20_000):
                assert ramsey_sat(colors, target, cap) == min(exact, cap)
    assert table_sizes() == before


def test_render_bound_walks_deep_values_without_recursion():
    v = bv_ramsey(16, bv_exact(10**9))
    for _ in range(1500):
        v = bv_succ(v)
    s = render_bound(v)
    assert s.startswith("(" * 1500 + "R(16,2,1000000000)")
    assert s.endswith(" + 1)…")
    assert 4000 <= len(s) < 4010
    # within the budget a deep value renders in full
    assert render_bound(v, limit=10_000) == "(" * 1500 + "R(16,2,1000000000)" + " + 1)" * 1500


def test_render_bound_short_values_unchanged():
    # texts the recursive renderer wrote, including truncation points
    v = bv_ramsey(64, bv_exact(56874039553220))
    root = bv_ramsey(256, bv_succ(bv_max([bv_exact(56874039553219), bv_succ(v), v])))
    text = "R(256,2,(max(56874039553219, (R(64,2,56874039553220) + 1), R(64,2,56874039553220)) + 1))"
    assert render_bound(root) == text
    assert render_bound(root, limit=len(text)) == text + "…"
    assert render_bound(root, limit=len(text) + 1) == text
    assert render_bound(root, limit=12) == "R(256,2,(max(…"
    assert render_bound(root, limit=1) == "R(256,2,…"
