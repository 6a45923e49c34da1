"""Diagonal Ramsey upper bounds and lazily evaluated bound numbers.

The upper bound on the k-color diagonal Ramsey number for pairs is the
memoized recurrence

    R(n_1..n_k) <= 2 - k + sum_i R(n_1, .., n_i - 1, .., n_k),  R(..) = 1
                                                                if any n_i = 1,

which for two colors is exactly the Pascal binomial bound. The recurrence is
computed over a collapsed state space: coordinates equal to 2 contribute a
constant (decrementing one yields a tuple containing a 1, value 1), so a
state is just the multiset of coordinates >= 3.

Bound pipelines iterate this recurrence inside nested maxima; past two
nesting levels the values stop being materializable as explicit integers
(they gain more digits than fit in memory). Bound arithmetic therefore works
over a small algebra of nodes - exact integers, diagonal Ramsey applications,
successors, maxima - with exact materialization whenever cheap and sound
order comparisons otherwise. Comparisons lean on three monotonicity facts of
the recurrence, each property-tested against the naive recursion:

  * monotone in every coordinate and in the number of colors,
  * R(colors, target) >= target,
  * R(2, m) = C(2m-2, m-1) >= 2^(m-1).
"""

from __future__ import annotations

import math
import re
import weakref
from collections import Counter
from typing import Iterable

from .errors import BoundTooLarge

# Materialization thresholds: an exact integer is computed only when both the
# digit count and the collapsed state space stay desk-sized. A value has at
# most floor(estimate) + 1 digits, so every materialized one stays within
# CPython's 4,300-digit limit on int/str conversion.
DIGITS_LIMIT = 4299
STATES_LIMIT = 150_000

# Every bound node carries min(value, SAT_CAP_LIMIT), from the saturating
# recurrence; caps beyond this would make the collapsed state space blow up.
SAT_CAP_LIMIT = 20_000

_LOG10_E = math.log10(math.e)


# lgamma takes a float and overflows near 2.5e305; past this many multinomial
# terms the estimate is math.inf, far above any materialization limit.
_LGAMMA_TOTAL_LIMIT = 10**300


def _log10_factorial(n: int) -> float:
    return math.lgamma(n + 1) * _LOG10_E


def digits_estimate(colors: int, target: int) -> float:
    """log10 of the multinomial upper bound for R(colors, target), or
    ``math.inf`` once (target - 1) * colors is too big for a float."""
    if target <= 2 or colors == 1:
        return 1.0
    total = (target - 1) * colors
    if total > _LGAMMA_TOTAL_LIMIT:
        return math.inf
    return _log10_factorial(total) - colors * _log10_factorial(target - 1)


def _states_estimate(colors: int, target: int) -> int:
    # multisets of size <= colors over the values {3..target}
    d = max(target - 2, 0)
    return math.comb(colors + d, d)


def is_materializable(colors: int, target: int) -> bool:
    if colors == 1 or target <= 2:
        return True
    if digits_estimate(colors, target) > DIGITS_LIMIT:
        return False
    if colors == 2:
        return True
    return _states_estimate(colors, target) <= STATES_LIMIT


def _pattern_children(pattern: tuple) -> Iterable[tuple[tuple, int]]:
    counts = Counter(pattern)
    for v, cnt in counts.items():
        child = list(pattern)
        child.remove(v)
        if v >= 4:
            child.append(v - 1)
        yield tuple(sorted(child)), cnt


def _walk(rule, key, memo: dict | None = None):
    """The value of ``key`` under ``rule``, over an explicit stack so depth
    costs no recursion. A rule is a generator function of a key: it yields the
    key of each value it needs, is sent that value, and returns its own. Each
    key is evaluated once per ``memo``, in the order a recursive walk takes;
    a key already in ``memo`` gets no generator."""
    memo = {} if memo is None else memo
    if key in memo:
        return memo[key]
    keys, sends = [key], [rule(key).send]
    value = None
    while sends:
        try:
            need = sends[-1](value)
        except StopIteration as done:
            sends.pop()
            value = memo[keys.pop()] = done.value
            continue
        if need in memo:
            value = memo[need]
        else:
            keys.append(need)
            sends.append(rule(need).send)
            value = None
    return value


def _each(keys: Iterable):
    """Rule helper: ``yield from _each(keys)`` gives the list of their values."""
    values = []
    for key in keys:
        values.append((yield key))
    return values


def _pattern_rule(pattern: tuple):
    total = 2 - len(pattern)  # the empty pattern (every coordinate 2) gives 2
    for child, cnt in _pattern_children(pattern):
        total += cnt * (yield child)
    return total


def _pattern_exact(pattern: tuple) -> int:
    """Exact recurrence value for the multiset of coordinates >= 3. Chains of
    decrements can be as long as the color count, so this walks an explicit
    stack; the memo lives for this call only."""
    return _walk(_pattern_rule, pattern)


def _threes(colors: int) -> int:
    """R(3,..,3) with ``colors`` threes: the pattern of p threes has one child,
    p - 1 threes, p times over, so g(p) = 2 - p + p*g(p-1) with g(0) = 2."""
    g = 2
    for p in range(1, colors + 1):
        g = 2 - p + p * g
    return g


def ramsey_exact(colors: int, target: int) -> int:
    if colors < 1:
        raise ValueError("colors must be >= 1")
    if target < 1:
        raise ValueError("target must be >= 1")
    if target == 1:
        return 1
    if colors == 1:
        return target
    if target == 2:
        return 2
    if colors == 2:
        return math.comb(2 * target - 2, target - 1)
    if target == 3:
        return _threes(colors)
    return _pattern_exact(tuple([target] * colors))


def ramsey_upper(colors: int, target: int) -> int:
    """Exact value of the memoized recurrence; raises if unmaterializable."""
    if colors >= 1 and target >= 1 and not is_materializable(colors, target):
        digits = digits_estimate(colors, target)
        size = f"~10^{digits:.0f}" if math.isfinite(digits) else "too large to estimate"
        raise BoundTooLarge(
            f"R({colors},2,{target}) is {size}; compare against it lazily instead"
        )
    return ramsey_exact(colors, target)


# -- saturating evaluation ---------------------------------------------------


def _g_cutoff(cap: int) -> int:
    """Smallest p with R(3,..,3) [p threes] >= cap."""
    p = 0
    while _threes(p) < cap:
        p += 1
    return p


def ramsey_sat(colors: int, target: int, cap: int) -> int:
    """min(R(colors, target), cap) for small caps."""
    if cap > SAT_CAP_LIMIT:
        raise ValueError(f"saturating evaluation is limited to caps <= {SAT_CAP_LIMIT}")
    if target >= cap:
        return cap  # R >= target
    if colors >= 2 and target >= 3:
        if target - 1 >= cap.bit_length() or colors >= _g_cutoff(cap):
            return cap  # R >= R(2, target) >= 2^(target-1); R >= R(colors, 3)
        # R grows with the target, so the first target that reaches cap decides
        for t in range(3, target):
            if ramsey_exact(colors, t) >= cap:
                return cap
    return min(ramsey_exact(colors, target), cap)


# -- lazy bound values -------------------------------------------------------

# Hash-consing table: constructing a node equal to a live one returns that
# node, so equal values are identical. Held weakly; unused nodes are freed.
_INTERNED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class BoundValue:
    """A natural number that may be too large to materialize. Interned on
    (class, fields), the fields being the subclass's ``__slots__`` in
    argument order; ``==`` and hashing are by identity. Subclasses define
    ``_structure``: the structural hash (ints only, so stable across
    processes), the sort key built from it, and the saturation
    min(value, SAT_CAP_LIMIT). Each is computed from the children's, which
    exist before their parents, so no walk over the value is ever needed."""

    __slots__ = ("_hash", "_key", "_sat", "__weakref__")

    def __new__(cls, *fields):
        if len(fields) != len(cls.__slots__):
            raise TypeError(f"{cls.__name__} takes fields {cls.__slots__}")
        key = (cls, *fields)
        node = _INTERNED.get(key)
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls.__slots__, fields):
                setattr(node, name, value)
            node._hash, node._key, node._sat = node._structure()
            _INTERNED[key] = node
        return node

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in type(self).__slots__)

    def sort_key(self) -> tuple:
        """Deterministic ordering key: kind rank, a local size parameter, and
        the structural hash."""
        return self._key

    def render(self, limit: int = 4000) -> str:
        return render_bound(self, limit)

    def __repr__(self) -> str:
        return f"<bound {self.render(200)}>"


class BExact(BoundValue):
    __slots__ = ("value",)

    def __new__(cls, value: int):
        if value < 0:
            raise ValueError("bound values are naturals")
        return super().__new__(cls, value)

    def _structure(self):
        return hash((0, self.value)), (0, self.value, 0), min(self.value, SAT_CAP_LIMIT)


class BSucc(BoundValue):
    __slots__ = ("base",)

    def _structure(self):
        h = hash((1, self.base._hash))
        return h, (1, 0, h), min(self.base._sat + 1, SAT_CAP_LIMIT)


class BMax(BoundValue):
    __slots__ = ("items",)

    def _structure(self):
        h = hash((2,) + tuple(i._hash for i in self.items))
        return h, (2, len(self.items), h), max(i._sat for i in self.items)


class BRamsey(BoundValue):
    __slots__ = ("colors", "target")

    def _structure(self):
        h = hash((3, self.colors, self.target._hash))
        # the target's saturation is its exact value whenever it is below the cap
        return h, (3, self.colors, h), ramsey_sat(self.colors, self.target._sat, SAT_CAP_LIMIT)


def bv_exact(n: int) -> BExact:
    return BExact(n)


def bv_succ(x: BoundValue) -> BoundValue:
    if isinstance(x, BExact):
        return BExact(x.value + 1)
    return BSucc(x)


def bv_max(items: Iterable[BoundValue]) -> BoundValue:
    flat: list[BoundValue] = []
    best_exact = None
    seen = set()
    stack = list(items)
    while stack:
        item = stack.pop(0)
        if isinstance(item, BMax):
            stack = list(item.items) + stack
            continue
        if isinstance(item, BExact):
            if best_exact is None or item.value > best_exact:
                best_exact = item.value
            continue
        if item not in seen:
            seen.add(item)
            flat.append(item)
    if best_exact is not None:
        flat.append(BExact(best_exact))
    if not flat:
        raise ValueError("max over no values")
    if len(flat) == 1:
        return flat[0]
    flat.sort(key=lambda v: v.sort_key())
    return BMax(tuple(flat))


def bv_ramsey(colors: int, target: BoundValue) -> BoundValue:
    if colors < 1:
        raise ValueError("colors must be >= 1")
    if isinstance(target, BExact) and is_materializable(colors, target.value):
        return BExact(ramsey_exact(colors, max(target.value, 1)))
    return BRamsey(colors, target)


def render_bound(v: BoundValue, limit: int = 4000) -> str:
    """Expression rendering with a character budget; exact values print as
    decimal digits, deep expressions truncate with an ellipsis. Bound values
    share subtrees heavily, so a full tree rendering can explode. Walks an
    explicit stack of pending text and nodes, so depth costs no recursion."""
    parts: list[str] = []
    budget = limit
    stack: list[BoundValue | str] = [v]
    while stack:
        item = stack.pop()
        # a node pushes its text and children in reverse, so they pop in order
        if isinstance(item, BSucc):
            stack += [" + 1)", item.base, "("]
        elif isinstance(item, BMax):
            stack.append(")")
            for i in range(len(item.items) - 1, 0, -1):
                stack += [item.items[i], ", "]
            stack += [*item.items[:1], "max("]
        elif isinstance(item, BRamsey):
            stack += [")", item.target, f"R({item.colors},2,"]
        else:
            text = str(item.value) if isinstance(item, BExact) else item
            parts.append(text)
            budget -= len(text)
            if budget <= 0:
                parts.append("\u2026")
                break
    return "".join(parts)


class BoundPool:
    """Hash-consed serialization of bound values: every distinct node is
    written once and referenced by id, children before parents."""

    def __init__(self):
        self.ids: dict[BoundValue, int] = {}
        self.nodes: list[dict] = []

    def intern(self, v: BoundValue) -> int:
        """The id of ``v``, writing its unwritten descendants first, children
        left to right, then the node."""
        return _walk(self._write, v, self.ids)

    def _write(self, node: BoundValue):
        """Rule for ``intern``: is sent each child's id, returns the node's."""
        if isinstance(node, BExact):
            entry = {"kind": "exact", "value": str(node.value)}
        elif isinstance(node, BSucc):
            entry = {"kind": "succ", "of": (yield node.base)}
        elif isinstance(node, BMax):
            entry = {"kind": "max", "of": (yield from _each(node.items))}
        elif isinstance(node, BRamsey):
            entry = {"kind": "ramsey", "colors": node.colors, "target": (yield node.target)}
        else:
            raise TypeError(f"not a bound value: {node!r}")
        self.nodes.append(entry)
        return len(self.nodes) - 1


_DECIMAL = re.compile(r"0|[1-9][0-9]*")  # an exact value as BoundPool writes it


def pool_to_values(nodes: list[dict]) -> list[BoundValue]:
    """The values of a pool written by ``BoundPool``; ValueError for a child
    reference that is not the id of an earlier node, or a number written
    otherwise than ``BoundPool`` writes it."""
    values: list[BoundValue] = []

    def child(vid) -> BoundValue:
        if type(vid) is not int or not 0 <= vid < len(values):
            raise ValueError(f"value {len(values)} refers to {vid!r}, not to an earlier value")
        return values[vid]

    for node in nodes:
        kind = node.get("kind")
        if kind == "exact":
            text = node["value"]
            if type(text) is not str or not _DECIMAL.fullmatch(text):
                raise ValueError(f"value {len(values)} is {text!r}, not a decimal string")
            values.append(BExact(int(text)))
        elif kind == "succ":
            values.append(BSucc(child(node["of"])))
        elif kind == "max":
            values.append(BMax(tuple(child(i) for i in node["of"])))
        elif kind == "ramsey":
            colors = node["colors"]
            if type(colors) is not int:
                raise ValueError(f"value {len(values)} has colors {colors!r}, not an integer")
            values.append(BRamsey(colors, child(node["target"])))
        else:
            raise ValueError(f"unknown bound value kind {kind!r}")
    return values


def bound_to_json(v: BoundValue) -> dict:
    """Standalone pooled document for one bound value."""
    pool = BoundPool()
    root = pool.intern(v)
    return {"values": pool.nodes, "root": root}


def bound_from_json(doc: dict) -> BoundValue:
    values = pool_to_values(doc["values"])
    root = doc["root"]
    if type(root) is not int or not 0 <= root < len(values):
        raise ValueError(f"root refers to {root!r}, not to a value of the pool")
    return values[root]


# -- comparisons --------------------------------------------------------------
# Each public comparison is one ``_walk`` of ``_compare_rule``, whose memo lives
# for the one call; values share subtrees, so each key ("ge", v, n), ("up", v)
# or ("le", x, y) is evaluated once, and deep values cost no recursion. Up to
# SAT_CAP_LIMIT no walk is needed: every node carries min(v, the limit).


def sat_min(v: BoundValue, cap: int) -> int:
    """Exactly min(v, cap); total for caps up to SAT_CAP_LIMIT."""
    if cap < 0:
        raise ValueError("cap must be >= 0")
    if cap > SAT_CAP_LIMIT:
        raise ValueError(f"sat_min is limited to caps <= {SAT_CAP_LIMIT}")
    return min(v._sat, cap)


def _bridge_target(n: int) -> int:
    """Some K with C(2K-2, K-1) >= n (so R(2, K) >= n)."""
    digits = int(n.bit_length() * math.log10(2)) + 1  # n has this many or one fewer
    if n < 10 ** (digits - 1):
        digits -= 1
    k = max(2, (digits * 5) // 3)
    while math.comb(2 * k - 2, k - 1) < n:
        k *= 2
    return k


def is_ge_int(v: BoundValue, n: int) -> bool | None:
    """Tristate 'v >= n'; always decided when n is small."""
    return _walk(_compare_rule, ("ge", v, n))


def upper_int(v: BoundValue) -> int | None:
    """A sound explicit upper bound, or None when one is too big to build."""
    return _walk(_compare_rule, ("up", v))


def le_bound(x: BoundValue, y: BoundValue) -> bool | None:
    """Tristate 'x <= y' via sound structural rules."""
    return _walk(_compare_rule, ("le", x, y))


_UPPER_NODE_LIMIT = 200_000


def _compare_rule(key: tuple):
    """Rule for the comparison walks, on keys ("ge", v, n), ("up", v) and
    ("le", x, y)."""
    if key[0] == "ge":
        _, v, n = key
        if n <= SAT_CAP_LIMIT:
            return v._sat >= n
        if isinstance(v, BExact):
            return v.value >= n
        if isinstance(v, BSucc):
            return (yield ("ge", v.base, n - 1))
        if isinstance(v, BMax):
            votes = yield from _each(("ge", i, n) for i in v.items)
            if any(r is True for r in votes):
                return True
            return False if all(r is False for r in votes) else None
        if isinstance(v, BRamsey):
            if v.colors == 1:
                return (yield ("ge", v.target, n))
            return True if (yield ("ge", v.target, _bridge_target(n))) is True else None
        raise TypeError(f"not a bound value: {v!r}")
    if key[0] == "up":
        v = key[1]
        if isinstance(v, BExact):
            return v.value
        if isinstance(v, BSucc):
            u = yield ("up", v.base)
            return None if u is None else u + 1
        if isinstance(v, BMax):
            uppers = yield from _each(("up", i) for i in v.items)
            return None if None in uppers else max(uppers)
        if isinstance(v, BRamsey):
            tu = yield ("up", v.target)
            if tu is None or tu < 1:
                return None
            if tu <= 2 or v.colors == 1:
                return max(tu, 2)
            total = (tu - 1) * v.colors
            if total > _UPPER_NODE_LIMIT:
                return None
            return math.factorial(total) // math.factorial(tu - 1) ** v.colors
        raise TypeError(f"not a bound value: {v!r}")
    _, x, y = key
    if x is y:
        return True
    if isinstance(y, BExact):
        ge = yield ("ge", x, y.value + 1)
        return None if ge is None else not ge
    if isinstance(x, BExact):
        return (yield ("ge", y, x.value))
    if isinstance(x, BMax):
        votes = yield from _each(("le", i, y) for i in x.items)
        if all(r is True for r in votes):
            return True
        return False if any(r is False for r in votes) else None
    if isinstance(y, BMax):
        votes = yield from _each(("le", x, i) for i in y.items)
        if any(r is True for r in votes):
            return True
        return False if all(r is False for r in votes) else None
    if isinstance(x, BSucc) and isinstance(y, BSucc):
        return (yield ("le", x.base, y.base))
    if isinstance(y, BRamsey):
        if isinstance(x, BRamsey):
            if x.colors <= y.colors and (yield ("le", x.target, y.target)) is True:
                return True
        if (yield ("le", x, y.target)) is True:
            return True  # R(c, t) >= t
        u = yield ("up", x)
        if u is not None and (yield ("ge", y, u)) is True:
            return True
        return None
    if isinstance(y, BSucc):
        return True if (yield ("le", x, y.base)) is True else None
    return None
