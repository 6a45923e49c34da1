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


def _pattern_exact(pattern: tuple) -> int:
    """Exact recurrence value for the multiset of coordinates >= 3.

    Explicit-stack evaluation: chains of decrements can be as long as the
    color count, far past the interpreter recursion limit. The memo lives for
    this call only."""
    memo: dict[tuple, int] = {}
    stack = [pattern]
    while stack:
        pat = stack[-1]
        if not pat or pat in memo:
            stack.pop()
            continue
        children = list(_pattern_children(pat))
        missing = [c for c, _ in children if c and c not in memo]
        if missing:
            stack.extend(missing)
            continue
        total = 2 - len(pat)
        for child, cnt in children:
            total += cnt * (memo[child] if child else 2)
        memo[pat] = total
        stack.pop()
    return memo[pattern] if pattern else 2


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
    kind = "abstract"

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
    kind = "exact"

    def __new__(cls, value: int):
        if value < 0:
            raise ValueError("bound values are naturals")
        return super().__new__(cls, value)

    def _structure(self):
        return hash((0, self.value)), (0, self.value, 0), min(self.value, SAT_CAP_LIMIT)


class BSucc(BoundValue):
    __slots__ = ("base",)
    kind = "succ"

    def _structure(self):
        h = hash((1, self.base._hash))
        return h, (1, 0, h), min(self.base._sat + 1, SAT_CAP_LIMIT)


class BMax(BoundValue):
    __slots__ = ("items",)
    kind = "max"

    def _structure(self):
        h = hash((2,) + tuple(i._hash for i in self.items))
        return h, (2, len(self.items), h), max(i._sat for i in self.items)


class BRamsey(BoundValue):
    __slots__ = ("colors", "target")
    kind = "ramsey"

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
        """The id of ``v``, writing its unwritten descendants first. Walks an
        explicit stack, so depth costs no recursion; ids come in the order of
        a recursive walk that writes children left to right, then the node."""
        ids = self.ids
        stack = [v]
        while stack:
            node = stack[-1]
            if node in ids:
                stack.pop()
                continue
            if isinstance(node, BExact):
                children = ()
                entry = {"kind": "exact", "value": str(node.value)}
            elif isinstance(node, BSucc):
                children = (node.base,)
                entry = {"kind": "succ", "of": ids.get(node.base)}
            elif isinstance(node, BMax):
                children = node.items
                entry = {"kind": "max", "of": [ids.get(i) for i in node.items]}
            elif isinstance(node, BRamsey):
                children = (node.target,)
                entry = {"kind": "ramsey", "colors": node.colors, "target": ids.get(node.target)}
            else:
                raise TypeError(f"not a bound value: {node!r}")
            missing = [c for c in children if c not in ids]
            if missing:  # the entry is built again once they are written
                stack += reversed(missing)  # the first child is written first
                continue
            stack.pop()
            ids[node] = len(self.nodes)
            self.nodes.append(entry)
        return ids[v]


def pool_to_values(nodes: list[dict]) -> list[BoundValue]:
    """The values of a pool written by ``BoundPool``; a child reference that
    is not the id of an earlier node raises ValueError."""
    values: list[BoundValue] = []

    def child(vid) -> BoundValue:
        if type(vid) is not int or not 0 <= vid < len(values):
            raise ValueError(f"value {len(values)} refers to {vid!r}, not to an earlier value")
        return values[vid]

    for node in nodes:
        kind = node.get("kind")
        if kind == "exact":
            values.append(BExact(int(node["value"])))
        elif kind == "succ":
            values.append(BSucc(child(node["of"])))
        elif kind == "max":
            values.append(BMax(tuple(child(i) for i in node["of"])))
        elif kind == "ramsey":
            values.append(BRamsey(int(node["colors"]), child(node["target"])))
        else:
            raise ValueError(f"unknown bound value kind {kind!r}")
    return values


def bound_to_json(v: BoundValue) -> dict:
    """Standalone pooled document for one bound value."""
    pool = BoundPool()
    root = pool.intern(v)
    return {"values": pool.nodes, "root": root}


def bound_from_json(doc: dict) -> BoundValue:
    return pool_to_values(doc["values"])[doc["root"]]


# -- comparisons --------------------------------------------------------------
# Values share subtrees, so each public comparison memoizes its walk in a dict
# that lives for the one call: keys ("ge", v, n), ("up", v) and ("le", x, y).
# Up to SAT_CAP_LIMIT no walk is needed: every node carries min(v, the limit).


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
    return _is_ge_int(v, n, {})


def _is_ge_int(v: BoundValue, n: int, memo: dict) -> bool | None:
    if n <= SAT_CAP_LIMIT:
        return v._sat >= n
    key = ("ge", v, n)
    if key in memo:
        return memo[key]
    result: bool | None
    if isinstance(v, BExact):
        result = v.value >= n
    elif isinstance(v, BSucc):
        result = _is_ge_int(v.base, n - 1, memo)
    elif isinstance(v, BMax):
        votes = [_is_ge_int(i, n, memo) for i in v.items]
        if any(r is True for r in votes):
            result = True
        elif all(r is False for r in votes):
            result = False
        else:
            result = None
    elif isinstance(v, BRamsey):
        if v.colors == 1:
            result = _is_ge_int(v.target, n, memo)
        else:
            k = _bridge_target(n)
            result = True if _is_ge_int(v.target, k, memo) is True else None
    else:
        raise TypeError(f"not a bound value: {v!r}")
    memo[key] = result
    return result


_UPPER_NODE_LIMIT = 200_000


def upper_int(v: BoundValue) -> int | None:
    """A sound explicit upper bound, or None when one is too big to build."""
    return _upper_int(v, {})


def _upper_int(v: BoundValue, memo: dict) -> int | None:
    key = ("up", v)
    if key in memo:
        return memo[key]
    result: int | None = None
    if isinstance(v, BExact):
        result = v.value
    elif isinstance(v, BSucc):
        u = _upper_int(v.base, memo)
        result = None if u is None else u + 1
    elif isinstance(v, BMax):
        uppers = [_upper_int(i, memo) for i in v.items]
        if all(u is not None for u in uppers):
            result = max(uppers)  # type: ignore[type-var]
    elif isinstance(v, BRamsey):
        tu = _upper_int(v.target, memo)
        if tu is None or tu < 1:
            result = None
        elif tu <= 2 or v.colors == 1:
            result = max(tu, 2)
        elif (tu - 1) * v.colors <= _UPPER_NODE_LIMIT:
            total = (tu - 1) * v.colors
            result = math.factorial(total) // math.factorial(tu - 1) ** v.colors
    else:
        raise TypeError(f"not a bound value: {v!r}")
    memo[key] = result
    return result


def le_bound(x: BoundValue, y: BoundValue) -> bool | None:
    """Tristate 'x <= y' via sound structural rules."""
    return _le_bound(x, y, {})


def _le_bound(x: BoundValue, y: BoundValue, memo: dict) -> bool | None:
    if x is y:
        return True
    key = ("le", x, y)
    if key not in memo:
        memo[key] = _le_rules(x, y, memo)
    return memo[key]


def _le_rules(x: BoundValue, y: BoundValue, memo: dict) -> bool | None:
    if isinstance(y, BExact):
        ge = _is_ge_int(x, y.value + 1, memo)
        if ge is True:
            return False
        if ge is False:
            return True
        return None
    if isinstance(x, BExact):
        return _is_ge_int(y, x.value, memo)
    if isinstance(x, BMax):
        votes = [_le_bound(i, y, memo) for i in x.items]
        if all(r is True for r in votes):
            return True
        if any(r is False for r in votes):
            return False
        return None
    if isinstance(y, BMax):
        votes = [_le_bound(x, i, memo) for i in y.items]
        if any(r is True for r in votes):
            return True
        if all(r is False for r in votes):
            return False
        return None
    if isinstance(x, BSucc) and isinstance(y, BSucc):
        return _le_bound(x.base, y.base, memo)
    if isinstance(y, BRamsey):
        if isinstance(x, BRamsey):
            if x.colors <= y.colors and _le_bound(x.target, y.target, memo) is True:
                return True
        if _le_bound(x, y.target, memo) is True:
            return True  # R(c, t) >= t
        u = _upper_int(x, memo)
        if u is not None and _is_ge_int(y, u, memo) is True:
            return True
        return None
    if isinstance(y, BSucc):
        if _le_bound(x, y.base, memo) is True:
            return True
        return None
    return None
