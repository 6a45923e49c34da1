from __future__ import annotations

import itertools

import pytest

from ladderlab import (
    ArityMismatch,
    ContextMismatch,
    FreeProduct,
    Letter,
    ReducedWord,
    load_group,
)
from ladderlab.freeproduct import CODE_SHIFT

Z2_DOC = {"name": "Z2", "kind": "cyclic", "order": 2}
Z3_DOC = {"name": "Z3", "kind": "cyclic", "order": 3}
S3_DOC = {"name": "S3", "kind": "perm-gens", "generators": [[1, 0, 2], [1, 2, 0]]}


@pytest.fixture(scope="session")
def z2():
    return load_group(Z2_DOC, 0)


@pytest.fixture(scope="session")
def z3():
    return load_group(Z3_DOC, 0)


@pytest.fixture(scope="session")
def s3():
    return load_group(S3_DOC, 0)


@pytest.fixture(scope="session")
def z2z2():
    return FreeProduct.from_documents([Z2_DOC, Z2_DOC])


@pytest.fixture(scope="session")
def z2z3():
    return FreeProduct.from_documents([Z2_DOC, Z3_DOC])


@pytest.fixture(scope="session")
def z3z3():
    return FreeProduct.from_documents([Z3_DOC, Z3_DOC])


@pytest.fixture(scope="session")
def z3s3():
    return FreeProduct.from_documents([Z3_DOC, S3_DOC])


@pytest.fixture(scope="session")
def z2z2z2():
    return FreeProduct.from_documents([Z2_DOC, Z2_DOC, Z2_DOC])


@pytest.fixture(scope="session")
def s3s3():
    return FreeProduct.from_documents([S3_DOC, S3_DOC])


def many_block_certificate(blocks: int, fmt: str = "ladderlab-certificate@1") -> dict:
    """A certificate document over ``blocks`` alternating one-letter blocks
    that records their base entries (indices 1 and 1) and nothing else:
    ``from_json`` reads it, and checking it derives every range."""
    return {
        "format": fmt,
        "bound": 0,
        "bound_text": "1",
        "word": "",
        "rewritten": " ".join(f"x{i}@{i % 2}" for i in range(1, blocks + 1)),
        "ell": blocks,
        "radius": None,
        "num_factors": None,
        "coloring": {"cases_per_block": 4, "rule": "product over block coordinates"},
        "root": [0, blocks - 1],
        "ranges": [
            {"range": [i, i], "kind": "base", "value": 0, "factor": (i + 1) % 2,
             "shape": "x1", "eq_index": 1, "neq_index": 1}
            for i in range(blocks)
        ],
        "values": [{"kind": "exact", "value": "1"}],
    }


# -- independent oracles -------------------------------------------------------


def alternating_ball_count(orders: list[int], radius: int) -> int:
    """Ball size by direct enumeration of alternating factor-id sequences."""
    k = len(orders)
    total = 1  # identity
    for length in range(1, radius + 1):
        for seq in itertools.product(range(k), repeat=length):
            if any(a == b for a, b in zip(seq, seq[1:])):
                continue
            words = 1
            for fid in seq:
                words *= orders[fid] - 1
            total += words
    return total


def naive_max_ladder(holds, a_rows_pool, b_rows_pool, max_m: int) -> int:
    """Exhaustive stability index over explicit row pools, up to max_m.

    Checks every assignment of m rows per side against the biconditional;
    independent of the production search's extension strategy.
    """
    best = 0
    for m in range(1, max_m + 1):
        found = False
        for a_rows in itertools.product(a_rows_pool, repeat=m):
            for b_rows in itertools.product(b_rows_pool, repeat=m):
                if all(
                    holds(a_rows[i], b_rows[j]) == (i <= j)
                    for i in range(m)
                    for j in range(m)
                ):
                    found = True
                    break
            if found:
                break
        if not found:
            break
        best = m
    return best


def compose_perm_oracle(p, q):
    """Apply q first, then p."""
    return tuple(p[q[i]] for i in range(len(q)))


def reference_search(holds, n_a: int, n_b: int, cutoff: int):
    """The per-pair ladder walk the bitset search replaced, kept as a
    differential reference: depth-first over one-row extensions on row
    indices in domain order, checking each candidate pair against every
    chosen row. Returns the first longest ladder met (its a- and b-row
    indices), whether it reached ``cutoff`` and the number of ladders
    visited."""
    a_rows: list[int] = []
    b_rows: list[int] = []
    best: tuple[tuple[int, ...], tuple[int, ...]] = ((), ())
    nodes = 0

    def extend() -> bool:
        nonlocal best, nodes
        for i in range(n_a):
            # the new a-row must fail against every chosen b-row (i > j)
            if any(holds(i, j) for j in b_rows):
                continue
            for j in range(n_b):
                if not holds(i, j):
                    continue
                # every chosen a-row must hold against the new b-row (i <= j)
                if not all(holds(a, j) for a in a_rows):
                    continue
                nodes += 1
                a_rows.append(i)
                b_rows.append(j)
                if len(a_rows) > len(best[0]):
                    best = (tuple(a_rows), tuple(b_rows))
                stop = len(a_rows) >= cutoff or extend()
                a_rows.pop()
                b_rows.pop()
                if stop:
                    return True
        return False

    cutoff_hit = extend()
    return best[0], best[1], cutoff_hit, nodes


def reference_max_ladder(formula, values, cutoff: int):
    """(index, a-rows, b-rows, cutoff_hit, nodes) of ``reference_search`` over
    rows drawn coordinatewise from ``values``, with each pair memoized."""
    a_cands = tuple(itertools.product(values, repeat=formula.arity_x))
    b_cands = tuple(itertools.product(values, repeat=formula.arity_y))
    memo: dict[tuple[int, int], bool] = {}

    def holds(i: int, j: int) -> bool:
        if (i, j) not in memo:
            memo[(i, j)] = formula.holds(a_cands[i], b_cands[j])
        return memo[(i, j)]

    a_idx, b_idx, hit, nodes = reference_search(
        holds, len(a_cands), len(b_cands), cutoff
    )
    a_rows = tuple(a_cands[i] for i in a_idx)
    return len(a_idx), a_rows, tuple(b_cands[j] for j in b_idx), hit, nodes


def _reference_push(context, stack, fid, elem):
    """``FreeProduct._push`` as it was before the int fold replaced it."""
    f = context.factors[fid]
    if elem == f.identity:
        return
    if stack and stack[-1].factor == fid:
        merged = f.mul(stack[-1].elem, elem)
        stack.pop()
        if merged != f.identity:
            stack.append(Letter(fid, merged))
    else:
        stack.append(Letter(fid, elem))


def reference_reduce(context, raw):
    """The per-letter ``Letter`` stack reduction the int fold replaced, kept
    as a differential reference for ``FreeProduct.reduce``."""
    stack = []
    for item in raw:
        if isinstance(item, Letter):
            fid, elem = item.factor, item.elem
        else:
            fid, elem = item
        f = context.factor(fid)
        f.check_elem(elem)
        _reference_push(context, stack, fid, elem)
    return ReducedWord(tuple(l.factor << CODE_SHIFT | l.elem for l in stack), context)


def reference_evaluate(context, w, a_values, b_values):
    """The ``_push``-based ``words.evaluate`` the int fold replaced."""
    if len(a_values) != w.arity_x or len(b_values) != w.arity_y:
        raise ArityMismatch(
            f"assignment arities ({len(a_values)},{len(b_values)}) do not match "
            f"word arities ({w.arity_x},{w.arity_y})"
        )
    stack: list = []
    factors = context.factors
    for s in w.syllables:
        value = (a_values if s.tuple_name == "x" else b_values)[s.position - 1]
        if value.context is not context:
            raise ContextMismatch("assignment value from a different context")
        if s.exponent < 0:
            for letter in reversed(value.letters):
                _reference_push(
                    context, stack, letter.factor, factors[letter.factor].inv(letter.elem)
                )
        else:
            for letter in value.letters:
                _reference_push(context, stack, letter.factor, letter.elem)
    return ReducedWord(tuple(l.factor << CODE_SHIFT | l.elem for l in stack), context)
