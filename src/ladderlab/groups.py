"""Finite factor groups loaded from declarative spec documents.

Elements of a factor are plain integer indices ``0..order-1``. A factor is
either a fully validated finite group (closed, associative, two-sided
identity, inverses) or a declared-infinite stub that carries user-supplied
stability indices instead of a table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

from .errors import (
    AxiomViolation,
    FactorTooLarge,
    InfiniteFactor,
    InvalidElement,
    SpecParseError,
)

FactorId = int

SPEC_KINDS = ("table", "perm-gens", "cyclic", "infinite-stub")

# Loading checks the axioms in O(order^3), so larger factors are refused.
MAX_FACTOR_ORDER = 256


@dataclass(frozen=True)
class FactorElement:
    """An element of one factor group, identified by (factor id, element index).
    The letters of a free-product normal form are the non-identity ones."""

    factor: FactorId
    elem: int

    def render(self) -> str:
        return f"f{self.factor}:{self.elem}"


@dataclass(frozen=True)
class FactorGroup:
    """One factor of a free product.

    Finite factors carry a full multiplication table; infinite stubs carry
    only ``supplied_indices`` mapping word-shape keys (see ``words.shape_key``)
    to base stability indices.
    """

    id: FactorId
    name: str
    order: int | None
    table: tuple[tuple[int, ...], ...] | None
    identity: int | None
    declared_infinite: bool = False
    supplied_indices: Mapping[str, int] = field(default_factory=dict)
    inverses: tuple[int, ...] | None = field(default=None, repr=False)

    def _require_finite(self) -> None:
        if self.declared_infinite:
            raise InfiniteFactor(
                f"factor {self.id} ({self.name}) is an infinite stub"
            )

    def check_elem(self, e: int) -> None:
        self._require_finite()
        if not 0 <= e < self.order:  # type: ignore[operator]
            raise InvalidElement(
                f"element {e} out of range for factor {self.id} of order {self.order}"
            )

    def mul(self, a: int, b: int) -> int:
        self._require_finite()
        return self.table[a][b]  # type: ignore[index]

    def inv(self, a: int) -> int:
        self._require_finite()
        return self.inverses[a]  # type: ignore[index]

    def elements(self) -> list[FactorElement]:
        self._require_finite()
        return [FactorElement(self.id, e) for e in range(self.order)]  # type: ignore[arg-type]

    def with_id(self, new_id: FactorId) -> "FactorGroup":
        if new_id == self.id:
            return self
        return replace(self, id=new_id)


def _validate_table(
    order: int, table: Sequence[Sequence[int]]
) -> tuple[int, tuple[int, ...]]:
    """Check the group axioms eagerly; return (identity, inverse table)."""
    if len(table) != order:
        raise AxiomViolation(f"table has {len(table)} rows, expected {order}")
    for i, row in enumerate(table):
        if len(row) != order:
            raise AxiomViolation(f"table row {i} has {len(row)} entries, expected {order}")
        for j, v in enumerate(row):
            if not isinstance(v, int) or not 0 <= v < order:
                raise AxiomViolation(
                    f"closure violated: table[{i}][{j}] = {v!r} not an element",
                    witness=(i, j),
                )

    identity = None
    for e in range(order):
        if all(table[e][g] == g and table[g][e] == g for g in range(order)):
            identity = e
            break
    if identity is None:
        raise AxiomViolation("no two-sided identity element")

    for i in range(order):
        if len(set(table[i])) != order:
            raise AxiomViolation(
                f"row {i} is not a permutation (cancellation fails)", witness=(i,)
            )
        col = [table[g][i] for g in range(order)]
        if len(set(col)) != order:
            raise AxiomViolation(
                f"column {i} is not a permutation (cancellation fails)", witness=(i,)
            )

    for a in range(order):
        for b in range(order):
            ab = table[a][b]
            for c in range(order):
                if table[ab][c] != table[a][table[b][c]]:
                    raise AxiomViolation(
                        f"associativity fails at ({a},{b},{c})", witness=(a, b, c)
                    )

    inverses = []
    for g in range(order):
        h = table[g].index(identity)
        if table[h][g] != identity:
            raise AxiomViolation(f"element {g} has no two-sided inverse", witness=(g,))
        inverses.append(h)
    return identity, tuple(inverses)


def compose_perms(sigma: Sequence[int], tau: Sequence[int]) -> tuple[int, ...]:
    """Composition convention: apply tau first, then sigma."""
    return tuple(sigma[tau[i]] for i in range(len(tau)))


def _close_perm_generators(gens: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    if not gens:
        raise SpecParseError("perm-gens spec needs at least one generator")
    degree = len(gens[0])
    norm_gens = []
    for g in gens:
        if not all(isinstance(x, int) for x in g) or sorted(g) != list(range(degree)):
            raise SpecParseError(f"generator {g!r} is not a permutation of 0..{degree - 1}")
        norm_gens.append(tuple(int(x) for x in g))
    identity = tuple(range(degree))
    elements = [identity]
    seen = {identity: 0}
    queue = [identity]
    while queue:
        p = queue.pop(0)
        for g in norm_gens:
            q = compose_perms(p, g)
            if q not in seen:
                if len(elements) == MAX_FACTOR_ORDER:
                    raise FactorTooLarge(f"perm-gens closure exceeds {MAX_FACTOR_ORDER} elements")
                seen[q] = len(elements)
                elements.append(q)
                queue.append(q)
    return elements


def _load_json_document(source) -> dict:
    if isinstance(source, dict):
        return source
    if isinstance(source, Path):
        text = source.read_text(encoding="utf-8")
    elif isinstance(source, str):
        text = source
    else:
        raise SpecParseError(f"unsupported group spec source {type(source).__name__}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecParseError(f"invalid JSON in group spec: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecParseError("group spec document must be a JSON object")
    return doc


def _require_order(doc: dict) -> int:
    order = doc.get("order")
    if not isinstance(order, int) or order < 1:
        raise SpecParseError(f"'order' must be a natural number >= 1, got {order!r}")
    if order > MAX_FACTOR_ORDER:
        raise FactorTooLarge(f"factor order {order} exceeds {MAX_FACTOR_ORDER}")
    return order


def load_group(source, index: FactorId = 0) -> FactorGroup:
    """Load and validate a factor group from a spec document.

    ``source`` may be a parsed JSON object, a JSON string, or a Path to a
    JSON file. ``index`` becomes the factor's id inside a free product.
    """
    doc = _load_json_document(source)
    kind = doc.get("kind")
    if kind not in SPEC_KINDS:
        raise SpecParseError(f"'kind' must be one of {SPEC_KINDS}, got {kind!r}")
    name = doc.get("name", f"factor{index}")
    if not isinstance(name, str):
        raise SpecParseError(f"'name' must be a string, got {name!r}")

    if kind == "infinite-stub":
        supplied = doc.get("supplied_indices", {})
        if not isinstance(supplied, dict):
            raise SpecParseError("'supplied_indices' must be an object")
        for k, v in supplied.items():
            if not isinstance(k, str) or not isinstance(v, int) or v < 0:
                raise SpecParseError(
                    f"supplied index {k!r}: {v!r} must map a string shape to a natural"
                )
        return FactorGroup(
            id=index,
            name=name,
            order=None,
            table=None,
            identity=None,
            declared_infinite=True,
            supplied_indices=dict(supplied),
        )

    if "supplied_indices" in doc:
        raise SpecParseError("'supplied_indices' is only valid for infinite-stub specs")

    if kind == "cyclic":
        order = _require_order(doc)
        table = [[(i + j) % order for j in range(order)] for i in range(order)]
    elif kind == "table":
        order = _require_order(doc)
        table = doc.get("table")
        if not isinstance(table, list) or not all(isinstance(row, list) for row in table):
            raise SpecParseError("'table' must be a list of rows")
    else:  # perm-gens
        gens = doc.get("generators")
        if not isinstance(gens, list) or not all(isinstance(g, list) for g in gens):
            raise SpecParseError("'generators' must be a list of permutations")
        elements = _close_perm_generators(gens)
        order = len(elements)
        declared = doc.get("order")
        if declared is not None and declared != order:
            raise SpecParseError(
                f"declared order {declared} does not match generated order {order}"
            )
        lookup = {p: i for i, p in enumerate(elements)}
        table = [
            [lookup[compose_perms(p, q)] for q in elements] for p in elements
        ]

    identity, inverses = _validate_table(order, table)
    return FactorGroup(
        id=index,
        name=name,
        order=order,
        table=tuple(tuple(row) for row in table),
        identity=identity,
        inverses=inverses,
    )

