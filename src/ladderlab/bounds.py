"""Explicit stability-index bounds: boolean-combination rules, the
alternating-block recursion, and the full change-of-variables pipeline.

Every computed bound comes with a certificate: a range-keyed trace of the
recursion (base indices per single block, subproduct bounds in both
polarities, the mu values, and the Ramsey applications) that can be replayed
independently of the code that produced it.

The recursion's rules live in one function, ``_derive_trace``: from each
block's base entry it derives every range's entry. One builder puts the
derived trace and a header into a certificate. ``lemma_bound`` builds with
the given indices; the checker builds again from the recorded header and
base indices and requires the result to equal the recorded certificate;
replay derives the trace from the recorded base entries alone.

A composite range records only its two maximal children, (i, j-1) and
(i+1, j), in that order, each eq then neq (format
``ladderlab-certificate@2``, O(ell^2) refs). Every proper subrange lies
inside one of them, and a range's value R(4^len, mu) is at least its mu,
which is one past its own subproducts; so the maximum over the two children
is the maximum over every proper subrange, and mu is the same number.
Format ``@1`` recorded every proper subrange; its certificates still parse,
replay and check by their own rule.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Iterator, Mapping, Sequence

from .errors import AnnotationMismatch, LadderLabError, TraceTooLarge
from .groups import FactorGroup
from .ladder import qf_stability_index
from .ramsey import (
    BoundPool,
    BoundValue,
    bv_exact,
    bv_max,
    bv_ramsey,
    bv_succ,
    le_bound,
    pool_to_values,
    ramsey_upper,
)
from .words import (
    BlockDecomposition,
    GroupWord,
    block_decompose,
    change_of_variables,
    parse_word,
    render_word,
    template_length,
    word_shape,
)

CASES_PER_BLOCK = 4  # pair-orientation outcome cases per block coordinate
COLORING = {"cases_per_block": CASES_PER_BLOCK, "rule": "product over block coordinates"}

FORMAT_V1 = "ladderlab-certificate@1"  # every proper subrange
FORMAT_V2 = "ladderlab-certificate@2"  # the two maximal children

# Ranges plus subproduct refs one derivation may hold: @2 admits ell <= 632
# (some 200 MB), @1 ell <= 57.
TRACE_CAP = 10**6

# The fields a base entry records besides its range, kind and value, each
# with its type, in the order they are written and read.
_BASE_FIELDS = {"factor": int, "shape": str, "eq_index": int, "neq_index": int}
# The certificate header: each field's type and whether it may be null, in
# the order they are written and read.
_HEADER_FIELDS = {
    "word": (str, False),
    "rewritten": (str, False),
    "ell": (int, False),
    "radius": (int, True),
    "num_factors": (int, True),
}


def negation_bound(n: int) -> int:
    """Index bound for the negated formula: reversing both row orders and
    shifting the b-rows turns an m-ladder for the negation into an
    (m-1)-ladder for the original, so the index grows by at most one."""
    if n < 0:
        raise ValueError("index bounds are naturals")
    return n + 1


def disjunction_bound(n_phi: int, n_psi: int) -> int:
    """R(2,2,mu) with mu = max index + 2.

    The monochromatic subset in the Ramsey argument pins only off-diagonal
    pairs, i.e. a strict-order configuration; shifting the b-rows turns a
    mu-subset into a (mu-1)-ladder, so the contradiction needs mu - 1 past
    both indices. mu = max + 1 is refuted by brute force: over Z3 there are
    word formulas of index 1 whose disjunction has index 3 > R(2,2,2)."""
    mu = max(n_phi, n_psi) + 2
    return ramsey_upper(2, mu)


def conjunction_bound(n_phi: int, n_psi: int) -> int:
    """De Morgan composition of the negation and disjunction rules."""
    return negation_bound(
        disjunction_bound(negation_bound(n_phi), negation_bound(n_psi))
    )


@dataclass(frozen=True)
class SubproductRef:
    """One proper contiguous subproduct, in one polarity, inside a mu step."""

    start: int  # block range, 0-based inclusive
    stop: int
    polarity: str  # "eq" | "neq"
    value: BoundValue


@dataclass(frozen=True)
class RangeCert:
    """Certificate node for one contiguous block range."""

    start: int
    stop: int
    kind: str  # "base" | "ramsey"
    value: BoundValue
    factor: int | None = None
    shape: str | None = None
    eq_index: int | None = None
    neq_index: int | None = None
    colors: int | None = None
    mu: BoundValue | None = None
    subproducts: tuple[SubproductRef, ...] = ()

    def to_json(self, pool: BoundPool) -> dict:
        doc: dict = {
            "range": [self.start, self.stop],
            "kind": self.kind,
            "value": pool.intern(self.value),
        }
        if self.kind == "base":
            doc.update((name, getattr(self, name)) for name in _BASE_FIELDS)
        else:
            doc.update(
                colors=self.colors,
                mu=pool.intern(self.mu),
                subproducts=[
                    {
                        "range": [s.start, s.stop],
                        "polarity": s.polarity,
                        "value": pool.intern(s.value),
                    }
                    for s in self.subproducts
                ],
            )
        return doc

    @classmethod
    def from_json(cls, doc: dict, values: list[BoundValue]) -> "RangeCert":
        start, stop = _pair(doc, "range")
        value = _ref(doc, "value", values)
        if _field(doc, "kind", str) == "base":
            base = {name: _field(doc, name, kind) for name, kind in _BASE_FIELDS.items()}
            return cls(start, stop, "base", value, **base)
        return cls(
            start, stop, doc["kind"], value,
            colors=_field(doc, "colors", int),
            mu=_ref(doc, "mu", values),
            subproducts=tuple(
                SubproductRef(*_pair(s, "range"), _field(s, "polarity", str), _ref(s, "value", values))
                for s in _field(doc, "subproducts", list)
            ),
        )


def _field(doc: dict, key: str, kind: type, optional: bool = False):
    """``doc[key]`` if it is a ``kind`` (or None, when ``optional``);
    ValueError if ``doc`` is not an object or the field is missing or has
    another type."""
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object, not {type(doc).__name__}")
    if key not in doc and not optional:
        raise ValueError(f"certificate field {key!r} is missing")
    value = doc.get(key)
    if value is None and optional:
        return None
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ValueError(f"certificate field {key!r} must be {kind.__name__}, not {type(value).__name__}")
    return value


def _pair(doc: dict, key: str, optional: bool = False) -> tuple[int, int] | None:
    pair = _field(doc, key, list, optional)
    if pair is None:
        return None
    if len(pair) != 2 or not all(isinstance(n, int) and not isinstance(n, bool) for n in pair):
        raise ValueError(f"certificate field {key!r} must be two integers")
    return pair[0], pair[1]


def _ref(doc: dict, key: str, values: list[BoundValue]) -> BoundValue:
    vid = _field(doc, key, int)
    if not 0 <= vid < len(values):
        raise ValueError(f"certificate field {key!r} names value {vid}, outside the pool")
    return values[vid]


@dataclass(frozen=True)
class BoundCertificate:
    """A computed bound plus the recursion trace justifying it.

    The trace is a DAG keyed by block ranges (a tree rendering would repeat
    shared subranges exponentially often)."""

    bound: BoundValue
    word: str
    rewritten: str
    ell: int
    radius: int | None
    num_factors: int | None
    ranges: Mapping[tuple[int, int], RangeCert]
    root: tuple[int, int] | None
    format: str = FORMAT_V2

    def bound_text(self) -> str:
        return self.bound.render()

    def to_json(self) -> dict:
        pool = BoundPool()
        range_docs = [rc.to_json(pool) for rc in self.ranges.values()]
        return {
            "format": self.format,
            "bound": pool.intern(self.bound),
            "bound_text": self.bound_text(),
            **{name: getattr(self, name) for name in _HEADER_FIELDS},
            "coloring": dict(COLORING),
            "root": list(self.root) if self.root is not None else None,
            "ranges": range_docs,
            "values": pool.nodes,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "BoundCertificate":
        """Parse a certificate document of either format; ValueError if the
        format is unknown, a field is missing or has the wrong type, or
        ``bound_text`` or ``coloring`` differs from what ``to_json`` writes."""
        fmt = _field(doc, "format", str)
        _subranges(fmt)  # ValueError for an unknown format
        try:
            values = pool_to_values(_field(doc, "values", list))
        except (KeyError, IndexError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed value pool: {exc!r}") from exc
        ranges = {}
        for rdoc in _field(doc, "ranges", list):
            rc = RangeCert.from_json(rdoc, values)
            if (rc.start, rc.stop) in ranges:
                raise ValueError(f"range {(rc.start, rc.stop)} is listed twice")
            ranges[(rc.start, rc.stop)] = rc
        bound = _ref(doc, "bound", values)
        if _field(doc, "bound_text", str) != bound.render():
            raise ValueError("certificate field 'bound_text' is not the rendering of its bound")
        if _field(doc, "coloring", dict) != COLORING:
            raise ValueError(f"certificate field 'coloring' is not the product coloring of {CASES_PER_BLOCK} cases per block")
        header = {name: _field(doc, name, kind, null) for name, (kind, null) in _HEADER_FIELDS.items()}
        return cls(bound=bound, ranges=ranges, root=_pair(doc, "root", optional=True), format=fmt, **header)


def _proper_subranges(i: int, j: int) -> list[tuple[int, int]]:
    """Every proper contiguous subrange of blocks i..j, in trace order."""
    return [(a, b) for a in range(i, j + 1) for b in range(a, j + 1) if (a, b) != (i, j)]


def _maximal_children(i: int, j: int) -> list[tuple[int, int]]:
    """The two maximal proper subranges of blocks i..j; every other proper
    subrange lies inside one of them."""
    return [(i, j - 1), (i + 1, j)]


# The subproducts a composite range records, by certificate format.
_SUBRANGES = {FORMAT_V1: _proper_subranges, FORMAT_V2: _maximal_children}


def _subranges(fmt: str) -> Callable[[int, int], list[tuple[int, int]]]:
    subranges = _SUBRANGES.get(fmt)
    if subranges is None:
        raise ValueError(f"unknown certificate format {fmt!r}")
    return subranges


def _check_trace_size(ell: int, subranges: Callable[[int, int], list[tuple[int, int]]]) -> None:
    """TraceTooLarge if the ranges of ``ell`` blocks plus the subproduct
    refs ``subranges`` has them record would pass TRACE_CAP. Every range of
    one length records as many, so the count goes by length and stops once
    past the cap."""
    total = 0
    for length in range(1, ell + 1):
        refs_each = 2 * len(subranges(0, length - 1)) if length > 1 else 0
        total += (ell - length + 1) * (1 + refs_each)
        if total > TRACE_CAP:
            raise TraceTooLarge(TRACE_CAP, total)


def _derive_trace(
    bases: Sequence[tuple[int | None, str | None, int, int]],
    first: int,
    subranges: Callable[[int, int], list[tuple[int, int]]],
) -> dict[tuple[int, int], RangeCert]:
    """The trace the recursion's rules give for blocks ``first``,
    ``first + 1``, ... with base entries ``bases`` (factor, shape, eq, neq),
    in the order ``for j: for i from j down to first``.

    A single block's entry is a base entry whose value is the larger of its
    indices. A composite range records the subproducts ``subranges`` names,
    each eq then neq (a single block carries both from its indices; a
    composite one is its value, then one more by negation_bound); mu is one
    past their maximum and the value is the Ramsey upper bound with 4^len
    colors (the per-block cases compose into a product coloring). Before
    deriving anything, raises TraceTooLarge as ``_check_trace_size`` does."""
    _check_trace_size(len(bases), subranges)
    trace: dict[tuple[int, int], RangeCert] = {}
    # each range's (eq, neq) refs, shared by every range that records it
    refs: dict[tuple[int, int], tuple[SubproductRef, SubproductRef]] = {}
    for j, (factor, shape, eq, neq) in enumerate(bases, first):
        trace[(j, j)] = RangeCert(j, j, "base", bv_exact(max(eq, neq)), factor, shape, eq, neq)
        refs[(j, j)] = (SubproductRef(j, j, "eq", bv_exact(eq)), SubproductRef(j, j, "neq", bv_exact(neq)))
        for i in range(j - 1, first - 1, -1):
            subs = tuple(ref for key in subranges(i, j) for ref in refs[key])
            mu = bv_succ(bv_max([s.value for s in subs]))
            colors = CASES_PER_BLOCK ** (j - i + 1)
            value = bv_ramsey(colors, mu)
            trace[(i, j)] = RangeCert(i, j, "ramsey", value, colors=colors, mu=mu, subproducts=subs)
            refs[(i, j)] = (SubproductRef(i, j, "eq", value), SubproductRef(i, j, "neq", bv_succ(value)))
    return trace


def _build_certificate(
    decomp: BlockDecomposition,
    indices: Sequence[tuple[int, int]],
    subranges: Callable[[int, int], list[tuple[int, int]]],
    **header,
) -> BoundCertificate:
    """The certificate the bound rules give for ``decomp`` with base indices
    ``indices`` (eq, neq per block): every range ``_derive_trace`` derives by
    ``subranges``, rooted at all the blocks, under the ``header`` fields
    (``_HEADER_FIELDS`` and format; ell, if given, is replaced by the blocks'
    count). Without blocks there is no root and the bound is 1: the
    constantly-true formula's index, since a second ladder row would need a
    failing pair."""
    bases = [
        (blk.factor, word_shape(decomp.block_word(i)), eq, neq)
        for i, (blk, (eq, neq)) in enumerate(zip(decomp.blocks, indices))
    ]
    ranges = _derive_trace(bases, 0, subranges)
    root = (0, decomp.ell - 1) if decomp.ell else None
    bound = ranges[root].value if root else bv_exact(1)
    return BoundCertificate(bound=bound, ranges=ranges, root=root, **{**header, "ell": decomp.ell})


def base_indices(
    decomp: BlockDecomposition, factors: Sequence[FactorGroup]
) -> Iterator[tuple[int, int]]:
    """Each block's (eq, neq), in block order: the index of 'block = 1'
    searched over the block's whole factor (supplied for stubs), and
    ``negation_bound`` of it. Each (factor, shape) is searched once per
    call. ValueError for a block whose factor is not in ``factors``."""
    by_id = {f.id: f for f in factors}
    found: dict[tuple[int, str], tuple[int, int]] = {}
    for i, blk in enumerate(decomp.blocks):
        factor = by_id.get(blk.factor)
        if factor is None:
            raise ValueError(f"range {(i, i)} names factor {blk.factor}, which is not given")
        block = decomp.block_word(i)
        key = (factor.id, word_shape(block))
        if key not in found:
            eq = qf_stability_index(factor, block).index
            found[key] = (eq, negation_bound(eq))
        yield found[key]


def lemma_bound(
    decomp: BlockDecomposition,
    indices: Sequence[tuple[int, int]],
    num_factors: int,
    word_text: str = "",
    radius: int | None = None,
) -> BoundCertificate:
    """Bound for an alternating block decomposition whose blocks have base
    indices ``indices`` (eq, neq per block, in block order), built into the
    certificate whose composite ranges record their two maximal children.
    With no blocks the bound is 1."""
    for a, b in zip(decomp.blocks, decomp.blocks[1:]):
        if a.factor == b.factor:
            raise AnnotationMismatch("adjacent blocks must alternate factors")
    if len(indices) != decomp.ell:
        raise ValueError(f"{len(indices)} base index pairs given for {decomp.ell} blocks")
    return _build_certificate(
        decomp, indices, _maximal_children, word=word_text, rewritten=render_word(decomp.word),
        radius=radius, num_factors=num_factors, format=FORMAT_V2)


def theorem_bound(
    w: GroupWord, r: int, factors: Sequence[FactorGroup]
) -> BoundCertificate:
    """Full pipeline: change of variables, block decomposition, then the
    alternating-block recursion with searched (or supplied) base indices."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if len(factors) < 2:
        raise ValueError("need at least 2 factors")
    # templates alternate factors, so only two that meet share a block: a
    # floor on ell refuses a trace past the cap before the word is rewritten
    _check_trace_size(len(w) * (template_length(r, len(factors)) - 1), _maximal_children)
    decomp = block_decompose(change_of_variables(w, r, len(factors)))
    return lemma_bound(decomp, list(base_indices(decomp, factors)), len(factors), render_word(w), r)


def _base_entries(cert: BoundCertificate, first: int, last: int) -> list[tuple]:
    """(factor, shape, eq, neq) of the recorded base entries of blocks
    ``first``..``last``; ValueError at the first that is missing or is not
    a base entry."""
    bases = []
    for i in range(first, last + 1):
        rc = cert.ranges.get((i, i))
        if rc is None or rc.kind != "base":
            raise ValueError(f"range {(i, i)} is missing or is not a base entry")
        bases.append((rc.factor, rc.shape, rc.eq_index, rc.neq_index))
    return bases


def replay_certificate(cert: BoundCertificate) -> BoundValue:
    """Recompute the bound from the trace's base indices alone: derive the
    trace from the root's recorded base entries by the format's rule (@2:
    the two maximal children; @1: every proper subrange) and return the
    root's value."""
    subranges = _subranges(cert.format)
    if cert.root is None:  # the empty word
        return bv_exact(1)
    first, last = cert.root
    if last < first:
        raise ValueError(f"root {cert.root} spans no blocks")
    return _derive_trace(_base_entries(cert, first, last), first, subranges)[cert.root].value


def _header_field(name: str, make: Callable[[], object]):
    """``make()``; a ValueError or LadderLabError it raises is raised again
    as a ValueError that names the certificate field ``name``."""
    try:
        return make()
    except (ValueError, LadderLabError) as exc:
        raise ValueError(f"the {name} field: {exc}") from exc


def check_certificate(cert: BoundCertificate) -> BoundValue:
    """The bound, if the certificate equals the one built again from its
    header (its rewritten word the change of variables of ``word``, which
    needs ``radius`` and ``num_factors`` unless ``word`` is empty), the blocks
    of that word and the recorded base indices; otherwise ValueError (or
    TypeError, LadderLabError) naming the first range in derivation order, or
    else the first field, that differs."""
    subranges = _subranges(cert.format)
    rewritten = _header_field("rewritten", lambda: parse_word(cert.rewritten))
    if cert.radius is not None and cert.num_factors is not None:
        word = _header_field("word", lambda: parse_word(cert.word))
        # lengths first, so a forged header cannot make a huge template
        t = template_length(cert.radius, cert.num_factors)
        # change_of_variables rejects a radius below 1, then fewer than two
        # factors, then an annotated word
        blame = "radius" if cert.radius < 1 else "num_factors" if cert.num_factors < 2 else "word"
        if len(word) * t != len(rewritten) or render_word(
            _header_field(blame, lambda: change_of_variables(word, cert.radius, cert.num_factors))
        ) != cert.rewritten:
            raise ValueError("the rewritten word is not the word's change of variables")
    decomp = _header_field("rewritten", lambda: block_decompose(rewritten))
    if (cert.radius is None or cert.num_factors is None) and cert.word != "":
        # no rewrite to compare the word with; lemma_bound records the empty word
        raise ValueError("the word field: a word needs radius and num_factors to be checked")
    indices = [(eq, neq) for *_, eq, neq in _base_entries(cert, 0, decomp.ell - 1)]
    header = {name: getattr(cert, name) for name in _HEADER_FIELDS}
    rebuilt = _build_certificate(decomp, indices, subranges, format=cert.format, **header)
    # bound values are hash-consed, so == compares the entries' values as nodes
    for key in [*rebuilt.ranges, *cert.ranges]:
        if cert.ranges.get(key) != rebuilt.ranges.get(key):
            raise ValueError(f"range {key} is not the entry the rules give")
    for f in fields(BoundCertificate):
        if getattr(cert, f.name) != getattr(rebuilt, f.name):
            raise ValueError(f"the {f.name} is not what the rules give")
    return rebuilt.bound


def verify_certificate(cert: BoundCertificate) -> bool:
    """True iff ``check_certificate`` accepts the certificate."""
    try:
        check_certificate(cert)
    except (ValueError, TypeError, LadderLabError):
        return False
    return True


def check_base_indices(cert: BoundCertificate, factors: Sequence[FactorGroup]) -> int:
    """Search every base entry of a certificate that ``check_certificate``
    accepts again with ``base_indices`` over ``factors``, and raise
    ValueError at the first whose recorded indices differ. Returns the
    entries checked."""
    if cert.num_factors is not None and cert.num_factors != len(factors):
        raise ValueError(f"the certificate is for {cert.num_factors} factors, not {len(factors)}")
    if cert.root is None:
        return 0
    searched = base_indices(block_decompose(parse_word(cert.rewritten)), factors)
    for i, found in enumerate(searched):
        rc = cert.ranges[(i, i)]
        if (rc.eq_index, rc.neq_index) != found:
            raise ValueError(
                f"range {(i, i)} records indices ({rc.eq_index}, {rc.neq_index});"
                f" the search gives {found}"
            )
    return cert.ell


def certificate_le(c1: BoundCertificate, c2: BoundCertificate) -> bool | None:
    """Tristate comparison of two certificates' bounds."""
    return le_bound(c1.bound, c2.bound)
