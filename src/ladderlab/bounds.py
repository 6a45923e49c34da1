"""Explicit stability-index bounds: boolean-combination rules, the
alternating-block recursion, and the full change-of-variables pipeline.

Every computed bound comes with a certificate: a range-keyed trace of the
recursion (base indices per single block, subproduct bounds in both
polarities, the mu values, and the Ramsey applications) that can be replayed
independently of the code that produced it.

The recursion's rules live in one function, ``_derive_trace``: from each
block's base indices it derives every range's value, colors, mu and
subproducts. ``lemma_bound`` writes its trace; replay derives it again from
the recorded base entries alone, and the checker requires every recorded
range to be the derived one.

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

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .errors import AnnotationMismatch, LadderLabError
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

FORMAT_V1 = "ladderlab-certificate@1"  # every proper subrange
FORMAT_V2 = "ladderlab-certificate@2"  # the two maximal children


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


# A base-index oracle answers: index of 'block = 1' (negated: '!= 1') over the
# whole factor the block is annotated with.
BaseOracle = Callable[[FactorGroup, GroupWord, bool], int]


class SearchBaseOracle:
    """Default base oracle: brute-force search for finite factors, supplied
    indices for stubs; not-equals indices derived via negation_bound rather
    than a second search."""

    def __init__(self, factors: Sequence[FactorGroup]):
        self.factors = {f.id: f for f in factors}
        self._memo: dict[tuple, int] = {}

    def __call__(self, factor: FactorGroup, block: GroupWord, negated: bool) -> int:
        key = (factor.id, word_shape(block), negated)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if negated:
            value = negation_bound(self(factor, block, False))
        else:
            value = qf_stability_index(factor, block).index
        self._memo[key] = value
        return value


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
            doc.update(
                factor=self.factor,
                shape=self.shape,
                eq_index=self.eq_index,
                neq_index=self.neq_index,
            )
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
            return cls(
                start=start,
                stop=stop,
                kind="base",
                value=value,
                factor=_field(doc, "factor", int),
                shape=_field(doc, "shape", str),
                eq_index=_field(doc, "eq_index", int),
                neq_index=_field(doc, "neq_index", int),
            )
        return cls(
            start=start,
            stop=stop,
            kind=doc["kind"],
            value=value,
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
            "word": self.word,
            "rewritten": self.rewritten,
            "ell": self.ell,
            "radius": self.radius,
            "num_factors": self.num_factors,
            "coloring": {
                "cases_per_block": CASES_PER_BLOCK,
                "rule": "product over block coordinates",
            },
            "root": list(self.root) if self.root is not None else None,
            "ranges": range_docs,
            "values": pool.nodes,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "BoundCertificate":
        """Parse a certificate document of either format; ValueError if the
        format is unknown or a field is missing or has the wrong type."""
        fmt = _field(doc, "format", str)
        if fmt not in _SUBRANGES:
            raise ValueError(f"unknown certificate format {fmt!r}")
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
        return cls(
            bound=_ref(doc, "bound", values),
            word=_field(doc, "word", str),
            rewritten=_field(doc, "rewritten", str),
            ell=_field(doc, "ell", int),
            radius=_field(doc, "radius", int, optional=True),
            num_factors=_field(doc, "num_factors", int, optional=True),
            ranges=ranges,
            root=_pair(doc, "root", optional=True),
            format=fmt,
        )


def _proper_subranges(i: int, j: int) -> list[tuple[int, int]]:
    """Every proper contiguous subrange of blocks i..j, in trace order."""
    return [(a, b) for a in range(i, j + 1) for b in range(a, j + 1) if (a, b) != (i, j)]


def _maximal_children(i: int, j: int) -> list[tuple[int, int]]:
    """The two maximal proper subranges of blocks i..j; every other proper
    subrange lies inside one of them."""
    return [(i, j - 1), (i + 1, j)]


# The subproducts a composite range records, by certificate format.
_SUBRANGES = {FORMAT_V1: _proper_subranges, FORMAT_V2: _maximal_children}


def _derive_trace(
    indices: Sequence[tuple[int, int]],
    first: int,
    subranges: Callable[[int, int], list[tuple[int, int]]],
) -> dict[tuple[int, int], tuple]:
    """The trace the recursion's rules give for blocks ``first``,
    ``first + 1``, ... with base indices ``indices`` (eq, neq): each range
    maps to (value, colors, mu, subproducts), each subproduct (start, stop,
    polarity, value), in the order ``for j: for i from j down to first``.

    A single block's value is the larger of its indices (colors and mu are
    None). A composite range records the subproducts ``subranges`` names,
    each eq then neq (a single block carries both from its indices; a
    composite one is its value, then one more by negation_bound); mu is one
    past their maximum and the value is the Ramsey upper bound with 4^len
    colors (the per-block cases compose into a product coloring)."""
    trace: dict[tuple[int, int], tuple] = {}
    polar: dict[tuple[int, int], tuple[BoundValue, BoundValue]] = {}
    for j, (eq, neq) in enumerate(indices, first):
        trace[(j, j)] = (bv_exact(max(eq, neq)), None, None, ())
        polar[(j, j)] = (bv_exact(eq), bv_exact(neq))
        for i in range(j - 1, first - 1, -1):
            subs = tuple(
                (a, b, pol, v)
                for a, b in subranges(i, j)
                for pol, v in zip(("eq", "neq"), polar[(a, b)])
            )
            mu = bv_succ(bv_max([s[3] for s in subs]))
            colors = CASES_PER_BLOCK ** (j - i + 1)
            value = bv_ramsey(colors, mu)
            trace[(i, j)] = (value, colors, mu, subs)
            polar[(i, j)] = (value, bv_succ(value))
    return trace


def lemma_bound(
    decomp: BlockDecomposition,
    base: BaseOracle,
    factors: Sequence[FactorGroup],
    word_text: str | None = None,
    radius: int | None = None,
) -> BoundCertificate:
    """Bound for an alternating block decomposition: the base oracle's
    indices of every block, in block order, and the trace ``_derive_trace``
    gives for them with each composite range recording its two maximal
    children."""
    if decomp.ell < 1:
        raise ValueError("lemma recursion needs at least one block")
    for a, b in zip(decomp.blocks, decomp.blocks[1:]):
        if a.factor == b.factor:
            raise AnnotationMismatch("adjacent blocks must alternate factors")
    factor_map = {f.id: f for f in factors}

    indices = []
    for i, blk in enumerate(decomp.blocks):
        factor, block = factor_map[blk.factor], decomp.block_word(i)
        indices.append((base(factor, block, False), base(factor, block, True)))
    ranges: dict[tuple[int, int], RangeCert] = {}
    for (i, j), (value, colors, mu, subs) in _derive_trace(indices, 0, _maximal_children).items():
        if i == j:
            eq, neq = indices[i]
            shape = word_shape(decomp.block_word(i))
            rc = RangeCert(i, j, "base", value, decomp.blocks[i].factor, shape, eq, neq)
        else:
            refs = tuple(SubproductRef(*s) for s in subs)
            rc = RangeCert(i, j, "ramsey", value, colors=colors, mu=mu, subproducts=refs)
        ranges[(i, j)] = rc
    root = (0, decomp.ell - 1)
    return BoundCertificate(
        bound=ranges[root].value,
        word=word_text if word_text is not None else "",
        rewritten=render_word(decomp.word),
        ell=decomp.ell,
        radius=radius,
        num_factors=len(factor_map),
        ranges=ranges,
        root=root,
    )


def theorem_bound(
    w: GroupWord, r: int, factors: Sequence[FactorGroup]
) -> BoundCertificate:
    """Full pipeline: change of variables, block decomposition, then the
    alternating-block recursion with searched (or supplied) base indices."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if len(factors) < 2:
        raise ValueError("need at least 2 factors")
    if not w.syllables:
        # the constantly-true formula has index 1: a second ladder row would
        # need a failing pair
        return BoundCertificate(
            bound=bv_exact(1),
            word=render_word(w),
            rewritten="",
            ell=0,
            radius=r,
            num_factors=len(factors),
            ranges={},
            root=None,
        )
    rewritten = change_of_variables(w, r, len(factors))
    decomp = block_decompose(rewritten)
    base = SearchBaseOracle(factors)
    return lemma_bound(
        decomp, base, factors=factors, word_text=render_word(w), radius=r
    )


def _walk_certificate(cert: BoundCertificate, check: bool) -> BoundValue:
    """Derive the trace from the root's base entries by the format's rule
    (@2: the two maximal children; @1: every proper subrange) and return the
    root's value. With ``check``, also require the certificate to be the one
    the rules give - the rewritten word is the change of variables of
    ``word`` (when ``radius`` and ``num_factors`` are recorded), ``ell`` is
    its block count, the root spans all ``ell`` blocks, a base entry records
    its block's factor and shape, every recorded range is the derived entry
    (values compared as objects, as nodes are hash-consed; subproducts in
    the rule's order), there is no other range, and the bound is the root's
    value - and raise ValueError at the first entry that is not."""
    subranges = _SUBRANGES.get(cert.format)
    if subranges is None:
        raise ValueError(f"unknown certificate format {cert.format!r}")
    if check:
        rewritten = parse_word(cert.rewritten)
        if cert.radius is not None and cert.num_factors is not None:
            word = parse_word(cert.word)
            # lengths first, so a forged header cannot make a huge template
            t = template_length(cert.radius, cert.num_factors)
            if len(word) * t != len(rewritten) or render_word(
                change_of_variables(word, cert.radius, cert.num_factors)
            ) != cert.rewritten:
                raise ValueError("the rewritten word is not the word's change of variables")
        decomp = block_decompose(rewritten)
        if decomp.ell != cert.ell:
            raise ValueError(f"the rewritten word does not have {cert.ell} blocks")
    if cert.root is None:  # the empty word
        value = bv_exact(1)
        if check and (cert.ell != 0 or cert.ranges or cert.bound is not value):
            raise ValueError("a certificate without a root must have no blocks and bound 1")
        return value
    first, last = cert.root
    if last < first or (check and (first, last) != (0, cert.ell - 1)):
        raise ValueError(f"root {cert.root} does not span the {cert.ell} blocks")
    indices = []
    for i in range(first, last + 1):
        rc = _recorded(cert, (i, i))
        if check and (
            rc.kind != "base"
            or rc.factor != decomp.blocks[i].factor
            or rc.shape != word_shape(decomp.block_word(i))
        ):
            raise ValueError(f"range {(i, i)} is not the base entry of block {i}")
        indices.append((rc.eq_index, rc.neq_index))
    trace = _derive_trace(indices, first, subranges)
    value = trace[cert.root][0]
    if check:
        for key, entry in trace.items():
            rc = _recorded(cert, key)
            subs = tuple((s.start, s.stop, s.polarity, s.value) for s in rc.subproducts)
            if (key[0] < key[1] and rc.kind != "ramsey") or (rc.value, rc.colors, rc.mu, subs) != entry:
                raise ValueError(f"range {key} is not the entry the rules give")
        if len(cert.ranges) != len(trace):
            raise ValueError("the trace has ranges outside the root")
        if cert.bound is not value:
            raise ValueError("the bound is not the root range's value")
    return value


def _recorded(cert: BoundCertificate, key: tuple[int, int]) -> RangeCert:
    rc = cert.ranges.get(key)
    if rc is None or (rc.start, rc.stop) != key:
        raise ValueError(f"range {key} is missing")
    return rc


def replay_certificate(cert: BoundCertificate) -> BoundValue:
    """Recompute the bound from the trace's base indices alone."""
    return _walk_certificate(cert, check=False)


def check_certificate(cert: BoundCertificate) -> BoundValue:
    """The bound, if the trace follows the bound rules and every recorded
    intermediate, and the bound, is what they give; otherwise ValueError
    (or TypeError, LadderLabError) naming the first entry that is not."""
    return _walk_certificate(cert, check=True)


def verify_certificate(cert: BoundCertificate) -> bool:
    """True iff ``check_certificate`` accepts the certificate."""
    try:
        check_certificate(cert)
    except (ValueError, TypeError, LadderLabError):
        return False
    return True


def check_base_indices(cert: BoundCertificate, factors: Sequence[FactorGroup]) -> int:
    """Re-run ``SearchBaseOracle`` over ``factors`` on every base entry of a
    certificate that ``check_certificate`` accepts, and raise ValueError at
    the first whose recorded indices differ. Returns the entries checked."""
    if cert.num_factors is not None and cert.num_factors != len(factors):
        raise ValueError(f"the certificate is for {cert.num_factors} factors, not {len(factors)}")
    if cert.root is None:
        return 0
    oracle = SearchBaseOracle(factors)
    decomp = block_decompose(parse_word(cert.rewritten))
    for i in range(cert.ell):
        rc = cert.ranges[(i, i)]
        factor = oracle.factors.get(rc.factor)
        if factor is None:
            raise ValueError(f"range {(i, i)} names factor {rc.factor}, which is not given")
        block = decomp.block_word(i)
        found = (oracle(factor, block, False), oracle(factor, block, True))
        if (rc.eq_index, rc.neq_index) != found:
            raise ValueError(
                f"range {(i, i)} records indices ({rc.eq_index}, {rc.neq_index});"
                f" the search gives {found}"
            )
    return cert.ell


def certificate_le(c1: BoundCertificate, c2: BoundCertificate) -> bool | None:
    """Tristate comparison of two certificates' bounds."""
    return le_bound(c1.bound, c2.bound)
