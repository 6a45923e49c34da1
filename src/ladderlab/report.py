"""Machine-readable verification reports for the bound-vs-search harness."""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from .bounds import theorem_bound
from .freeproduct import FreeProduct
from .ladder import DEFAULT_CUTOFF, Ladder, SearchDomain, word_index
from .ramsey import SAT_CAP_LIMIT, bound_to_json, bv_exact, sat_min
from .words import GroupWord, render_word

VERDICT_VERIFIED = "VERIFIED"
VERDICT_INCONCLUSIVE = "CUTOFF_INCONCLUSIVE"
VERDICT_VIOLATION = "VIOLATION"

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_RESOURCE = 3
EXIT_INCONCLUSIVE = 4
EXIT_VIOLATION = 5

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "ladderlab verification report",
    "type": "object",
    "required": [
        "config_digest",
        "word",
        "radius",
        "bound",
        "observed_index",
        "cutoff_hit",
        "verdict",
        "timings",
    ],
    "properties": {
        "config_digest": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
        "word": {"type": "string"},
        "radius": {"type": "integer", "minimum": 1},
        "bound": {"type": "string"},
        "bound_value": {"type": "object"},
        "observed_index": {"type": "integer", "minimum": 0},
        "cutoff": {"type": "integer", "minimum": 1},
        "cutoff_hit": {"type": "boolean"},
        "verdict": {
            "enum": ["VERIFIED", "CUTOFF_INCONCLUSIVE", "VIOLATION"],
        },
        "timings": {
            "type": "object",
            "additionalProperties": {"type": "number", "minimum": 0},
        },
        "witness": {
            "type": ["object", "null"],
            "properties": {
                "m": {"type": "integer", "minimum": 0},
                "a_rows": {"type": "array"},
                "b_rows": {"type": "array"},
            },
        },
        "groups": {"type": "array", "items": {"type": "string"}},
    },
    "additionalProperties": True,
}


def config_digest(payload) -> str:
    """Stable content hash of the run inputs."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _render_rows(rows: Sequence[tuple]) -> list[list[str]]:
    return [[v.render() for v in row] for row in rows]


def serialize_witness(witness: Ladder | None) -> dict | None:
    if witness is None:
        return None
    return {
        "m": witness.m,
        "a_rows": _render_rows(witness.a_rows),
        "b_rows": _render_rows(witness.b_rows),
    }


@dataclass(frozen=True)
class VerificationReport:
    config_digest: str
    word: str
    radius: int
    bound: str
    observed_index: int
    cutoff: int
    cutoff_hit: bool
    verdict: str
    timings: Mapping[str, float]
    witness: dict | None
    groups: tuple[str, ...] = ()
    bound_value: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "config_digest": self.config_digest,
            "word": self.word,
            "radius": self.radius,
            "bound": self.bound,
            "bound_value": self.bound_value,
            "observed_index": self.observed_index,
            "cutoff": self.cutoff,
            "cutoff_hit": self.cutoff_hit,
            "verdict": self.verdict,
            "timings": dict(self.timings),
            "witness": self.witness,
            "groups": list(self.groups),
        }

    def exit_code(self) -> int:
        if self.verdict == VERDICT_VERIFIED:
            return EXIT_OK
        if self.verdict == VERDICT_INCONCLUSIVE:
            return EXIT_INCONCLUSIVE
        return EXIT_VIOLATION

    def csv_row(self) -> tuple[list[str], list[str]]:
        header = [
            "word",
            "radius",
            "groups",
            "bound",
            "observed_index",
            "cutoff",
            "cutoff_hit",
            "verdict",
            "config_digest",
        ]
        row = [
            self.word,
            str(self.radius),
            "*".join(self.groups),
            self.bound,
            str(self.observed_index),
            str(self.cutoff),
            str(self.cutoff_hit).lower(),
            self.verdict,
            self.config_digest,
        ]
        return header, row

    def human_table(self) -> str:
        bound = self.bound
        if len(bound) > 200:
            bound = bound[:200] + "…"
        lines = [
            f"word            {self.word or '(empty)'}",
            f"groups          {' * '.join(self.groups)}",
            f"radius          {self.radius}",
            f"bound           {bound}",
            f"observed index  {self.observed_index}",
            f"cutoff          {self.cutoff} (hit: {str(self.cutoff_hit).lower()})",
            f"verdict         {self.verdict}",
            f"config digest   {self.config_digest}",
        ]
        return "\n".join(lines)


def run_verify(
    context: FreeProduct,
    word: GroupWord,
    radius: int,
    cutoff: int = DEFAULT_CUTOFF,
    ball_cap: int | None = None,
    threads: int = 1,
    force_bound: int | None = None,
) -> VerificationReport:
    """Compute the bound, then search ladders with cutoff min(bound, cutoff).

    ``force_bound`` is a fault-injection hook for exercising the VIOLATION
    path; it replaces the certified bound after computation. ``threads`` is
    ignored; it stays only for the benchmark worker's ``threads=1``.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    context.require_finite()
    digest_payload = {
        "groups": [
            {"name": f.name, "order": f.order, "table": f.table}
            for f in context.factors
        ],
        "word": render_word(word),
        "radius": radius,
        "cutoff": cutoff,
        "ball_cap": ball_cap,
        "force_bound": force_bound,
    }
    digest = config_digest(digest_payload)

    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    cert = theorem_bound(word, radius, context.factors)
    if force_bound is not None:
        cert = replace(cert, bound=bv_exact(force_bound), root=None)
    timings["bound"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    cutoff = min(cutoff, SAT_CAP_LIMIT)
    effective_cutoff = max(1, sat_min(cert.bound, cutoff))
    kwargs = {} if ball_cap is None else {"cap": ball_cap}
    ball = context.ball(radius, **kwargs)
    domain = SearchDomain.from_ball(ball)
    result = word_index(
        context,
        word,
        domain,
        cutoff=effective_cutoff,
    )
    timings["search"] = time.perf_counter() - t0

    # index <= effective_cutoff <= SAT_CAP_LIMIT, so sat_min compares exactly;
    # word_index sets cutoff_hit whenever the index reaches the cutoff
    if sat_min(cert.bound, result.index) < result.index:
        verdict = VERDICT_VIOLATION
    elif result.cutoff_hit:
        verdict = VERDICT_INCONCLUSIVE
    else:
        verdict = VERDICT_VERIFIED
    return VerificationReport(
        config_digest=digest,
        word=render_word(word),
        radius=radius,
        bound=cert.bound_text(),
        observed_index=result.index,
        cutoff=effective_cutoff,
        cutoff_hit=result.cutoff_hit,
        verdict=verdict,
        timings=timings,
        witness=serialize_witness(result.witness),
        groups=tuple(f.name for f in context.factors),
        bound_value=bound_to_json(cert.bound),
    )
