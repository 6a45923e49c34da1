"""``word_index`` against the committed answer corpus.

``data/word_index_corpus.json`` holds the index, witness and ``cutoff_hit``
of each query, as ``data/make_word_index_corpus.py`` wrote them. The queries
that took seconds there are marked ``slow`` and run under ``pytest -m slow``;
the rest are grouped by product, radius and word.
"""

from __future__ import annotations

import json
from collections import defaultdict
from functools import lru_cache
from pathlib import Path

import pytest

from ladderlab import FreeProduct, SearchDomain, load_group, parse_word, word_index
from ladderlab.report import serialize_witness

TESTS = Path(__file__).resolve().parent
CORPUS = json.loads((TESTS / "data" / "word_index_corpus.json").read_text(encoding="utf-8"))


@lru_cache(maxsize=None)
def ball_search(name: str, radius: int) -> tuple[FreeProduct, SearchDomain]:
    context = FreeProduct(
        [load_group(TESTS.parent / "specs" / f"{spec}.json", index=i)
         for i, spec in enumerate(name.split("*"))]
    )
    return context, SearchDomain.from_ball(context.ball(radius))


def _cases():
    groups = defaultdict(list)
    cases = []
    for q in CORPUS["queries"]:
        key = f"{q['product']} r={q['radius']} {q['word']}"
        if q["slow"]:
            op = "!=" if q["negated"] else "="
            cases.append(pytest.param([q], id=f"{key} {op} cutoff={q['cutoff']}",
                                      marks=pytest.mark.slow))
        else:
            groups[key].append(q)
    return [pytest.param(qs, id=key) for key, qs in groups.items()] + cases


@pytest.mark.parametrize("queries", _cases())
def test_word_index_matches_corpus(queries):
    for q in queries:
        context, domain = ball_search(q["product"], q["radius"])
        result = word_index(context, parse_word(q["word"]), domain,
                            cutoff=q["cutoff"], negated=q["negated"])
        found = (result.index, serialize_witness(result.witness), result.cutoff_hit)
        assert found == (q["index"], q["witness"], q["cutoff_hit"]), q
