"""Bound comparisons against the committed answer corpus.

``data/comparison_corpus.json`` holds ``le_bound``, ``is_ge_int`` and
``upper_int`` answers over the ``theorem_bound`` bounds of the certificate
corpus's products and words at radii 1-3, and over 2,000 seeded random
values, as ``data/make_comparison_corpus.py`` wrote them. It pins the
comparisons' answers for any change to how they walk a value.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

DATA = Path(__file__).resolve().parent / "data"
CORPUS = json.loads((DATA / "comparison_corpus.json").read_text(encoding="utf-8"))

_spec = importlib.util.spec_from_file_location("make_comparison_corpus", DATA / "make_comparison_corpus.py")
maker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(maker)


def test_corpus_points_are_the_makers():
    assert CORPUS["ge_points"] == [str(n) for n in maker.GE_POINTS]


@pytest.mark.parametrize("name", sorted({e["product"] for e in CORPUS["bounds"]}))
def test_bound_comparisons_match_corpus(name):
    context = maker.product(name)
    for e in CORPUS["bounds"]:
        if e["product"] == name:
            assert maker.bounds_entry(context, e["word"]) == {"le": e["le"], "bounds": e["bounds"]}, e["word"]


def test_random_comparisons_match_corpus():
    digest, rows = maker.random_entries()
    assert digest == CORPUS["random_sha256"]  # the same values were built
    assert len(rows) == len(CORPUS["random"]) == maker.RANDOM_COUNT
    for i, (found, expected) in enumerate(zip(rows, CORPUS["random"])):
        assert found == expected, i
