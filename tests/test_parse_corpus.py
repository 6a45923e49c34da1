"""``parse_word`` against the committed answer corpus.

``data/parse_corpus.json`` holds the outcome of ``parse_word`` on about 3,000
seeded random strings and on nested-parenthesis and nested-inverse samples,
as ``data/make_parse_corpus.py`` wrote them: the word's rendering and arities,
or the error's type, message and position. It pins the parser's answers for
any change to how it reads the DSL.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
CORPUS = json.loads((DATA / "parse_corpus.json").read_text(encoding="utf-8"))

_spec = importlib.util.spec_from_file_location("make_parse_corpus", DATA / "make_parse_corpus.py")
maker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(maker)


def test_corpus_texts_are_the_makers():
    assert [row["text"] for row in CORPUS] == maker.texts()


def test_parse_outcomes_match_corpus():
    for row in CORPUS:
        assert maker.outcome(row["text"]) == row, row["text"]
