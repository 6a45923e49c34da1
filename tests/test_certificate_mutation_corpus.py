"""``check-cert``'s accepted set against the committed mutation corpus.

``data/certificate_mutation_corpus.json`` holds some 3,500 seeded single
mutations of the ``@1``/``@2`` fixtures and of three ``theorem_bound``
certificates, as ``data/make_certificate_mutation_corpus.py`` wrote them,
each with its outcome: accepted with its bound, or the stage
(``from_json`` or ``check_certificate``), exception class and message that
rejected it. It pins which documents the checker accepts, and every
rejection message, for any change to how certificates are read or checked.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
CORPUS = json.loads((DATA / "certificate_mutation_corpus.json").read_text(encoding="utf-8"))

_spec = importlib.util.spec_from_file_location(
    "make_certificate_mutation_corpus", DATA / "make_certificate_mutation_corpus.py")
maker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(maker)

_MUTATION_KEYS = ("document", "path", "op", "value")


def test_corpus_mutations_are_the_makers():
    recorded = [{k: row[k] for k in _MUTATION_KEYS if k in row} for row in CORPUS]
    assert recorded == maker.mutations()


def test_unmutated_documents_are_accepted():
    for name, text in maker.documents().items():
        assert maker.outcome(json.loads(text))["stage"] == "accepted", name


def test_mutation_outcomes_match_corpus():
    texts = maker.documents()
    for row in CORPUS:
        found = maker.outcome(maker.apply(json.loads(texts[row["document"]]), row))
        assert found == {k: v for k, v in row.items() if k not in _MUTATION_KEYS}, row
