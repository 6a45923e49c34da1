"""``theorem_bound`` certificates against the committed answer corpus.

``data/certificate_corpus.json`` holds, for five products, eight words and
radii 1-3, the sha256 of each certificate document, its ell, the start of its
bound text, what ``verify_certificate`` says and the start of the bound the
``@1`` rule replays, as ``data/make_certificate_corpus.py`` wrote them. It pins
the certificate bytes for any change to how certificates are built or checked.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import pytest

from ladderlab import FreeProduct, load_group, parse_word, replay_certificate, theorem_bound, verify_certificate
from ladderlab.bounds import FORMAT_V1

TESTS = Path(__file__).resolve().parent
CORPUS = json.loads((TESTS / "data" / "certificate_corpus.json").read_text(encoding="utf-8"))


def _by_product():
    groups = defaultdict(list)
    for entry in CORPUS["certificates"]:
        groups[entry["product"]].append(entry)
    return [pytest.param(name, entries, id=name) for name, entries in groups.items()]


@pytest.mark.parametrize("name, entries", _by_product())
def test_certificates_match_corpus(name, entries):
    context = FreeProduct(
        [load_group(TESTS.parent / "specs" / f"{spec}.json", index=i)
         for i, spec in enumerate(name.split("*"))]
    )
    for e in entries:
        cert = theorem_bound(parse_word(e["word"]), e["radius"], context.factors)
        doc = json.dumps(cert.to_json(), sort_keys=True)
        found = {
            "sha256": hashlib.sha256(doc.encode("utf-8")).hexdigest(),
            "ell": cert.ell,
            "bound_text": cert.bound_text()[:200],
            "verified": verify_certificate(cert),
            "v1_replay": replay_certificate(replace(cert, format=FORMAT_V1)).render()[:200],
        }
        assert found == {key: e[key] for key in found}, (name, e["word"], e["radius"])
