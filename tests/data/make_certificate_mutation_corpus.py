"""Write ``certificate_mutation_corpus.json``: what ``check-cert`` makes of
single mutations of valid certificate documents.

The documents are the committed ``@1`` and ``@2`` fixtures and the
``theorem_bound`` certificates of ``CERTIFICATES``, each as the JSON that
``to_json`` writes. From each it draws ``DRAWS_PER_DOCUMENT`` seeded
mutations and keeps the first of each that repeats. A mutation walks down from the document's top: at each object or
list it picks a key or index, and stops there with probability 0.3 or
when the value below is no non-empty object or list. There it either deletes
the key or item, or sets the value to one of ``VALUES``.

Each mutation is recorded with its outcome: accepted, with the start of the
bound ``check_certificate`` returns, or the stage that rejected it
(``from_json`` or ``check_certificate``) with the exception's class and
message. Rows are written one to a line.

Run from the repository root: ``PYTHONPATH=src python
tests/data/make_certificate_mutation_corpus.py [OUT]``. It writes OUT
(default: the committed file).
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from ladderlab import BoundCertificate, FreeProduct, load_group, parse_word, theorem_bound
from ladderlab.bounds import FORMAT_V1, FORMAT_V2, check_certificate

DATA = Path(__file__).resolve().parent
ROOT = DATA.parents[1]
CORPUS = DATA / "certificate_mutation_corpus.json"

FIXTURES = {"@1": "certificate_v1_z2z2_x1y1_r1.json", "@2": "certificate_v2_z2z2_x1y1_r1.json"}
# (product, word, radius); a product names its factors' spec files under
# specs/, joined by "*"
CERTIFICATES = [
    ("z2*z2", "", 1),
    ("z2*z3", "x1 y1 x1^-1 y1^-1", 1),
    ("z3*s3", "x1 y1", 2),
]
DRAWS_PER_DOCUMENT = 3000
SEED = 24
VALUES = (
    None, True, False, 0, 1, 2, 3, -1, 10**20, 1.5,
    "", "1", "x1", "x1 y1", "base", "ramsey", "eq", "neq", "exact", "succ",
    FORMAT_V1, FORMAT_V2,
    [], [0, 0], [0, 1], [1, 0], [0, 0, 0],
    {}, {"cases_per_block": 4, "rule": "product over block coordinates"},
)


def documents() -> dict[str, str]:
    """Each document's name and JSON text."""
    docs = {name: (DATA / file).read_text(encoding="utf-8") for name, file in FIXTURES.items()}
    for name, text, radius in CERTIFICATES:
        factors = [load_group(ROOT / "specs" / f"{spec}.json", index=i)
                   for i, spec in enumerate(name.split("*"))]
        cert = theorem_bound(parse_word(text), radius, FreeProduct(factors).factors)
        docs[f"{name} [{text}] r{radius}"] = json.dumps(cert.to_json())
    return docs


def draw(rng: random.Random, doc) -> dict:
    """One mutation of ``doc``: the path to the key or item, and what is
    done there."""
    path = []
    node = doc
    while True:
        key = rng.choice(list(node)) if isinstance(node, dict) else rng.randrange(len(node))
        path.append(key)
        below = node[key]
        if rng.random() < 0.3 or not isinstance(below, (dict, list)) or not below:
            break
        node = below
    if rng.random() < 0.25:
        return {"path": path, "op": "delete"}
    return {"path": path, "op": "set", "value": rng.choice(VALUES)}


def mutations() -> list[dict]:
    rng = random.Random(SEED)
    rows = []
    for name, text in documents().items():
        doc = json.loads(text)
        seen = set()
        for _ in range(DRAWS_PER_DOCUMENT):
            row = {"document": name, **draw(rng, doc)}
            key = json.dumps(row)
            if key not in seen:
                seen.add(key)
                rows.append(row)
    return rows


def apply(doc, mutation: dict):
    """``doc`` (changed in place) with ``mutation`` applied."""
    *path, last = mutation["path"]
    node = doc
    for key in path:
        node = node[key]
    if mutation["op"] == "delete":
        del node[last]
    else:
        node[last] = json.loads(json.dumps(mutation["value"]))
    return doc


def outcome(doc) -> dict:
    """Whether ``check-cert`` accepts ``doc``, or where and how it rejects it."""
    try:
        cert = BoundCertificate.from_json(doc)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return {"stage": "from_json", "error": type(exc).__name__, "message": str(exc)}
    try:
        bound = check_certificate(cert)
    except Exception as exc:  # noqa: BLE001
        return {"stage": "check_certificate", "error": type(exc).__name__, "message": str(exc)}
    return {"stage": "accepted", "bound": bound.render()[:200]}


def rows() -> list[dict]:
    texts = documents()
    return [{**m, **outcome(apply(json.loads(texts[m["document"]]), m))} for m in mutations()]


def main() -> None:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else CORPUS
    lines = ",\n".join(json.dumps(row) for row in rows())
    out.write_text(f"[\n{lines}\n]\n", encoding="utf-8")


if __name__ == "__main__":
    main()
