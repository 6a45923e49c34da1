"""Write ``certificate_corpus.json``: expected ``theorem_bound`` certificates.

Covers five free products, eight words (the empty word among them) and radii
1, 2 and 3. Each entry stores the sha256 of the certificate document
(``json.dumps(cert.to_json(), sort_keys=True)``), ``ell``, the first 200
characters of ``bound_text()``, what ``verify_certificate`` says, and the
first 200 characters of the bound the ``@1`` rule (every proper subrange
recorded) replays.

Run from the repository root: ``PYTHONPATH=src python
tests/data/make_certificate_corpus.py [OUT]``. It writes OUT (default: the
committed file).
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

from ladderlab import (
    FreeProduct,
    load_group,
    parse_word,
    replay_certificate,
    theorem_bound,
    verify_certificate,
)
from ladderlab.bounds import FORMAT_V1

ROOT = Path(__file__).resolve().parents[2]
CORPUS = Path(__file__).with_name("certificate_corpus.json")

# a product names its factors' spec files under specs/, joined by "*"
PRODUCTS = ["z2*z2", "z2*z3", "z3*s3", "z2*z2*z2", "z3*z3"]
WORDS = [
    "",
    "x1 y1",
    "x1 y1 x1^-1 y1^-1",
    "x1 y1 x1 y1",
    "x1 x1 y1 x1 y1^-1",
    "x1 y1 x2 y2",
    "x1 x2 y1 y2",
    "x3 y2 x1",
]
RADII = (1, 2, 3)


def product(name: str) -> FreeProduct:
    return FreeProduct(
        [load_group(ROOT / "specs" / f"{spec}.json", index=i)
         for i, spec in enumerate(name.split("*"))]
    )


def entry(context: FreeProduct, text: str, radius: int) -> dict:
    """The recorded answers for one certificate."""
    cert = theorem_bound(parse_word(text), radius, context.factors)
    doc = json.dumps(cert.to_json(), sort_keys=True)
    return {
        "sha256": hashlib.sha256(doc.encode("utf-8")).hexdigest(),
        "ell": cert.ell,
        "bound_text": cert.bound_text()[:200],
        "verified": verify_certificate(cert),
        "v1_replay": replay_certificate(replace(cert, format=FORMAT_V1)).render()[:200],
    }


def main() -> None:
    entries = []
    for name in PRODUCTS:
        context = product(name)
        for text in WORDS:
            for radius in RADII:
                entries.append({"product": name, "word": text, "radius": radius,
                                **entry(context, text, radius)})
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else CORPUS
    out.write_text(json.dumps({"certificates": entries}, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
