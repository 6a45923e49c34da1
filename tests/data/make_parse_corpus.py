"""Write ``parse_corpus.json``: expected outcomes of ``parse_word``.

It holds ``RANDOM_COUNT`` seeded random strings drawn from ``TOKENS``, whole
variables and inverse markers so that many strings parse, and from ``CHARS``:
the DSL's characters ``x y @ ^ - ( )``, ASCII digits, the Arabic-Indic digit
one, space, tab, newline and no-break space. To these it adds nested-parenthesis and
nested-inverse samples, some left unbalanced. Digits that are not decimal
digits (such as ``²``) are left out: they are a parse error with a position.

Each string is recorded with the word's rendering and arities, or with the
error's type, message and position. Rows are written one to a line.

Run from the repository root: ``PYTHONPATH=src python
tests/data/make_parse_corpus.py [OUT]``. It writes OUT (default: the
committed file).
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from ladderlab import parse_word

CORPUS = Path(__file__).with_name("parse_corpus.json")

RANDOM_COUNT = 3000
RANDOM_SEED = 20
NESTED_DEPTHS = (1, 2, 3, 7, 40)
CHARS = (*"xy@^-()", *"0123456789", "\u0661", " ", "\t", "\n", "\u00a0")
TOKENS = ("x1", "y1", "x2", "y3", "x12", "y0", "x1@0", "y2@1", "@1", "^-1", "(", ")^-1", " ")


def random_text(rng: random.Random) -> str:
    """Up to 12 pieces: half the strings from whole tokens alone, so that
    many parse, and half from tokens and single characters."""
    pieces = rng.choice((TOKENS, TOKENS + CHARS))
    return "".join(rng.choice(pieces) for _ in range(rng.randint(0, 12)))


def nested_texts(rng: random.Random) -> list[str]:
    """Each depth of ``NESTED_DEPTHS`` around a random word: plain groups,
    inverted groups, and both with one parenthesis too many or too few."""
    texts = []
    for depth in NESTED_DEPTHS:
        inner = random_text(rng)
        inverted = inner
        for _ in range(depth):
            inverted = f"({inverted})^-1"
        texts += ["(" * depth + inner + ")" * depth, inverted,
                  "(" * (depth + 1) + inner + ")" * depth, inverted + ")"]
    return texts


def texts() -> list[str]:
    rng = random.Random(RANDOM_SEED)
    return [random_text(rng) for _ in range(RANDOM_COUNT)] + nested_texts(rng)


def outcome(text: str) -> dict:
    """The rendering and arities of ``parse_word(text)``, or its error."""
    try:
        w = parse_word(text)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return {"text": text, "error": type(exc).__name__, "message": str(exc),
                "position": getattr(exc, "position", None)}
    return {"text": text, "render": w.render(), "arity": [w.arity_x, w.arity_y]}


def main() -> None:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else CORPUS
    rows = ",\n".join(json.dumps(outcome(t)) for t in texts())
    out.write_text(f"[\n{rows}\n]\n", encoding="utf-8")


if __name__ == "__main__":
    main()
