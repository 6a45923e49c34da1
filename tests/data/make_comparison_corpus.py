"""Write ``comparison_corpus.json``: expected answers of the bound comparisons.

For each product and word of ``make_certificate_corpus.py`` it records, over
the ``theorem_bound`` bounds at radii 1, 2 and 3:

* ``le_bound`` between every two of them, in both directions;
* ``is_ge_int`` of each at every n in ``GE_POINTS``;
* ``upper_int`` of each, as None or [bit length, value mod 2^61 - 1].

It records the same three answers for ``RANDOM_COUNT`` seeded random values
built from ``bv_exact``, ``bv_succ``, ``bv_max`` and ``bv_ramsey``, each
compared with the value drawn before it, and one sha256 over the values'
pooled documents, so a check can tell the values were built again alike.
Rows are written one to a line.

Run from the repository root: ``PYTHONPATH=src python
tests/data/make_comparison_corpus.py [OUT]``. It writes OUT (default: the
committed file).
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from make_certificate_corpus import PRODUCTS, RADII, WORDS, product  # noqa: E402

from ladderlab import is_ge_int, le_bound, parse_word, theorem_bound  # noqa: E402
from ladderlab.ramsey import BExact, bound_to_json, bv_exact, bv_max, bv_ramsey, bv_succ, upper_int  # noqa: E402

CORPUS = Path(__file__).with_name("comparison_corpus.json")

GE_POINTS = (2, 8, 20_000, 20_001, 10**6, 10**30, 10**300)
RANDOM_COUNT = 2000
RANDOM_SEED = 19
MERSENNE_61 = 2**61 - 1


def answers(v) -> dict:
    """``is_ge_int`` at every point of ``GE_POINTS`` and ``upper_int``."""
    u = upper_int(v)
    return {
        "ge": [is_ge_int(v, n) for n in GE_POINTS],
        "upper": None if u is None else [u.bit_length(), u % MERSENNE_61],
    }


def bounds_entry(context, text: str) -> dict:
    bounds = [theorem_bound(parse_word(text), r, context.factors).bound for r in RADII]
    pairs = [(r, b, s, c) for r, b in zip(RADII, bounds) for s, c in zip(RADII, bounds) if r != s]
    return {
        "le": [[r, s, le_bound(b, c)] for r, b, s, c in pairs],
        "bounds": [answers(b) for b in bounds],
    }


def random_values(count: int = RANDOM_COUNT, seed: int = RANDOM_SEED) -> list:
    """Values drawn from earlier ones. Ramsey targets skip exact values from
    5 to 10^30: for those, materializing R(colors, target) or the multinomial
    ``upper_int`` builds can take a second or more each. Two seeds are Ramsey
    numbers of small targets kept lazy, whose ``is_ge_int`` far above the
    saturation cap is undecided."""
    rng = random.Random(seed)
    pool = [bv_exact(n) for n in (0, 1, 2, 3, 4, 10**30)]
    pool += [bv_ramsey(64, bv_exact(6)), bv_ramsey(16, bv_exact(9))]
    targets = list(pool)
    values = []
    for _ in range(count):
        op = rng.randrange(4)
        if op == 0:
            v = bv_exact(rng.choice([rng.randrange(6), rng.randrange(10**30, 10**40)]))
        elif op == 1:
            v = bv_succ(rng.choice(pool))
        elif op == 2:
            v = bv_max(rng.sample(pool, rng.randint(1, 3)))
        else:
            v = bv_ramsey(rng.choice((1, 2, 4, 16, 64)), rng.choice(targets))
        pool.append(v)
        if not isinstance(v, BExact) or not 5 <= v.value < 10**30:
            targets.append(v)
        values.append(v)
    return values


def random_entries() -> tuple[str, list]:
    """The sha256 of the random values' pooled documents, one per line, and
    per value [le_bound(v, previous), le_bound(previous, v), ge, upper]."""
    digest = hashlib.sha256()
    rows = []
    previous = bv_exact(0)
    for v in random_values():
        digest.update(json.dumps(bound_to_json(v), sort_keys=True).encode("utf-8") + b"\n")
        found = answers(v)
        rows.append([le_bound(v, previous), le_bound(previous, v), found["ge"], found["upper"]])
        previous = v
    return digest.hexdigest(), rows


def _rows(rows: list) -> str:
    return "[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]"


def main() -> None:
    entries = [{"product": name, "word": text, **bounds_entry(product(name), text)}
               for name in PRODUCTS for text in WORDS]
    digest, rows = random_entries()
    fields = {"ge_points": json.dumps([str(n) for n in GE_POINTS]), "bounds": _rows(entries),
              "random_sha256": json.dumps(digest), "random": _rows(rows)}
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else CORPUS
    out.write_text("{\n" + ",\n".join(f"{json.dumps(k)}: {v}" for k, v in fields.items()) + "\n}\n",
                   encoding="utf-8")


if __name__ == "__main__":
    main()
