"""Write ``word_index_corpus.json``: expected ``word_index`` answers.

Covers five free products, eight words, radii 1 and 2, cutoffs 1, 2, 3 and 8
and both polarities. Each entry stores the index, the witness (as
``serialize_witness`` renders it) and ``cutoff_hit``; ``nodes_explored`` is
left out, since it counts the walk and not the answer. An entry that takes
longer than ``SLOW_SECONDS`` when written is marked ``slow``, and runs only under
``pytest -m slow``. A query still running after ``LIMIT_SECONDS`` is
stopped and listed under ``left_out`` instead, with the same query at every
larger cutoff, which walks at least as far.

Run from the repository root: ``PYTHONPATH=src python
tests/data/make_word_index_corpus.py [OUT]``. It prints one line per query,
with its ``nodes_explored`` and time, and writes OUT (default: the committed
file).
"""

from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

from ladderlab import FreeProduct, SearchDomain, load_group, parse_word, word_index
from ladderlab.report import serialize_witness

ROOT = Path(__file__).resolve().parents[2]
CORPUS = Path(__file__).with_name("word_index_corpus.json")

# a product names its factors' spec files under specs/, joined by "*"
PRODUCTS = ["z2*z2", "z2*z3", "z3*s3", "z2*z2*z2", "z3*z3"]
WORDS = [
    "x1 y1",
    "x1 y1 x1^-1 y1^-1",
    "x1 y1 x1 y1",
    "x1 x1 y1 x1 y1^-1",
    "x1 y1 x2 y2",
    "x1 x2 y1 y2",
    "x2 y1",
    "x3 y2 x1",
]
RADII = (1, 2)
CUTOFFS = (1, 2, 3, 8)
SLOW_SECONDS = 0.05
LIMIT_SECONDS = 120


def _stop(signum, frame):
    raise TimeoutError


def product(name: str) -> FreeProduct:
    return FreeProduct(
        [load_group(ROOT / "specs" / f"{spec}.json", index=i)
         for i, spec in enumerate(name.split("*"))]
    )


def main() -> None:
    signal.signal(signal.SIGALRM, _stop)
    entries, left_out = [], []
    for name in PRODUCTS:
        context = product(name)
        for radius in RADII:
            domain = SearchDomain.from_ball(context.ball(radius))
            for text in WORDS:
                word = parse_word(text)
                for negated in (False, True):
                    stopped = False
                    for cutoff in CUTOFFS:
                        query = {"product": name, "word": text, "radius": radius,
                                 "negated": negated, "cutoff": cutoff}
                        if stopped:
                            left_out.append(query)
                            continue
                        start = time.perf_counter()
                        signal.alarm(LIMIT_SECONDS)
                        try:
                            result = word_index(context, word, domain, cutoff=cutoff,
                                                negated=negated)
                        except TimeoutError:
                            print(f"left out after {LIMIT_SECONDS} s: {query}", flush=True)
                            left_out.append(query)
                            stopped = True
                            continue
                        finally:
                            signal.alarm(0)
                        seconds = time.perf_counter() - start
                        entries.append({
                            **query,
                            "index": result.index, "cutoff_hit": result.cutoff_hit,
                            "witness": serialize_witness(result.witness),
                            "slow": seconds > SLOW_SECONDS,
                        })
                        print(f"{name} r={radius} {text!r} neg={negated} "
                              f"cutoff={cutoff}: index {result.index}, "
                              f"nodes {result.nodes_explored} ({seconds:.2f} s)",
                              flush=True)
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else CORPUS
    doc = {"limit_seconds": LIMIT_SECONDS, "left_out": left_out, "queries": entries}
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
