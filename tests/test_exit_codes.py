"""The CLI's exit-code contract under random single mutations of its inputs.

Each example changes one thing in a valid input: it deletes a key or a list
item, gives a value another JSON type, moves an integer by one, or swaps two
list items. ``check-cert`` must then exit 0 (valid), 2 (rejected) or 3 (too
large to walk), and ``verify`` one of 0, 2, 3, 4 and 5; neither may let an
exception out or print a traceback. Inputs past a resource cap (large radii,
long variable lists, certificates with many blocks) must exit 3 with one
``error:`` line.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderlab.cli import main

from conftest import Z2_DOC, Z3_DOC, many_block_certificate

DATA = Path(__file__).parent / "data"
FIXTURES = {
    name: json.loads((DATA / f"certificate_{name}_z2z2_x1y1_r1.json").read_text(encoding="utf-8"))
    for name in ("v1", "v2")
}
RETYPED = [None, True, 1.5, "1", -1, 0, 257, [], {}, [0, 0]]
# words are drawn as token strings: mostly well formed, some not
WORD_TOKENS = ["x1", "y1", "x2", "y2", "x1^-1", "y2^-1", "(", ")", ")^-1", "x1@1", "y0", "^"]


def _paths(node, prefix=()):
    """The path of every key and list item below ``node``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated(draw, doc):
    """``doc`` with one random change."""
    doc = copy.deepcopy(doc)
    paths = list(_paths(doc))
    ints = [p for p in paths if type(reduce(getitem, p, doc)) is int]
    lists = [p for p in paths if isinstance(reduce(getitem, p, doc), list) and len(reduce(getitem, p, doc)) > 1]
    ops = ["delete", "retype"] + ["nudge"] * bool(ints) + ["swap"] * bool(lists)
    op = draw(st.sampled_from(ops))
    path = draw(st.sampled_from({"nudge": ints, "swap": lists}.get(op, paths)))
    parent, key = reduce(getitem, path[:-1], doc), path[-1]
    if op == "delete":
        del parent[key]
    elif op == "retype":
        parent[key] = draw(st.sampled_from(RETYPED))
    elif op == "nudge":
        parent[key] += draw(st.sampled_from([-1, 1]))
    else:
        items = parent[key]
        i, j = draw(st.lists(st.integers(0, len(items) - 1), min_size=2, max_size=2, unique=True))
        items[i], items[j] = items[j], items[i]
    return doc


def run_quietly(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue() + err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("exit_codes")


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_check_cert_exit_codes_under_mutation(workdir, name):
    path = workdir / f"{name}.json"

    @settings(max_examples=100, deadline=None)
    @given(mutated(FIXTURES[name]))
    def check(doc):
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, text = run_quietly(["check-cert", str(path)])
        assert code in (0, 2, 3)
        assert "Traceback" not in text

    check()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 1), mutated(Z2_DOC))
def test_verify_exit_codes_under_spec_mutation(workdir, which, doc):
    paths = [workdir / "g0.json", workdir / "g1.json"]
    for i, p in enumerate(paths):
        p.write_text(json.dumps(doc if i == which else Z2_DOC), encoding="utf-8")
    code, text = run_quietly(["verify", "--word", "x1 y1", "--radius", "1", "--groups", *map(str, paths)])
    assert code in (0, 2, 3, 4, 5)
    assert "Traceback" not in text


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(WORD_TOKENS), max_size=6).map(" ".join))
def test_verify_exit_codes_on_word_strings(workdir, word):
    path = workdir / "z2.json"
    path.write_text(json.dumps(Z2_DOC), encoding="utf-8")
    code, text = run_quietly(["verify", f"--word={word}", "--radius", "1", "--groups", str(path), str(path)])
    assert code in (0, 2, 3, 4, 5)
    assert "Traceback" not in text


def assert_refused(argv) -> None:
    code, text = run_quietly(argv)
    assert code == 3
    assert text.startswith("error: ") and text.count("\n") == 1


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(["ball", "index", "bound", "verify"]), st.data())
def test_large_radii_exit_3(workdir, command, data):
    path = workdir / "z3.json"
    path.write_text(json.dumps(Z3_DOC), encoding="utf-8")
    if command in ("ball", "index"):
        # more than 10^6 ball members from r = 20; past 4,300 digits from r = 14,300
        radius = data.draw(st.integers(20, 16_000))
    else:
        # "x1 y1" has more than 632 blocks from r = 316
        radius = data.draw(st.integers(316, 10**12))
    word = [] if command == "ball" else ["--word", "x1 y1"]
    assert_refused([command, *word, "--radius", str(radius), "--groups", str(path), str(path)])


@settings(max_examples=8, deadline=None)
@given(st.sampled_from(["index", "bound", "verify"]), st.integers(632, 12_000))
def test_long_variable_lists_exit_3(workdir, command, n):
    # 3^n row tuples over a radius-1 ball; 2n + 2 blocks, past the trace cap
    path = workdir / "z2.json"
    path.write_text(json.dumps(Z2_DOC), encoding="utf-8")
    word = " ".join(f"x{i}" for i in range(1, n + 1)) + " y1"
    assert_refused([command, f"--word={word}", "--radius", "1", "--groups", str(path), str(path)])


@settings(max_examples=8, deadline=None)
@given(st.sampled_from([("@1", 58), ("@2", 633)]).flatmap(
    lambda f: st.tuples(st.just(f[0]), st.integers(f[1], 3_000))))
def test_many_block_certificates_exit_3(workdir, forged):
    # the fewest blocks whose trace passes the cap under each format's rule
    fmt, blocks = forged
    path = workdir / "many.json"
    path.write_text(json.dumps(many_block_certificate(blocks, "ladderlab-certificate" + fmt)), encoding="utf-8")
    assert_refused(["check-cert", str(path)])
