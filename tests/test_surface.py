"""Guards on the package's surface: no unused imports, and the library entry
points that the benchmark under ``perfbench/`` calls, which this suite does not run."""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import pytest

from ladderlab import groups, ladder, report, words

SRC = Path(__file__).resolve().parent.parent / "src" / "ladderlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Imported names that no ``Name`` node reads. A quoted annotation is
    not read, which is fine under ``from __future__ import annotations``."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_guard_sees_an_unused_name():
    assert unused_imports("import os\nfrom x import a, b\nprint(a)\n") == [
        "os (line 1)", "b (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_benchmark_entry_points():
    """What ``perfbench/worker.py`` and ``perfbench/tracer.py`` call. This
    changes together with the benchmark change that drops their
    ``threads=1``; then ``threads`` can leave ``run_verify`` and
    ``word_index``."""
    for fn in (report.run_verify, ladder.word_index):
        assert inspect.signature(fn).parameters["threads"].default == 1
    assert {"formula", "domain", "a_domains", "b_domains"} <= set(
        inspect.signature(ladder.max_ladder).parameters)
    assert "threads" not in inspect.signature(ladder.max_ladder).parameters
    assert callable(ladder.group_word_formula)
    assert callable(words.evaluate_in_group)
    assert groups.FactorElement(1, 2).elem == 2
