"""Guards on the package's surface: no unused imports, and the library entry
points that the benchmark under ``perfbench/`` calls, which this suite does not run."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import ladderlab
from ladderlab import groups, ladder, report

SRC = Path(__file__).resolve().parent.parent / "src" / "ladderlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PERFBENCH = SRC.parent.parent / "perfbench"


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


def load_by_path(path: Path):
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def library_names(source: str) -> set[str]:
    """Dotted ``ladderlab`` names the source reads: what it imports from the
    package, and every attribute chain on a name bound by ``import ladderlab
    as lab``, by ``from ladderlab import m`` or by ``m = _module("m")``."""
    tree = ast.parse(source)

    def module_call(node) -> str | None:
        """``ladderlab.m`` for the call ``_module("m")``."""
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_module"
                and isinstance(node.args[0], ast.Constant)):
            return f"ladderlab.{node.args[0].value}"
        return None

    bound: dict[str, str] = {}
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "ladderlab":
                    bound[alias.asname or "ladderlab"] = alias.name if alias.asname else "ladderlab"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ladderlab":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                names.add(f"{node.module}.{alias.name}")
        elif isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name) and module_call(node.value):
            bound[node.targets[0].id] = module_call(node.value)

    def dotted(node) -> str | None:
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute) and (base := dotted(node.value)):
            return f"{base}.{node.attr}"
        return module_call(node)

    names.update(name for node in ast.walk(tree) if isinstance(node, ast.Attribute) and (name := dotted(node)))
    return names


def test_benchmark_entry_points():
    """Every library name that ``perfbench/tracer.py`` wraps and that
    ``perfbench/worker.py`` and the tracer read, so that a rename fails here
    and not only in a traced benchmark run. ``threads`` stays on
    ``run_verify`` and ``word_index`` while the worker passes ``threads=1``."""
    tracer = load_by_path(PERFBENCH / "tracer.py")
    for module, name, _ in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"ladderlab.{module}"), name)), (module, name)
    for module, cls, method, _ in tracer.METHODS:
        assert method in vars(getattr(importlib.import_module(f"ladderlab.{module}"), cls)), (cls, method)
    names = set().union(*(library_names((PERFBENCH / f).read_text(encoding="utf-8"))
                          for f in ("worker.py", "tracer.py")))
    assert {"ladderlab.parse_word", "ladderlab.ladder.max_ladder", "ladderlab.words.evaluate_in_group"} <= names
    for name in sorted(names):
        value = ladderlab
        for part in name.split(".")[1:]:
            assert hasattr(value, part), name
            value = getattr(value, part)
    for fn in (report.run_verify, ladder.word_index):
        assert inspect.signature(fn).parameters["threads"].default == 1
    assert {"formula", "domain", "a_domains", "b_domains"} <= set(
        inspect.signature(ladder.max_ladder).parameters)
    assert "threads" not in inspect.signature(ladder.max_ladder).parameters
    assert groups.FactorElement(1, 2).elem == 2
