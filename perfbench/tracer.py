"""In-memory spans around the public calls a benchmark operation makes.

The tracer wraps library functions from the outside: ``install`` rebinds
each wrapped name in every loaded ``ladderlab`` module, so the calls the
library makes internally (``run_verify`` calling ``theorem_bound``, the bound
recursion calling ``max_ladder``) open spans too, and ``uninstall`` puts the
originals back. The library's own files are not changed.

A span is ``[name, start, end, parent index, phase]``. The part of a span's
name before the first dot is its layer. A function that is already open
(a recursive ``sat_min``, say) opens no second span, so spans of one name
never nest and their durations add up to the function's inclusive time.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("groups", "freeproduct", "words", "ladder", "ramsey", "bounds",
          "report", "cli", "bench")

# (module, function, span name) for plain functions.
FUNCTIONS = (
    ("groups", "load_group", "groups.load"),
    ("words", "parse_word", "words.parse"),
    ("words", "change_of_variables", "words.rewrite"),
    ("words", "block_decompose", "words.rewrite"),
    ("ladder", "word_index", "ladder.word_index"),
    ("ramsey", "sat_min", "ramsey.sat_min"),
    ("ramsey", "is_ge_int", "ramsey.is_ge_int"),
    ("ramsey", "le_bound", "ramsey.le_bound"),
    ("bounds", "theorem_bound", "bounds.theorem_bound"),
    ("bounds", "verify_certificate", "bounds.verify_certificate"),
    ("bounds", "replay_certificate", "bounds.replay_certificate"),
    ("report", "run_verify", "report.run_verify"),
    ("cli", "main", "cli.main"),
)

# (module, class, method, span name).
METHODS = (
    ("freeproduct", "FreeProduct", "ball", "freeproduct.ball"),
    ("bounds", "BoundCertificate", "to_json", "bounds.to_json"),
    ("bounds", "BoundCertificate", "from_json", "bounds.from_json"),
    ("report", "VerificationReport", "to_json", "report.to_json"),
)

SPAN_NAMES = tuple(dict.fromkeys(
    [name for *_, name in FUNCTIONS + METHODS] + ["ladder.search"]))

COUNTERS = ("freeproduct.ball_members", "words.ell", "ladder.nodes",
            "ladder.rows", "ladder.pairs_evaluated", "ladder.domain_pairs",
            "bounds.ranges", "bounds.subproduct_refs", "ramsey.bound_nodes")


def _module(name):
    return sys.modules[f"ladderlab.{name}"]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.phase = "setup"
        self._stack: list[int] = []
        self._open: set[str] = set()
        self._restore: list[tuple] = []
        self._formula_sources: dict[int, tuple] = {}
        self._searches: list[tuple] = []

    # -- recording -----------------------------------------------------

    @contextmanager
    def span(self, name):
        record = [name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None, self.phase]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        self._open.add(name)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
            self._open.discard(name)

    def wrap(self, fn, name, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in self._open:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result
        return traced

    # -- installing ----------------------------------------------------

    def install(self) -> None:
        """Wrap every target; ``ladderlab`` and its submodules must already
        be imported, so that every module holding a target name is patched."""
        modules = [m for n, m in sys.modules.items()
                   if n == "ladderlab" or n.startswith("ladderlab.")]
        hooks = {
            "freeproduct.ball": self._count_ball,
            "bounds.theorem_bound": self._count_certificate,
            "bounds.to_json": self._count_pool,
            "report.to_json": self._count_report_pool,
        }
        replacements = {}
        for module, fn_name, span_name in FUNCTIONS:
            original = getattr(_module(module), fn_name)
            replacements[id(original)] = self.wrap(original, span_name, hooks.get(span_name))
        ladder = _module("ladder")
        replacements[id(ladder.max_ladder)] = self._traced_max_ladder(ladder.max_ladder)
        for kind, fn in (("word", ladder.word_formula), ("group", ladder.group_word_formula)):
            replacements[id(fn)] = self._recording_formula(fn, kind)
        for module in modules:
            for key, value in list(vars(module).items()):
                if id(value) in replacements:
                    self._restore.append((module, key, value))
                    setattr(module, key, replacements[id(value)])
        for module, cls_name, method, span_name in METHODS:
            cls = getattr(_module(module), cls_name)
            raw = cls.__dict__[method]
            hook = hooks.get(span_name)
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(raw.__func__, span_name, hook))
            else:
                new = self.wrap(raw, span_name, hook)
            self._restore.append((cls, method, raw))
            setattr(cls, method, new)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- layer-specific wrappers and counters ---------------------------

    def _recording_formula(self, original, kind):
        """Remembers what each built formula evaluates, for the replay."""
        @functools.wraps(original)
        def recording(where, w, negated=False):
            formula = original(where, w, negated)
            # holding the formula keeps its id from being reused
            self._formula_sources[id(formula)] = (formula, kind, where, w)
            return formula
        return recording

    def _traced_max_ladder(self, original):
        """Runs the search on a counting copy of the formula: its predicate is
        called once per distinct (a-row, b-row) pair, which it records so the
        same pairs can be replayed through ``words`` after the operation."""
        signature = inspect.signature(original)
        formula_cls = _module("ladder").Formula

        @functools.wraps(original)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            arguments = bound.arguments
            formula, domain = arguments["formula"], arguments["domain"]
            a_doms = arguments["a_domains"] or [domain] * formula.arity_x
            b_doms = arguments["b_domains"] or [domain] * formula.arity_y
            pairs = []

            def counted(a_row, b_row):
                pairs.append((a_row, b_row))
                return formula.holds(a_row, b_row)

            arguments["formula"] = formula_cls(
                formula.arity_x, formula.arity_y, counted, formula.description)
            with self.span("ladder.search"):
                result = original(*bound.args, **bound.kwargs)
            rows = math.prod(len(d.values) for d in a_doms)
            cols = math.prod(len(d.values) for d in b_doms)
            self.counts["ladder.nodes"] += result.nodes_explored
            self.counts["ladder.rows"] += rows
            self.counts["ladder.pairs_evaluated"] += len(pairs)
            self.counts["ladder.domain_pairs"] += rows * cols
            self._searches.append((self._formula_sources.get(id(formula)), pairs))
            return result
        return traced

    def _count_ball(self, ball):
        self.counts["freeproduct.ball_members"] += len(ball)

    def _count_certificate(self, cert):
        self.counts["words.ell"] += cert.ell
        self.counts["bounds.ranges"] += len(cert.ranges)
        self.counts["bounds.subproduct_refs"] += sum(
            len(rc.subproducts) for rc in cert.ranges.values())

    def _count_pool(self, doc):
        self.counts["ramsey.bound_nodes"] += len(doc["values"])

    def _count_report_pool(self, doc):
        self.counts["ramsey.bound_nodes"] += len(doc["bound_value"]["values"])

    # -- results -------------------------------------------------------

    def replay_evaluate(self) -> tuple[float, int]:
        """Time every recorded search pair again through ``words.evaluate``
        (or ``evaluate_in_group`` for single-factor searches). Call after
        ``uninstall``: this is the words layer's share of the search, which
        a span per pair would distort."""
        words = _module("words")
        factor_element = _module("groups").FactorElement

        def plain(row):
            return [v.elem if isinstance(v, factor_element) else v for v in row]

        calls = 0
        start = time.perf_counter()
        for source, pairs in self._searches:
            if source is None:
                continue
            _, kind, where, w = source
            if kind == "word":
                for a_row, b_row in pairs:
                    words.evaluate(where, w, a_row, b_row)
            else:
                for a_row, b_row in pairs:
                    words.evaluate_in_group(where, w, plain(a_row), plain(b_row))
            calls += len(pairs)
        return time.perf_counter() - start, calls

    def metrics(self, evaluate_s: float, evaluate_calls: int) -> dict:
        """Per-span inclusive times, per-layer self times of the operation
        phase (which add up to the traced operation time), and counters.
        The replayed evaluation time moves from the ladder layer's self time
        to the words layer's."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = {f"{name}_s": 0.0 for name in SPAN_NAMES}
        out.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
        for (name, start, end, _, phase), children in zip(self.spans, covered):
            if name in SPAN_NAMES:
                out[f"{name}_s"] += end - start
            if phase == "op":
                out[f"{name.split('.')[0]}.self_s"] += end - start - children
        out["ladder.self_s"] -= evaluate_s
        out["words.self_s"] += evaluate_s
        out["words.evaluate_s"] = evaluate_s
        out["words.evaluate_calls"] = evaluate_calls
        out["trace.spans"] = len(self.spans)
        out.update({name: self.counts[name] for name in COUNTERS})
        return out

    def span_records(self) -> list[dict]:
        """Spans as dicts; ``parent`` is the ``id`` of the enclosing span."""
        return [{"id": i, "name": name, "start": start, "end": end,
                 "parent": parent, "phase": phase}
                for i, (name, start, end, parent, phase) in enumerate(self.spans)]
