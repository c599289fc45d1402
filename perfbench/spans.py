"""Spans around calls into ``wiring``'s public functions, from outside.

:class:`Tracer` replaces each traced function, in every ``wiring`` module
that holds a reference to it, with a wrapper that records a span (name,
start, end, parent span, phase) and reads counts from the arguments and the
return value.  Spans are kept in memory; :meth:`Tracer.write` writes them
out when the run ends.  A span's self time is its duration minus the time
its child spans cover.  Only spans opened while a phase is active are
recorded, so the untimed correctness checks leave no trace.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


def _evaluate_counts(args, kwargs, result):
    return {
        "relations.evaluate.calls": 1,
        "relations.in_tuples": sum(len(r) for r in args[1]),
        "relations.out_tuples": len(result),
    }


def _fixed_point_counts(args, kwargs, result):
    return {
        "recursion.rounds": result.iterations,
        "recursion.trace_tuples": sum(len(r) for r in result.trace),
    }


def _suite_counts(args, kwargs, result):
    reports = result if isinstance(result, list) else [result]
    return {"laws.cases": sum(r.cases for r in reports)}


# (module, attribute, span name, counts read from (args, kwargs, result)).
# ``Relation`` is traced through ``__init__``; its count reads ``self``.
LAYERS = (
    ("wiring.cli", "run_cli", "cli.run_cli", None),
    ("wiring.dsl", "parse_script", "dsl.parse_script",
     lambda a, k, r: {"dsl.parse_script.calls": 1, "dsl.decls": len(r.decls)}),
    ("wiring.csvio", "load_csv_relation", "csvio.load_csv_relation",
     lambda a, k, r: {"csvio.rows_read": len(r)}),
    ("wiring.csvio", "write_relation_csv", "csvio.write_relation_csv",
     lambda a, k, r: {"csvio.rows_written": len(a[0])}),
    ("wiring.query", "compile_query", "query.compile_query",
     lambda a, k, r: {"query.cables": len(r.diagram.diagram.cables)}),
    ("wiring.relations", "evaluate", "relations.evaluate", _evaluate_counts),
    ("wiring.relations", "Relation.__init__", "relations.Relation",
     lambda a, k, r: {"relations.Relation.tuples": len(a[0].tuples)}),
    ("wiring.recursion", "build_setup", "recursion.build_setup", None),
    ("wiring.recursion", "fixed_point", "recursion.fixed_point", _fixed_point_counts),
    ("wiring.stars", "compose", "stars.compose", None),
    ("wiring.stars", "canonicalize", "stars.canonicalize", None),
    ("wiring.typed", "typed_compose", "typed.typed_compose", None),
    ("wiring.partitions", "evaluate", "partitions.evaluate", None),
    ("wiring.closed", "apply_hom", "closed.apply_hom", None),
    ("wiring.laws", "check_operad_laws", "laws.check_operad_laws", _suite_counts),
    ("wiring.laws", "check_pushout_oracle", "laws.check_pushout_oracle", _suite_counts),
    ("wiring.laws", "check_algebra_naturality", "laws.check_algebra_naturality", _suite_counts),
    ("wiring.laws", "check_prop_witnesses", "laws.check_prop_witnesses", _suite_counts),
    ("wiring.dot", "emit_dot", "dot.emit_dot", None),
)

SPAN_NAMES = tuple(name for _m, _a, name, _c in LAYERS)
COUNT_NAMES = (
    "dsl.parse_script.calls", "dsl.decls", "csvio.rows_read", "csvio.rows_written",
    "query.cables", "relations.evaluate.calls", "relations.in_tuples",
    "relations.out_tuples", "relations.Relation.tuples", "recursion.rounds",
    "recursion.trace_tuples", "laws.cases",
)
OP = "op"  # the benchmark's own span around one operation


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, phase]
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.phase: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in :data:`LAYERS` wherever ``wiring`` refers to it."""
        for module_name, attr, name, counts in LAYERS:
            module = sys.modules[module_name]
            if attr == "Relation.__init__":
                cls = module.Relation
                self._patch(cls, "__init__", self._wrap(cls.__init__, name, counts))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, counts)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "wiring" or mod_name.startswith("wiring."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner, key, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _wrap(self, func, name, counts):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if tracer.phase is None:
                return func(*args, **kwargs)
            index = tracer._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(index)
            if counts is not None:
                tracer._count(counts(args, kwargs, result))
            return result

        return wrapper

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.phase])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _count(self, values: dict[str, int]) -> None:
        bucket = self.counts[self.phase]
        for key, value in values.items():
            bucket[key] += value

    def begin(self, phase: str) -> int:
        """Start recording under ``phase`` and open a root span."""
        self.phase = phase
        return self._open(OP)

    def end(self, index: int) -> None:
        self._close(index)
        self.phase = None

    # -- results ------------------------------------------------------------

    def self_times(self, phase: str) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, ph in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, ph) in enumerate(self.spans):
            if ph == phase:
                totals[name] += (end - start) - child[i]
        return totals

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index,name,start_s,end_s,parent,phase\n")
            for i, (name, start, end, parent, phase) in enumerate(self.spans):
                handle.write(f"{i},{name},{start:.9f},{end:.9f},{parent},{phase}\n")
