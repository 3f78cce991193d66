"""Spans and call counts for the benchmark's traced run.

Spans come from two places, both in the benchmark's own files:

- ``Tracer.span`` wraps each call the traced job makes into a layer;
- a profile hook attached to the code objects of named public functions
  opens a span when such a function is entered and closes it when it
  returns, and counts the calls.  The hook sees every call in the
  process, so the traced run is slower than the untraced one; the ratio
  is reported as ``trace_overhead_ratio``.

Spans are kept in memory and written out when the run ends.  A layer's
self time is its spans' duration minus the part their child spans cover.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

# Hook targets: "module:qualified.name" -> span name, or None.  Calls to
# every target are counted; targets with a span name are also timed.
HOOKS = {
    "reasoning:answer_question": "reasoning.answer",
    "evidence:OracleTagger.tag": "evidence.tag",
    "evidence:LexicalTagger.tag": "evidence.tag",
    "evidence:build_supervision": "evidence.supervision",
    "evidence:decode_evidence": "evidence.decode",
    "reasoning:OracleOperator.predict": "reasoning.operator",
    "reasoning:KeywordOperator.predict": "reasoning.operator",
    "reasoning:OracleOrder.decide": "reasoning.order",
    "reasoning:PositionalOrder.decide": "reasoning.order",
    "reasoning:execute_operator": "reasoning.execute",
    "reasoning:OracleScale.predict": "reasoning.scale",
    "reasoning:HeuristicScale.predict": "reasoning.scale",
    "evaluation:align_spans_f1": "evaluation.align",
    "numerics:parse_number": None,
    "numerics:extract_numbers": None,
    "derivation:parse_derivation": None,
    "evidence:context_units": None,
}


def resolve_hooks(package) -> tuple[dict, list[str]]:
    """Map code objects to (target name, span name or None), and list
    the targets that were not found.  A missing target would make its
    metrics read 0, so the caller counts it as a failure."""
    resolved, missing = {}, []
    for target, span_name in HOOKS.items():
        module_name, qualname = target.split(":")
        obj = importlib.import_module(f"{package.__name__}.{module_name}")
        try:
            for part in qualname.split("."):
                obj = getattr(obj, part)
            resolved[obj.__code__] = (target, span_name)
        except AttributeError:
            missing.append(target)
    return resolved, missing


class Tracer:
    """Spans as lists [name, start_ns, end_ns, parent index, question id]."""

    def __init__(self, hooks: dict):
        self.hooks = hooks
        self.spans: list[list] = []
        self.stack: list[tuple[object, int]] = []  # (frame or None, span index)
        self.calls: Counter = Counter()
        self.none_returns: Counter = Counter()
        self.candidates = 0
        self.positive_units = 0

    def _open(self, name: str, frame, question_id=None) -> None:
        parent = self.stack[-1][1] if self.stack else -1
        self.stack.append((frame, len(self.spans)))
        self.spans.append([name, time.perf_counter_ns(), 0, parent, question_id])

    def _close(self) -> None:
        now = time.perf_counter_ns()
        _, index = self.stack.pop()
        self.spans[index][2] = now

    @contextmanager
    def span(self, name: str):
        self._open(name, None)
        try:
            yield
        finally:
            self._close()

    def _profile(self, frame, event, arg) -> None:
        if event == "call":
            hook = self.hooks.get(frame.f_code)
            if hook is None:
                return
            target, span_name = hook
            self.calls[target] += 1
            if span_name is None:
                return
            question_id = None
            if span_name == "reasoning.answer":
                question_id = frame.f_locals["question"].question_id
            elif span_name == "evidence.decode":
                local = frame.f_locals
                threshold = local["threshold"]
                self.positive_units += sum(
                    1 for unit in local["tags"].units if unit.probability > threshold
                )
            self._open(span_name, frame, question_id)
        elif event == "return":
            hook = self.hooks.get(frame.f_code)
            if hook is None:
                return
            target, span_name = hook
            if arg is None:
                # a profile hook sees None when the function raised
                self.none_returns[target] += 1
            if span_name is None:
                return
            if self.stack and self.stack[-1][0] is frame:
                self._close()
                if span_name == "evidence.decode" and arg is not None:
                    self.candidates += len(arg)

    @contextmanager
    def hooked(self):
        sys.setprofile(self._profile)
        try:
            yield
        finally:
            sys.setprofile(None)

    def self_times_ns(self) -> Counter:
        """Total self time per span name."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: Counter = Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - child[index]
        return totals

    def durations_ns(self, name: str) -> list[int]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, question_id in self.spans:
                record = {"name": name, "start_ns": start, "end_ns": end, "parent": parent}
                if question_id is not None:
                    record["question_id"] = question_id
                handle.write(json.dumps(record) + "\n")
