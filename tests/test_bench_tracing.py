"""The benchmark's trace hooks, checked against the package they trace.

``bench/tracing.py`` names package functions by module and qualified
name, and its profile hook reads some of their locals and arguments.
This module reads that file by path and runs it without writing
anything under ``bench/`` or putting it on ``sys.path``, so a renamed
hook target, or a change to what the hook reads (the ``question``
argument's ``question_id``, the ``tags`` units' ``probability``, the
``threshold``), fails here as well as in a traced benchmark run.  So
does a change to what its counters count (no ``parse_number`` call on
load, and one per cell text that a value lookup reads first in its
context) or to how its traced validate job calls the package
(``schema_deviations`` with a path).
"""

import types
from fractions import Fraction
from pathlib import Path

import pytest

import tatqa_symbolic
from oracles import reference_cells
from tatqa_symbolic import evidence
from tatqa_symbolic.corpus import load_dataset
from tatqa_symbolic.reasoning import PipelineConfig, answer_question
from tatqa_symbolic.validation import schema_deviations

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_hook_target_resolves(tracing):
    hooks, missing = tracing.resolve_hooks(tatqa_symbolic)
    assert missing == []
    assert sorted(target for target, _ in hooks.values()) == sorted(tracing.HOOKS)


@pytest.mark.parametrize(
    "config",
    [
        PipelineConfig(),
        PipelineConfig(tagger="lexical", operator="keyword", order="positional",
                       scale="heuristic", threshold=0.05),
    ],
    ids=["oracle", "lexical"],
)
def test_hooked_answer_is_traced(tracing, corpus, config):
    context, questions = corpus[0]
    [question] = [q for q in questions if q.question_id == "q-rev-diff"]
    components = config.build()
    tags = components[0].tag(question, context)
    positive = sum(1 for unit in tags.units if unit.probability > config.threshold)

    tracer = tracing.Tracer(tracing.resolve_hooks(tatqa_symbolic)[0])
    with tracer.hooked():
        prediction = answer_question(question, context, *components, threshold=config.threshold)

    assert tracer.calls["reasoning:answer_question"] == 1
    assert tracer.calls["evidence:decode_evidence"] == 1
    assert tracer.stack == []
    [answer] = [span for span in tracer.spans if span[0] == "reasoning.answer"]
    assert answer[4] == "q-rev-diff"
    assert {"evidence.tag", "evidence.decode", "reasoning.operator"} <= {
        span[0] for span in tracer.spans
    }
    assert positive > 0
    assert tracer.positive_units == positive
    assert tracer.candidates == len(prediction.trace.candidates) > 0


def test_cells_are_parsed_once_on_first_read(tracing, corpus_path):
    """Loading parses no cell; a value lookup parses only cells listed
    under the value's digit key, and a cell text is parsed at most once
    in its context, however many lookups read it."""
    tracer = tracing.Tracer(tracing.resolve_hooks(tatqa_symbolic)[0])
    with tracer.hooked():
        dataset = load_dataset(corpus_path)
    assert tracer.calls["numerics:parse_number"] == 0
    n_cells = n_parsed = 0
    for context, _ in dataset:
        index = evidence._ContextIndex(context)
        texts = context.table.texts
        cells = reference_cells(context.table)
        values = {cell.numeric for cell in cells if cell.numeric is not None}
        probes = sorted(values | {-v for v in values} | {v * 10 for v in values} | {Fraction(1, 3)})
        for _ in range(2):  # the second round finds every text it reads parsed
            for value in probes:
                for loose in (False, True):
                    before, calls = set(index.numbers), tracer.calls["numerics:parse_number"]
                    with tracer.hooked():
                        evidence._find_in_table(index, evidence._EvidenceItem("", value), loose)
                    parsed = set(index.numbers) - before
                    assert tracer.calls["numerics:parse_number"] - calls == len(parsed)
                    keyed = index.cells_by_digits.get(evidence._value_key(value), ())
                    assert parsed <= {texts[row][col] for row, col in keyed}
        n_cells += len(cells)
        n_parsed += len(index.numbers)
    assert tracer.calls["numerics:parse_number"] == n_parsed
    assert 0 < n_parsed < n_cells


def test_schema_deviations_takes_a_path(corpus_path):
    assert schema_deviations(corpus_path) == {
        "missing": [],
        "unexpected": ["$[].questions[].order"],
    }
