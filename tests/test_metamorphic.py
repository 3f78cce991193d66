"""Metamorphic relations of the pipeline.

Each relation rewrites the dataset documents in a way that must not
change an answer: shuffling a context's paragraph list (their ``order``
fields kept), renaming paragraph uids, giving all paragraphs of a context
one uid, shuffling the contexts, shuffling
the questions of each context, and answering one question alone, without
the other questions of its context.  Under both configurations, every
prediction's value, scale, operator and note must stay the same.  The
per-context index and the derivation memo are one-slot caches keyed on
identity, and these relations change what they see first, last and in
between.

Three more relations rewrite numbers and rows without changing a value:
thousands separators removed from every cell, each parenthesised
negative cell ``(x)`` written ``-x`` with the gold span answers rewritten
the same way, and, under all oracle, a table's body rows permuted with
its header rows kept.  For these a numeric answer's value and scale, the
operator and the question's (EM, F1) against the rewritten gold must stay
the same, and so must each question's ``validate`` status and whether its
evidence was located.  A span answer may change its text with its cell.

The corpora are the fixture and a ``bench/gen.py`` dense corpus.
``hypothesis`` draws the random rewrites, seeded, with a few examples
each.
"""

import json
import re
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS_DOCS, bench_module
from tatqa_symbolic.corpus import AnswerType, parse_documents
from tatqa_symbolic.evaluation import evaluate
from tatqa_symbolic.numerics import json_decimal
from tatqa_symbolic.reasoning import PipelineConfig, run_pipeline
from tatqa_symbolic.validation import validate_dataset

CONFIGS = {
    "oracle": PipelineConfig(),
    "lexical": PipelineConfig(tagger="lexical", operator="keyword", order="positional",
                              scale="heuristic", threshold=0.05),
}


@cache
def documents() -> tuple:
    """The fixture and a dense corpus of 8 contexts, decoded as
    ``corpus.read_json`` decodes a file."""
    gen = bench_module("gen")
    text = json.dumps(CORPUS_DOCS + gen.dense_corpus(29, 8)[0])
    return tuple(json.loads(text, parse_float=json_decimal))


def answers(docs, config_name: str) -> dict:
    predictions = run_pipeline(parse_documents(list(docs)), CONFIGS[config_name])
    return {
        qid: (p.value, p.scale, p.trace.operator, p.trace.note)
        for qid, p in predictions.items()
    }


@cache
def original_answers(config_name: str) -> dict:
    return answers(documents(), config_name)


def shuffled_paragraphs(docs, rng):
    return [{**doc, "paragraphs": rng.sample(doc["paragraphs"], len(doc["paragraphs"]))}
            for doc in docs]


def renamed_paragraphs(docs, rng):
    renamed = []
    for doc in docs:
        names: dict = {}
        paragraphs = [
            {**p, "uid": names.setdefault(p["uid"], f"{rng.randrange(10**6)}-{len(names)}")}
            for p in doc["paragraphs"]
        ]
        renamed.append({**doc, "paragraphs": paragraphs})
    return renamed


def shared_paragraph_uid(docs, rng):
    """Every paragraph of a context under one uid, which the loader only
    warns about: the pipeline names a paragraph by its place."""
    shared = []
    for doc in docs:
        uid = f"{rng.randrange(10**6)}"
        shared.append({**doc, "paragraphs": [{**p, "uid": uid} for p in doc["paragraphs"]]})
    return shared


def shuffled_contexts(docs, rng):
    return rng.sample(docs, len(docs))


def shuffled_questions(docs, rng):
    return [{**doc, "questions": rng.sample(doc["questions"], len(doc["questions"]))}
            for doc in docs]


def one_question_alone(docs, rng):
    doc = rng.choice(docs)
    return [{**doc, "questions": [rng.choice(doc["questions"])]}]


RELATIONS = [shuffled_paragraphs, renamed_paragraphs, shared_paragraph_uid, shuffled_contexts,
             shuffled_questions, one_question_alone]


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("relation", RELATIONS, ids=lambda relation: relation.__name__)
@settings(max_examples=8, deadline=None, derandomize=True)
@given(rng=st.randoms(use_true_random=False))
def test_answers_are_unchanged(relation, config_name, rng):
    expected = original_answers(config_name)
    got = answers(relation(list(documents()), rng), config_name)
    assert got and got == {qid: expected[qid] for qid in got}


def values(docs, config_name: str) -> dict:
    """Per question: the answer's value and scale when it is a number (its
    scale alone otherwise), the operator, (EM, F1), the ``validate``
    status, and whether the evidence was located."""
    dataset = parse_documents(list(docs))
    predictions = run_pipeline(dataset, CONFIGS[config_name])
    scored = evaluate({qid: (p.value, p.scale) for qid, p in predictions.items()}, dataset)
    scores = {qid: (em, f1) for qid, em, f1 in scored.questions}
    report = validate_dataset(dataset)
    statuses = {check.question_id: check.status for check in report.checks}
    unlocatable = {qid for qid, _ in report.unlocatable}
    return {
        qid: (p.value if isinstance(p.value, (int, Fraction)) else None, p.scale,
              p.trace.operator, scores[qid], statuses.get(qid), qid in unlocatable)
        for qid, p in predictions.items()
    }


@cache
def original_values(config_name: str) -> dict:
    return values(documents(), config_name)


def rewrite_cells(docs, rewrite):
    return [{**doc, "table": {**doc["table"],
                              "table": [[rewrite(text) for text in row]
                                        for row in doc["table"]["table"]]}}
            for doc in docs]


# a comma between digits with a group of three after it
_SEPARATOR_RE = re.compile(r"(?<=\d),(?=\d{3}(?!\d))")


def without_separators(docs):
    return rewrite_cells(docs, lambda text: _SEPARATOR_RE.sub("", text))


# a whole text in parentheses that is a number in every other respect;
# read by pattern, not by the parser under test
_PARENTHESISED_RE = re.compile(r"(\s*)\((\$?\d[\d,]*(?:\.\d+)?%?)\)(\s*)")


def _minus(text: str) -> str:
    match = _PARENTHESISED_RE.fullmatch(text)
    return text if match is None else f"{match[1]}-{match[2]}{match[3]}"


def minus_negatives(docs):
    """``(x)`` cells as ``-x``, and span answers rewritten the same way."""
    rewritten = []
    for doc in rewrite_cells(docs, _minus):
        questions = []
        for question in doc["questions"]:
            answer = question["answer"]
            if question["answer_type"] in (AnswerType.SPAN, AnswerType.SPANS):
                if isinstance(answer, list):
                    answer = [_minus(span) if isinstance(span, str) else span
                              for span in answer]
                elif isinstance(answer, str):
                    answer = _minus(answer)
            questions.append({**question, "answer": answer})
        rewritten.append({**doc, "questions": questions})
    return rewritten


def _n_header_rows(rows) -> int:
    """The first row and the caption rows under it, whose cells but the
    first are blank."""
    n = 1
    while n < len(rows) and not any(text.strip() for text in rows[n][1:]):
        n += 1
    return n


def permuted_body_rows(docs, rng):
    permuted = []
    for doc in docs:
        rows = doc["table"]["table"]
        n = _n_header_rows(rows)
        rows = rows[:n] + rng.sample(rows[n:], len(rows) - n)
        permuted.append({**doc, "table": {**doc["table"], "table": rows}})
    return permuted


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("relation", [without_separators, minus_negatives],
                         ids=lambda relation: relation.__name__)
def test_values_survive_number_rewrites(relation, config_name):
    rewritten = relation(list(documents()))
    assert rewritten != list(documents())
    assert values(rewritten, config_name) == original_values(config_name)


@settings(max_examples=6, deadline=None, derandomize=True)
@given(rng=st.randoms(use_true_random=False))
def test_values_survive_permuted_body_rows_under_all_oracle(rng):
    assert values(permuted_body_rows(list(documents()), rng), "oracle") == original_values("oracle")
