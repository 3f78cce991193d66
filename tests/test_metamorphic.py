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

The corpora are the fixture and a ``bench/gen.py`` dense corpus.
``hypothesis`` draws the rewrites, seeded, with a few examples each.
"""

import json
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS_DOCS, bench_module
from tatqa_symbolic.corpus import parse_documents
from tatqa_symbolic.numerics import json_decimal
from tatqa_symbolic.reasoning import PipelineConfig, run_pipeline

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
