"""Shared synthetic corpus in the release JSON format.

Three hybrid contexts exercise every operator class, both order flags,
all five scales' cue styles, duplicate evidence, unlocatable evidence,
and a zero-divisor derivation.  Tests that need gold labels hand-derive
them from this data; keep values and layout stable.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

from tatqa_symbolic.corpus import (
    AnswerSource,
    AnswerType,
    HybridContext,
    Paragraph,
    QuestionRecord,
    Table,
    load_dataset,
)
from tatqa_symbolic.numerics import Scale

REVENUE_DOC = {
    "table": {
        "uid": "ctx-revenue",
        "table": [
            ["", "2019", "2018", "2017"],
            ["Revenue (US$ Million)", "", "", ""],
            ["Server products and cloud services", "32,622", "26,129", "21,649"],
            ["Gaming", "11,386", "10,353", "9,051"],
            ["Search advertising", "7,628", "7,012", "6,219"],
            ["Enterprise Services", "6,124", "5,846", "5,542"],
            ["Devices", "6,095", "5,134", "5,062"],
            ["Total revenue", "125,843", "110,360", "96,571"],
        ],
    },
    "paragraphs": [
        {
            "uid": "rev-p1",
            "order": 1,
            "text": (
                "Our commercial cloud revenue was $38.1 billion in fiscal year "
                "2019, driven primarily by subscription growth across offerings."
            ),
        },
        {
            "uid": "rev-p2",
            "order": 2,
            "text": (
                "Revenue from devices decreased, while revenue from enterprise "
                "services increased from $5,846 million to $6,124 million."
            ),
        },
    ],
    "questions": [
        {
            "uid": "q-rev-span",
            "order": 1,
            "question": "Which offering had the highest revenue in 2019?",
            "answer": ["Server products and cloud services"],
            "derivation": "",
            "answer_type": "span",
            "answer_from": "table",
            "scale": "",
        },
        {
            "uid": "q-rev-count",
            "order": 2,
            "question": "How many offerings generated less than $6,200 million in revenue in 2018?",
            "answer": 2,
            "derivation": "device ## enterprise services",
            "answer_type": "count",
            "answer_from": "table",
            "scale": "",
        },
        {
            "uid": "q-rev-diff",
            "order": 3,
            "question": "How much of the total revenue in 2018 did not come from devices?",
            "answer": 105226,
            "derivation": "110,360 - 5,134",
            "answer_type": "arithmetic",
            "answer_from": "table",
            "scale": "million",
        },
        {
            "uid": "q-rev-ratio",
            "order": 4,
            "question": "What was the percentage change in gaming revenue from 2018 to 2019?",
            "answer": 9.98,
            "derivation": "(11,386 - 10,353)/10,353",
            "answer_type": "arithmetic",
            "answer_from": "table",
            "scale": "percent",
        },
        {
            "uid": "q-rev-div",
            "order": 5,
            "question": "How much did the commercial cloud revenue account for as a proportion of total revenue in 2019?",
            "answer": 30.28,
            "derivation": "38,100/125,843",
            "answer_type": "arithmetic",
            "answer_from": "table-text",
            "scale": "percent",
        },
        {
            "uid": "q-rev-spantext",
            "order": 6,
            "question": "What primarily drove the commercial cloud revenue in fiscal year 2019?",
            "answer": ["subscription growth across offerings"],
            "derivation": "",
            "answer_type": "span",
            "answer_from": "text",
            "scale": "",
        },
    ],
}

EXPENSES_DOC = {
    "table": {
        "uid": "ctx-expenses",
        "table": [
            ["", "2019", "2018"],
            ["Operating expenses ($'000)", "", ""],
            ["Investor relations", "375", "2,032"],
            ["Restructuring charges", "(1,033)", "(1,200)"],
            ["Consultants", "245,386", "105,639"],
            ["Total operating expenses", "19,133,139", "17,966,331"],
            ["Pre-tax loss margin", "39%", "20%"],
        ],
    },
    "paragraphs": [
        {
            "uid": "exp-p1",
            "order": 1,
            "text": (
                "Investor relations costs were 375 thousand in 2019, compared "
                "with 2,032 thousand in 2018."
            ),
        },
        {
            "uid": "exp-p2",
            "order": 2,
            "text": (
                "The decline reflects lower spending on consultants and reduced "
                "programme activity."
            ),
        },
    ],
    "questions": [
        {
            "uid": "q-exp-diff",
            "order": 1,
            "question": "What was the change in investor relations costs from 2018 to 2019?",
            "answer": -1657,
            "derivation": "375 - 2,032",
            "answer_type": "arithmetic",
            "answer_from": "table",
            "scale": "thousand",
        },
        {
            "uid": "q-exp-pct",
            "order": 2,
            "question": "What was the change in the pre-tax loss margin from 2018 to 2019?",
            "answer": 19,
            "derivation": "39% - 20%",
            "answer_type": "arithmetic",
            "answer_from": "table",
            "scale": "percent",
        },
        {
            "uid": "q-exp-neg",
            "order": 3,
            "question": "What were the restructuring charges in 2019?",
            "answer": ["(1,033)"],
            "derivation": "",
            "answer_type": "span",
            "answer_from": "table",
            "scale": "thousand",
        },
        {
            "uid": "q-exp-avg",
            "order": 4,
            "question": "What was the average of investor relations costs in 2018 and 2019?",
            "answer": 1203.5,
            "derivation": "(375 + 2,032)/2",
            "answer_type": "arithmetic",
            "answer_from": "table",
            "scale": "thousand",
        },
        {
            "uid": "q-exp-sum",
            "order": 5,
            "question": "What were the combined investor relations costs in 2018 and 2019?",
            "answer": 2407,
            "derivation": "375 + 2,032",
            "answer_type": "arithmetic",
            "answer_from": "table",
            "scale": "thousand",
        },
        {
            "uid": "q-exp-other",
            "order": 6,
            "question": "What was the proportion of investor relations and consultants costs over total operating expenses in 2019?",
            "answer": 1.83,
            "derivation": "(105,639 + 245,386)/19,133,139",
            "answer_type": "arithmetic",
            "answer_from": "table",
            "scale": "percent",
        },
        {
            "uid": "q-exp-spans",
            "order": 7,
            "question": "Which expense lines are reported above the total?",
            "answer": ["Investor relations", "Restructuring charges", "Consultants"],
            "derivation": "",
            "answer_type": "multi-span",
            "answer_from": "table",
            "scale": "",
        },
        {
            "uid": "q-exp-zero",
            "order": 8,
            "question": "What is the ratio of investor relations costs to a zero base?",
            "answer": 0,
            "derivation": "375/0",
            "answer_type": "arithmetic",
            "answer_from": "table",
            "scale": "",
        },
    ],
}

TEXT_DOC = {
    "table": {
        "uid": "ctx-text",
        "table": [
            ["", "2019", "2018"],
            ["Headcount", "5,200", "4,800"],
            ["Offices", "12", "11"],
        ],
    },
    "paragraphs": [
        {
            "uid": "txt-p1",
            "order": 1,
            "text": (
                "Product revenue increased from $10,353 million to $11,386 "
                "million driven by cloud adoption in fiscal 2019."
            ),
        },
        {
            "uid": "txt-p2",
            "order": 2,
            "text": (
                "The company operates in Singapore, also in Germany and in "
                "Japan, with headquarters located in Singapore."
            ),
        },
    ],
    "questions": [
        {
            "uid": "q-text-arith",
            "order": 1,
            "question": "What was the increase in product revenue in fiscal 2019?",
            "answer": 1033,
            "derivation": "11,386 - 10,353",
            "answer_type": "arithmetic",
            "answer_from": "text",
            "scale": "million",
        },
        {
            "uid": "q-text-spans",
            "order": 2,
            "question": "In which countries does the company operate?",
            "answer": ["Singapore", "Germany", "Japan"],
            "derivation": "",
            "answer_type": "multi-span",
            "answer_from": "text",
            "scale": "",
        },
        {
            "uid": "q-text-span",
            "order": 3,
            "question": "Where is the company headquartered?",
            "answer": ["Singapore"],
            "derivation": "",
            "answer_type": "span",
            "answer_from": "text",
            "scale": "",
        },
    ],
}

CORPUS_DOCS = [REVENUE_DOC, EXPENSES_DOC, TEXT_DOC]

BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_module(name: str) -> types.ModuleType:
    """``bench/<name>.py`` run as a module that is not registered.

    The benchmark's files import each other by bare name, so ``bench/``
    is on ``sys.path``, and the module in ``sys.modules``, while the file
    runs.  Both are then put back as they were; the module keeps what it
    imported in its own namespace.
    """
    path = BENCH / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    module.__file__ = str(path)
    saved_path, saved_modules = list(sys.path), dict(sys.modules)
    sys.path.insert(0, str(BENCH))
    sys.modules[module.__name__] = module  # dataclasses look their module up
    try:
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    finally:
        sys.path[:] = saved_path
        for name in sys.modules.keys() - saved_modules.keys():
            del sys.modules[name]
        sys.modules.update(saved_modules)
    return module


def word_inputs(question=(), table=(), paragraphs=()):
    """A question and a context built from word lists: ``question`` is a
    list of words, ``table`` a list of rows, each a list of cells, each a
    list of words (``[]`` for an empty cell), and ``paragraphs`` a list of
    (uid, words) pairs.  Words are joined by single spaces, so each word
    is one unit of the input sequence; a cell's number is parsed when the
    table's numbers are first read, as for a loaded table."""
    context = HybridContext(
        context_id="ctx-words",
        table=Table(tuple(tuple(" ".join(words) for words in row) for row in table)),
        paragraphs=tuple(Paragraph(uid, order, " ".join(words))
                         for order, (uid, words) in enumerate(paragraphs, 1)),
    )
    record = QuestionRecord(question_id="q-words", text=" ".join(question), answer="",
                            answer_type=AnswerType.SPAN, answer_source=AnswerSource.TEXT,
                            gold_scale=Scale.NONE)
    return record, context


@pytest.fixture(scope="session")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "synthetic.json"
    path.write_text(json.dumps(CORPUS_DOCS), encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def corpus(corpus_path):
    return load_dataset(corpus_path)


@pytest.fixture(scope="session")
def contexts(corpus):
    return {context.context_id: context for context, _ in corpus}


@pytest.fixture(scope="session")
def questions(corpus):
    return {
        question.question_id: (context, question)
        for context, question_list in corpus
        for question in question_list
    }
