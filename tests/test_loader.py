"""The loader against the one it replaced, and the work it does once.

``parse_documents`` parses each label spelling once per call and formats
a location or a default id only where one is used.  The differential
tests feed it and ``oracles.reference_parse_documents`` (the loader as
it was when every question did all of that) the same seeded documents,
each carrying deviations, and compare records, errors and warnings.
"""

import copy
import logging
import math
import random
from collections import Counter
from decimal import Decimal

import pytest

from conftest import REVENUE_DOC, bench_module
from oracles import reference_parse_documents
from tatqa_symbolic import corpus
from tatqa_symbolic.corpus import parse_documents, read_json
from tatqa_symbolic.errors import DatasetValidationError, NumberTooLongError

# ---------------------------------------------------------------------------
# Deviations: each edits one document in place
# ---------------------------------------------------------------------------


def _rows(doc):
    return doc["table"]["table"]


def _set_a_cell(rng, doc, value):
    rows = [row for row in _rows(doc) if isinstance(row, list) and row]
    if rows:
        row = rng.choice(rows)
        row[rng.randrange(len(row))] = value


def _ragged_row(rng, doc):
    row = rng.choice(_rows(doc))
    if isinstance(row, list) and row:
        row.pop()


def _empty_row(rng, doc):
    rows = _rows(doc)
    rows[rng.randrange(len(rows))] = []


def _non_list_row(rng, doc):
    rows = _rows(doc)
    rows[rng.randrange(len(rows))] = rng.choice(["a row", None, {"cells": 1}, 5, ("a", "b")])


def _over_limit_cell(rng, doc):
    _set_a_cell(rng, doc, "1" * (NumberTooLongError.LIMIT + 1))


def _long_text_cell(rng, doc):
    # longer than the digit limit, but no number: it loads
    _set_a_cell(rng, doc, "x" * (NumberTooLongError.LIMIT + 5))


def _odd_cells(rng, doc):
    _set_a_cell(rng, doc, rng.choice([7, Decimal("1.50"), None, True, -0.0]))


def _no_table_rows(rng, doc):
    doc["table"]["table"] = rng.choice([[], [[], []], "rows"])


def _table_uid(rng, doc):
    table = doc["table"]
    choice = rng.choice(["missing", None, 41, "dup"])
    if choice == "missing":
        del table["uid"]
    else:
        table["uid"] = "shared-context" if choice == "dup" else choice


def _no_table(rng, doc):
    if rng.random() < 0.5:
        del doc["table"]
    else:
        doc["table"] = {"uid": "t"}


def _paragraph(rng, doc):
    paragraphs = doc["paragraphs"]
    return rng.choice(paragraphs) if isinstance(paragraphs, list) and paragraphs else None


def _paragraph_uid(rng, doc):
    paragraph = _paragraph(rng, doc)
    if paragraph is not None:
        choice = rng.choice(["missing", None, 3, "dup"])
        if choice == "missing":
            paragraph.pop("uid", None)
        elif choice == "dup":
            paragraph["uid"] = _paragraph(rng, doc).get("uid", "p")
        else:
            paragraph["uid"] = choice


def _paragraph_order(rng, doc):
    paragraph = _paragraph(rng, doc)
    if paragraph is not None:
        choice = rng.choice(["missing", "dup", True, False, Decimal("1.0"), 2.0, "2", " 3 ",
                             "1.5", math.nan, Decimal("NaN"), math.inf, 1.5, None, -4, 10**20])
        if choice == "missing":
            paragraph.pop("order", None)
        elif choice == "dup":
            paragraph["order"] = _paragraph(rng, doc).get("order", 1)
        else:
            paragraph["order"] = choice


def _paragraph_text(rng, doc):
    paragraph = _paragraph(rng, doc)
    if paragraph is not None:
        if rng.random() < 0.5:
            paragraph.pop("text", None)
        else:
            paragraph["text"] = rng.choice([None, 12, ["a"]])


def _few_paragraphs(rng, doc):
    if isinstance(doc["paragraphs"], list):
        del doc["paragraphs"][rng.choice([0, 1]):]


def _bad_paragraphs(rng, doc):
    choice = rng.choice(["missing", "object", "item"])
    if choice == "missing":
        del doc["paragraphs"]
    elif choice == "object":
        doc["paragraphs"] = {"text": "one"}
    elif isinstance(doc["paragraphs"], list):
        doc["paragraphs"].append("a paragraph")


def _question(rng, doc):
    questions = doc["questions"]
    return rng.choice(questions) if isinstance(questions, list) and questions else None


def _question_uid(rng, doc):
    question = _question(rng, doc)
    if question is not None:
        choice = rng.choice(["missing", None, 17, "dup", "shared"])
        if choice == "missing":
            question.pop("uid", None)
        elif choice == "dup":
            question["uid"] = _question(rng, doc).get("uid", "q")
        else:
            # "shared" repeats a uid across documents
            question["uid"] = "shared-question" if choice == "shared" else choice


_LABELS = {
    "answer_type": ["span", "Span", " SPANS ", "multispan", "multi-span", "Multi-Span",
                    "counting", "Count", "arithmetic", "ARITHMETIC "],
    "answer_from": ["table", "Table", "text ", "Table-Text", "table_text", "tabletext"],
    "scale": ["", "-", "none", "None", None, " Million ", "million", "thousand", "Percent",
              "billion"],
}
_BAD_LABELS = {
    "answer_type": ["spam", "", None, ["span"], 3, True],
    "answer_from": ["spreadsheet", None, {"from": "table"}],
    "scale": ["thousands", "mn", ["million"], True, 1, Decimal("1")],
}


def _label(rng, doc):
    question = _question(rng, doc)
    if question is not None:
        field = rng.choice(sorted(_LABELS))
        question[field] = rng.choice(_LABELS[field])


def _bad_label(rng, doc):
    question = _question(rng, doc)
    if question is not None:
        field = rng.choice(sorted(_BAD_LABELS))
        if rng.random() < 0.2:
            question.pop(field, None)
        else:
            question[field] = rng.choice(_BAD_LABELS[field])


def _answer(rng, doc):
    question = _question(rng, doc)
    if question is not None:
        choice = rng.choice(["missing", "text", 42, -7, Decimal("1.25"), Decimal("-0"), True,
                             None, [], ["a", 1, None], ["b"], {"k": 1}, 2.5])
        if choice == "missing":
            question.pop("answer", None)
        else:
            question["answer"] = choice


def _no_derivation(rng, doc):
    question = _question(rng, doc)
    if question is not None:
        question["answer_type"] = rng.choice(["count", "arithmetic", "Counting"])
        choice = rng.choice(["missing", "", None, "   ", 0])
        if choice == "missing":
            question.pop("derivation", None)
        else:
            question["derivation"] = choice


def _question_text(rng, doc):
    question = _question(rng, doc)
    if question is not None:
        if rng.random() < 0.5:
            question.pop("question", None)
        else:
            question["question"] = rng.choice([None, 5, ["what"]])


def _bad_questions(rng, doc):
    choice = rng.choice(["missing", "object", "item"])
    if choice == "missing":
        del doc["questions"]
    elif choice == "object":
        doc["questions"] = {"uid": "q"}
    elif isinstance(doc["questions"], list):
        doc["questions"].insert(rng.randrange(len(doc["questions"]) + 1), ["a question"])


# each loads, with a warning at most; the rest are refused
TOLERATED = [_ragged_row, _empty_row, _long_text_cell, _odd_cells, _table_uid, _paragraph_uid,
             _paragraph_text, _few_paragraphs, _question_uid, _label, _answer, _no_derivation,
             _question_text, _paragraph_order]
REFUSED = [_non_list_row, _over_limit_cell, _no_table_rows, _no_table, _bad_paragraphs,
           _bad_label, _bad_questions]


def deviant_documents(seed: int, n_contexts: int) -> tuple[list, Counter]:
    """Documents of a generated dense corpus, each edited by zero to four
    tolerated deviations and, one time in five, a refused one after them;
    with the count of each deviation applied."""
    gen = bench_module("gen")
    rng = random.Random(f"loader-{seed}")
    docs, _ = gen.dense_corpus(seed, n_contexts)
    applied: Counter = Counter()
    for doc in docs:
        edits = rng.choices(TOLERATED, k=rng.randint(0, 4))
        if rng.random() < 0.2:
            edits.append(rng.choice(REFUSED))  # last, as it may remove what the others edit
        for edit in edits:
            edit(rng, doc)
            applied[edit.__name__] += 1
    if rng.random() < 0.5:
        docs.insert(rng.randrange(len(docs) + 1), "a document")
    return docs, applied


def outcome(parse, docs, strict: bool, caplog) -> tuple:
    """What ``parse`` makes of ``docs``: its records, or its exception's
    type and text, and the warnings it logged, in order."""
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        try:
            dataset = parse(docs, strict)
            result = ("loaded", repr(dataset), dataset)
        except Exception as exc:  # compared by type and text
            result = ("raised", type(exc).__name__, str(exc))
    warnings = [(record.name, record.levelname, record.getMessage())
                for record in caplog.records]
    return result, warnings


# ---------------------------------------------------------------------------
# Differential tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [3, 19, 52])
def test_matches_the_reference_per_document(seed, caplog):
    docs, applied = deviant_documents(seed, 40)
    assert set(applied) >= {f.__name__ for f in TOLERATED}
    kinds: Counter = Counter()
    for doc in docs:
        for strict in (False, True):
            expected = outcome(reference_parse_documents, [doc], strict, caplog)
            assert outcome(parse_documents, [doc], strict, caplog) == expected
            kinds[strict, expected[0][0], bool(expected[1])] += 1
    # every path is taken: loaded with and without warnings, and refused
    assert kinds[False, "loaded", True] and kinds[False, "loaded", False]
    assert kinds[True, "loaded", False] and kinds[False, "raised", False]
    assert kinds[True, "raised", False] > kinds[False, "raised", False]


@pytest.mark.parametrize("seed", [3, 19, 52])
def test_matches_the_reference_across_documents(seed, caplog):
    """One call over many documents: labels parsed in one document are
    reused in the next, and uids repeat across documents."""
    docs, _ = deviant_documents(seed, 40)
    loadable = [doc for doc in docs
                if outcome(reference_parse_documents, [doc], False, caplog)[0][0] == "loaded"]
    assert len(loadable) > len(docs) // 2
    loadable.append(copy.deepcopy(loadable[0]))  # every uid of it again
    for batch in (loadable, docs):
        for strict in (False, True):
            expected = outcome(reference_parse_documents, batch, strict, caplog)
            assert outcome(parse_documents, batch, strict, caplog) == expected
    tolerant = outcome(parse_documents, loadable, False, caplog)
    assert tolerant[0][0] == "loaded"
    assert any("duplicate question uid" in warning for _, _, warning in tolerant[1])


def test_matches_the_reference_on_the_benchmark_corpora(tmp_path, caplog):
    gen = bench_module("gen")
    for name, made in (("dense", gen.dense_corpus(5, 30)), ("sparse", gen.sparse_corpus(5, 60)),
                       ("multispan", gen.multispan_corpus(5, 60))):
        path = tmp_path / f"{name}.json"
        path.write_text(gen.dumps(made[0]), encoding="utf-8")
        raw = read_json(path)
        for strict in (False, True):
            expected = outcome(reference_parse_documents, raw, strict, caplog)
            assert outcome(parse_documents, raw, strict, caplog) == expected


@pytest.mark.parametrize("cells", [
    ("1" * (NumberTooLongError.LIMIT + 1), 10**5000),  # the over-limit text comes first
    (10**5000, "1" * (NumberTooLongError.LIMIT + 1)),  # the int str() cannot print comes first
])
def test_the_first_unreadable_cell_in_row_order_fails(cells, caplog):
    doc = copy.deepcopy(REVENUE_DOC)
    _rows(doc)[1][1], _rows(doc)[2][1] = cells
    for strict in (False, True):
        expected = outcome(reference_parse_documents, [doc], strict, caplog)
        assert expected[0][0] == "raised"
        assert outcome(parse_documents, [doc], strict, caplog) == expected


# ---------------------------------------------------------------------------
# Label parses
# ---------------------------------------------------------------------------


def test_labels_are_parsed_once_per_spelling(tmp_path, monkeypatch):
    gen = bench_module("gen")
    path = tmp_path / "sparse.json"
    path.write_text(gen.dumps(gen.sparse_corpus(13, 200)[0]), encoding="utf-8")
    raw = read_json(path)
    spellings = {(q["answer_type"], q["answer_from"], q["scale"])
                 for doc in raw for q in doc["questions"]}
    n_questions = sum(len(doc["questions"]) for doc in raw)
    assert n_questions > 2 * len(spellings)
    calls = []
    parse_label = corpus._parse_label
    monkeypatch.setattr(corpus, "_parse_label",
                        lambda *args: calls.append(args) or parse_label(*args))
    dataset = parse_documents(raw)
    # one answer_type and one answer_from parse per spelling
    assert len(calls) == 2 * len(spellings)
    assert sum(len(questions) for _, questions in dataset) == n_questions
    # a second call parses them all again: it shares nothing with the first
    parse_documents(raw)
    assert len(calls) == 4 * len(spellings)


def test_a_tolerant_parse_leaves_nothing_for_a_strict_one():
    doc = copy.deepcopy(REVENUE_DOC)
    for question in doc["questions"]:
        if question["answer_type"] == "count":
            question["answer_type"] = "Counting"  # an alias, which strict mode refuses
    tolerant = parse_documents([doc])
    assert any(q.answer_type == "count" for q in tolerant[0][1])
    with pytest.raises(DatasetValidationError, match="unknown answer_type: 'Counting'"):
        parse_documents([doc], strict=True)
