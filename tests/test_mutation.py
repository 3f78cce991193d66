"""Mutation gate of the command line.

Seeded mutations of the fixture corpus and of a predictions file: a
field deleted, retyped or blanked, a table made ragged or empty, an id
duplicated, a 5,000-digit number planted, and text planted inside a
question, cell, paragraph, answer or derivation string.  Each mutated
file goes through the commands that read it, in process.  Every call
must exit 0 or 1, let no exception escape ``main`` (which turns
``PipelineError`` into exit 1), print at most one ``error:`` line and no
traceback, and leave the cyclic collector as it found it: enabled or
not as before, with nothing frozen.

``hypothesis`` draws the mutations, seeded, with a few examples each,
so the gate adds seconds to the suite.

The gate also bounds the time that the text readers take on long
strings of each family that has made a pattern backtrack: runs of
spaces between optional tokens, digits and separators, repeated words.
"""

import contextlib
import gc
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS_DOCS
from tatqa_symbolic.cli import main

BIG_DIGITS = "9" * 5000
# a JSON string that ``dumps`` writes as a bare 5,000-digit literal;
# ``json.dumps`` cannot write an int that long itself
_BIG_LITERAL = "\x00big-literal"
OTHER_VALUES = [None, True, 0, 2.5, "x", "", [], {}, [["x"]], {"x": 1}]


def dumps(obj) -> str:
    return json.dumps(obj).replace(json.dumps(_BIG_LITERAL), BIG_DIGITS)


def fields(node):
    """Every (container, key) pair below ``node``: dict keys and list
    indexes, in document order."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return
    for key, value in items:
        yield node, key
        yield from fields(value)


def deleted(obj, rng) -> str:
    container, key = rng.choice(list(fields(obj)))
    del container[key]
    return dumps(obj)


def retyped(obj, rng) -> str:
    container, key = rng.choice(list(fields(obj)))
    old = container[key]
    container[key] = rng.choice([v for v in OTHER_VALUES if type(v) is not type(old)])
    return dumps(obj)


def blanked(obj, rng) -> str:
    container, key = rng.choice(list(fields(obj)))
    old = container[key]
    container[key] = None if old is None else type(old)()
    return dumps(obj)


def big_number(obj, rng) -> str:
    """A string field gets the digits as a word; any other field becomes
    the bare literal."""
    container, key = rng.choice(list(fields(obj)))
    old = container[key]
    if isinstance(old, str):
        words = old.split()
        words.insert(rng.randrange(len(words) + 1), BIG_DIGITS)
        container[key] = " ".join(words)
    else:
        container[key] = _BIG_LITERAL
    return dumps(obj)


def ragged_table(docs, rng) -> str:
    grid = rng.choice(docs)["table"]["table"]
    row = rng.choice(grid)
    if rng.random() < 0.5:
        row.pop()
    else:
        row.append("1,000")
    return dumps(docs)


def empty_table(docs, rng) -> str:
    doc = rng.choice(docs)
    doc["table"]["table"] = rng.choice([[], [[]], [[] for _ in doc["table"]["table"]]])
    return dumps(docs)


def duplicated_ids(docs, rng) -> str:
    """A question, paragraph or table uid copied from another, or a
    whole context repeated."""
    doc = rng.choice(docs)
    kind = rng.choice(["question", "paragraph", "table", "context"])
    if kind == "context":
        docs.insert(rng.randrange(len(docs) + 1), json.loads(json.dumps(doc)))
    elif kind == "table":
        rng.choice(docs)["table"]["uid"] = doc["table"]["uid"]
    else:
        key = "questions" if kind == "question" else "paragraphs"
        source = rng.choice(doc[key])
        rng.choice(rng.choice(docs)[key])["uid"] = source["uid"]
    return dumps(docs)


def duplicated_prediction(predictions, rng) -> str:
    """One question id twice in the top-level object."""
    pairs = list(predictions.items())
    pairs.insert(rng.randrange(len(pairs) + 1), rng.choice(pairs))
    return "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pairs) + "}"


# Text of each family that has tripped a reader: runs of spaces, an
# opening parenthesis, currency signs, digits other than ASCII, the
# minus sign U+2212, NBSP, invisible and control characters, and digit
# runs at and past the 4,300-digit limit
PLANTED_TEXTS = {
    "whitespace": [" " * 300, " \t\n" * 100, "\u3000" * 10, "5" + " " * 300 + "%"],
    "parenthesis": ["(", "( " * 100, ")(", "(" + " " * 300],
    "currency": ["$", "€ ", "£¥", "$ " * 100, "$" + " " * 300 + "5"],
    "non-ascii-digits": ["٣٤٥", "१२३.४", "１２", "٥" * 300],
    "minus": ["−", "−5", "(−", "− " * 100],
    "nbsp": ["\u00a0", "5\u00a0000", "\u00a0" * 300, "(\u00a0" * 100],
    "invisible": ["\u200b", "\u200d\u2060" * 100, "\x00", "\x01\x1f\x7f", "\ufeff"],
    "digit-runs": ["9" * 300, "1," * 300, "1" * 4300, "1" * 4301],
}


def text_fields(docs):
    """(container, key) of every question, cell, paragraph, answer and
    derivation string; a numeric answer counts by its text."""
    for doc in docs:
        for row in doc["table"]["table"]:
            yield from ((row, col) for col in range(len(row)))
        yield from ((paragraph, "text") for paragraph in doc["paragraphs"])
        for question in doc["questions"]:
            yield question, "question"
            yield question, "derivation"
            answer = question["answer"]
            if isinstance(answer, list):
                yield from ((answer, i) for i in range(len(answer)))
            else:
                yield question, "answer"


def planted_text(family):
    def planted(docs, rng) -> str:
        """A text of ``family`` replaces a string, or is inserted into it."""
        container, key = rng.choice(list(text_fields(docs)))
        text, piece = str(container[key]), rng.choice(PLANTED_TEXTS[family])
        at = rng.randrange(len(text) + 1)
        container[key] = rng.choice([piece, text[:at] + piece + text[at:]])
        return dumps(docs)

    planted.__name__ = f"planted_{family}"
    return planted


DATASET_MUTATIONS = [deleted, retyped, blanked, big_number, ragged_table, empty_table,
                     duplicated_ids, *map(planted_text, PLANTED_TEXTS)]
PREDICTION_MUTATIONS = [deleted, retyped, blanked, big_number, duplicated_prediction]

LEXICAL = ("--tagger", "lexical", "--operator", "keyword", "--order", "positional",
           "--scale", "heuristic", "--threshold", "0.05")


class Files:
    def __init__(self, root):
        self.root = root
        self.gold = root / "gold.json"
        self.dataset = root / "mutated.json"
        self.preds = root / "preds.json"
        self.mutated_preds = root / "mutated-preds.json"
        self.gold.write_text(json.dumps(CORPUS_DOCS), encoding="utf-8")
        assert call("run", "--dataset", self.gold, "--out", self.preds) == 0

    def dataset_commands(self):
        dataset, out = self.dataset, self.root / "out"
        return [
            ("validate", "--dataset", dataset),
            ("validate", "--dataset", dataset, "--strict", "--out", out),
            ("run", "--dataset", dataset, "--out", out),
            ("run", "--dataset", dataset, "--out", out, *LEXICAL),
            ("eval", "--dataset", dataset, "--pred", out),
            ("eval", "--dataset", dataset, "--pred", self.preds),
            ("stats", "--dataset", dataset),
            ("export-supervision", "--dataset", dataset, "--out", out),
        ]


def call(*argv) -> int:
    """``main(argv)``, checked against the exit, error-line and collector
    contract."""
    enabled = gc.isenabled()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code in (0, 1), argv
    lines = err.getvalue().splitlines()
    assert sum(line.startswith("error:") for line in lines) <= 1, argv
    assert "Traceback" not in err.getvalue(), argv
    assert gc.isenabled() == enabled
    assert gc.get_freeze_count() == 0
    return code


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return Files(tmp_path_factory.mktemp("mutation"))


@pytest.mark.parametrize("mutation", DATASET_MUTATIONS, ids=lambda m: m.__name__)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(rng=st.randoms(use_true_random=False))
def test_mutated_dataset(files, mutation, rng):
    files.dataset.write_text(mutation(json.loads(json.dumps(CORPUS_DOCS)), rng),
                             encoding="utf-8")
    for argv in files.dataset_commands():
        call(*argv)


@pytest.mark.parametrize("mutation", PREDICTION_MUTATIONS, ids=lambda m: m.__name__)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(rng=st.randoms(use_true_random=False))
def test_mutated_predictions(files, mutation, rng):
    predictions = json.loads(files.preds.read_text(encoding="utf-8"))
    files.mutated_preds.write_text(mutation(predictions, rng), encoding="utf-8")
    call("eval", "--dataset", files.gold, "--pred", files.mutated_preds)


def filled(head: str, unit: str, tail: str = "", length: int = 10_000) -> str:
    """``head``, then ``unit`` repeated, then ``tail``: ``length`` characters."""
    return head + (unit * length)[: length - len(head) - len(tail)] + tail


TEXT_FAMILIES = {
    "whitespace": [filled("", " ", "x"), filled("5", " ", "x"), filled("", " \t\n", "x"),
                   filled("$5", " ", "%x")],
    "parenthesis": [filled("(", " "), filled("(", " ", "5"), filled("( 5", " ", "x")],
    "currency": [filled("$", " ", "x"), filled("€", " ", "-5x"), filled("-", " ", "$x")],
    "minus": [filled("", "−"), filled("−", " ", "x"), filled("", "−5 ")],
    "nbsp": [filled("", "\u00a0", "x"), filled("(", "\u00a0"), filled("5", "\u00a0", "x")],
    "invisible": [filled("", "\u200b"), filled("", " \u200b"), filled("", "\x00\x01\x1f\x7f "),
                  filled("5", "\u200d\u2060", "x")],
    "digits": [filled("", "1"), filled("", "9", "x"), filled("(", "1", " x"), filled("", "٥")],
    "separators": [filled("", "1,"), filled("", "1."), filled("", "1,", "000")],
    "how-many": [filled("", "how many "), filled("", "how many ", "exceed")],
    # a reader quadratic in the length can pass at 10,000 characters
    "how-many-long": [filled("", "how many ", length=100_000),
                      filled("", "how many ", "exceed", length=100_000)],
}

# Times each reader on each text of stdin's JSON list; prints the
# slowest call per reader
_TIMED_READERS = """
import json, sys, time
from tatqa_symbolic.errors import PipelineError
from tatqa_symbolic.evaluation import normalize_answer
from tatqa_symbolic.evidence import _content_words
from tatqa_symbolic.numerics import extract_numbers, is_number, parse_number
from tatqa_symbolic.reasoning import KeywordOperator
readers = {f.__name__: f for f in (parse_number, is_number, extract_numbers,
                                   normalize_answer, _content_words)}
readers.update((f"rule {i}", p.search) for i, (p, _) in enumerate(KeywordOperator._RULES))
slowest = dict.fromkeys(readers, 0.0)
for text in json.load(sys.stdin):
    for name, read in readers.items():
        start = time.perf_counter()
        try:
            read(text)
        except PipelineError:  # a number too long to read
            pass
        slowest[name] = max(slowest[name], time.perf_counter() - start)
print(json.dumps(slowest))
"""


@pytest.mark.parametrize("family", TEXT_FAMILIES)
def test_text_readers_take_bounded_time(family):
    """Each reader takes under 1 s on each text of 10,000 characters, or
    of 100,000 in the long family.  The calls run in a child, so a reader
    that backtracks for ever fails the test at its timeout instead of
    hanging the suite."""
    texts = TEXT_FAMILIES[family]
    assert {len(text) for text in texts} == {100_000 if family.endswith("-long") else 10_000}
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    try:
        result = subprocess.run([sys.executable, "-c", _TIMED_READERS], input=json.dumps(texts),
                                capture_output=True, text=True, timeout=60, env=env)
    except subprocess.TimeoutExpired:
        pytest.fail(f"the {family} texts took over 60 s")
    assert result.returncode == 0, result.stderr
    slowest = json.loads(result.stdout)
    assert len(slowest) == 13
    assert {name: seconds for name, seconds in slowest.items() if seconds >= 1.0} == {}
