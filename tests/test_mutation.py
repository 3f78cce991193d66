"""Mutation gate of the command line.

Seeded mutations of the fixture corpus and of a predictions file: a
field deleted, retyped or blanked, a table made ragged or empty, an id
duplicated, a 5,000-digit number planted.  Each mutated file goes
through the commands that read it, in process.  Every call must exit 0
or 1, let no exception escape ``main`` (which turns ``PipelineError``
into exit 1), and leave the cyclic collector as it found it: enabled or
not as before, with nothing frozen.

``hypothesis`` draws the mutations, seeded, with a few examples each,
so the gate adds seconds to the suite.
"""

import gc
import json

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


DATASET_MUTATIONS = [deleted, retyped, blanked, big_number, ragged_table, empty_table,
                     duplicated_ids]
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
            ("eval", "--dataset", dataset, "--pred", self.preds),
            ("stats", "--dataset", dataset),
            ("export-supervision", "--dataset", dataset, "--out", out),
        ]


def call(*argv) -> int:
    """``main(argv)``, checked against the exit and collector contract."""
    enabled = gc.isenabled()
    code = main([str(a) for a in argv])
    assert code in (0, 1), argv
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
