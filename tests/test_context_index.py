"""The per-context index, the derivation memo and the positive-unit
decoder against the loops they replaced (``oracles.reference_*``)."""

import json
import random
import sys
import threading
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import cached_property
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bench_module, word_inputs
from oracles import (
    _reference_content_words,
    reference_cell,
    reference_cells,
    reference_context_units,
    reference_decode,
    reference_digit_keys,
    reference_heuristic_scale,
    reference_sorted_heuristic_scale,
    reference_lexical_tags,
    reference_oracle_tags,
    reference_supervision,
)
from tatqa_symbolic import evidence, reasoning
from tatqa_symbolic.corpus import HybridContext, Table, iter_questions, load_dataset
from tatqa_symbolic.derivation import _NUMBER_TOKEN_RE, parsed_derivation
from tatqa_symbolic.errors import DerivationParseError, PipelineError
from tatqa_symbolic.evidence import (
    CellOrigin,
    CellWord,
    EvidenceCandidate,
    LexicalTagger,
    OracleTagger,
    ParagraphWord,
    SpanOrigin,
    TaggedSequence,
    TagUnit,
    _context_index,
    build_supervision,
    context_units,
    decode_evidence,
)
from tatqa_symbolic.numerics import Scale, parse_number
from tatqa_symbolic.reasoning import HeuristicScale, PipelineConfig, answer_question, run_pipeline
from tatqa_symbolic.validation import validate_dataset

# Duplicate paragraph ids (also with the shorter paragraph last, see
# ``shorter_last``), an empty paragraph, empty cells, a word past
# the last sentence end, negatives in both notations, an operand found
# only by magnitude, a parse error and an unlocatable operand.
EDGE_DOC = {
    "table": {
        "uid": "ctx-edge",
        "table": [
            ["", "2019", "2018"],
            ["Revenue", "1,200", "(300)"],
            ["Cost", "", "300"],
            ["Net income", "900", "-1,200"],
        ],
    },
    "paragraphs": [
        {"uid": "p-a", "order": 1, "text": "Net income was 900 thousand!  Other items were flat."},
        {"uid": "p-a", "order": 2, "text": "Revenue rose to 1,200 in 2019. Costs fell; net income was 900."},
        {"uid": "p-b", "order": 3, "text": ""},
        {"uid": "p-c", "order": 4, "text": "Costs of 300 were -300 before. Trailing words without a stop"},
    ],
    "questions": [
        {"uid": "e-diff", "question": "What is the change in net income?", "answer": 300,
         "derivation": "1,200 - 900", "answer_type": "arithmetic", "answer_from": "table",
         "scale": "thousand"},
        {"uid": "e-diff-text", "question": "How did net income compare with revenue?",
         "answer": -300, "derivation": "900 - 1,200", "answer_type": "arithmetic",
         "answer_from": "text", "scale": ""},
        {"uid": "e-span", "question": "What was net income?", "answer": ["net income was 900"],
         "derivation": "", "answer_type": "span", "answer_from": "text", "scale": ""},
        {"uid": "e-count", "question": "How many rows are there?", "answer": 2,
         "derivation": "Revenue ## Cost", "answer_type": "count", "answer_from": "table",
         "scale": ""},
        {"uid": "e-spans", "question": "Which rows are listed?", "answer": ["Revenue", "Cost"],
         "derivation": "", "answer_type": "multi-span", "answer_from": "table", "scale": ""},
        {"uid": "e-ratio", "question": "What is cost as a ratio of revenue?", "answer": 0.25,
         "derivation": "300 / 1,200", "answer_type": "arithmetic", "answer_from": "table-text",
         "scale": ""},
        {"uid": "e-sign", "question": "What is the total with the sign flipped?", "answer": 300,
         "derivation": "-900 + 1,200", "answer_type": "arithmetic", "answer_from": "table",
         "scale": ""},
        {"uid": "e-parse", "question": "Bad derivation", "answer": 1,
         "derivation": "1,200 ? 3", "answer_type": "arithmetic", "answer_from": "table",
         "scale": ""},
        {"uid": "e-lost", "question": "Unlocatable operand", "answer": 5554,
         "derivation": "5,555 - 1", "answer_type": "arithmetic", "answer_from": "table",
         "scale": ""},
    ],
}


def shorter_last(doc):
    """``doc`` with its two ``p-a`` paragraphs in the other order, so the
    last paragraph with the repeated id is the shorter one."""
    doc = json.loads(json.dumps(doc))
    doc["table"]["uid"] += "-shorter-last"
    first, second = doc["paragraphs"][:2]
    first["order"], second["order"] = second["order"], first["order"]
    assert len(first["text"].split()) < len(second["text"].split())
    for question in doc["questions"]:
        question["uid"] += "-shorter-last"
    return doc


@pytest.fixture(scope="module")
def dataset(corpus, tmp_path_factory):
    path = tmp_path_factory.mktemp("edge") / "edge.json"
    path.write_text(json.dumps([shorter_last(EDGE_DOC), EDGE_DOC]), encoding="utf-8")
    return list(corpus) + load_dataset(path)


def interleaved(dataset):
    """(context, question) pairs, one question per context in turn, so
    consecutive questions almost always change context (A, B, C, A, ...)."""
    pairs = []
    for round_index in range(max(len(questions) for _, questions in dataset)):
        for context, questions in dataset:
            if round_index < len(questions):
                pairs.append((context, questions[round_index]))
    return pairs


def outcome(function, *args):
    try:
        return function(*args)
    except Exception as exc:  # compared by type and message
        return (type(exc), str(exc))


def test_visit_order_returns_to_earlier_contexts(dataset):
    contexts = [context.context_id for context, _ in interleaved(dataset)]
    runs = sum(1 for i in range(len(contexts)) if i == 0 or contexts[i] != contexts[i - 1])
    assert runs > 2 * len(dataset)


def test_index_matches_per_question_loops(dataset):
    checked = 0
    for context, question in interleaved(dataset):
        assert context_units(question.text, context) == reference_context_units(
            question.text, context
        )
        for floor in (0.01, 0.2):
            assert LexicalTagger(floor).tag(question, context).units == reference_lexical_tags(
                question, context, floor
            )
        labels = outcome(build_supervision, question, context)
        assert labels == outcome(reference_supervision, question, context)
        if isinstance(labels, tuple):
            assert outcome(OracleTagger().tag, question, context) == labels
        else:
            assert OracleTagger().tag(question, context).units == reference_oracle_tags(
                question, context
            )
        checked += 1
    assert checked == sum(len(questions) for _, questions in dataset)


def test_decode_matches_unit_by_unit_decoder(dataset):
    """Decoding from the positive units agrees with the decoder that
    walked every unit of the reference layout, at random probabilities
    and thresholds (ties included)."""
    rng = random.Random(20261018)
    levels = [0.05, 0.3, 0.5, 0.7, 1.0]
    multi_word = {CellOrigin: 0, SpanOrigin: 0}
    for context, question in interleaved(dataset):
        units = reference_context_units(question.text, context)
        for _ in range(20):
            density = rng.random()
            probabilities = [
                rng.choice(levels + [rng.random()]) if rng.random() < density else 0.0
                for _ in units
            ]
            tags = TaggedSequence(question, context, probabilities)
            reference = tuple(
                TagUnit(text, origin, p) for (text, origin), p in zip(units, probabilities)
            )
            threshold = rng.choice([0.0, 0.05, 0.5, rng.random()])
            candidates = decode_evidence(tags, threshold)
            assert candidates == reference_decode(reference, threshold)
            for candidate in candidates:
                multi_word[type(candidate.origin)] += " " in candidate.text
    assert min(multi_word.values()) > 100


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """``bench/gen.py`` dense corpora of two seeds, a dozen contexts each."""
    gen = bench_module("gen")
    datasets = []
    for seed in (3, 8):
        path = tmp_path_factory.mktemp("generated") / f"dense-{seed}.json"
        path.write_text(gen.dumps(gen.dense_corpus(seed, 12)[0]), encoding="utf-8")
        datasets.append(load_dataset(path))
    return datasets


LEXICAL = PipelineConfig(tagger="lexical", operator="keyword", order="positional",
                         scale="heuristic", threshold=0.05)


@pytest.mark.parametrize("corpus_index", [None, 0, 1], ids=["fixture", "dense-3", "dense-8"])
def test_layout_tags_and_decoding_match_the_references(dataset, generated, corpus_index):
    """Tags built over the layout give the references' units, and decode
    as the unit-by-unit decoder does, under both taggers."""
    corpus = dataset if corpus_index is None else generated[corpus_index]
    tagged = 0
    for context, question in iter_questions(corpus):
        pairs = [(LexicalTagger().tag(question, context),
                  reference_lexical_tags(question, context))]
        labels = outcome(build_supervision, question, context)
        if not isinstance(labels, tuple):
            pairs.append((OracleTagger().tag(question, context),
                           reference_oracle_tags(question, context)))
        for tags, reference in pairs:
            assert tags.units == reference
            for threshold in (0.0, 0.05, 0.5, 0.99):
                assert decode_evidence(tags, threshold) == reference_decode(reference, threshold)
            tagged += 1
    assert tagged > sum(len(questions) for _, questions in corpus)


@pytest.mark.parametrize("corpus_index", [None, 0], ids=["fixture-and-edge", "dense-3"])
def test_cell_walks_follow_the_reference_order(dataset, generated, corpus_index):
    """The layout's cell segments, the digit keys' lists, the text
    lookups and the lexical cell slots list cells in ``reference_cells``
    order, at the positions the reference units give each cell."""
    corpus = dataset if corpus_index is None else generated[corpus_index]
    for context, _ in corpus:
        index = evidence._ContextIndex(context)
        cells = reference_cells(context.table)
        places = [(cell.row, cell.col) for cell in cells]
        positions = {place: [] for place in places}
        for position, (_, origin) in enumerate(reference_context_units("", context)):
            if isinstance(origin, CellWord):
                positions[origin.row, origin.col].append(position)
        filled = [place for place in places if positions[place]]
        assert [(s.row, s.col) for s in index.layout.cells] == filled
        assert [list(s.positions) for s in index.layout.cells] == [positions[p] for p in filled]
        for listed in index.cells_by_digits.values():
            assert listed == [place for place in places if place in listed]
        assert sorted(chain.from_iterable(index.cells_by_digits.values())) == [
            place for place, cell in zip(places, cells) if any(map(str.isdecimal, cell.text))
        ]
        assert [(r, c) for _, r, c in index.cell_texts] == places
        assert [(words, list(span)) for words, _, span in index.lexical[: len(cells)]] == [
            (evidence._content_words(cell.text), positions[place])
            for cell, place in zip(cells, places)
        ]


def test_lexical_answers_parse_no_cell_candidate_twice(dataset, generated, monkeypatch):
    """A cell candidate's number is parsed on its text's first decode in
    a context and never again; span candidates are parsed once each."""
    parsed = []
    real_parse = evidence.parse_number
    monkeypatch.setattr(evidence, "parse_number",
                        lambda text: parsed.append(text) or real_parse(text))
    monkeypatch.setattr(evidence, "_current_index", None)
    decoded = []

    def decode(*args):
        decoded.append(decode_evidence(*args))
        return decoded[-1]

    monkeypatch.setattr(reasoning, "decode_evidence", decode)
    components = LEXICAL.build()
    seen, n_cells, n_first = set(), 0, 0
    for corpus in [dataset, *generated]:
        for context, question in iter_questions(corpus):
            parsed.clear()
            decoded.clear()
            try:
                answer_question(question, context, *components, LEXICAL.threshold)
            except PipelineError:
                pass  # an abstention; the candidates were decoded first
            (candidates,) = decoded
            expected = []
            for candidate in candidates:
                if isinstance(candidate.origin, SpanOrigin):
                    expected.append(candidate.text)
                elif (id(context), candidate.text) not in seen:
                    seen.add((id(context), candidate.text))
                    expected.append(candidate.text)
                    n_first += 1
            assert parsed == expected
            n_cells += sum(isinstance(c.origin, CellOrigin) for c in candidates)
    assert n_cells > 2 * n_first > 1000


def test_lexical_slots_take_one_word_set_per_cell_and_sentence(dataset, generated, monkeypatch):
    """A numeric cell's header words come from its header cells' slots,
    so ``_content_words`` runs once per cell and once per sentence."""
    real_words = evidence._content_words
    texts = []
    monkeypatch.setattr(evidence, "_content_words",
                        lambda text: texts.append(text) or real_words(text))
    n_headed = 0
    for corpus in [dataset, *generated]:
        for context, _ in corpus:
            texts.clear()
            slots = evidence._ContextIndex(context).lexical
            table = context.table
            cells = reference_cells(table)
            assert len(texts) == len(slots) > len(cells)
            assert texts[: len(cells)] == [cell.text for cell in cells]
            for cell, (_, header_words, _) in zip(cells, slots):
                if cell.numeric is None:
                    assert header_words is None
                    continue
                expected = frozenset()
                if cell.row > 0:
                    expected |= real_words(reference_cell(table, 0, cell.col).text)
                if cell.col > 0:
                    expected |= real_words(reference_cell(table, cell.row, 0).text)
                assert header_words == expected
                n_headed += bool(expected)
    assert n_headed > 100


# words with punctuation, stopwords and commas, joined by assorted spaces;
# the characters include some whose lowercase is longer (İ) or differs
# from their casefold (ſ), a dash, an ideographic space and a separator
# that ``str.split`` takes for whitespace
_TEXT_PIECES = st.sampled_from(
    ["İ", "ſ", "—", "\u3000", "\x1c", " ", "\t", "\n", ",", ".", "'", "(", ")", "%", "$",
     "-", "_", "the", "The", "of", "s", "Revenue", "1,200", "2019", "net", "A", "x"]
)


@settings(max_examples=1500, deadline=None)
@given(text=st.one_of(st.lists(_TEXT_PIECES, max_size=12).map("".join), st.text(max_size=20)))
def test_content_words_match_the_token_loop(text):
    assert evidence._content_words(text) == _reference_content_words(text)


@pytest.mark.parametrize(
    "question",
    [["What", "was", "revenue", "in", "2019?"], ["What", "is", "the", "?"], []],
    ids=["header-only", "no-content-words", "empty"],
)
def test_lexical_tags_from_postings_match_the_reference(question):
    """A numeric cell sharing no word with the question scores through its
    header words; a question with no content words leaves every unit at
    the floor."""
    question, context = word_inputs(
        question,
        table=[[[], ["2019"], ["2018"]], [["Revenue"], ["1,200"], ["900"]],
               [["Costs"], ["300"], ["(300)"]]],
        paragraphs=[("p", ["Revenue", "rose.", "Costs", "fell;", "in", "2019", "too"]),
                    ("q", [])],
    )
    for floor in (0.01, 0.2):
        units = LexicalTagger(floor).tag(question, context).units
        assert units == reference_lexical_tags(question, context, floor)
        scored = {u.origin for u in units if u.probability > floor}
        if question.text.startswith("What was"):
            assert evidence.CellWord(1, 1, 0) in scored  # "1,200": 2019 and Revenue
            assert evidence.CellWord(2, 2, 0) not in scored  # "(300)": 2018 and Costs
        else:
            assert scored == set()


def _candidate(origin, probability, position):
    return EvidenceCandidate("x", probability, origin, None, position)


SCALE_TABLE = [
    [[], ["2019"], ["2018"]],
    [["Revenue", "(in", "millions)"], ["1,200"], ["900"]],
    [["Costs"], ["300"], ["(300)"]],
    [["Amounts", "in", "thousands"], [], []],
    [["Other"], ["5"], ["6"]],
]


@pytest.mark.parametrize(
    "table,candidates,expected",
    [
        # the caption row outranks the cells governing the candidate
        (SCALE_TABLE, [(CellOrigin(1, 2), 0.9, 5)], Scale.THOUSAND),
        # a scale only in the row-left cell of the best cell candidate
        ([row for n, row in enumerate(SCALE_TABLE) if n != 3],
         [(CellOrigin(2, 2), 0.9, 5), (CellOrigin(1, 2), 0.8, 3)], Scale.MILLION),
        ([row for n, row in enumerate(SCALE_TABLE) if n != 3],
         [(CellOrigin(1, 2), 0.8, 3), (CellOrigin(2, 2), 0.9, 5)], Scale.MILLION),
        # two span candidates with scale words tied on distance: the
        # first word wins; the span candidate of the higher probability
        # is read first
        (SCALE_TABLE[:1], [(SpanOrigin(0, 3, 4), 0.7, 9)], Scale.BILLION),
        (SCALE_TABLE[:1], [(SpanOrigin(0, 3, 4), 0.7, 9), (SpanOrigin(1, 0, 1), 0.8, 20)],
         Scale.THOUSAND),
        (SCALE_TABLE[:1], [(SpanOrigin(2, 1, 2), 0.9, 9)], Scale.NONE),
        (SCALE_TABLE[:1], [(CellOrigin(0, 1), 0.9, 0)], Scale.NONE),
        (SCALE_TABLE[:1], [], Scale.NONE),
    ],
)
def test_heuristic_scale_matches_the_per_question_scan(table, candidates, expected):
    paragraphs = [("p", ["In", "billions", "of", "x", "in", "millions"]),
                  ("p", ["thousands", "of", "units", "sold"]),
                  ("r", ["no", "scale", "here"])]
    question, context = word_inputs(["What", "was", "it?"], table, paragraphs)
    candidates = [_candidate(*args) for args in candidates]
    assert HeuristicScale().predict(question, context, candidates) is expected
    assert reference_heuristic_scale(question, context, candidates) is expected


@pytest.mark.parametrize("corpus_index", [None, 0, 1], ids=["fixture", "dense-3", "dense-8"])
def test_heuristic_scale_matches_the_reference_on_decoded_candidates(
    dataset, generated, corpus_index
):
    corpus = dataset if corpus_index is None else generated[corpus_index]
    scales = Counter()
    for context, question in iter_questions(corpus):
        tags = LexicalTagger().tag(question, context)
        for threshold in (0.02, 0.05, 0.2):
            candidates = decode_evidence(tags, threshold)
            scale = HeuristicScale().predict(question, context, candidates)
            assert scale is reference_heuristic_scale(question, context, candidates)
            scales[scale] += 1
    assert len(scales) >= (2 if corpus_index is None else 4)


@pytest.fixture(scope="module")
def scale_pools(dataset, generated):
    """(question, context, candidates) per question of the fixture corpus
    and a dense one, the candidates decoded from lexical tags at two
    thresholds."""
    pools = []
    for corpus in (dataset, generated[0]):
        for context, question in iter_questions(corpus):
            tags = LexicalTagger().tag(question, context)
            pool = dict.fromkeys(c for t in (0.02, 0.05) for c in decode_evidence(tags, t))
            pools.append((question, context, list(pool)))
    return pools


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_heuristic_scale_matches_the_sort_first_reference(scale_pools, data):
    """Returning the header scale before sorting, when any candidate is a
    cell, picks what sorting first picked, for any subset of a question's
    candidates at any probabilities, ties included."""
    question, context, pool = data.draw(st.sampled_from(scale_pools))
    picked = data.draw(st.lists(st.sampled_from(pool), unique=True) if pool else st.just([]))
    candidates = [
        EvidenceCandidate(c.text, data.draw(st.sampled_from((0.1, 0.5, 0.9))), c.origin,
                          c.numeric, c.position)
        for c in picked
    ]
    expected = reference_sorted_heuristic_scale(question, context, candidates)
    assert HeuristicScale().predict(question, context, candidates) is expected


def test_lexical_run_reads_each_scale_word_once_per_context(dataset, generated, monkeypatch):
    """``HeuristicScale`` reads a context's scale words from its index: a
    cell's text and a paragraph word are scanned at most once per
    context, however many questions ask."""
    real_scale = evidence.scale_in_text
    texts = []
    monkeypatch.setattr(evidence, "scale_in_text",
                        lambda text: texts.append(text) or real_scale(text))
    monkeypatch.setattr(evidence, "_current_index", None)
    once = Counter()
    for corpus in [dataset, *generated]:
        run_pipeline(corpus, LEXICAL)
        for context, _ in corpus:
            once.update(cell.text for cell in reference_cells(context.table))
            once.update(word for p in context.paragraphs for word in p.text.split())
    assert Counter(texts) - once == Counter()
    assert len(texts) > sum(len(questions) for corpus in generated for _, questions in corpus)


@pytest.mark.parametrize("config", [PipelineConfig(), LEXICAL], ids=["oracle", "lexical"])
def test_run_makes_no_units_and_one_layout_per_context(dataset, generated, monkeypatch, config):
    units = []
    real_unit = evidence.TagUnit
    monkeypatch.setattr(evidence, "TagUnit", lambda *args: units.append(args) or real_unit(*args))
    built = Counter()
    real_layout = evidence._ContextIndex.layout.func

    def layout(index):
        built[index.context.context_id] += 1
        return real_layout(index)

    counted = cached_property(layout)
    counted.__set_name__(evidence._ContextIndex, "layout")
    monkeypatch.setattr(evidence._ContextIndex, "layout", counted)
    monkeypatch.setattr(evidence, "_current_index", None)
    for corpus in [dataset, *generated]:
        run_pipeline(corpus, config)
    assert units == []
    assert set(built.values()) == {1}
    assert len(built) == sum(len(corpus) for corpus in [dataset, *generated])
    # the counters count: the units view makes units
    context, questions = generated[0][0]
    assert len(LexicalTagger().tag(questions[0], context).units) == len(units)


def test_lexical_run_builds_one_origin_per_decoded_cell_per_context(
    dataset, generated, monkeypatch
):
    """Decoding keeps a cell's origin on its context's layout: a lexical
    run builds one ``CellOrigin`` per cell it decodes in a context, however
    many questions decode that cell."""
    built, decoded = Counter(), []
    real_init, real_decode = CellOrigin.__init__, reasoning.decode_evidence

    def init(self, row, col):
        built[id(evidence._current_index.context), row, col] += 1
        real_init(self, row, col)

    def decode(tags, threshold):
        candidates = real_decode(tags, threshold)
        context = id(evidence._current_index.context)
        decoded.extend((context, c.origin.row, c.origin.col)
                       for c in candidates if isinstance(c.origin, CellOrigin))
        return candidates

    monkeypatch.setattr(CellOrigin, "__init__", init)
    monkeypatch.setattr(reasoning, "decode_evidence", decode)
    monkeypatch.setattr(evidence, "_current_index", None)
    for corpus in [dataset, *generated]:
        run_pipeline(corpus, LEXICAL)
    assert set(built.values()) == {1}
    assert set(built) == set(decoded)
    assert len(decoded) > 2 * len(built)  # most decodes reuse an origin


def test_shared_taggers_agree_across_threads(dataset):
    """Threads share the one-slot caches; each result must still match the
    single-threaded one, whichever context another thread moved them to."""
    pairs = interleaved(dataset)
    taggers = [OracleTagger(), LexicalTagger(0.01), LexicalTagger(0.2)]
    expected = [[outcome(t.tag, q, c) for t in taggers] for c, q in pairs]
    mismatches = []

    def work(offset):
        for round_index in range(4):
            for i in range(len(pairs)):
                j = (i + offset) % len(pairs)
                k = (j + offset + round_index) % len(taggers)
                context, question = pairs[j]
                if outcome(taggers[k].tag, question, context) != expected[j][k]:
                    mismatches.append((j, k))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(n,)) for n in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


def test_edge_questions_cover_both_outcomes(dataset):
    context, questions = dataset[-1]
    results = {q.question_id: outcome(build_supervision, q, context) for q in questions}
    assert results["e-parse"][0] is DerivationParseError
    assert "not locatable" in results["e-lost"][1]
    assert results["e-diff-text"].g_order is not None
    assert results["e-sign"].g_tag == {CellOrigin(3, 1), CellOrigin(1, 1)}  # 900 by magnitude
    # the span is tagged in the first p-a paragraph, where it was found,
    # not in the second, which shares its id
    tags = OracleTagger().tag(questions[2], context)
    tagged = [u for u in tags.units if u.probability == 1.0]
    assert [u.text for u in tagged] == ["Net", "income", "was", "900"]
    assert {u.origin for u in tagged} == {ParagraphWord(0, word) for word in range(4)}


def fraction_keyed_cells(context, magnitude):
    """(row, col) of the first numeric cell (row-major) of each value, or
    of each absolute value, keyed by the Fraction itself."""
    found = {}
    for cell in reference_cells(context.table):
        if cell.numeric is not None:
            value = cell.numeric
            found.setdefault(abs(value) if magnitude else value, (cell.row, cell.col))
    return found


NUMBER_CELL_TEXTS = ["5", "5.0", "(5)", "-5", "0.5", "(0.5)", "-0.5", "5%", "$5", "1,200",
                     "(1,200)", "0", "-0", "x", ""]
# digits of another script, non-breaking spaces, the minus sign, a
# currency after the sign, zeros leading and trailing, and digits that
# are not one number
EDGE_CELL_TEXTS = ["٥٠", "\u00a05\u00a0", "\u00a0(1,200)\u00a0", "−5", "-€5", "€5", ".5",
                   "0.50", "05", "50", "500", "-0", "0.00", "1,200.00", "120", "2019 vs 2018"]


def cell_lookup(index, value, loose):
    """The cell ``build_supervision`` locates ``value`` in, as (row, col)."""
    origin = evidence._find_in_table(index, evidence._EvidenceItem("", value), loose)
    return None if origin is None else (origin.row, origin.col)


@pytest.mark.parametrize("seed", [None, *range(30)], ids=lambda seed: f"seed-{seed}")
def test_cell_lookups_match_fraction_keys(seed):
    """A value's lookup through its digit key finds the cell that a map
    from every numeric cell's value finds."""
    if seed is None:  # the first cell of each value wins
        rows = [["x", "5", "5.0"], ["(5)", "0.5", "-5"], ["(0.5)", "1,200", "-0.5"]]
    else:
        rng = random.Random(seed)
        texts = NUMBER_CELL_TEXTS + EDGE_CELL_TEXTS
        rows = [[rng.choice(texts) for _ in range(3)] for _ in range(4)]
    # each cell one word, so its text reaches ``Table.texts`` as written
    _, context = word_inputs(table=[[[text] for text in row] for row in rows])
    assert [list(row) for row in context.table.texts] == rows
    index = _context_index(context)
    for magnitude in (False, True):
        reference = fraction_keyed_cells(context, magnitude)
        probes = {Fraction(7), Fraction(0), Fraction(1, 3), *reference}
        probes |= {sign * factor * p for p in probes for sign in (1, -1)
                   for factor in (1, 10, Fraction(1, 10))}
        for probe in probes:
            assert cell_lookup(index, probe, magnitude) == reference.get(
                abs(probe) if magnitude else probe)
    if seed is None:
        assert cell_lookup(index, Fraction(5), False) == (0, 1)
        assert cell_lookup(index, Fraction(-5), False) == (1, 0)
        assert cell_lookup(index, Fraction(-5), True) == (0, 1)
        assert cell_lookup(index, Fraction(1, 2), True) == (1, 1)
        assert cell_lookup(index, Fraction(-1, 2), False) == (2, 0)


# ASCII, Arabic-Indic and fullwidth digits
_DIGITS = st.text(st.sampled_from("0123456789٠٥٩０５"), max_size=4)
# mostly numbers, in every notation the parser reads, and some near misses
_NUMBER_TEXTS = st.builds(
    lambda wrap, currency, sign, whole, groups, decimals, percent: "".join(
        [wrap, currency, sign, whole, *(f",{group}" for group in groups), decimals, percent,
         ")" if wrap else ""]),
    st.sampled_from(["", "(", "\u00a0( "]),
    st.sampled_from(["", "$", "€"]),
    st.sampled_from(["", "-", "−", "+"]),
    _DIGITS,
    st.lists(_DIGITS, max_size=2),
    st.one_of(st.just(""), _DIGITS.map(".{}".format)),
    st.sampled_from(["", "%"]),
)


@settings(max_examples=400, deadline=None)
@given(text=st.one_of(_NUMBER_TEXTS, st.text(max_size=12)))
def test_a_number_cell_keys_as_its_value(text):
    """Every digit of a number's text is a digit of its value: a cell's
    digit key is its number's, and a text without digits parses as none."""
    number = parse_number(text)
    if number is None:
        return
    _, context = word_inputs(table=[[[text]]])
    assert evidence._ContextIndex(context).cells_by_digits == {
        evidence._value_key(number): [(0, 0)]}
    assert evidence._value_key(-number) == evidence._value_key(number)


# digits of three scripts, a superscript that ``str.isdigit`` accepts but
# that is no decimal digit, number punctuation, letters, a space and NUL
_KEY_CHARS = st.sampled_from("0123456789٠٣٥٩０５９²,.$()%-aZ \x00")


@settings(max_examples=150, deadline=None)
@given(shape=st.tuples(st.integers(0, 4), st.integers(1, 4)), data=st.data())
def test_digit_keys_match_the_cell_by_cell_reference(shape, data):
    """One ``str.translate`` per cell keys each cell as one ``re.sub``
    per cell did."""
    n_rows, n_cols = shape
    texts = data.draw(st.lists(st.text(_KEY_CHARS, max_size=6), min_size=n_rows * n_cols,
                               max_size=n_rows * n_cols))
    table = Table(tuple(tuple(texts[r * n_cols:(r + 1) * n_cols]) for r in range(n_rows)))
    index = evidence._ContextIndex(HybridContext("ctx-keys", table, ()))
    assert index.cells_by_digits == reference_digit_keys(table)


@pytest.mark.parametrize(
    "value,key",
    [(Fraction(0), ""), (Fraction(1200), "12"), (Fraction(-1, 2), "5"), (Fraction(1, 8), "125"),
     (Fraction(3, 40), "75"), (Fraction(1, 3), None), (Fraction(1, 6), None)],
)
def test_value_keys(value, key):
    assert evidence._value_key(value) == key


def edge_cell_document(seed):
    """A document whose cells hold the edge texts and whose questions'
    operands and answers are their values, other renderings of them, and
    values held nowhere."""
    rng = random.Random(seed)
    texts = NUMBER_CELL_TEXTS + EDGE_CELL_TEXTS
    table = [["", "2019", "2018"]] + [
        [f"Item {r}", rng.choice(texts), rng.choice(texts)] for r in range(5)
    ]
    operands = ["5", "-5", "0.5", ".5", "٥٠", "50", "500", "0", "0.0", "1,200", "1200", "120",
                "12", "7", "2019", "0.05", "(5)"]
    sources = ["table", "text", "table-text"]
    questions = []
    for n in range(8):
        questions.append({
            "uid": f"edge-{seed}-arith-{n}", "question": "What is the difference?", "answer": 1,
            "derivation": f"{rng.choice(operands)} - {rng.choice(operands)}",
            "answer_type": "arithmetic", "answer_from": rng.choice(sources), "scale": "",
        })
    for n in range(4):
        spans = rng.sample(EDGE_CELL_TEXTS + ["vs", "5", "Item 3", "nowhere"], 2)
        questions.append({
            "uid": f"edge-{seed}-spans-{n}", "question": "Which are they?", "answer": spans,
            "derivation": "", "answer_type": "multi-span", "answer_from": rng.choice(sources),
            "scale": "",
        })
    questions.append({
        "uid": f"edge-{seed}-count", "question": "How many?", "answer": 2,
        "derivation": f"{rng.choice(EDGE_CELL_TEXTS)} ## Item 1", "answer_type": "count",
        "answer_from": "table", "scale": "",
    })
    return {
        "table": {"uid": f"ctx-edge-cells-{seed}", "table": table},
        "paragraphs": [{"uid": "p", "order": 1,
                        "text": "Sales were 0.5 and -500 in 2019 vs 2018, and 12 units."},
                       {"uid": "q", "order": 2, "text": "Nothing else changed."}],
        "questions": questions,
    }


def test_supervision_on_edge_cells_matches_the_linear_search(tmp_path):
    path = tmp_path / "edge-cells.json"
    path.write_text(json.dumps([edge_cell_document(seed) for seed in range(40)]),
                    encoding="utf-8")
    found = Counter()
    for context, question in iter_questions(load_dataset(path)):
        labels = outcome(build_supervision, question, context)
        assert labels == outcome(reference_supervision, question, context)
        if isinstance(labels, tuple):
            found[labels[0].__name__] += 1
        else:
            found.update(type(origin).__name__ for origin in labels.g_tag)
    assert min(found[kind] for kind in ("CellOrigin", "SpanOrigin")) > 50
    assert found["UnlocatableEvidenceError"] > 20


def test_validate_parses_less_than_half_the_cells(monkeypatch, tmp_path):
    """``validate`` parses only the cells listed under the digit keys of
    the values it looks up, and never a whole table."""
    docs, _ = bench_module("gen").sparse_corpus(17, 200)
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps(docs), encoding="utf-8")
    dataset = load_dataset(path)
    calls = []
    real_parse = evidence.parse_number
    monkeypatch.setattr(evidence, "parse_number",
                        lambda text: calls.append(text) or real_parse(text))
    report = validate_dataset(dataset)
    assert report.n_checked > 100
    n_cells = sum(table.n_rows * table.n_cols for table in (c.table for c, _ in dataset))
    assert 0 < len(calls) < n_cells / 2
    assert not any("numbers" in vars(context.table) for context, _ in dataset)


def test_validate_locates_evidence_without_building_labels(corpus, monkeypatch):
    """``validate`` reads only where the evidence is, so it builds no
    operator, order or merged-span labels."""
    built = []
    real_labels = evidence.SupervisionLabels
    monkeypatch.setattr(evidence, "SupervisionLabels",
                        lambda *args, **kwargs: built.append(args) or real_labels(*args, **kwargs))
    report = validate_dataset(corpus)
    assert report.n_supervised > 0 and report.unlocatable
    assert built == []


def test_oracle_run_builds_no_labels(corpus, monkeypatch):
    """The oracle tagger tags the located evidence, so an all-oracle run
    classifies no operator, flags no order and merges no spans for it."""
    built = []
    real_labels = evidence.SupervisionLabels
    monkeypatch.setattr(evidence, "SupervisionLabels",
                        lambda *args, **kwargs: built.append(args) or real_labels(*args, **kwargs))
    predictions = run_pipeline(corpus, PipelineConfig())
    assert sum(p.trace.note is None for p in predictions.values()) > 10
    assert built == []


def test_index_is_built_once_per_context_and_slot_holds_one(corpus):
    (first, _), (second, _) = corpus[0], corpus[1]
    index = _context_index(first)
    assert _context_index(first) is index
    assert index.layout is _context_index(first).layout
    assert _context_index(second) is not index
    assert _context_index(first) is not index  # the slot moved on: rebuilt


def test_parsed_derivation_memo(questions):
    arithmetic = questions["q-rev-diff"][1]
    ast = parsed_derivation(arithmetic)
    assert parsed_derivation(arithmetic) is ast

    copy = replace(arithmetic)
    assert parsed_derivation(copy) == ast and parsed_derivation(copy) is not ast

    broken = replace(arithmetic, derivation="1,200 ? 3")
    errors = []
    for _ in range(2):
        with pytest.raises(DerivationParseError) as excinfo:
            parsed_derivation(broken)
        errors.append(excinfo.value)
    assert errors[0] is not errors[1]
    assert str(errors[0]) == str(errors[1]) == "unexpected character '?' at offset 6 in '1,200 ? 3'"
    assert (errors[1].text, errors[1].offset) == ("1,200 ? 3", 6)


def test_number_token_pattern_is_built_from_numerics():
    assert _NUMBER_TOKEN_RE.pattern == (
        r"[$£€¥]?\s*((?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d+)?|\.\d+)\s*(%)?"
    )
