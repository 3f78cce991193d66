"""Evidence tagging: sequence units, span decoding, and gold supervision.

The input sequence for a question is the question's words, the table
flattened row by row (each cell split into words), then the paragraphs
in order.  Taggers assign each unit a probability of being evidence;
decoding turns positive units into candidates: a cell is a candidate if
any of its units is positive, and each maximal run of positive words
adjacent within one paragraph forms one span.

A tagged sequence is built from a question, its context and one
probability per unit.  It holds the question's words, the probabilities
and the context's layout: the unit texts after the question, and one
segment (positions, and a cell's row, column and text) per non-empty
cell and per paragraph.  Decoding builds a cell's origin once per
context, on the cell's first decode, and keeps it on the layout; it
builds a span's origin once per candidate.

An origin names a paragraph by its index in ``context.paragraphs``, so
paragraphs that share a uid are never mixed; the uid is read only where
an origin is written to JSON (``origin_to_json``).

Gold supervision first locates each evidence string of a question
(``locate_evidence``, all that validation needs).  Two deterministic
taggers are provided: an oracle that tags the located evidence, and a
lexical-overlap baseline that needs no gold annotation.  The gold tag
label is what decoding the oracle's tags yields (``build_supervision``).

What does not depend on the question (the layout, paragraph word spans
and numbers, the cells under each digit key, the content words of cells
and sentences with the slots holding each word, and the scale words of
cells and paragraphs) is kept in a private per-context index, each part
built on first use.  A cell's number is parsed only when a value lookup
or a decoded candidate reads it, once per context, and a cell's digit
key is one ``str.translate`` of its text.
The index of the most recent context is held in a one-slot cache, so
memory stays bounded to one context; the one table kept beside it, that
of ``str.translate``, holds an entry per distinct character read, which
the corpus's alphabet bounds.  The taggers keep no state and are
safe to share across threads: a race on the cache can only build an
index twice, never mix two.
"""

from __future__ import annotations

import os
import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, product, repeat
from operator import lt
from typing import Iterator, NamedTuple, Union

from .corpus import (
    AnswerSource,
    AnswerType,
    Dataset,
    HybridContext,
    Paragraph,
    QuestionRecord,
    answer_spans,
    iter_questions,
    write_lines,
)
from .derivation import (
    ORDER_SENSITIVE,
    BinaryOp,
    ItemSet,
    Operator,
    classify_operator,
    classify_question,
    operand_sequence,
    parsed_derivation,
)
from .errors import DerivationParseError, NumberTooLongError, UnlocatableEvidenceError
from .numerics import (
    Scale,
    _decimal_places,
    extract_numbers,
    is_number,
    parse_number,
    scale_in_text,
)

# ---------------------------------------------------------------------------
# Sequence units and origins
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuestionWord:
    index: int


@dataclass(frozen=True)
class CellWord:
    row: int
    col: int
    word: int


@dataclass(frozen=True)
class ParagraphWord:
    paragraph: int  # index in ``context.paragraphs``
    word: int


UnitOrigin = Union[QuestionWord, CellWord, ParagraphWord]


@dataclass(frozen=True)
class TagUnit:
    text: str
    origin: UnitOrigin
    probability: float


_UNPARSED = object()


def _parsed(numbers: dict[str, Fraction | None], text: str) -> Fraction | None:
    """The number of ``text``, parsed on its first read and kept in
    ``numbers``, a context's cell numbers by text."""
    number = numbers.get(text, _UNPARSED)
    if number is _UNPARSED:
        number = numbers[text] = parse_number(text)
    return number


@dataclass(frozen=True, slots=True)
class _CellSegment:
    """A non-empty cell's positions and words joined by spaces."""

    row: int
    col: int
    positions: range
    text: str


@dataclass(frozen=True, slots=True)
class _ParagraphSegment:
    """A paragraph's index in the context and positions."""

    paragraph: int
    positions: range


class _Layout:
    """Unit texts and segments, the segment owning each position, the
    context's cell numbers by text (``_parsed``), which a cell segment's
    number is read from, and each cell decoded so far as (origin, number)
    under its segment's first position."""

    __slots__ = ("texts", "cells", "paragraphs", "owners", "numbers", "decoded")

    def __init__(self, texts: tuple[str, ...], cells: tuple, paragraphs: tuple, numbers: dict):
        self.texts, self.cells, self.paragraphs = texts, cells, paragraphs
        self.numbers = numbers
        self.decoded: dict[int, tuple[CellOrigin, Fraction | None]] = {}
        # the segments are in position order and cover every position
        self.owners = tuple(
            chain.from_iterable(repeat(s, len(s.positions)) for s in cells + paragraphs)
        )

    def sequence(self, words) -> list[tuple[str, UnitOrigin]]:
        """(text, origin) of ``words`` as question words, then of the
        layout's units."""
        units = [(word, QuestionWord(index)) for index, word in enumerate(words)]
        for position, (text, segment) in enumerate(zip(self.texts, self.owners)):
            word = position - segment.positions.start
            if type(segment) is _CellSegment:
                units.append((text, CellWord(segment.row, segment.col, word)))
            else:
                units.append((text, ParagraphWord(segment.paragraph, word)))
        return units


class TaggedSequence:
    """One probability per unit of the input sequence of ``question``
    over ``context``: the question's words, then the context's cell and
    paragraph words, in the order ``context_units`` lists them."""

    __slots__ = ("words", "layout", "probabilities")

    def __init__(self, question: QuestionRecord, context: HybridContext, probabilities):
        self.words = words = tuple(question.text.split())
        self.layout = layout = _context_index(context).layout
        self.probabilities = probabilities = tuple(probabilities)
        if len(probabilities) != len(words) + len(layout.texts):
            raise ValueError(
                f"{len(probabilities)} probabilities for {len(words)} question words "
                f"and {len(layout.texts)} context units"
            )
        total = sum(probabilities)  # NaN, which min and max can pass over, makes it NaN
        if probabilities and not (
            0.0 <= min(probabilities) and max(probabilities) <= 1.0 and total == total
        ):
            unit = next(u for u in self.units if not 0.0 <= u.probability <= 1.0)
            raise ValueError(f"probability {unit.probability} out of [0, 1] for {unit.origin}")

    @property
    def units(self) -> tuple[TagUnit, ...]:
        """The sequence as ``TagUnit``s, built on each call."""
        pairs = self.layout.sequence(self.words)
        return tuple(TagUnit(t, o, p) for (t, o), p in zip(pairs, self.probabilities))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TaggedSequence):
            return NotImplemented
        return self.units == other.units

    def __repr__(self) -> str:
        return f"TaggedSequence(units={self.units!r})"


@dataclass(frozen=True)
class CellOrigin:
    row: int
    col: int


@dataclass(frozen=True)
class SpanOrigin:
    """A word range [start, stop) within the paragraph at index
    ``paragraph`` of ``context.paragraphs``."""

    paragraph: int
    start: int
    stop: int


CandidateOrigin = Union[CellOrigin, SpanOrigin]


class EvidenceCandidate(NamedTuple):
    """A decoded cell or span; ``numeric`` is its text's face value or None."""

    text: str
    probability: float
    origin: CandidateOrigin
    numeric: Fraction | None
    position: int  # index of the first constituent unit in the input sequence


@dataclass(frozen=True)
class SupervisionLabels:
    g_tag: frozenset
    g_op: str
    g_scale: Scale
    g_order: int | None


# ---------------------------------------------------------------------------
# Per-context index
# ---------------------------------------------------------------------------


class _ParagraphIndex:
    """One paragraph's word spans, numbers, casefolded text and scale words."""

    def __init__(self, paragraph: Paragraph):
        self.paragraph = paragraph

    @cached_property
    def word_spans(self) -> list[tuple[int, int]]:
        return [match.span() for match in re.finditer(r"\S+", self.paragraph.text)]

    @cached_property
    def numbers(self) -> list[tuple[Fraction, tuple[int, int]]]:
        return extract_numbers(self.paragraph.text)

    @cached_property
    def folded(self) -> str:
        return self.paragraph.text.casefold()

    @cached_property
    def scale_words(self) -> tuple[tuple[int, Scale], ...]:
        """(word index, scale) of each word naming a scale."""
        scales = enumerate(map(scale_in_text, self.paragraph.text.split()))
        return tuple((word, scale) for word, scale in scales if scale is not None)


_SENTENCE_END_RE = re.compile(r"[.!?;]\s+|\Z")


class _DigitKeyTable(dict):
    """``str.translate`` table of digit keys: a decimal digit of any
    script (the number parser's ``\\d``) to its ASCII digit, and anything
    else deleted.  Each code point is filled on its first sight."""

    __slots__ = ()

    def __missing__(self, code: int) -> str | None:
        char = chr(code)
        key = str(int(char)) if char.isdecimal() else None
        self[code] = key
        return key


_DIGIT_KEYS = _DigitKeyTable()


def _value_key(value: Fraction) -> str | None:
    """The digit key of ``value``'s terminating decimal form, or None when
    it has none, and so no cell can hold it."""
    numerator, denominator = abs(value.numerator), value.denominator
    if denominator != 1:
        places = _decimal_places(denominator)
        if places is None:
            return None
        numerator = numerator * 10**places // denominator
    return str(numerator).strip("0")


class _ContextIndex:
    """What every question over one context shares.

    Each part is built on first use, so a context read by one question
    costs no more than the per-question work it replaces.
    """

    def __init__(self, context: HybridContext):
        self.context = context
        self.paragraphs = tuple(_ParagraphIndex(p) for p in context.paragraphs)
        # each cell text read as a number so far, and its number (``_parsed``)
        self.numbers: dict[str, Fraction | None] = {}

    def cells(self) -> Iterator[tuple[tuple[int, int], str]]:
        """((row, col), text) of each cell, row-major: the order of the layout,
        the digit keys' lists, the text lookups and the lexical slots."""
        table = self.context.table
        return zip(product(range(table.n_rows), range(table.n_cols)), chain(*table.texts))

    @cached_property
    def layout(self) -> _Layout:
        """Cell and paragraph units of the input sequence, in order."""
        texts: list[str] = []
        cells = []
        for (r, c), cell_text in self.cells():
            words = cell_text.split()
            if words:
                positions = range(len(texts), len(texts) + len(words))
                cells.append(_CellSegment(r, c, positions, " ".join(words)))
                texts += words
        paragraphs = []
        for number, paragraph in enumerate(self.context.paragraphs):
            words = paragraph.text.split()
            positions = range(len(texts), len(texts) + len(words))
            paragraphs.append(_ParagraphSegment(number, positions))
            texts += words
        return _Layout(tuple(texts), tuple(cells), tuple(paragraphs), self.numbers)

    @cached_property
    def cell_positions(self) -> dict[tuple[int, int], range]:
        return {(cell.row, cell.col): cell.positions for cell in self.layout.cells}

    def positions(self, origin: CandidateOrigin) -> range:
        """Layout positions of an origin."""
        if isinstance(origin, CellOrigin):
            return self.cell_positions.get((origin.row, origin.col), range(0))
        return self.layout.paragraphs[origin.paragraph].positions[origin.start : origin.stop]

    @cached_property
    def cells_by_digits(self) -> dict[str, list[tuple[int, int]]]:
        """(row, col) of each cell holding a digit, row-major, under its
        digit key: its digits in ASCII, less leading and trailing zeros.

        Every digit of a text that parses as a number is a digit of its
        value, so a cell can hold a value or its negation only if it is
        listed under the value's key (``_value_key``).  A cell's digits
        are one ``str.translate`` of its text (``_DIGIT_KEYS``).
        """
        cells: dict[str, list[tuple[int, int]]] = {}
        for place, text in self.cells():
            digits = text.translate(_DIGIT_KEYS)
            if digits:
                cells.setdefault(digits.strip("0"), []).append(place)
        return cells

    @cached_property
    def cell_texts(self) -> tuple[tuple[str, int, int], ...]:
        """Each cell's stripped, casefolded text, row and column, row-major."""
        return tuple((text.strip().casefold(), r, c) for (r, c), text in self.cells())

    @cached_property
    def lexical(self) -> tuple[tuple[frozenset[str], frozenset[str] | None, range], ...]:
        """The question-independent half of the lexical tagger: one slot
        per cell, then one per sentence, each with its content words, a
        numeric cell's header words, and its layout positions."""
        n_cols, cell_positions = self.context.table.n_cols, self.cell_positions
        slots = []
        for (r, c), text in self.cells():
            header_words = None
            if is_number(text):
                # both header cells come earlier in row-major order, so
                # their words are in slots already built
                words: frozenset[str] = frozenset()
                if r > 0:
                    words |= slots[c][0]
                if c > 0:
                    words |= slots[r * n_cols][0]
                header_words = words
            positions = cell_positions.get((r, c), range(0))
            slots.append((_content_words(text), header_words, positions))

        # a sentence ends in whitespace or at the end of the text, so it
        # holds the next run of its paragraph's words
        for paragraph, segment in zip(self.context.paragraphs, self.layout.paragraphs):
            word = start = 0
            for match in _SENTENCE_END_RE.finditer(paragraph.text):
                sentence = paragraph.text[start : match.end()]
                start, count = match.end(), len(sentence.split())
                if count:
                    positions = segment.positions[word : word + count]
                    slots.append((_content_words(sentence), None, positions))
                    word += count
        return tuple(slots)

    @cached_property
    def postings(self) -> tuple[dict[str, list[int]], dict[str, list[int]]]:
        """For each content word, the lexical slots whose words hold it,
        and those whose header words hold it."""
        postings: tuple[dict[str, list[int]], dict[str, list[int]]] = ({}, {})
        for slot, entry in enumerate(self.lexical):
            for posting, words in zip(postings, entry):  # words, then header words
                for word in words or ():
                    posting.setdefault(word, []).append(slot)
        return postings

    @cached_property
    def cell_scales(self) -> tuple[tuple[Scale | None, ...], ...]:
        """The scale named in each cell, row by row."""
        return tuple(tuple(map(scale_in_text, row)) for row in self.context.table.texts)

    @cached_property
    def header_scale(self) -> Scale | None:
        """The first scale named in the header row, then in the caption
        rows (a filled leading cell, the others blank)."""
        captions = (
            scales[0]
            for row, scales in zip(self.context.table.texts, self.cell_scales)
            if row[0].strip() and not any(text.strip() for text in row[1:])
        )
        return next(filter(None, chain(self.cell_scales[0], captions)), None)


_current_index: _ContextIndex | None = None


def _context_index(context: HybridContext) -> _ContextIndex:
    """The index of ``context``, from a one-slot cache keyed on identity.

    The slot holds the most recent context only, so ``run_pipeline``,
    which answers a context's questions one after another, builds each
    index once, and memory stays bounded to one context.
    """
    global _current_index
    index = _current_index
    if index is None or index.context is not context:
        index = _current_index = _ContextIndex(context)
    return index


def context_units(question_text: str, context: HybridContext) -> list[tuple[str, UnitOrigin]]:
    """The input sequence as (unit text, origin), in order."""
    return _context_index(context).layout.sequence(question_text.split())


def decode_evidence(tags: TaggedSequence, threshold: float = 0.5) -> list[EvidenceCandidate]:
    """Turn tagged units into evidence candidates, in input-sequence order.

    A cell is a candidate when any of its units exceeds the threshold,
    and a run of positive words adjacent within one paragraph is one
    span (the sequence holds a paragraph's words in order, so they are
    one word apart).  Candidate probability is the maximum over its
    positive units, and the numeric field is filled when the candidate
    text parses as a single number.  Question words are never evidence.
    """
    probabilities = tags.probabilities
    layout = tags.layout
    texts, owners, decoded = layout.texts, layout.owners, layout.decoded
    offset = len(tags.words)  # layout position 0 in the sequence
    positive = compress(range(len(probabilities)), map(lt, repeat(threshold), probabilities))
    candidates: list[EvidenceCandidate] = []
    stop = offset  # units before ``stop`` are question words or the last candidate's
    for index in positive:
        if index < stop:
            continue
        segment = owners[index - offset]
        first = segment.positions.start + offset
        end = segment.positions.stop + offset
        # a positive unit outscores every other, so each maximum below is
        # the maximum over the candidate's positive units
        if type(segment) is _CellSegment:
            stop = end
            text, start = segment.text, first
            cell = decoded.get(segment.positions.start)
            if cell is None:  # its first decode in the context
                cell = decoded[segment.positions.start] = (
                    CellOrigin(segment.row, segment.col), _parsed(layout.numbers, text)
                )
            origin, numeric = cell
        else:
            stop = index + 1
            while stop < end and probabilities[stop] > threshold:
                stop += 1
            word = index - first
            origin = SpanOrigin(segment.paragraph, word, word + stop - index)
            text = " ".join(texts[index - offset : stop - offset])
            numeric, start = parse_number(text), index
        candidates.append(
            EvidenceCandidate(text, max(probabilities[start:stop]), origin, numeric, start)
        )
    return candidates


# ---------------------------------------------------------------------------
# Gold supervision
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _EvidenceItem:
    """One gold evidence string: surface text plus its numeric value if any."""

    surface: str
    value: Fraction | None


def _text_item(surface: str) -> _EvidenceItem:
    # strings that are themselves numbers match by value, so "5134"
    # still locates a cell printed as "5,134"
    return _EvidenceItem(surface, parse_number(surface))


def _evidence_items(question: QuestionRecord) -> list[_EvidenceItem]:
    """Evidence strings for a question: answer spans, item-set items, or
    derivation operands (deduplicated; the structural divisor of an
    average is not evidence)."""
    if question.answer_type in (AnswerType.SPAN, AnswerType.SPANS):
        return [
            _text_item(span)
            for span in answer_spans(question.answer)
            if span.strip()
        ]

    ast = parsed_derivation(question)
    if isinstance(ast, ItemSet):
        return [_text_item(item) for item in ast.items]

    operator = classify_operator(ast, question.answer_type, question.answer_source)
    if operator == Operator.AVERAGE and isinstance(ast, BinaryOp):
        operands = operand_sequence(ast.left)
    else:
        operands = operand_sequence(ast)

    items: list[_EvidenceItem] = []
    seen: set[Fraction] = set()
    for operand in operands:
        if operand.value in seen:
            continue
        seen.add(operand.value)
        items.append(_EvidenceItem(operand.source_text.strip(), operand.value))
    return items


def _find_in_table(
    index: _ContextIndex, item: _EvidenceItem, loose: bool
) -> CellOrigin | None:
    value = item.value
    if value is not None:
        # only the cells under the value's key can hold it, so only they
        # are parsed; the loose pass also accepts an exact match, so the
        # first cell matching either way is the first of equal magnitude
        texts, numbers = index.context.table.texts, index.numbers
        for row, col in index.cells_by_digits.get(_value_key(value), ()):
            number = _parsed(numbers, texts[row][col])
            if number is not None and (number == value or loose and number == -value):
                return CellOrigin(row, col)
        return None
    needle = item.surface.casefold()
    for hay, row, col in index.cell_texts:
        if hay == needle or (loose and needle and needle in hay):
            return CellOrigin(row, col)
    return None


def _char_to_word_range(
    spans: list[tuple[int, int]], start: int, end: int
) -> tuple[int, int] | None:
    covered = [
        index for index, (ws, we) in enumerate(spans) if ws < end and we > start
    ]
    if not covered:
        return None
    return covered[0], covered[-1] + 1


def _find_in_paragraphs(
    index: _ContextIndex, item: _EvidenceItem, loose: bool
) -> SpanOrigin | None:
    if loose and item.value is None:
        return None  # text matches one way only, and the exact pass found none
    for number, entry in enumerate(index.paragraphs):
        if item.value is not None:
            for value, (start, end) in entry.numbers:
                if value == item.value or (loose and abs(value) == abs(item.value)):
                    word_range = _char_to_word_range(entry.word_spans, start, end)
                    if word_range:
                        return SpanOrigin(number, *word_range)
        else:
            found = entry.folded.find(item.surface.casefold())
            if found >= 0:
                word_range = _char_to_word_range(
                    entry.word_spans, found, found + len(item.surface)
                )
                if word_range:
                    return SpanOrigin(number, *word_range)
    return None


def _locate(
    index: _ContextIndex, item: _EvidenceItem, table_first: bool
) -> CandidateOrigin | None:
    """First occurrence in input-sequence order, preferring the table for
    table-sourced answers.  Within each region an exact pass runs before
    a loose one (absolute-value match for numbers, cell-substring match
    for text), so the preferred region is exhausted before falling back."""
    finders = (
        (_find_in_table, _find_in_paragraphs)
        if table_first
        else (_find_in_paragraphs, _find_in_table)
    )
    for finder in finders:
        for loose in (False, True):
            found = finder(index, item, loose)
            if found is not None:
                return found
    return None


def locate_evidence(
    question: QuestionRecord, context: HybridContext
) -> dict[_EvidenceItem, CandidateOrigin]:
    """The first occurrence of each of the question's evidence strings.

    Each is searched in the table first when the table is among the
    answer sources, otherwise in the paragraphs.  Raises
    ``UnlocatableEvidenceError`` naming every string found nowhere.
    """
    table_first = question.answer_source in (AnswerSource.TABLE, AnswerSource.TABLE_TEXT)
    index = _context_index(context)
    located: dict[_EvidenceItem, CandidateOrigin] = {}
    missing: list[str] = []
    for item in _evidence_items(question):
        found = _locate(index, item, table_first)
        if found is None:
            missing.append(item.surface)
        else:
            located[item] = found
    if missing:
        raise UnlocatableEvidenceError(question.question_id, missing)
    return located


def build_supervision(
    question: QuestionRecord, context: HybridContext
) -> SupervisionLabels:
    """Derive the gold labels for one question from its annotations.

    The tag label is what decoding the oracle's tags yields: each located
    cell, and each maximal run of located words within one paragraph.
    The order flag, only for the order-sensitive operators, is 0 when the
    first two operands appear in derivation order in the input sequence.
    """
    located = locate_evidence(question, context)
    operator = classify_question(question)
    g_order: int | None = None
    if operator in ORDER_SENSITIVE:
        # each operand is a located item, and items are distinct in value
        index = _context_index(context)
        starts = {item.value: index.positions(o).start for item, o in located.items()}
        first, second = operand_sequence(parsed_derivation(question))[:2]
        g_order = 0 if starts[first.value] <= starts[second.value] else 1
    tags = _oracle_tags(question, context, located.values())
    return SupervisionLabels(
        g_tag=frozenset(candidate.origin for candidate in decode_evidence(tags)),
        g_op=operator,
        g_scale=question.gold_scale,
        g_order=g_order,
    )


# ---------------------------------------------------------------------------
# Taggers
# ---------------------------------------------------------------------------


def _tagged(question: QuestionRecord, context: HybridContext, base: float, scored) -> TaggedSequence:
    """The question's words at 0.0, then the context's units at ``base``
    except where ``scored`` gives (layout positions, probability)."""
    offset = len(question.text.split())
    probabilities = [0.0] * offset + [base] * len(_context_index(context).layout.texts)
    for positions, probability in scored:
        probabilities[offset + positions.start : offset + positions.stop] = (
            [probability] * len(positions)
        )
    return TaggedSequence(question, context, probabilities)


def _oracle_tags(question: QuestionRecord, context: HybridContext, origins) -> TaggedSequence:
    """1.0 on the units of each of ``origins``, 0.0 elsewhere."""
    index = _context_index(context)
    return _tagged(question, context, 0.0, [(index.positions(o), 1.0) for o in origins])


class OracleTagger:
    """Perfect realization of the gold evidence: probability 1.0 on the
    units of each place ``locate_evidence`` finds and 0.0 elsewhere, so
    decoding its tags yields ``build_supervision(...).g_tag``."""

    def tag(self, question: QuestionRecord, context: HybridContext) -> TaggedSequence:
        return _oracle_tags(question, context, locate_evidence(question, context).values())


_STOPWORDS = frozenset(
    """a an the of in on at to for from by with as is are was were be been being
    do does did done what which when where who whom whose how why much many and
    or not than that this these those it its their there between during per each
    have has had having will would can could should may might must s""".split()
)

# each whitespace-separated word from its first to its last word character.
# A match that starts always succeeds, and ``\S*`` cannot cross whitespace,
# so each word is scanned once and backtracked over once: linear time
_WORD_RE = re.compile(r"\w(?:\S*\w)?")


def _content_words(text: str) -> frozenset[str]:
    """The lowercased words of ``text``, less commas, outer punctuation and stopwords."""
    return frozenset(_WORD_RE.findall(text.lower().replace(",", ""))) - _STOPWORDS


class LexicalTagger:
    """Deterministic lexical-overlap tagger.

    Each unit scores the content-word Jaccard overlap between the
    question and the unit's enclosing cell or sentence; numeric cells
    are boosted by the overlap of their row/column headers with the
    question.  Scores are smoothed onto [floor, 1] so a zero-overlap
    context still yields (uniformly tiny) probabilities.
    """

    def __init__(self, floor: float = 0.01):
        self.floor = floor

    def _smooth(self, score: float) -> float:
        return self.floor + (1.0 - self.floor) * score

    def tag(self, question: QuestionRecord, context: HybridContext) -> TaggedSequence:
        question_words = _content_words(question.text)
        index = _context_index(context)
        slots = index.lexical
        # only a slot sharing a word scores; the others stay at the floor.
        # From the counts, the Jaccard overlap is common / (|q| + |slot| - common)
        scores: dict[int, float] = {}
        for part, postings in enumerate(index.postings):  # words, then header words
            shared = Counter(chain.from_iterable(postings.get(w, ()) for w in question_words))
            for slot, common in shared.items():
                score = common / (len(question_words) + len(slots[slot][part]) - common)
                if score > scores.get(slot, 0.0):
                    scores[slot] = score
        scored = [(slots[slot][2], self._smooth(score)) for slot, score in scores.items()]
        return _tagged(question, context, self._smooth(0.0), scored)


# ---------------------------------------------------------------------------
# Supervision export
# ---------------------------------------------------------------------------


def origin_to_json(origin: CandidateOrigin, context: HybridContext) -> dict:
    """``origin`` as written to JSON, a span naming its paragraph by uid."""
    if isinstance(origin, CellOrigin):
        return {"kind": "cell", "row": origin.row, "col": origin.col}
    return {
        "kind": "span",
        "paragraph_id": context.paragraphs[origin.paragraph].paragraph_id,
        "start": origin.start,
        "stop": origin.stop,
    }


@dataclass
class SupervisionExport:
    n_written: int
    failures: list[tuple[str, str]] = field(default_factory=list)

    @property
    def unlocatable_rate(self) -> float:
        total = self.n_written + len(self.failures)
        return len(self.failures) / total if total else 0.0


def export_supervision(dataset: Dataset, path: str | os.PathLike) -> SupervisionExport:
    """Write gold labels to a line-delimited file for external training.

    Questions whose evidence cannot be located (or whose derivation does
    not parse, or holds a number too long to read) are skipped and
    reported, not fatal.
    """
    records: list[dict] = []
    failures: list[tuple[str, str]] = []
    for context, question in iter_questions(dataset):
        try:
            labels = build_supervision(question, context)
        except (UnlocatableEvidenceError, DerivationParseError, NumberTooLongError) as exc:
            failures.append((question.question_id, str(exc)))
            continue
        records.append({
            "question_id": question.question_id,
            "g_op": labels.g_op,
            "g_scale": labels.g_scale.word,
            "g_order": labels.g_order,
            "g_tag": sorted(
                (origin_to_json(origin, context) for origin in labels.g_tag),
                key=lambda o: (o["kind"], str(o)),
            ),
        })
    write_lines(path, records)
    return SupervisionExport(len(records), failures)
