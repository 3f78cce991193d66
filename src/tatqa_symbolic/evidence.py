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
segment (positions, and a cell's number) per non-empty cell and per
paragraph.  Decoding builds an origin only for a candidate it emits.

An origin names a paragraph by its index in ``context.paragraphs``, so
paragraphs that share a uid are never mixed; the uid is read only where
an origin is written to JSON (``origin_to_json``).

Two deterministic taggers are provided: an oracle that realizes the
gold tag labels exactly, and a lexical-overlap baseline that needs no
gold annotation.

What does not depend on the question (the layout, paragraph word spans
and numbers, cell value lookups, the content words of cells and
sentences with the slots holding each word, and the scale words of
cells and paragraphs) is kept in a private per-context index, each part
built on first use.
The index of the most recent context is held in a one-slot cache, so
memory stays bounded to one context.  The taggers keep no state and are
safe to share across threads: a race on the cache can only build an
index twice, never mix two.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, repeat
from operator import lt
from pathlib import Path
from typing import Union

from .corpus import (
    AnswerSource,
    AnswerType,
    Cell,
    Dataset,
    HybridContext,
    Paragraph,
    QuestionRecord,
    iter_questions,
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
from .numerics import ParsedNumber, Scale, extract_numbers, parse_number, scale_in_text

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


@dataclass(frozen=True, slots=True)
class _CellSegment:
    """A non-empty cell's positions, words joined by spaces, and number."""

    row: int
    col: int
    positions: range
    text: str
    numeric: ParsedNumber | None


@dataclass(frozen=True, slots=True)
class _ParagraphSegment:
    """A paragraph's index in the context and positions."""

    paragraph: int
    positions: range


class _Layout:
    """Unit texts and segments, and the segment owning each position."""

    __slots__ = ("texts", "cells", "paragraphs", "owners")

    def __init__(self, texts: tuple[str, ...], cells: tuple, paragraphs: tuple):
        self.texts, self.cells, self.paragraphs = texts, cells, paragraphs
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


@dataclass(frozen=True)
class EvidenceCandidate:
    text: str
    probability: float
    origin: CandidateOrigin
    numeric: ParsedNumber | None
    position: int  # index of the first constituent unit in the input sequence


@dataclass(frozen=True)
class SupervisionLabels:
    g_tag: frozenset
    g_op: str
    g_scale: Scale
    g_order: int | None


def _word_spans(text: str) -> list[tuple[int, int]]:
    return [match.span() for match in re.finditer(r"\S+", text)]


# ---------------------------------------------------------------------------
# Per-context index
# ---------------------------------------------------------------------------


class _ParagraphIndex:
    """One paragraph's word spans, numbers, casefolded text and scale words."""

    def __init__(self, paragraph: Paragraph):
        self.paragraph = paragraph

    @cached_property
    def word_spans(self) -> list[tuple[int, int]]:
        return _word_spans(self.paragraph.text)

    @cached_property
    def numbers(self) -> list[tuple[ParsedNumber, tuple[int, int]]]:
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


class _ContextIndex:
    """What every question over one context shares.

    Each part is built on first use, so a context read by one question
    costs no more than the per-question work it replaces.
    """

    def __init__(self, context: HybridContext):
        self.context = context
        self.paragraphs = tuple(_ParagraphIndex(p) for p in context.paragraphs)

    @cached_property
    def layout(self) -> _Layout:
        """Cell and paragraph units of the input sequence, in order."""
        texts: list[str] = []
        cells = []
        for cell in self.context.table.iter_cells():
            words = cell.text.split()
            if words:
                text = " ".join(words)
                # the loader parsed the cell's own text, which is the
                # candidate text unless its words are not single-spaced
                numeric = cell.numeric if text == cell.text else parse_number(text)
                positions = range(len(texts), len(texts) + len(words))
                cells.append(_CellSegment(cell.row, cell.col, positions, text, numeric))
                texts += words
        paragraphs = []
        for number, paragraph in enumerate(self.context.paragraphs):
            words = paragraph.text.split()
            positions = range(len(texts), len(texts) + len(words))
            paragraphs.append(_ParagraphSegment(number, positions))
            texts += words
        return _Layout(tuple(texts), tuple(cells), tuple(paragraphs))

    @cached_property
    def cell_positions(self) -> dict[tuple[int, int], range]:
        return {(cell.row, cell.col): cell.positions for cell in self.layout.cells}

    def positions(self, origin: CandidateOrigin) -> range:
        """Layout positions of an origin."""
        if isinstance(origin, CellOrigin):
            return self.cell_positions.get((origin.row, origin.col), range(0))
        return self.layout.paragraphs[origin.paragraph].positions[origin.start : origin.stop]

    def _first_numeric_cells(self, key) -> dict[Fraction, Cell]:
        # one hash per value, as Fraction hashing is dear; a hit builds the origin
        found: dict[Fraction, Cell] = {}
        for cell in self.context.table.iter_cells():
            if cell.numeric is not None:
                found.setdefault(key(cell.numeric.value), cell)
        return found

    @cached_property
    def cells_by_value(self) -> dict[Fraction, Cell]:
        """First numeric cell (row-major) holding each value."""
        return self._first_numeric_cells(lambda value: value)

    @cached_property
    def cells_by_magnitude(self) -> dict[Fraction, Cell]:
        """First numeric cell (row-major) holding each absolute value."""
        return self._first_numeric_cells(abs)

    @cached_property
    def cell_texts(self) -> tuple[tuple[str, CellOrigin], ...]:
        """Each cell's stripped, casefolded text, row-major."""
        return tuple(
            (cell.text.strip().casefold(), CellOrigin(cell.row, cell.col))
            for cell in self.context.table.iter_cells()
        )

    @cached_property
    def lexical(self) -> tuple[tuple[frozenset[str], frozenset[str] | None, range], ...]:
        """The question-independent half of the lexical tagger: one slot
        per cell, then one per sentence, each with its content words, a
        numeric cell's header words, and its layout positions."""
        table = self.context.table
        slots = []
        for cell in table.iter_cells():
            header_words = None
            if cell.numeric is not None:
                # both header cells come earlier in row-major order, so
                # their words are in slots already built
                words: frozenset[str] = frozenset()
                if cell.row > 0:
                    words |= slots[cell.col][0]
                if cell.col > 0:
                    words |= slots[cell.row * table.n_cols][0]
                header_words = words
            positions = self.cell_positions.get((cell.row, cell.col), range(0))
            slots.append((_content_words(cell.text), header_words, positions))

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
        return tuple(tuple(scale_in_text(c.text) for c in row) for row in self.context.table.cells)

    @cached_property
    def header_scale(self) -> Scale | None:
        """The first scale named in the header row, then in the caption
        rows (a filled leading cell, the others blank)."""
        captions = (
            scales[0]
            for row, scales in zip(self.context.table.cells, self.cell_scales)
            if row[0].text.strip() and not any(c.text.strip() for c in row[1:])
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
    texts = tags.layout.texts
    owners = tags.layout.owners
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
            origin: CandidateOrigin = CellOrigin(segment.row, segment.col)
            text, numeric, start = segment.text, segment.numeric, first
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


def _answer_spans(answer) -> list[str]:
    if isinstance(answer, list):
        return [str(item) for item in answer]
    if isinstance(answer, Fraction):
        return []
    return [str(answer)]


def _text_item(surface: str) -> _EvidenceItem:
    # strings that are themselves numbers match by value, so "5134"
    # still locates a cell printed as "5,134"
    parsed = parse_number(surface)
    return _EvidenceItem(surface, parsed.value if parsed else None)


def _evidence_items(question: QuestionRecord) -> list[_EvidenceItem]:
    """Evidence strings for a question: answer spans, item-set items, or
    derivation operands (deduplicated; the structural divisor of an
    average is not evidence)."""
    if question.answer_type in (AnswerType.SPAN, AnswerType.SPANS):
        return [
            _text_item(span)
            for span in _answer_spans(question.answer)
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
    if item.value is not None:
        # the loose pass also accepts an exact match, so the first cell
        # matching either way is the first cell of equal magnitude
        lookup = index.cells_by_magnitude if loose else index.cells_by_value
        cell = lookup.get(abs(item.value) if loose else item.value)
        return None if cell is None else CellOrigin(cell.row, cell.col)
    needle = item.surface.casefold()
    for hay, origin in index.cell_texts:
        if hay == needle or (loose and needle and needle in hay):
            return origin
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
    for number, entry in enumerate(index.paragraphs):
        if item.value is not None:
            for parsed, (start, end) in entry.numbers:
                if parsed.value == item.value or (
                    loose and abs(parsed.value) == abs(item.value)
                ):
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


def _merge_spans(origins: list[SpanOrigin]) -> list[SpanOrigin]:
    """Merge overlapping or adjacent spans per paragraph, mirroring what
    decoding contiguous positive words would produce."""
    by_paragraph: dict[int, list[SpanOrigin]] = {}
    for origin in origins:
        by_paragraph.setdefault(origin.paragraph, []).append(origin)
    merged: list[SpanOrigin] = []
    for paragraph, spans in by_paragraph.items():
        spans.sort(key=lambda s: (s.start, s.stop))
        current = spans[0]
        for span in spans[1:]:
            if span.start <= current.stop:
                current = SpanOrigin(paragraph, current.start, max(current.stop, span.stop))
            else:
                merged.append(current)
                current = span
        merged.append(current)
    return merged


def build_supervision(
    question: QuestionRecord, context: HybridContext
) -> SupervisionLabels:
    """Derive the gold labels for one question from its annotations.

    Each evidence string is searched in the table first when the table
    is among the answer sources, otherwise in the paragraphs; only the
    first occurrence is kept when an evidence appears multiple times.
    The order flag is present only for the order-sensitive operators: 0
    when the two operands appear in derivation order within the input
    sequence, 1 when reversed.
    """
    items = _evidence_items(question)
    table_first = question.answer_source in (AnswerSource.TABLE, AnswerSource.TABLE_TEXT)
    index = _context_index(context)

    located: dict[_EvidenceItem, CandidateOrigin] = {}
    missing: list[str] = []
    for item in items:
        found = _locate(index, item, table_first)
        if found is None:
            missing.append(item.surface)
        else:
            located[item] = found
    if missing:
        raise UnlocatableEvidenceError(question.question_id, missing)

    operator = classify_question(question)

    def position_of_value(value: Fraction) -> tuple:
        for item, origin in located.items():
            if item.value == value:
                # cells, row-major, precede the paragraphs' words, and a
                # located cell is never empty, so this orders origins as
                # the input sequence does
                if isinstance(origin, CellOrigin):
                    return (0, origin.row, origin.col)
                return (1, origin.paragraph, origin.start)
        raise ValueError(f"no located evidence with value {value}")

    g_order: int | None = None
    if operator in ORDER_SENSITIVE:
        operands = operand_sequence(parsed_derivation(question))
        first, second = operands[0], operands[1]
        position_first = position_of_value(first.value)
        position_second = position_of_value(second.value)
        g_order = 0 if position_first <= position_second else 1

    cells = [o for o in located.values() if isinstance(o, CellOrigin)]
    spans = [o for o in located.values() if isinstance(o, SpanOrigin)]
    g_tag = frozenset(cells) | frozenset(_merge_spans(spans))
    return SupervisionLabels(
        g_tag=g_tag,
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


class OracleTagger:
    """Perfect realization of the gold tag labels: probability 1.0 on the
    units of each origin in ``build_supervision(...).g_tag`` and 0.0
    elsewhere."""

    def tag(self, question: QuestionRecord, context: HybridContext) -> TaggedSequence:
        index = _context_index(context)
        g_tag = build_supervision(question, context).g_tag
        return _tagged(question, context, 0.0, [(index.positions(o), 1.0) for o in g_tag])


_STOPWORDS = frozenset(
    """a an the of in on at to for from by with as is are was were be been being
    do does did done what which when where who whom whose how why much many and
    or not than that this these those it its their there between during per each
    have has had having will would can could should may might must s""".split()
    + [""]  # a word of punctuation alone
)

# each whitespace-separated word, less its leading and trailing punctuation
_WORD_RE = re.compile(r"(?<!\S)[^\w\s]*(\S*?)[^\w\s]*(?!\S)")


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


def export_supervision(dataset: Dataset, path: str | Path) -> SupervisionExport:
    """Write gold labels to a line-delimited file for external training.

    Questions whose evidence cannot be located (or whose derivation does
    not parse, or holds a number too long to read) are skipped and
    reported, not fatal.
    """
    export = SupervisionExport(n_written=0)
    with Path(path).open("w", encoding="utf-8") as handle:
        for context, question in iter_questions(dataset):
            try:
                labels = build_supervision(question, context)
            except (UnlocatableEvidenceError, DerivationParseError, NumberTooLongError) as exc:
                export.failures.append((question.question_id, str(exc)))
                continue
            record = {
                "question_id": question.question_id,
                "g_op": labels.g_op,
                "g_scale": labels.g_scale.word,
                "g_order": labels.g_order,
                "g_tag": sorted(
                    (origin_to_json(origin, context) for origin in labels.g_tag),
                    key=lambda o: (o["kind"], str(o)),
                ),
            }
            handle.write(json.dumps(record) + "\n")
            export.n_written += 1
    return export
