"""Evidence tagging: sequence units, span decoding, and gold supervision.

The input sequence for a question is the question's words, the table
flattened row by row (each cell split into words), then the paragraphs
in order.  Taggers assign each unit a probability of being evidence;
decoding turns positive units into candidates: a cell is a candidate if
any of its units is positive, and maximal runs of consecutive positive
paragraph words form one span each.

Two deterministic taggers are provided: an oracle that realizes the
gold tag labels exactly, and a lexical-overlap baseline that needs no
gold annotation.

What does not depend on the question (the unit skeleton, units at the
oracle's zero or the lexical floor, origin positions, paragraph word
spans and numbers, cell value lookups, content words and sentence
boundaries) is kept in a private per-context index.  Each part is
built once per context object, on first use, and the index of the most
recent context is held in a one-slot cache, so memory stays bounded to
one context.  The taggers keep no state of their own and stay safe to
share across threads: a race on the cache can only build an index
twice, never mix two.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Iterator, Union

from .corpus import (
    AnswerSource,
    AnswerType,
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
    operand_sequence,
    parsed_derivation,
)
from .errors import DerivationParseError, UnlocatableEvidenceError
from .numerics import ParsedNumber, Scale, extract_numbers, parse_number

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
    paragraph_id: str
    word: int


UnitOrigin = Union[QuestionWord, CellWord, ParagraphWord]


@dataclass(frozen=True)
class TagUnit:
    text: str
    origin: UnitOrigin
    probability: float


@dataclass(frozen=True)
class TaggedSequence:
    units: tuple[TagUnit, ...]

    def __post_init__(self) -> None:
        for unit in self.units:
            if not 0.0 <= unit.probability <= 1.0:
                raise ValueError(
                    f"probability {unit.probability} out of [0, 1] for {unit.origin}"
                )


@dataclass(frozen=True)
class CellOrigin:
    row: int
    col: int


@dataclass(frozen=True)
class SpanOrigin:
    """A word range [start, stop) within one paragraph."""

    paragraph_id: str
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


def _words(text: str) -> list[str]:
    return text.split()


def _word_spans(text: str) -> list[tuple[int, int]]:
    return [match.span() for match in re.finditer(r"\S+", text)]


def _question_units(question_text: str) -> list[TagUnit]:
    return [
        TagUnit(word, QuestionWord(index), 0.0)
        for index, word in enumerate(_words(question_text))
    ]


# ---------------------------------------------------------------------------
# Per-context index
# ---------------------------------------------------------------------------


class _ParagraphIndex:
    """One paragraph's word spans, numbers and casefolded text."""

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


@dataclass(frozen=True)
class _LexicalIndex:
    """The question-independent half of the lexical tagger.

    A question scores one slot per cell, then one per sentence.
    ``slot_positions`` lists the skeleton units of each slot; a word past
    its paragraph's last sentence end belongs to none and scores 0.
    """

    cells: tuple[tuple[frozenset[str], frozenset[str] | None], ...]
    sentences: tuple[frozenset[str], ...]
    slot_positions: tuple[tuple[int, ...], ...]


_SENTENCE_END_RE = re.compile(r"[.!?;]\s+|\Z")


class _ContextIndex:
    """What every question over one context shares.

    Each part is built on first use, so a context read by one question
    costs no more than the per-question work it replaces.
    """

    def __init__(self, context: HybridContext):
        self.context = context
        self.paragraphs = tuple(_ParagraphIndex(p) for p in context.paragraphs)
        self._uniform: tuple[float, tuple[TagUnit, ...]] | None = None

    @cached_property
    def skeleton(self) -> tuple[tuple[str, UnitOrigin], ...]:
        """Cell and paragraph units of the input sequence, in order."""
        units: list[tuple[str, UnitOrigin]] = []
        for cell in self.context.table.iter_cells():
            for word_index, word in enumerate(_words(cell.text)):
                units.append((word, CellWord(cell.row, cell.col, word_index)))
        for paragraph in self.context.paragraphs:
            for word_index, word in enumerate(_words(paragraph.text)):
                units.append((word, ParagraphWord(paragraph.paragraph_id, word_index)))
        return tuple(units)

    def uniform_units(self, probability: float) -> tuple[TagUnit, ...]:
        """Every skeleton unit at one probability: the oracle's zeros or
        the lexical tagger's floor.  The tuple last asked for is kept, so
        it is built once per context."""
        cached = self._uniform  # read once: another thread may replace it
        if cached is None or cached[0] != probability:
            units = tuple(TagUnit(text, origin, probability) for text, origin in self.skeleton)
            cached = self._uniform = (probability, units)
        return cached[1]

    @cached_property
    def cell_ranges(self) -> dict[tuple[int, int], range]:
        """Skeleton positions of each cell's words; empty cells are absent."""
        ranges: dict[tuple[int, int], range] = {}
        position = 0
        for cell in self.context.table.iter_cells():
            n_words = len(_words(cell.text))
            if n_words:
                ranges[(cell.row, cell.col)] = range(position, position + n_words)
            position += n_words
        return ranges

    @cached_property
    def paragraph_positions(self) -> tuple[range, ...]:
        """Skeleton positions of each paragraph's words, in paragraph order."""
        lengths = [len(_words(p.text)) for p in self.context.paragraphs]
        position = len(self.skeleton) - sum(lengths)
        positions = []
        for n_words in lengths:
            positions.append(range(position, position + n_words))
            position += n_words
        return tuple(positions)

    @cached_property
    def paragraph_ranges(self) -> dict[str, list[range]]:
        """Skeleton positions of each paragraph's words, by paragraph id.
        Ids are not guaranteed unique, so an id maps to all its
        paragraphs, in order."""
        ranges: dict[str, list[range]] = {}
        for paragraph, words in zip(self.context.paragraphs, self.paragraph_positions):
            ranges.setdefault(paragraph.paragraph_id, []).append(words)
        return ranges

    def positions(self, origin: CandidateOrigin) -> Iterator[int]:
        """Skeleton positions of the units an origin covers, in order."""
        if isinstance(origin, CellOrigin):
            yield from self.cell_ranges.get((origin.row, origin.col), ())
        else:
            for words in self.paragraph_ranges.get(origin.paragraph_id, ()):
                yield from words[origin.start : origin.stop]

    def _first_numeric_cells(self, key) -> dict[Fraction, CellOrigin]:
        found: dict[Fraction, CellOrigin] = {}
        for cell in self.context.table.iter_cells():
            if cell.numeric is not None:
                found.setdefault(key(cell.numeric.value), CellOrigin(cell.row, cell.col))
        return found

    @cached_property
    def cells_by_value(self) -> dict[Fraction, CellOrigin]:
        """First numeric cell (row-major) holding each value."""
        return self._first_numeric_cells(lambda value: value)

    @cached_property
    def cells_by_magnitude(self) -> dict[Fraction, CellOrigin]:
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
    def lexical(self) -> _LexicalIndex:
        table = self.context.table
        cells = []
        cell_slots: dict[tuple[int, int], int] = {}
        for cell in table.iter_cells():
            header_words = None
            if cell.numeric is not None:
                words: set[str] = set()
                if cell.row > 0:
                    words |= _content_words(table.cell(0, cell.col).text)
                if cell.col > 0:
                    words |= _content_words(table.cell(cell.row, 0).text)
                header_words = frozenset(words)
            cell_slots[(cell.row, cell.col)] = len(cells)
            cells.append((_content_words(cell.text), header_words))

        # a paragraph word belongs to the first sentence ending after its
        # start; paragraphs are walked by position, as ids may repeat
        sentences: list[frozenset[str]] = []
        slot_positions: list[list[int]] = [[] for _ in cells]
        for entry, positions in zip(self.paragraphs, self.paragraph_positions):
            text = entry.paragraph.text
            boundaries = []
            start = 0
            for match in _SENTENCE_END_RE.finditer(text):
                sentence = text[start : match.end()]
                if sentence.strip():
                    boundaries.append((match.end(), len(cells) + len(sentences)))
                    sentences.append(_content_words(sentence))
                    slot_positions.append([])
                start = match.end()
            for position, (word_start, _) in zip(positions, entry.word_spans):
                for end, slot in boundaries:
                    if word_start < end:
                        slot_positions[slot].append(position)
                        break
        for (row, col), positions in self.cell_ranges.items():
            slot_positions[cell_slots[(row, col)]].extend(positions)
        return _LexicalIndex(
            tuple(cells), tuple(sentences), tuple(map(tuple, slot_positions))
        )


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
    """Skeleton of the input sequence: (unit text, origin) in order."""
    units: list[tuple[str, UnitOrigin]] = [
        (word, QuestionWord(index)) for index, word in enumerate(_words(question_text))
    ]
    units.extend(_context_index(context).skeleton)
    return units


def decode_evidence(
    tags: TaggedSequence, threshold: float = 0.5
) -> list[EvidenceCandidate]:
    """Turn tagged units into evidence candidates, in input-sequence order.

    A cell is a candidate when any of its units exceeds the threshold;
    consecutive positive paragraph words merge into one span.  Candidate
    probability is the maximum over its positive units, and the numeric
    field is filled when the candidate text parses as a single number.
    """
    candidates: list[EvidenceCandidate] = []

    cell_key: tuple[int, int] | None = None
    cell_words: list[str] = []
    cell_best = 0.0
    cell_position = 0

    span_key: tuple[str, int] | None = None  # (paragraph, expected next word)
    span_start = 0
    span_words: list[str] = []
    span_best = 0.0
    span_position = 0

    def flush_cell() -> None:
        nonlocal cell_key
        if cell_key is not None and cell_best > threshold:
            text = " ".join(cell_words)
            candidates.append(
                EvidenceCandidate(
                    text=text,
                    probability=cell_best,
                    origin=CellOrigin(*cell_key),
                    numeric=parse_number(text),
                    position=cell_position,
                )
            )
        cell_key = None

    def flush_span() -> None:
        nonlocal span_key
        if span_key is not None:
            text = " ".join(span_words)
            candidates.append(
                EvidenceCandidate(
                    text=text,
                    probability=span_best,
                    origin=SpanOrigin(span_key[0], span_start, span_key[1]),
                    numeric=parse_number(text),
                    position=span_position,
                )
            )
        span_key = None

    for index, unit in enumerate(tags.units):
        origin = unit.origin  # question words fall through: never evidence
        if isinstance(origin, ParagraphWord):
            if cell_key is not None:
                flush_cell()
            probability = unit.probability
            if not probability > threshold:
                if span_key is not None:
                    flush_span()
            elif span_key == (origin.paragraph_id, origin.word):
                span_key = (origin.paragraph_id, origin.word + 1)
                span_words.append(unit.text)
                span_best = max(span_best, probability)
            else:
                flush_span()
                span_key = (origin.paragraph_id, origin.word + 1)
                span_start = origin.word
                span_words = [unit.text]
                span_best = probability
                span_position = index
        elif isinstance(origin, CellWord):
            key = (origin.row, origin.col)
            if key != cell_key:
                flush_cell()
                cell_key = key
                cell_words = []
                cell_best = 0.0
                cell_position = index
            cell_words.append(unit.text)
            if unit.probability > threshold:
                cell_best = max(cell_best, unit.probability)
    flush_cell()
    flush_span()
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
        if loose:
            return index.cells_by_magnitude.get(abs(item.value))
        return index.cells_by_value.get(item.value)
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
    for entry in index.paragraphs:
        paragraph_id = entry.paragraph.paragraph_id
        if item.value is not None:
            for parsed, (start, end) in entry.numbers:
                if parsed.value == item.value or (
                    loose and abs(parsed.value) == abs(item.value)
                ):
                    word_range = _char_to_word_range(entry.word_spans, start, end)
                    if word_range:
                        return SpanOrigin(paragraph_id, *word_range)
        else:
            found = entry.folded.find(item.surface.casefold())
            if found >= 0:
                word_range = _char_to_word_range(
                    entry.word_spans, found, found + len(item.surface)
                )
                if word_range:
                    return SpanOrigin(paragraph_id, *word_range)
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
            origin = finder(index, item, loose)
            if origin is not None:
                return origin
    return None


def _merge_spans(origins: list[SpanOrigin]) -> list[SpanOrigin]:
    """Merge overlapping or adjacent spans per paragraph, mirroring what
    decoding contiguous positive words would produce."""
    by_paragraph: dict[str, list[SpanOrigin]] = {}
    for origin in origins:
        by_paragraph.setdefault(origin.paragraph_id, []).append(origin)
    merged: list[SpanOrigin] = []
    for paragraph_id, spans in by_paragraph.items():
        spans.sort(key=lambda s: (s.start, s.stop))
        current = spans[0]
        for span in spans[1:]:
            if span.start <= current.stop:
                current = SpanOrigin(
                    paragraph_id, current.start, max(current.stop, span.stop)
                )
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
        origin = _locate(index, item, table_first)
        if origin is None:
            missing.append(item.surface)
        else:
            located[item] = origin
    if missing:
        raise UnlocatableEvidenceError(question.question_id, missing)

    operator = classify_operator(
        _try_parse(question), question.answer_type, question.answer_source
    )

    def position_of_value(value: Fraction) -> int:
        for item, origin in located.items():
            if item.value == value:
                # the question words precede every origin, so skeleton
                # positions order origins as the input sequence does
                position = next(index.positions(origin), None)
                if position is None:
                    raise ValueError(f"origin {origin} not present in the input sequence")
                return position
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


def _try_parse(question: QuestionRecord):
    if question.answer_type not in (AnswerType.COUNTING, AnswerType.ARITHMETIC):
        return None
    try:
        return parsed_derivation(question)
    except DerivationParseError:
        return None


# ---------------------------------------------------------------------------
# Taggers
# ---------------------------------------------------------------------------


class OracleTagger:
    """Perfect realization of the gold tag labels: probability 1.0 on
    gold-positive origins and 0.0 elsewhere."""

    def tag(self, question: QuestionRecord, context: HybridContext) -> TaggedSequence:
        labels = build_supervision(question, context)
        index = _context_index(context)
        units = list(index.uniform_units(0.0))
        for origin in labels.g_tag:
            for position in index.positions(origin):
                unit = units[position]
                units[position] = TagUnit(unit.text, unit.origin, 1.0)
        return TaggedSequence(tuple(_question_units(question.text) + units))


_STOPWORDS = frozenset(
    """a an the of in on at to for from by with as is are was were be been being
    do does did done what which when where who whom whose how why much many and
    or not than that this these those it its their there between during per each
    have has had having will would can could should may might must s""".split()
)

_TOKEN_CLEAN_RE = re.compile(r"^\W+|\W+$")


def _content_words(text: str) -> frozenset[str]:
    words = set()
    for token in text.lower().split():
        token = _TOKEN_CLEAN_RE.sub("", token).replace(",", "")
        if token and token not in _STOPWORDS:
            words.add(token)
    return frozenset(words)


def _jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    if not a or not b:
        return 0.0
    union = len(a | b)
    return len(a & b) / union if union else 0.0


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
        lexical = index.lexical

        scores = []
        for cell_words, header_words in lexical.cells:
            score = _jaccard(question_words, cell_words)
            if header_words is not None:
                score = max(score, _jaccard(question_words, header_words))
            scores.append(score)
        scores.extend(_jaccard(question_words, words) for words in lexical.sentences)

        # units of a zero-overlap slot keep the shared floor units
        units = list(index.uniform_units(self._smooth(0.0)))
        for score, positions in zip(scores, lexical.slot_positions):
            if score:
                probability = self._smooth(score)
                for position in positions:
                    unit = units[position]
                    units[position] = TagUnit(unit.text, unit.origin, probability)
        return TaggedSequence(tuple(_question_units(question.text) + units))


# ---------------------------------------------------------------------------
# Supervision export
# ---------------------------------------------------------------------------


def origin_to_json(origin: CandidateOrigin) -> dict:
    if isinstance(origin, CellOrigin):
        return {"kind": "cell", "row": origin.row, "col": origin.col}
    return {
        "kind": "span",
        "paragraph_id": origin.paragraph_id,
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
    not parse) are skipped and reported, not fatal.
    """
    export = SupervisionExport(n_written=0)
    with Path(path).open("w", encoding="utf-8") as handle:
        for context, question in iter_questions(dataset):
            try:
                labels = build_supervision(question, context)
            except (UnlocatableEvidenceError, DerivationParseError) as exc:
                export.failures.append((question.question_id, str(exc)))
                continue
            record = {
                "question_id": question.question_id,
                "g_op": labels.g_op,
                "g_scale": labels.g_scale.word,
                "g_order": labels.g_order,
                "g_tag": sorted(
                    (origin_to_json(origin) for origin in labels.g_tag),
                    key=lambda o: (o["kind"], str(o)),
                ),
            }
            handle.write(json.dumps(record) + "\n")
            export.n_written += 1
    return export
