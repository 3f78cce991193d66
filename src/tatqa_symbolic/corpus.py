"""Dataset model and loader for hybrid table+text QA corpora.

The on-disk format is the public TAT-QA JSON release: an array of
documents, each holding one table (``table.uid`` plus a row-major 2-D
array of cell strings), its associated paragraphs (``uid``, ``order``,
``text``) and the questions asked against that context (``uid``,
``question``, ``answer``, ``derivation``, ``answer_type``,
``answer_from``, ``scale``).

The loader is tolerant by default (unknown fields are preserved but
ignored, shape oddities produce warnings) and pedantic under
``strict=True`` (any deviation raises).  Loaded objects are immutable
and safe to share across threads.
"""

from __future__ import annotations

import json
import logging
from collections import defaultdict
from contextlib import suppress
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterator, Union

from .errors import DatasetParseError, DatasetValidationError, NumberTooLongError
from .numerics import Scale, json_decimal, parse_number, render_decimal

logger = logging.getLogger(__name__)

# Collection-time bounds reported for the released corpus; violations are
# worth a warning but are not a validity rule.
ROW_BOUNDS = (3, 30)
COL_BOUNDS = (3, 6)


class AnswerType:
    """The four answer kinds, as spelled in dataset files."""

    SPAN = "span"
    SPANS = "multi-span"
    COUNTING = "count"
    ARITHMETIC = "arithmetic"

    ALL = (SPAN, SPANS, COUNTING, ARITHMETIC)
    LABELS = {SPAN: "Span", SPANS: "Spans", COUNTING: "Counting", ARITHMETIC: "Arithmetic"}

    ALIASES = {
        "span": SPAN,
        "multi-span": SPANS,
        "spans": SPANS,
        "multispan": SPANS,
        "count": COUNTING,
        "counting": COUNTING,
        "arithmetic": ARITHMETIC,
    }


class AnswerSource:
    """Where the gold answer draws from: table, text, or both."""

    TABLE = "table"
    TEXT = "text"
    TABLE_TEXT = "table-text"

    ALL = (TABLE, TEXT, TABLE_TEXT)
    LABELS = {TABLE: "Table", TEXT: "Text", TABLE_TEXT: "Table-text"}

    ALIASES = {
        "table": TABLE,
        "text": TEXT,
        "table-text": TABLE_TEXT,
        "table_text": TABLE_TEXT,
        "tabletext": TABLE_TEXT,
    }


def _parse_label(field_name: str, raw: str, aliases: dict[str, str], strict: bool) -> str:
    """Canonical spelling of a label read from ``field_name``.  Every
    canonical spelling is an alias of itself; strict mode accepts only
    those."""
    key = raw.strip().lower()
    canonical = aliases.get(key)
    if canonical is None or (strict and key != canonical):
        raise ValueError(f"unknown {field_name}: {raw!r}")
    return canonical


AnswerValue = Union[str, list, Fraction]


@dataclass(frozen=True)
class Table:
    """A table's cell texts, row by row, every row the same width."""

    texts: tuple[tuple[str, ...], ...]

    @property
    def n_rows(self) -> int:
        return len(self.texts)

    @property
    def n_cols(self) -> int:
        return len(self.texts[0]) if self.texts else 0


@dataclass(frozen=True)
class Paragraph:
    paragraph_id: str
    order: int
    text: str
    extras: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class HybridContext:
    """One table plus its associated paragraphs, the unit of reasoning."""

    context_id: str
    table: Table
    paragraphs: tuple[Paragraph, ...]
    extras: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class QuestionRecord:
    question_id: str
    text: str
    answer: AnswerValue
    answer_type: str
    answer_source: str
    gold_scale: Scale
    derivation: str = ""
    extras: dict = field(default_factory=dict, compare=False)


Dataset = list[tuple[HybridContext, list[QuestionRecord]]]


def iter_questions(dataset: Dataset) -> Iterator[tuple[HybridContext, QuestionRecord]]:
    for context, questions in dataset:
        for question in questions:
            yield context, question


def repeated_question_id(dataset: Dataset) -> str | None:
    """The first question uid that occurs twice in ``dataset``, if any."""
    seen: set[str] = set()
    for _, question in iter_questions(dataset):
        if question.question_id in seen:
            return question.question_id
        seen.add(question.question_id)
    return None


_KNOWN_DOC_FIELDS = {"table", "paragraphs", "questions"}
_KNOWN_PARAGRAPH_FIELDS = {"uid", "order", "text"}
_KNOWN_QUESTION_FIELDS = {
    "uid",
    "question",
    "answer",
    "derivation",
    "answer_type",
    "answer_from",
    "scale",
}


def _coerce_answer(raw: Any) -> AnswerValue:
    if isinstance(raw, bool):
        return str(raw)
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, Decimal):
        return Fraction(raw)
    if isinstance(raw, list):
        return [str(item) for item in raw]
    return str(raw)


def _problem(message: str, location: str, strict: bool) -> None:
    if strict:
        raise DatasetParseError(message, location)
    logger.warning("%s: %s", location, message)


def read_json(path: str | Path, **hooks) -> Any:
    """The JSON of the UTF-8 file at ``path``, floats as ``Decimal``: the one
    decoder of input files.  A file that cannot be decoded raises
    ``DatasetParseError`` at ``byte N`` (not UTF-8), ``line L column C``
    (not JSON) or ``$`` (nested too deeply, a lone surrogate, which UTF-8
    cannot encode, or a number too long to read exactly)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        raw = json.loads(text, parse_float=json_decimal, **hooks)
        if "\\" in text and ("\\ud" in text or "\\uD" in text):  # it may escape a surrogate
            json.dumps(raw, ensure_ascii=False, default=str).encode("utf-8")
    except UnicodeDecodeError as exc:
        raise DatasetParseError("not UTF-8 text", f"byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise DatasetParseError(f"invalid JSON: {exc.msg}",
                                f"line {exc.lineno} column {exc.colno}") from exc
    except RecursionError as exc:
        raise DatasetParseError("invalid JSON: nested too deeply to read", "$") from exc
    except UnicodeEncodeError as exc:
        raise DatasetParseError("not UTF-8 text: a lone surrogate in a string", "$") from exc
    except ValueError as exc:  # a number past the digit limit, JSON integers included
        raise DatasetParseError(f"unreadable number: {exc}", "$") from exc
    return raw


def load_dataset(path: str | Path, strict: bool = False) -> Dataset:
    """Load a dataset file into validated, immutable records."""
    return parse_documents(read_json(path), strict)


def parse_documents(raw: Any, strict: bool = False) -> Dataset:
    """Build validated, immutable records from decoded documents
    (:func:`read_json`).

    In tolerant mode (the default) recoverable deviations are logged as
    warnings; ``strict=True`` turns every deviation into an error.
    """
    if not isinstance(raw, list):
        raise DatasetParseError("top level must be an array of documents", "$")

    dataset: Dataset = []
    seen_question_ids: set[str] = set()
    for doc_index, doc in enumerate(raw):
        location = f"$[{doc_index}]"
        if not isinstance(doc, dict):
            raise DatasetParseError("document must be an object", location)
        context = _parse_context(doc, location, strict)
        questions = _parse_questions(
            doc, context, location, strict, seen_question_ids
        )
        dataset.append((context, questions))
    return dataset


def _parse_context(doc: dict, location: str, strict: bool) -> HybridContext:
    table_obj = doc.get("table")
    if not isinstance(table_obj, dict) or "table" not in table_obj:
        raise DatasetParseError("missing table object", f"{location}.table")
    context_id = str(table_obj.get("uid", f"context-{location}"))

    grid = table_obj["table"]
    if not isinstance(grid, list) or not grid or not all(isinstance(r, list) for r in grid):
        raise DatasetParseError(
            "table must be a non-empty 2-D array", f"{location}.table.table"
        )
    widths = {len(row) for row in grid}
    n_cols = max(widths)
    if len(widths) > 1:
        _problem(
            f"ragged table (row widths {sorted(widths)}), padding with empty cells",
            f"{location}.table.table",
            strict,
        )
    if n_cols == 0:
        raise DatasetParseError("table has no columns", f"{location}.table.table")

    rows = []
    for r, raw_row in enumerate(grid):
        row = tuple(map(str, raw_row)) + ("",) * (n_cols - len(raw_row))
        # a text no longer than the digit limit cannot hold more digits,
        # so only a longer one can fail to parse when the index reads it
        if max(map(len, row)) > NumberTooLongError.LIMIT:
            for c, text in enumerate(row):
                try:
                    parse_number(text)
                except NumberTooLongError as exc:
                    raise DatasetParseError(
                        f"unreadable number: {exc}", f"{location}.table.table[{r}][{c}]"
                    ) from exc
        rows.append(row)
    table = Table(tuple(rows))

    if not (ROW_BOUNDS[0] <= table.n_rows <= ROW_BOUNDS[1]):
        logger.warning(
            "%s: table has %d rows, outside the usual %d-%d range",
            context_id, table.n_rows, *ROW_BOUNDS,
        )
    if not (COL_BOUNDS[0] <= table.n_cols <= COL_BOUNDS[1]):
        logger.warning(
            "%s: table has %d columns, outside the usual %d-%d range",
            context_id, table.n_cols, *COL_BOUNDS,
        )

    paragraphs = []
    raw_paragraphs = doc.get("paragraphs", [])
    if not isinstance(raw_paragraphs, list):
        raise DatasetParseError("paragraphs must be an array", f"{location}.paragraphs")
    seen_orders: set[int] = set()
    seen_ids: set[str] = set()
    for p_index, raw_p in enumerate(raw_paragraphs):
        p_loc = f"{location}.paragraphs[{p_index}]"
        if not isinstance(raw_p, dict):
            raise DatasetParseError("paragraph must be an object", p_loc)
        raw_order = raw_p.get("order", p_index + 1)
        try:
            order = int(raw_order)
        except (TypeError, ValueError, OverflowError):
            order = None
        # int() would also turn 1.5 into 1 and true into 1
        if order is None or isinstance(raw_order, bool) or (
            not isinstance(raw_order, str) and order != raw_order
        ):
            raise DatasetParseError("paragraph order must be an integer", f"{p_loc}.order")
        if order in seen_orders:
            _problem(f"duplicate paragraph order {order}", p_loc, strict)
        seen_orders.add(order)
        paragraph_id = str(raw_p.get("uid", f"{context_id}-p{p_index}"))
        if paragraph_id in seen_ids:
            _problem(f"duplicate paragraph uid {paragraph_id}", p_loc, strict)
        seen_ids.add(paragraph_id)
        paragraphs.append(
            Paragraph(
                paragraph_id=paragraph_id,
                order=order,
                text=str(raw_p.get("text", "")),
                extras={k: v for k, v in raw_p.items() if k not in _KNOWN_PARAGRAPH_FIELDS},
            )
        )
    paragraphs.sort(key=lambda p: p.order)
    if len(paragraphs) < 2:
        _problem(
            f"context has {len(paragraphs)} paragraph(s), expected at least 2",
            f"{location}.paragraphs",
            strict,
        )

    return HybridContext(
        context_id=context_id,
        table=table,
        paragraphs=tuple(paragraphs),
        extras={k: v for k, v in doc.items() if k not in _KNOWN_DOC_FIELDS},
    )


def _parse_questions(
    doc: dict,
    context: HybridContext,
    location: str,
    strict: bool,
    seen_question_ids: set[str],
) -> list[QuestionRecord]:
    raw_questions = doc.get("questions", [])
    if not isinstance(raw_questions, list):
        raise DatasetParseError("questions must be an array", f"{location}.questions")

    questions = []
    for q_index, raw_q in enumerate(raw_questions):
        q_loc = f"{location}.questions[{q_index}]"
        if not isinstance(raw_q, dict):
            raise DatasetParseError("question must be an object", q_loc)
        question_id = str(raw_q.get("uid", f"{context.context_id}-q{q_index}"))
        if question_id in seen_question_ids:
            _problem(f"duplicate question uid {question_id}", q_loc, strict)
        seen_question_ids.add(question_id)

        try:
            answer_type = _parse_label(
                "answer_type", str(raw_q.get("answer_type", "")), AnswerType.ALIASES, strict
            )
            answer_source = _parse_label(
                "answer_from", str(raw_q.get("answer_from", "")), AnswerSource.ALIASES, strict
            )
            gold_scale = Scale.from_word(str(raw_q.get("scale", "")))
        except ValueError as exc:
            raise DatasetValidationError(
                str(exc), context.context_id, question_id
            ) from exc

        derivation = str(raw_q.get("derivation", "") or "")
        if answer_type in (AnswerType.COUNTING, AnswerType.ARITHMETIC) and not derivation.strip():
            message = f"{answer_type} question lacks a derivation"
            if strict:
                raise DatasetValidationError(message, context.context_id, question_id)
            logger.warning("%s/%s: %s", context.context_id, question_id, message)

        questions.append(
            QuestionRecord(
                question_id=question_id,
                text=str(raw_q.get("question", "")),
                answer=_coerce_answer(raw_q.get("answer", "")),
                answer_type=answer_type,
                answer_source=answer_source,
                gold_scale=gold_scale,
                derivation=derivation,
                extras={k: v for k, v in raw_q.items() if k not in _KNOWN_QUESTION_FIELDS},
            )
        )
    return questions


def render_answer(value: Any) -> str | list[str]:
    """An answer value as text: an exact number as a plain decimal, a list
    as its item strings, anything else as ``str``."""
    if isinstance(value, (Fraction, int)):
        return render_decimal(value)
    if isinstance(value, list):
        return [str(item) for item in value]
    return str(value)


def _json_answer(answer: AnswerValue) -> Any:
    if isinstance(answer, Fraction):
        if answer.denominator == 1:
            return int(answer)
        # json prints the shortest float repr; use it only when that
        # decimal text reconstructs the exact value (and a float can hold it)
        with suppress(OverflowError):
            candidate = float(answer)
            if Fraction(Decimal(repr(candidate))) == answer:
                return candidate
        return render_decimal(answer)
    return answer


class _ExtrasEncoder(json.JSONEncoder):
    def default(self, o: Any) -> Any:  # pragma: no cover - exercised via dump
        if isinstance(o, Decimal):
            return float(o)
        if isinstance(o, Fraction):
            return render_decimal(o)
        return super().default(o)


def dump_dataset(dataset: Dataset, path: str | Path) -> None:
    """Serialize back to the release format (retained fields plus extras)."""
    documents = []
    for context, questions in dataset:
        documents.append(
            {
                "table": {
                    "uid": context.context_id,
                    "table": [list(row) for row in context.table.texts],
                },
                "paragraphs": [
                    {
                        "uid": p.paragraph_id,
                        "order": p.order,
                        "text": p.text,
                        **p.extras,
                    }
                    for p in context.paragraphs
                ],
                "questions": [
                    {
                        "uid": q.question_id,
                        "question": q.text,
                        "answer": _json_answer(q.answer),
                        "derivation": q.derivation,
                        "answer_type": q.answer_type,
                        "answer_from": q.answer_source,
                        "scale": q.gold_scale.word,
                        **q.extras,
                    }
                    for q in questions
                ],
                **context.extras,
            }
        )
    Path(path).write_text(
        json.dumps(documents, indent=1, cls=_ExtrasEncoder), encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# Split statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StatsSummary:
    n_contexts: int
    n_questions: int
    avg_rows: float
    avg_cols: float
    avg_paragraphs: float
    avg_paragraph_len: float
    avg_question_len: float
    avg_answer_len: float

    ROW_LABELS = (
        ("n_contexts", "# of hybrid contexts"),
        ("n_questions", "# of questions"),
        ("avg_rows", "Avg. rows / table"),
        ("avg_cols", "Avg. cols / table"),
        ("avg_paragraphs", "Avg. paragraphs / table"),
        ("avg_paragraph_len", "Avg. paragraph len [words]"),
        ("avg_question_len", "Avg. question len [words]"),
        ("avg_answer_len", "Avg. answer len [words]"),
    )


def _word_count(text: str) -> int:
    return len(text.split())


def _answer_words(answer: AnswerValue) -> int:
    if isinstance(answer, Fraction):
        return 1
    if isinstance(answer, list):
        return sum(_word_count(str(item)) for item in answer)
    return _word_count(str(answer))


def split_stats(dataset: Dataset) -> StatsSummary:
    """Corpus-shape statistics; word counts use whitespace tokenization."""
    n_contexts = len(dataset)
    n_questions = sum(len(qs) for _, qs in dataset)

    def mean(values: list[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    paragraph_lengths = [
        _word_count(p.text) for ctx, _ in dataset for p in ctx.paragraphs
    ]
    return StatsSummary(
        n_contexts=n_contexts,
        n_questions=n_questions,
        avg_rows=mean([ctx.table.n_rows for ctx, _ in dataset]),
        avg_cols=mean([ctx.table.n_cols for ctx, _ in dataset]),
        avg_paragraphs=mean([len(ctx.paragraphs) for ctx, _ in dataset]),
        avg_paragraph_len=mean(paragraph_lengths),
        avg_question_len=mean([_word_count(q.text) for _, q in iter_questions(dataset)]),
        avg_answer_len=mean([_answer_words(q.answer) for _, q in iter_questions(dataset)]),
    )


@dataclass(frozen=True)
class TypeSourceMatrix:
    """Question counts per (answer type, answer source) with margins."""

    counts: dict
    type_totals: dict
    source_totals: dict
    total: int


def type_source_matrix(dataset: Dataset) -> TypeSourceMatrix:
    counts = {
        (t, s): 0 for t in AnswerType.ALL for s in AnswerSource.ALL
    }
    for _, question in iter_questions(dataset):
        counts[(question.answer_type, question.answer_source)] += 1
    type_totals = {
        t: sum(counts[(t, s)] for s in AnswerSource.ALL) for t in AnswerType.ALL
    }
    source_totals = {
        s: sum(counts[(t, s)] for t in AnswerType.ALL) for s in AnswerSource.ALL
    }
    return TypeSourceMatrix(
        counts=counts,
        type_totals=type_totals,
        source_totals=source_totals,
        total=sum(type_totals.values()),
    )


def percent_tally(keys, observed) -> dict:
    """Share in percent of each of ``keys`` among the ``observed`` values,
    in the order of ``keys``; all 0.0 when nothing is observed."""
    counts = dict.fromkeys(keys, 0)
    for value in observed:
        counts[value] += 1
    total = sum(counts.values())
    return {key: 100.0 * count / total if total else 0.0 for key, count in counts.items()}


def scale_distribution(dataset: Dataset) -> dict[Scale, float]:
    """Proportion (in percent) of gold scales over the dataset."""
    return percent_tally(Scale, (question.gold_scale for _, question in iter_questions(dataset)))


# ---------------------------------------------------------------------------
# Schema report
# ---------------------------------------------------------------------------


def schema_report(path: str | Path) -> dict[str, dict]:
    """Inventory of observed field paths in a raw dataset file.

    Returns ``{json_path: {"count": n, "types": sorted type names}}`` so a
    new dataset release can be diffed against the expected schema before
    anything is loaded.
    """
    return field_inventory(read_json(path))


def field_inventory(raw: Any) -> dict[str, dict]:
    """:func:`schema_report` of documents already decoded by
    :func:`read_json`.

    The walk is breadth-first: each level groups the items of every
    container found at one path by key, so a path is spelled once per
    distinct key, not once per item.  A list's items are recorded only
    through the keys of those that are objects, and a scalar, passed
    down with the containers, holds no paths.
    """
    counts: dict[str, int] = {}
    kinds: dict[str, set[type]] = {}
    level: dict[str, list] = {"$": [raw]}  # path -> the values at it
    while level:
        below: dict[str, list] = {}
        for json_path, values in level.items():
            by_key: defaultdict[Any, list] = defaultdict(list)
            listed: list = []
            for value in values:
                if isinstance(value, dict):
                    for key, item in value.items():
                        by_key[key].append(item)
                elif isinstance(value, list):
                    listed += value
            # two keys may spell one path, so every path accumulates
            for key, items in by_key.items():
                path = f"{json_path}.{key}"
                counts[path] = counts.get(path, 0) + len(items)
                kinds.setdefault(path, set()).update(map(type, items))
                below.setdefault(path, []).extend(items)
            if listed:
                below.setdefault(f"{json_path}[]", []).extend(listed)
        level = below
    return {
        # the reader decodes JSON floats as Decimal
        json_path: {
            "count": counts[json_path],
            "types": sorted({"float" if issubclass(t, Decimal) else t.__name__
                             for t in kinds[json_path]}),
        }
        for json_path in sorted(counts)
    }
