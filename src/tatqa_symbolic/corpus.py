"""Dataset model and loader for hybrid table+text QA corpora.

The on-disk format is the public TAT-QA JSON release: an array of
documents, each holding one table (``table.uid`` plus a row-major 2-D
array of cell strings), its associated paragraphs (``uid``, ``order``,
``text``) and the questions asked against that context (``uid``,
``question``, ``answer``, ``derivation``, ``answer_type``,
``answer_from``, ``scale``).

The loader ignores unknown fields, strict or not.  It is tolerant by
default (shape oddities produce warnings) and pedantic under
``strict=True`` (any such deviation raises).  Loaded records are frozen
dataclasses, with one exception: a span answer is a ``list`` of strings,
which a caller could mutate in place.  No code in this package does, so
loaded records are safe to share across threads.

Loading does per record only the work its checks need: each distinct
spelling of a question's labels is parsed once per call, through a
memo that lives for that call alone, and the location of a paragraph
or a question (``$[i].questions[j]``) or a default id is formatted only
where an error, a warning or a record without a ``uid`` uses it.

It also owns what the other modules share: an answer's span texts
(``answer_spans``) and every file the package writes (``write_json``
and ``write_lines``), each written whole or not at all.
"""

from __future__ import annotations

import json
import logging
import os
import stat
import sys
from collections import defaultdict
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import chain, repeat
from operator import attrgetter
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


@dataclass(frozen=True)
class HybridContext:
    """One table plus its associated paragraphs, the unit of reasoning."""

    context_id: str
    table: Table
    paragraphs: tuple[Paragraph, ...]


@dataclass(frozen=True)
class QuestionRecord:
    question_id: str
    text: str
    answer: AnswerValue
    answer_type: str
    answer_source: str
    gold_scale: Scale
    derivation: str = ""


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


_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})


def _all_scalars(values) -> bool:
    return _SCALAR_TYPES.issuperset(map(type, values))


def write_json(path: str | Path, payload: Any) -> None:
    """Write ``payload`` to ``path`` as exactly the text of
    ``json.dumps(payload, indent=1)``: the one writer of indented files.

    ``json.dumps`` takes its pure-Python encoder whenever ``indent`` is
    set.  Here the C encoder writes each container whose children are all
    scalars in one call, with the newline and indent in its item separator,
    and a list of non-empty such dicts in one call and one ``str.replace``.
    The replace is exact because an encoded string escapes every newline,
    so a raw newline is only ever a separator.  The text is built whole
    before the file is opened, and written in one call.
    """
    encoders: dict[int, json.JSONEncoder] = {}
    pieces: list[str] = []

    def encode(value, depth: int) -> str:
        # depth: the indent of the value's items, in spaces
        encoder = encoders.get(depth)
        if encoder is None:
            encoder = encoders[depth] = json.JSONEncoder(
                separators=(",\n" + " " * depth, ": "), check_circular=False
            )
        return encoder.encode(value)

    def key_text(key) -> str:
        if isinstance(key, str):
            return encode(key, 0)
        if key is None or isinstance(key, (int, float)):
            return encode(encode(key, 0), 0)  # a scalar key is written as its quoted JSON text
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")

    def emit(value, depth: int) -> None:
        is_dict = isinstance(value, dict)
        if not (is_dict or isinstance(value, (list, tuple))) or not value:
            pieces.append(encode(value, depth))  # a scalar, "{}" or "[]"
            return
        pad = "\n" + " " * depth
        close = pad[:-1] + ("}" if is_dict else "]")
        if _all_scalars(value.values() if is_dict else value):
            text = encode(value, depth)
            pieces.extend((text[0], pad, text[1:-1], close))
        elif (
            not is_dict
            and all(type(row) is dict and row for row in value)
            and _all_scalars(chain.from_iterable(map(dict.values, value)))
        ):
            inner = pad + " "
            rows = encode(value, depth + 1)[2:-2].replace("}," + inner + "{",
                                                           pad + "}," + pad + "{" + inner)
            pieces.extend(("[", pad, "{", inner, rows, pad, "}", close))
        else:
            separator = "," + pad
            if is_dict:
                for i, (key, child) in enumerate(value.items()):
                    pieces.extend((separator if i else "{" + pad, key_text(key), ": "))
                    emit(child, depth + 1)
            else:
                for i, child in enumerate(value):
                    pieces.append(separator if i else "[" + pad)
                    emit(child, depth + 1)
            pieces.append(close)

    emit(payload, 1)
    _write_text(path, "".join(pieces))


# one encoder for every line; a record holds no cycles to check for
_LINE_ENCODER = json.JSONEncoder(check_circular=False)


def write_lines(path: str | Path, records) -> None:
    """Write each of ``records`` on its own line as exactly the text of
    ``json.dumps(record)``: the one writer of JSON-lines files.  The text
    is built whole before the file is opened, and written in one call."""
    lines = list(map(_LINE_ENCODER.encode, records))
    lines.append("")  # the last line ends in a newline too
    _write_text(path, "\n".join(lines))


def _write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` whole or not at all.

    The text goes to a new file beside the target, which ``os.replace``
    then moves over it, so a write that fails or is stopped leaves the
    previous file as it was; on an error the new file is removed.  A
    symbolic link is written through.  A target that is not a regular
    file (a pipe, ``/dev/null``), that cannot be resolved to one, or
    beside which no file can be made is written in place, and the file
    on stdout through ``sys.stdout``, in its place among the prints.
    """
    try:
        on_stdout = os.path.samestat(os.stat(path), os.fstat(sys.stdout.fileno()))
    except (OSError, ValueError):  # no such file, or no descriptor on stdout
        on_stdout = False
    if on_stdout:  # the text is ASCII, as JSON is written
        print(text, end="", flush=True)
        return
    target = os.path.realpath(path)
    head, name = os.path.split(target)
    # the pid keeps live writers apart; a file left by a killed one is reused
    temporary = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        file = open(temporary, "w", encoding="utf-8") if _replaceable(path, target) else None
    except OSError:
        file = None
    if file is None:  # any error is then reported, and named, as a direct write's
        try:
            Path(path).write_text(text, encoding="utf-8")
        except BrokenPipeError as exc:  # named, so as not to pass for stdout's
            raise OSError(f"{path}: {exc.strerror}") from None
        return
    try:
        with file:
            file.write(text)
        os.replace(temporary, target)
    except BaseException:
        os.remove(temporary)
        raise


def flush_stdout() -> None:
    """Flush stdout; on an error, point fd 1 at the null device for the last
    flush at exit, and raise the error unless stdout's reader has gone."""
    try:
        sys.stdout.flush()
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            raise


def _replaceable(path: str | Path, target: str) -> bool:
    """Whether ``path`` names a regular file, or none, at ``target``.

    ``os.stat`` follows every link, ``/dev/fd`` and ``/proc`` ones too,
    which ``os.path.realpath`` cannot read back as a path: the target
    must be the very file that ``path`` opens.
    """
    try:
        found = os.stat(path)
    except FileNotFoundError:
        return True  # a new file, or one through a dangling link
    except OSError:
        return False  # a link loop, say: the direct write reports it
    try:
        return stat.S_ISREG(found.st_mode) and os.path.samestat(found, os.stat(target))
    except OSError:
        return False


def load_dataset(path: str | Path, strict: bool = False) -> Dataset:
    """Load a dataset file into validated, frozen records."""
    return parse_documents(read_json(path), strict)


def parse_documents(raw: Any, strict: bool = False) -> Dataset:
    """Build validated, frozen records from decoded documents
    (:func:`read_json`).

    In tolerant mode (the default) recoverable deviations are logged as
    warnings; ``strict=True`` turns every deviation into an error.
    """
    if not isinstance(raw, list):
        raise DatasetParseError("top level must be an array of documents", "$")

    dataset: Dataset = []
    seen_question_ids: set[str] = set()
    # each raw (answer_type, answer_from, scale) spelling, parsed once per call
    labels: dict[tuple, tuple[str, str, Scale]] = {}
    for doc_index, doc in enumerate(raw):
        location = f"$[{doc_index}]"
        if not isinstance(doc, dict):
            raise DatasetParseError("document must be an object", location)
        context = _parse_context(doc, location, strict)
        questions = _parse_questions(
            doc, context, location, strict, seen_question_ids, labels
        )
        dataset.append((context, questions))
    return dataset


# stands for a missing field, whose default is formatted only when needed
_MISSING = object()


def _parse_context(doc: dict, location: str, strict: bool) -> HybridContext:
    table_obj = doc.get("table")
    if not isinstance(table_obj, dict) or "table" not in table_obj:
        raise DatasetParseError("missing table object", f"{location}.table")
    uid = table_obj.get("uid", _MISSING)
    context_id = f"context-{location}" if uid is _MISSING else str(uid)

    grid = table_obj["table"]
    if not isinstance(grid, list) or not grid or not all(map(isinstance, grid, repeat(list))):
        raise DatasetParseError(
            "table must be a non-empty 2-D array", f"{location}.table.table"
        )
    widths = set(map(len, grid))
    n_cols = max(widths)
    if len(widths) > 1:
        _problem(
            f"ragged table (row widths {sorted(widths)}), padding with empty cells",
            f"{location}.table.table",
            strict,
        )
    if n_cols == 0:
        raise DatasetParseError("table has no columns", f"{location}.table.table")

    # a text no longer than the digit limit cannot hold more digits, so
    # only a table with a longer one can fail to parse when the index reads
    # it; str() can fail too (an int too long to print), and then the rows
    # are read one by one to find which of the two fails first
    try:
        rows = tuple(tuple(map(str, row)) + ("",) * (n_cols - len(row)) for row in grid)
        readable = max(map(len, chain.from_iterable(rows))) <= NumberTooLongError.LIMIT
    except ValueError:
        readable = False
    if not readable:
        rows = []
        for r, raw_row in enumerate(grid):
            row = tuple(map(str, raw_row)) + ("",) * (n_cols - len(raw_row))
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
        if not isinstance(raw_p, dict):
            raise DatasetParseError(
                "paragraph must be an object", f"{location}.paragraphs[{p_index}]"
            )
        raw_order = raw_p.get("order", p_index + 1)
        try:
            order = int(raw_order)
        except (TypeError, ValueError, OverflowError):
            order = None
        # int() would also turn 1.5 into 1 and true into 1
        if order is None or isinstance(raw_order, bool) or (
            not isinstance(raw_order, str) and order != raw_order
        ):
            raise DatasetParseError(
                "paragraph order must be an integer",
                f"{location}.paragraphs[{p_index}].order",
            )
        if order in seen_orders:
            _problem(f"duplicate paragraph order {order}",
                     f"{location}.paragraphs[{p_index}]", strict)
        seen_orders.add(order)
        uid = raw_p.get("uid", _MISSING)
        paragraph_id = f"{context_id}-p{p_index}" if uid is _MISSING else str(uid)
        if paragraph_id in seen_ids:
            _problem(f"duplicate paragraph uid {paragraph_id}",
                     f"{location}.paragraphs[{p_index}]", strict)
        seen_ids.add(paragraph_id)
        paragraphs.append(Paragraph(paragraph_id, order, str(raw_p.get("text", ""))))
    paragraphs.sort(key=attrgetter("order"))
    if len(paragraphs) < 2:
        _problem(
            f"context has {len(paragraphs)} paragraph(s), expected at least 2",
            f"{location}.paragraphs",
            strict,
        )

    return HybridContext(context_id, table, tuple(paragraphs))


def _parse_questions(
    doc: dict,
    context: HybridContext,
    location: str,
    strict: bool,
    seen_question_ids: set[str],
    labels: dict[tuple, tuple[str, str, Scale]],
) -> list[QuestionRecord]:
    raw_questions = doc.get("questions", [])
    if not isinstance(raw_questions, list):
        raise DatasetParseError("questions must be an array", f"{location}.questions")

    questions = []
    for q_index, raw_q in enumerate(raw_questions):
        if not isinstance(raw_q, dict):
            raise DatasetParseError(
                "question must be an object", f"{location}.questions[{q_index}]"
            )
        uid = raw_q.get("uid", _MISSING)
        question_id = f"{context.context_id}-q{q_index}" if uid is _MISSING else str(uid)
        if question_id in seen_question_ids:
            _problem(f"duplicate question uid {question_id}",
                     f"{location}.questions[{q_index}]", strict)
        seen_question_ids.add(question_id)

        spelling = (raw_q.get("answer_type", ""), raw_q.get("answer_from", ""),
                    raw_q.get("scale", ""))
        try:
            answer_type, answer_source, gold_scale = labels[spelling]
        except (KeyError, TypeError):  # a spelling not seen yet, or an unhashable one
            try:
                answer_type = _parse_label(
                    "answer_type", str(spelling[0]), AnswerType.ALIASES, strict
                )
                answer_source = _parse_label(
                    "answer_from", str(spelling[1]), AnswerSource.ALIASES, strict
                )
                gold_scale = Scale.from_word(str(spelling[2]))
            except ValueError as exc:
                raise DatasetValidationError(
                    str(exc), context.context_id, question_id
                ) from exc
            # only strings and a null scale parse, and no two of them are
            # equal unless they spell the same, so a stored key is exact
            labels[spelling] = answer_type, answer_source, gold_scale

        derivation = str(raw_q.get("derivation", "") or "")
        if answer_type in (AnswerType.COUNTING, AnswerType.ARITHMETIC) and not derivation.strip():
            message = f"{answer_type} question lacks a derivation"
            if strict:
                raise DatasetValidationError(message, context.context_id, question_id)
            logger.warning("%s/%s: %s", context.context_id, question_id, message)

        questions.append(
            QuestionRecord(
                question_id,
                str(raw_q.get("question", "")),
                _coerce_answer(raw_q.get("answer", "")),
                answer_type,
                answer_source,
                gold_scale,
                derivation,
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


def answer_spans(value: Any) -> list[str]:
    """An answer value's span texts, as :func:`render_answer` gives them:
    a list's items, an exact number as one decimal, and any other value
    as its ``str``, none when that is empty."""
    spans = render_answer(value)
    if isinstance(spans, str):
        return [spans] if spans else []
    return spans


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
        avg_answer_len=mean([sum(map(_word_count, answer_spans(q.answer)))
                             for _, q in iter_questions(dataset)]),
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


def field_inventory(raw: Any) -> dict[str, dict]:
    """Inventory of observed field paths in documents decoded by
    :func:`read_json`.

    Returns ``{json_path: {"count": n, "types": sorted type names}}`` so a
    new dataset release can be diffed against the expected schema before
    anything is loaded.

    The walk is breadth-first: each level groups the items of every
    container found at one path by key, so a path is spelled once per
    distinct key, not once per item.  A list's items are recorded only
    through the keys of those that are objects, and a scalar, passed
    down with the containers, holds no paths: a path whose values are all
    of exact scalar types is passed over whole, by one check in C.
    """
    counts: dict[str, int] = {}
    kinds: dict[str, set[type]] = {}
    level: dict[str, list] = {"$": [raw]}  # path -> the values at it
    while level:
        below: dict[str, list] = {}
        for json_path, values in level.items():
            if _all_scalars(values):
                continue
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
