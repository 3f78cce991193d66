"""Independent reference implementations used only to check the package.

These deliberately share no code with the library: a shunting-yard
translation of expressions into reverse Polish order and its evaluator,
a faithful transcription of the published DROP metric, a brute-force
span-alignment scorer, and a random expression generator.  Keep them
boring and obviously correct.

The exceptions are the sections at the end.  The evidence sections keep
the per-question unit loops and gold-label search that the evidence
module ran before it kept a per-context index, the lexical tagger's
Jaccard loop over every slot and its token-by-token word cleaning, the
heuristic scale guess that scanned the table and paragraphs per
question, the unit-by-unit decoder it ran before it decoded from the
positive units, and the digit keys it built with one ``re.sub`` per
cell before it keyed a cell in one ``str.translate``.  They read a table's cells through
``reference_cells``, built from its texts and ``parse_number``, and use
the library's data types and its number and derivation parsers, but
none of its tagging, lookup or decoding code; tags are plain ``TagUnit`` tuples,
not the library's ``TaggedSequence``, so its layout is checked against
units laid out here.  The aggregation section keeps the
ablation that scored the dataset once per row and the report grid whose
margins were summed by hand; they call the library's ``evaluate`` and
cell formatting, but not the row and margin sums they are compared with.
The number section keeps ``parse_number`` and ``extract_numbers`` as they
were when every value was built by ``Fraction(str)``.  The span-scoring
section keeps ``drop_em_f1`` and ``align_spans_f1`` as they were when
every span was normalized once for EM and again for F1 and each number
set was built per pair; it calls the library's assignment solver and
pairwise mean, but none of its normalization or gating.  The schema
section keeps the recursive walk that recorded each field path once per
item.  The rounding section keeps the rounding behind ``numbers_match`` and
``render_decimal`` as it was when every rounding went through
``round(Fraction, places)``.  The loader section keeps ``parse_documents``
as it was when every question parsed its own labels and every record
formatted its location and default id; it calls the library's label,
answer and warning helpers and builds the library's record types.
"""

from __future__ import annotations

import itertools
import random
import re
import string
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from tatqa_symbolic import derivation
from tatqa_symbolic import evidence as ev
from tatqa_symbolic.corpus import (
    COL_BOUNDS,
    ROW_BOUNDS,
    AnswerSource,
    AnswerType,
    HybridContext,
    Paragraph,
    QuestionRecord,
    Table,
    _coerce_answer,
    _parse_label,
    _problem,
    logger,
)
from tatqa_symbolic.errors import (
    DatasetParseError,
    DatasetValidationError,
    DerivationParseError,
    NumberTooLongError,
    UnlocatableEvidenceError,
)
from tatqa_symbolic.evaluation import CellScore, _fmt_cell, _max_assignment, _pairwise_sum, evaluate
from tatqa_symbolic.numerics import Scale, extract_numbers, parse_number
from tatqa_symbolic.reasoning import abstained as make_abstained

# ---------------------------------------------------------------------------
# Shunting-yard arithmetic oracle
# ---------------------------------------------------------------------------

_NUM_RE = re.compile(r"[$£€¥]?\s*(?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d+)?\s*%?|\.\d+%?")
_OPS = {"+": "+", "-": "-", "−": "-", "–": "-", "*": "*",
        "×": "*", "x": "*", "/": "/", "÷": "/"}
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "u": 3}


def _oracle_tokens(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "()":
            tokens.append(ch)
            i += 1
            continue
        match = _NUM_RE.match(text, i)
        if match:
            raw = match.group().strip().lstrip("$£€¥").rstrip("%").replace(",", "").strip()
            tokens.append(Fraction(raw))
            i = match.end()
            continue
        if ch.lower() in _OPS:
            tokens.append(_OPS[ch.lower()])
            i += 1
            continue
        raise ValueError(f"oracle cannot tokenize {text!r} at {i}")
    return tokens


def shunting_yard_rpn(text: str) -> list:
    """The expression in reverse Polish order: Fractions, the binary
    operators and ``u`` for a unary minus."""
    output: list = []
    stack: list[str] = []
    previous = "start"
    for token in _oracle_tokens(text):
        if isinstance(token, Fraction):
            output.append(token)
            previous = "value"
        elif token == "(":
            stack.append(token)
            previous = "open"
        elif token == ")":
            while stack and stack[-1] != "(":
                output.append(stack.pop())
            stack.pop()
            previous = "value"
        else:
            op = "u" if token == "-" and previous in ("start", "op", "open") else token
            while (
                stack
                and stack[-1] != "("
                and (
                    _PREC[stack[-1]] > _PREC[op]
                    or (_PREC[stack[-1]] == _PREC[op] and op != "u")
                )
            ):
                output.append(stack.pop())
            stack.append(op)
            previous = "op"
    while stack:
        output.append(stack.pop())
    return output


def eval_rpn(rpn: list) -> Fraction:
    """Exact value of a ``shunting_yard_rpn`` output; raises
    ZeroDivisionError on /0."""
    values: list[Fraction] = []
    for token in rpn:
        if isinstance(token, Fraction):
            values.append(token)
        elif token == "u":
            values.append(-values.pop())
        else:
            b, a = values.pop(), values.pop()
            if token == "+":
                values.append(a + b)
            elif token == "-":
                values.append(a - b)
            elif token == "*":
                values.append(a * b)
            else:
                if b == 0:
                    raise ZeroDivisionError
                values.append(a / b)
    assert len(values) == 1
    return values[0]


def random_expression(rng: random.Random, depth: int = 0) -> str:
    """Random arithmetic expression with realistic financial formatting."""

    def number() -> str:
        if rng.random() < 0.02:
            text = "0"
        elif rng.random() < 0.3:
            value = round(rng.uniform(0, 5000), rng.randint(1, 4))
            text = f"{value}"
        else:
            value = rng.randint(0, 9_999_999)
            text = f"{value:,}" if (value >= 1000 and rng.random() < 0.7) else str(value)
        if rng.random() < 0.15:
            text += "%"
        elif rng.random() < 0.1:
            text = "$" + text
        return text

    if depth >= 4 or rng.random() < 0.35:
        text = number()
        return f"-{text}" if rng.random() < 0.1 else text

    op = rng.choice(["+", "-", "*", "/", "−", "×", "÷"])
    left = random_expression(rng, depth + 1)
    right = random_expression(rng, depth + 1)
    space = " " if rng.random() < 0.8 else ""
    text = f"{left}{space}{op}{space}{right}"
    if rng.random() < 0.4:
        return f"({text})"
    return text


# ---------------------------------------------------------------------------
# Published DROP metric, transcribed
# ---------------------------------------------------------------------------

_PUNCT = set(string.punctuation)


def _drop_is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _drop_normalize(answer: str) -> str:
    def remove_punc(token: str) -> str:
        if not _drop_is_number(token):
            return "".join(ch for ch in token if ch not in _PUNCT)
        return token

    def normalize_number(token: str) -> str:
        return str(float(token)) if _drop_is_number(token) else token

    parts = [
        " ".join(
            re.sub(r"\b(a|an|the)\b", " ", normalize_number(remove_punc(token.lower()))).split()
        )
        for token in re.split(" |-", str(answer))
    ]
    return " ".join(part for part in parts if part.strip()).strip()


def _drop_bags(answer) -> tuple[list[str], list[set[str]]]:
    spans = answer if isinstance(answer, (list, tuple)) else [answer]
    normalized = [_drop_normalize(span) for span in spans]
    return normalized, [set(span.split()) for span in normalized]


def _drop_f1(pred_bag: set[str], gold_bag: set[str]) -> float:
    intersection = len(gold_bag & pred_bag)
    precision = intersection / len(pred_bag) if pred_bag else 1.0
    recall = intersection / len(gold_bag) if gold_bag else 1.0
    if precision == 0.0 and recall == 0.0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def _drop_match_numbers(gold_bag: set[str], pred_bag: set[str]) -> bool:
    gold_numbers = {w for w in gold_bag if _drop_is_number(w)}
    pred_numbers = {w for w in pred_bag if _drop_is_number(w)}
    return not gold_numbers or bool(gold_numbers & pred_numbers)


def drop_metrics(predicted, gold) -> tuple[float, float]:
    """(EM, F1) exactly as the published numeracy-focused evaluator.

    Needs numpy and scipy, the evaluator's own dependencies, which the
    package does not; they are imported here so the other oracles load
    without them."""
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    pred_strings, pred_bags = _drop_bags(predicted)
    gold_strings, gold_bags = _drop_bags(gold)
    em = float(
        set(pred_strings) == set(gold_strings)
        and len(pred_strings) == len(gold_strings)
    )
    scores = np.zeros((len(gold_bags), len(pred_bags)))
    for g, gold_bag in enumerate(gold_bags):
        for p, pred_bag in enumerate(pred_bags):
            if _drop_match_numbers(gold_bag, pred_bag):
                scores[g, p] = _drop_f1(pred_bag, gold_bag)
    rows, cols = linear_sum_assignment(-scores)
    per_span = np.zeros(max(len(gold_bags), len(pred_bags)))
    for row, col in zip(rows, cols):
        per_span[row] = max(per_span[row], scores[row, col])
    return em, round(float(np.mean(per_span)), 2)


def brute_force_alignment_f1(pred_spans: list[str], gold_spans: list[str]) -> float:
    """Best mean F1 over all one-to-one span alignments, by enumeration."""
    _, pred_bags = _drop_bags(pred_spans)
    _, gold_bags = _drop_bags(gold_spans)
    n = max(len(pred_bags), len(gold_bags))
    padded_pred = pred_bags + [None] * (n - len(pred_bags))
    best = 0.0
    for permutation in itertools.permutations(range(n)):
        total = 0.0
        for g, p in enumerate(permutation):
            if g < len(gold_bags) and padded_pred[p] is not None:
                if _drop_match_numbers(gold_bags[g], padded_pred[p]):
                    total += _drop_f1(padded_pred[p], gold_bags[g])
        best = max(best, total / n)
    return best


# ---------------------------------------------------------------------------
# Evidence: per-question loops, as they ran before the per-context index
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReferenceCell:
    text: str
    row: int
    col: int
    numeric: Fraction | None


def reference_cell(table, row, col):
    """The cell at (row, col) with its number parsed; a negative index
    names the cell it reaches."""
    text = table.texts[row][col]
    return ReferenceCell(text, row % table.n_rows, col % table.n_cols, parse_number(text))


def reference_cells(table):
    """Every cell of ``table``, row-major."""
    return [reference_cell(table, r, c) for r in range(table.n_rows) for c in range(table.n_cols)]


def reference_digit_keys(table):
    """(row, col) of each cell holding a digit, row-major, under its digit
    key, built as the evidence module built it before it keyed a cell in
    one ``str.translate``: one ``re.sub`` per cell, and each digit of
    another script written in ASCII, less leading and trailing zeros."""
    keys = {}
    for r in range(table.n_rows):
        for c in range(table.n_cols):
            digits = re.sub(r"\D+", "", table.texts[r][c])
            if digits:
                digits = "".join(str(int(digit)) for digit in digits)
                keys.setdefault(digits.strip("0"), []).append((r, c))
    return keys


def reference_context_units(question_text, context):
    units = []
    for index, word in enumerate(question_text.split()):
        units.append((word, ev.QuestionWord(index)))
    for cell in reference_cells(context.table):
        for word_index, word in enumerate(cell.text.split()):
            units.append((word, ev.CellWord(cell.row, cell.col, word_index)))
    for number, paragraph in enumerate(context.paragraphs):
        for word_index, word in enumerate(paragraph.text.split()):
            units.append((word, ev.ParagraphWord(number, word_index)))
    return units


def _reference_word_spans(text):
    return [match.span() for match in re.finditer(r"\S+", text)]


def _reference_items(question):
    def text_item(surface):
        return (surface, parse_number(surface))

    if question.answer_type in (AnswerType.SPAN, AnswerType.SPANS):
        answer = question.answer
        if isinstance(answer, list):
            spans = [str(item) for item in answer]
        elif isinstance(answer, Fraction):
            spans = []
        else:
            spans = [str(answer)]
        return [text_item(span) for span in spans if span.strip()]
    ast = derivation.parse_derivation(question.derivation, question.answer_type)
    if isinstance(ast, derivation.ItemSet):
        return [text_item(item) for item in ast.items]
    operator = derivation.classify_operator(ast, question.answer_type, question.answer_source)
    if operator == derivation.Operator.AVERAGE and isinstance(ast, derivation.BinaryOp):
        operands = derivation.operand_sequence(ast.left)
    else:
        operands = derivation.operand_sequence(ast)
    items, seen = [], set()
    for operand in operands:
        if operand.value not in seen:
            seen.add(operand.value)
            items.append((operand.source_text.strip(), operand.value))
    return items


def _reference_word_range(spans, start, end):
    covered = [i for i, (ws, we) in enumerate(spans) if ws < end and we > start]
    return (covered[0], covered[-1] + 1) if covered else None


def _reference_locate(context, item, table_first):
    """The origin of the first occurrence, or None."""
    surface, value = item

    def in_table(loose):
        needle = surface.casefold()
        for cell in reference_cells(context.table):
            if value is not None:
                if cell.numeric is None:
                    continue
                if cell.numeric == value or (loose and abs(cell.numeric) == abs(value)):
                    return ev.CellOrigin(cell.row, cell.col)
            else:
                hay = cell.text.strip().casefold()
                if hay == needle or (loose and needle and needle in hay):
                    return ev.CellOrigin(cell.row, cell.col)
        return None

    def in_paragraphs(loose):
        for number, paragraph in enumerate(context.paragraphs):
            spans = _reference_word_spans(paragraph.text)
            if value is not None:
                for found, (start, end) in extract_numbers(paragraph.text):
                    if found == value or (loose and abs(found) == abs(value)):
                        word_range = _reference_word_range(spans, start, end)
                        if word_range:
                            return ev.SpanOrigin(number, *word_range)
            else:
                index = paragraph.text.casefold().find(surface.casefold())
                if index >= 0:
                    word_range = _reference_word_range(spans, index, index + len(surface))
                    if word_range:
                        return ev.SpanOrigin(number, *word_range)
        return None

    for finder in ((in_table, in_paragraphs) if table_first else (in_paragraphs, in_table)):
        for loose in (False, True):
            found = finder(loose)
            if found is not None:
                return found
    return None


def _reference_merge(origins):
    by_paragraph = {}
    for origin in origins:
        by_paragraph.setdefault(origin.paragraph, []).append(origin)
    merged = []
    for paragraph, spans in by_paragraph.items():
        spans.sort(key=lambda s: (s.start, s.stop))
        current = spans[0]
        for span in spans[1:]:
            if span.start <= current.stop:
                current = ev.SpanOrigin(paragraph, current.start, max(current.stop, span.stop))
            else:
                merged.append(current)
                current = span
        merged.append(current)
    return merged


def reference_supervision(question, context):
    """Gold labels by linear search over the context."""
    items = _reference_items(question)
    table_first = question.answer_source in (
        AnswerSource.TABLE, AnswerSource.TABLE_TEXT
    )
    located, missing = {}, []
    for item in items:
        found = _reference_locate(context, item, table_first)
        if found is None:
            missing.append(item[0])
        else:
            located[item] = found
    if missing:
        raise UnlocatableEvidenceError(question.question_id, missing)

    ast = None
    if question.answer_type in (AnswerType.COUNTING, AnswerType.ARITHMETIC):
        try:
            ast = derivation.parse_derivation(question.derivation, question.answer_type)
        except DerivationParseError:
            ast = None
    operator = derivation.classify_operator(ast, question.answer_type, question.answer_source)

    def position(value):
        origin = next(o for (_, v), o in located.items() if v == value)
        for index, (_, unit) in enumerate(reference_context_units(question.text, context)):
            if isinstance(origin, ev.CellOrigin) and isinstance(unit, ev.CellWord):
                if (unit.row, unit.col) == (origin.row, origin.col):
                    return index
            elif isinstance(origin, ev.SpanOrigin) and isinstance(unit, ev.ParagraphWord):
                if unit.paragraph == origin.paragraph and unit.word == origin.start:
                    return index
        raise ValueError(f"origin {origin} not present in the input sequence")

    g_order = None
    if operator in derivation.ORDER_SENSITIVE:
        operands = derivation.operand_sequence(ast)
        g_order = 0 if position(operands[0].value) <= position(operands[1].value) else 1
    cells = [o for o in located.values() if isinstance(o, ev.CellOrigin)]
    spans = [o for o in located.values() if isinstance(o, ev.SpanOrigin)]
    return ev.SupervisionLabels(
        g_tag=frozenset(cells) | frozenset(_reference_merge(spans)),
        g_op=operator,
        g_scale=question.gold_scale,
        g_order=g_order,
    )


def reference_oracle_tags(question, context):
    """Each word of a cell or span in ``reference_supervision``'s gold
    labels at 1.0, the rest at 0.0, as a tuple of ``TagUnit``s."""
    labels = reference_supervision(question, context)
    cells = {(o.row, o.col) for o in labels.g_tag if isinstance(o, ev.CellOrigin)}
    spans = [o for o in labels.g_tag if isinstance(o, ev.SpanOrigin)]
    units = []
    for text, origin in reference_context_units(question.text, context):
        if isinstance(origin, ev.CellWord):
            tagged = (origin.row, origin.col) in cells
        elif isinstance(origin, ev.ParagraphWord):
            tagged = any(
                s.paragraph == origin.paragraph and s.start <= origin.word < s.stop for s in spans
            )
        else:
            tagged = False
        units.append(ev.TagUnit(text, origin, 1.0 if tagged else 0.0))
    return tuple(units)


_REFERENCE_STOPWORDS = frozenset(
    """a an the of in on at to for from by with as is are was were be been being
    do does did done what which when where who whom whose how why much many and
    or not than that this these those it its their there between during per each
    have has had having will would can could should may might must s""".split()
)


def _reference_content_words(text):
    words = set()
    for token in text.lower().split():
        token = re.sub(r"^\W+|\W+$", "", token).replace(",", "")
        if token and token not in _REFERENCE_STOPWORDS:
            words.add(token)
    return frozenset(words)


def _reference_jaccard(a, b):
    if not a or not b:
        return 0.0
    return len(a & b) / len(a | b)


def reference_lexical_tags(question, context, floor=0.01):
    """The lexical tagger's probabilities, as a tuple of ``TagUnit``s."""

    def smooth(score):
        return floor + (1.0 - floor) * score

    question_words = _reference_content_words(question.text)
    table = context.table
    cell_scores = {}
    for cell in reference_cells(table):
        score = _reference_jaccard(question_words, _reference_content_words(cell.text))
        if cell.numeric is not None:
            header_words = set()
            if cell.row > 0:
                header_words |= _reference_content_words(reference_cell(table, 0, cell.col).text)
            if cell.col > 0:
                header_words |= _reference_content_words(reference_cell(table, cell.row, 0).text)
            score = max(score, _reference_jaccard(question_words, frozenset(header_words)))
        cell_scores[(cell.row, cell.col)] = score

    # one probability per paragraph word, in paragraph order
    paragraph_probabilities = []
    for paragraph in context.paragraphs:
        boundaries = []
        start = 0
        for match in re.finditer(r"[.!?;]\s+|\Z", paragraph.text):
            sentence = paragraph.text[start : match.end()]
            if sentence.strip():
                boundaries.append(
                    (match.end(), _reference_jaccard(question_words, _reference_content_words(sentence)))
                )
            start = match.end()
        for word_start, _ in _reference_word_spans(paragraph.text):
            score = 0.0
            for boundary, sentence_score in boundaries:
                if word_start < boundary:
                    score = sentence_score
                    break
            paragraph_probabilities.append(smooth(score))
    paragraph_probabilities = iter(paragraph_probabilities)

    units = []
    for text, origin in reference_context_units(question.text, context):
        if isinstance(origin, ev.QuestionWord):
            probability = 0.0
        elif isinstance(origin, ev.CellWord):
            probability = smooth(cell_scores[(origin.row, origin.col)])
        else:
            probability = next(paragraph_probabilities)
        units.append(ev.TagUnit(text, origin, probability))
    return tuple(units)


# ---------------------------------------------------------------------------
# The heuristic scale guess, as it ran before a context's scale words were
# read once per context: every question scans the header and caption rows
# and the cells and paragraph words governing its candidates
# ---------------------------------------------------------------------------

_REFERENCE_PERCENT_CUE_RE = re.compile(r"percentage|percent\b|%|\bproportion\b|\bratio\b", re.I)
_REFERENCE_SCALE_WORD_RE = re.compile(
    r"(?P<thousand>thousands?\b|'000)|(?P<million>millions?\b)"
    r"|(?P<billion>billions?\b)|(?P<percent>percent\b|%)",
    re.I,
)


def _reference_scale_in_text(text):
    match = _REFERENCE_SCALE_WORD_RE.search(text)
    if match is None:
        return None
    for name in ("thousand", "million", "billion", "percent"):
        if match.group(name):
            return Scale(name)
    return None


def reference_heuristic_scale(question, context, candidates):
    """``HeuristicScale().predict``, scanning per question."""
    if _REFERENCE_PERCENT_CUE_RE.search(question.text):
        return Scale.PERCENT

    table = context.table
    ordered = sorted(candidates, key=lambda c: (-c.probability, c.position))
    header_and_captions = [reference_cell(table, 0, c).text for c in range(table.n_cols)]
    for r in range(table.n_rows):  # caption rows: single filled leading cell
        cells = [reference_cell(table, r, c).text.strip() for c in range(table.n_cols)]
        if cells[0] and not any(cells[1:]):
            header_and_captions.append(cells[0])
    for candidate in ordered:
        if not isinstance(candidate.origin, ev.CellOrigin):
            continue
        row, col = candidate.origin.row, candidate.origin.col
        governing = header_and_captions + [reference_cell(table, r, col).text for r in range(row)]
        governing += [reference_cell(table, row, c).text for c in range(col)]
        for text in governing:
            scale = _reference_scale_in_text(text)
            if scale is not None:
                return scale

    for candidate in ordered:
        if not isinstance(candidate.origin, ev.SpanOrigin):
            continue
        words = context.paragraphs[candidate.origin.paragraph].text.split()
        best = None
        for index, word in enumerate(words):
            scale = _reference_scale_in_text(word)
            if scale is not None:
                distance = abs(index - candidate.origin.start)
                if best is None or distance < best[0]:
                    best = (distance, scale)
        if best is not None:
            return best[1]
    return Scale.NONE


def reference_sorted_heuristic_scale(question, context, candidates):
    """``HeuristicScale().predict`` as it ran when it sorted the candidates
    before it looked for a header scale."""
    if _REFERENCE_PERCENT_CUE_RE.search(question.text):
        return Scale.PERCENT

    index = ev._context_index(context)
    ordered = sorted(candidates, key=lambda c: (-c.probability, c.position))
    cells = [c.origin for c in ordered if isinstance(c.origin, ev.CellOrigin)]
    if cells and index.header_scale is not None:
        return index.header_scale
    grid = index.cell_scales
    for origin in cells:  # the column above the cell, then the row left of it
        above = (grid[r][origin.col] for r in range(origin.row))
        scale = next(filter(None, itertools.chain(above, grid[origin.row][: origin.col])), None)
        if scale is not None:
            return scale

    for candidate in ordered:
        if isinstance(candidate.origin, ev.SpanOrigin):
            words = index.paragraphs[candidate.origin.paragraph].scale_words
            if words:  # the nearest, the first of a tie
                start = candidate.origin.start
                return min(words, key=lambda word: abs(word[0] - start))[1]
    return Scale.NONE


# ---------------------------------------------------------------------------
# Evidence decoding, unit by unit, as it ran before it started from the
# positive units
# ---------------------------------------------------------------------------


def reference_decode(units, threshold=0.5):
    """The unit-by-unit decoder that ran before decoding started from the
    positive units, over a tuple of ``TagUnit``s laid out as
    ``reference_context_units`` lays them out.

    A cell is a candidate when any of its units exceeds the threshold;
    consecutive positive paragraph words merge into one span.  Candidate
    probability is the maximum over its positive units, and the numeric
    field is filled when the candidate text parses as a single number.
    """
    candidates: list[ev.EvidenceCandidate] = []

    cell_key: tuple[int, int] | None = None
    cell_words: list[str] = []
    cell_best = 0.0
    cell_position = 0

    span_key: tuple[int, int] | None = None  # (paragraph, expected next word)
    span_start = 0
    span_words: list[str] = []
    span_best = 0.0
    span_position = 0

    def flush_cell() -> None:
        nonlocal cell_key
        if cell_key is not None and cell_best > threshold:
            text = " ".join(cell_words)
            candidates.append(
                ev.EvidenceCandidate(
                    text=text,
                    probability=cell_best,
                    origin=ev.CellOrigin(*cell_key),
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
                ev.EvidenceCandidate(
                    text=text,
                    probability=span_best,
                    origin=ev.SpanOrigin(span_key[0], span_start, span_key[1]),
                    numeric=parse_number(text),
                    position=span_position,
                )
            )
        span_key = None

    for index, unit in enumerate(units):
        origin = unit.origin  # question words fall through: never evidence
        if isinstance(origin, ev.ParagraphWord):
            if cell_key is not None:
                flush_cell()
            probability = unit.probability
            if not probability > threshold:
                if span_key is not None:
                    flush_span()
            elif span_key == (origin.paragraph, origin.word):
                span_key = (origin.paragraph, origin.word + 1)
                span_words.append(unit.text)
                span_best = max(span_best, probability)
            else:
                flush_span()
                span_key = (origin.paragraph, origin.word + 1)
                span_start = origin.word
                span_words = [unit.text]
                span_best = probability
                span_position = index
        elif isinstance(origin, ev.CellWord):
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
# Aggregation, as it ran before one scoring pass fed every row and margin
# ---------------------------------------------------------------------------


def reference_ablation(dataset, predictions, places: int):
    """The cumulative operator ablation with one ``evaluate`` per row: a
    prediction whose operator is not enabled yet is replaced by an
    abstention before scoring.  Returns the ``ablate --out`` rows."""
    rows = []
    for k in range(1, len(derivation.Operator.ALL) + 1):
        enabled = set(derivation.Operator.ALL[:k])
        routed = {
            qid: (p if (p.trace.operator is None or p.trace.operator in enabled)
                  else make_abstained("operator disabled in ablation"))
            for qid, p in predictions.items()
        }
        report = evaluate(
            {qid: (p.value, p.scale) for qid, p in routed.items()}, dataset, places
        )
        label = f"+ {derivation.Operator.LABELS[derivation.Operator.ALL[k - 1]]}"
        rows.append({"row": label, "em": report.em, "f1": report.f1})
    return rows


def reference_margins(report):
    """The per-type/source grid with its row and column margins summed
    cell by cell, as ``format_report`` rendered it."""
    headers = [AnswerSource.LABELS[s] for s in AnswerSource.ALL] + ["Total"]
    lines = [f"{'':<12}" + "".join(f"{h:>16}" for h in headers)]
    for answer_type in AnswerType.ALL:
        row = [AnswerType.LABELS[answer_type].ljust(12)]
        type_bucket = CellScore()
        for source in AnswerSource.ALL:
            cell = report.cells[(answer_type, source)]
            row.append(_fmt_cell(cell))
            type_bucket.n += cell.n
            type_bucket.em_sum += cell.em_sum
            type_bucket.f1_sum += cell.f1_sum
        row.append(_fmt_cell(type_bucket))
        lines.append("".join(row))
    totals = ["Total".ljust(12)]
    for source in AnswerSource.ALL:
        source_bucket = CellScore()
        for answer_type in AnswerType.ALL:
            cell = report.cells[(answer_type, source)]
            source_bucket.n += cell.n
            source_bucket.em_sum += cell.em_sum
            source_bucket.f1_sum += cell.f1_sum
        totals.append(_fmt_cell(source_bucket))
    totals.append(_fmt_cell(report.overall))
    lines.append("".join(totals))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Surface numbers, as parsed before values were built from integers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReferenceParsedNumber:
    value: Fraction
    had_percent_sign: bool = False
    source_text: str = ""


_CURRENCY = "$£€¥"
# Either comma-grouped digits or a plain run, with an optional decimal part.
_NUMBER_CORE = r"(?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d+)?|\.\d+"

_FULL_NUMBER_RE = re.compile(
    rf"[{_CURRENCY}]?\s*(?P<sign>[+\-−])?\s*[{_CURRENCY}]?\s*"
    rf"(?P<core>{_NUMBER_CORE})\s*(?P<pct>%)?"
)

_SCAN_RE = re.compile(r"\d{1,3}(?:,\d{3})+(?:\.\d+)?|\d+(?:\.\d+)?")


def reference_parse_number(text: str) -> ReferenceParsedNumber | None:
    """Parse a whole string as one financial number, or return None.

    Recognizes currency symbols, thousands separators, decimal points,
    leading minus (ASCII or U+2212), trailing percent signs, and
    accountant's parenthesized negatives like "(1,033)".
    """
    stripped = text.strip()
    if not stripped:
        return None
    negative_wrap = stripped.startswith("(") and stripped.endswith(")")
    body = stripped[1:-1].strip() if negative_wrap else stripped
    match = _FULL_NUMBER_RE.fullmatch(body)
    if match is None:
        return None
    value = Fraction(match.group("core").replace(",", ""))
    if match.group("sign") in ("-", "−"):
        value = -value
    if negative_wrap:
        value = -value
    return ReferenceParsedNumber(
        value=value,
        had_percent_sign=match.group("pct") is not None,
        source_text=text,
    )


def reference_extract_numbers(text: str) -> list[tuple[ReferenceParsedNumber, tuple[int, int]]]:
    """Find all numeric tokens in running text, left to right.

    Returns (parsed number, (start, end)) pairs with strictly increasing,
    non-overlapping character offsets.  A hyphen directly between two
    digits ("2018-2019") is a range separator, not a minus sign.
    """
    found: list[tuple[ReferenceParsedNumber, tuple[int, int]]] = []
    for match in _SCAN_RE.finditer(text):
        start, end = match.span()
        value = Fraction(match.group().replace(",", ""))
        if start > 0 and text[start - 1] in "-−":
            before = text[start - 2] if start >= 2 else " "
            if not (before.isdigit() or before.isalpha()):
                start -= 1
                value = -value
        had_percent = end < len(text) and text[end] == "%"
        if had_percent:
            end += 1
        found.append(
            (
                ReferenceParsedNumber(value, had_percent, text[start:end]),
                (start, end),
            )
        )
    return found


# ---------------------------------------------------------------------------
# Span scoring, as it ran when each span was normalized twice
# ---------------------------------------------------------------------------

_REFERENCE_PUNCT = set(string.punctuation)
_REFERENCE_ARTICLES = {"a", "an", "the"}


def _reference_is_float(text: str) -> bool:
    try:
        float(text)
    except (ValueError, OverflowError):
        return False
    return True


def _reference_numeric_form(token: str) -> str | None:
    t = token.lstrip("$£€¥").replace(",", "")
    if t.endswith("%"):
        t = t[:-1]
    if t and _reference_is_float(t):
        return str(float(t))
    return None


def _reference_split_token(piece: str) -> list[str]:
    if piece.startswith(("-", "−")) and _reference_numeric_form(piece[1:]) is not None:
        return [piece]
    return piece.split("-")


def reference_normalize_answer(text: str) -> list[str]:
    tokens: list[str] = []
    for piece in str(text).lower().split():
        for token in _reference_split_token(piece):
            if not token:
                continue
            if token.startswith("−"):
                token = "-" + token[1:]
            numeric = (
                _reference_numeric_form(token.lstrip("-"))
                if token.startswith("-")
                else _reference_numeric_form(token)
            )
            if numeric is not None:
                token = "-" + numeric if token.startswith("-") and float(numeric) != 0 else numeric
            else:
                token = "".join(ch for ch in token if ch not in _REFERENCE_PUNCT)
            if token and token not in _REFERENCE_ARTICLES:
                tokens.append(token)
    return tokens


def _reference_bag_f1(pred_bag: frozenset[str], gold_bag: frozenset[str]) -> float:
    intersection = len(pred_bag & gold_bag)
    if not pred_bag and not gold_bag:
        return 1.0
    precision = intersection / len(pred_bag) if pred_bag else 1.0
    recall = intersection / len(gold_bag) if gold_bag else 1.0
    if precision == 0.0 and recall == 0.0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def _reference_numbers_in_bag(bag: frozenset[str]) -> frozenset[str]:
    return frozenset(token for token in bag if _reference_is_float(token))


def _reference_gated_f1(pred_bag: frozenset[str], gold_bag: frozenset[str]) -> float:
    gold_numbers = _reference_numbers_in_bag(gold_bag)
    if gold_numbers and not (gold_numbers & _reference_numbers_in_bag(pred_bag)):
        return 0.0
    return _reference_bag_f1(pred_bag, gold_bag)


def reference_align_spans_f1(pred_spans: list[str], gold_spans: list[str]) -> float:
    pred_bags = [frozenset(reference_normalize_answer(span)) for span in pred_spans]
    gold_bags = [frozenset(reference_normalize_answer(span)) for span in gold_spans]
    if not pred_bags or not gold_bags:
        return float(not pred_bags and not gold_bags)
    scores = [[_reference_gated_f1(pred_bag, gold_bag) for pred_bag in pred_bags] for gold_bag in gold_bags]
    per_span = [0.0] * max(len(gold_bags), len(pred_bags))
    for row, col in _max_assignment(scores):
        per_span[row] = scores[row][col]
    return _pairwise_sum(per_span) / len(per_span)


def reference_drop_em_f1(pred_spans: list[str], gold_spans: list[str]) -> tuple[float, float]:
    pred_strings = [" ".join(reference_normalize_answer(span)) for span in pred_spans]
    gold_strings = [" ".join(reference_normalize_answer(span)) for span in gold_spans]
    em = float(
        set(pred_strings) == set(gold_strings)
        and len(pred_strings) == len(gold_strings)
    )
    f1 = round(reference_align_spans_f1(pred_spans, gold_spans), 2)
    return em, f1


# ---------------------------------------------------------------------------
# Schema inventory, one recursive step per item
# ---------------------------------------------------------------------------


def reference_field_inventory(raw):
    inventory = {}

    def record(json_path, value):
        entry = inventory.setdefault(json_path, {"count": 0, "types": set()})
        entry["count"] += 1
        # the reader decodes JSON floats as Decimal
        entry["types"].add("float" if isinstance(value, Decimal) else type(value).__name__)

    def walk(value, json_path):
        # a scalar holds no paths, so only containers are walked
        if isinstance(value, dict):
            for key, item in value.items():
                path = f"{json_path}.{key}"
                record(path, item)
                if isinstance(item, (dict, list)):
                    walk(item, path)
        elif isinstance(value, list):
            path = f"{json_path}[]"
            for item in value:
                if isinstance(item, (dict, list)):
                    walk(item, path)

    walk(raw, "$")
    return {
        json_path: {"count": entry["count"], "types": sorted(entry["types"])}
        for json_path, entry in sorted(inventory.items())
    }


# ---------------------------------------------------------------------------
# Rounding, as it ran through ``round(Fraction, places)``
# ---------------------------------------------------------------------------


def reference_round_fraction(value, places: int) -> Fraction:
    """Round to ``places`` decimal places, ties to even."""
    return round(Fraction(value), places)


# the smallest whole part that ``str`` refuses to write: it has 4,301 digits
_REFERENCE_UNWRITABLE = 10**NumberTooLongError.LIMIT


def reference_render_decimal(value, max_places: int = 17) -> str:
    """Render an exact value as a plain decimal string, rounded to
    ``max_places`` places and with trailing zeros stripped."""
    rounded = reference_round_fraction(value, max_places)
    unit = 10**max_places  # exact: the rounded denominator divides it
    whole, places = divmod(abs(rounded.numerator) * unit // rounded.denominator, unit)
    if whole >= _REFERENCE_UNWRITABLE:
        raise NumberTooLongError(Decimal(whole).adjusted() + 1)
    sign = "-" if rounded < 0 else ""
    frac_part = str(places).rjust(max_places, "0").rstrip("0")
    return f"{sign}{whole}.{frac_part}" if frac_part else f"{sign}{whole}"


def reference_numbers_match(pred_value, pred_scale: Scale, gold_value, gold_scale: Scale,
                            places: int = 4) -> bool:
    pred = reference_round_fraction(pred_value * pred_scale.factor, places)
    gold = reference_round_fraction(gold_value * gold_scale.factor, places)
    return pred == gold


# ---------------------------------------------------------------------------
# Loader, as it ran when every question parsed its labels and formatted
# its location and default id
# ---------------------------------------------------------------------------


def reference_parse_documents(raw, strict: bool = False):
    """Build validated, frozen records from decoded documents
    (:func:`read_json`).

    In tolerant mode (the default) recoverable deviations are logged as
    warnings; ``strict=True`` turns every deviation into an error.
    """
    if not isinstance(raw, list):
        raise DatasetParseError("top level must be an array of documents", "$")

    dataset = []
    seen_question_ids: set[str] = set()
    for doc_index, doc in enumerate(raw):
        location = f"$[{doc_index}]"
        if not isinstance(doc, dict):
            raise DatasetParseError("document must be an object", location)
        context = _reference_parse_context(doc, location, strict)
        questions = _reference_parse_questions(
            doc, context, location, strict, seen_question_ids
        )
        dataset.append((context, questions))
    return dataset


def _reference_parse_context(doc: dict, location: str, strict: bool) -> HybridContext:
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
    )


def _reference_parse_questions(
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
            )
        )
    return questions
