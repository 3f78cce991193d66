"""Independent reference implementations used only to check the package.

These deliberately share no code with the library: a shunting-yard
expression evaluator, a faithful transcription of the published DROP
metric, a brute-force span-alignment scorer, and a random expression
generator.  Keep them boring and obviously correct.

The one exception is the evidence section at the end: the per-question
unit loops and gold-label search that the evidence module ran before it
kept a per-context index.  They use the library's data types and its
number and derivation parsers, but none of its tagging or lookup code.
"""

from __future__ import annotations

import itertools
import random
import re
import string
from fractions import Fraction

import numpy as np
from scipy.optimize import linear_sum_assignment

from tatqa_symbolic import derivation
from tatqa_symbolic import evidence as ev
from tatqa_symbolic.corpus import AnswerSource, AnswerType
from tatqa_symbolic.errors import DerivationParseError, UnlocatableEvidenceError
from tatqa_symbolic.numerics import extract_numbers, parse_number

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


def shunting_yard_eval(text: str) -> Fraction:
    """Independent exact evaluator; raises ZeroDivisionError on /0."""
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

    values: list[Fraction] = []
    for token in output:
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
    """(EM, F1) exactly as the published numeracy-focused evaluator."""
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


def reference_context_units(question_text, context):
    units = []
    for index, word in enumerate(question_text.split()):
        units.append((word, ev.QuestionWord(index)))
    for cell in context.table.iter_cells():
        for word_index, word in enumerate(cell.text.split()):
            units.append((word, ev.CellWord(cell.row, cell.col, word_index)))
    for paragraph in context.paragraphs:
        for word_index, word in enumerate(paragraph.text.split()):
            units.append((word, ev.ParagraphWord(paragraph.paragraph_id, word_index)))
    return units


def _reference_word_spans(text):
    return [match.span() for match in re.finditer(r"\S+", text)]


def _reference_items(question):
    def text_item(surface):
        parsed = parse_number(surface)
        return (surface, parsed.value if parsed else None)

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
    surface, value = item

    def in_table(loose):
        needle = surface.casefold()
        for cell in context.table.iter_cells():
            if value is not None:
                if cell.numeric is None:
                    continue
                if cell.numeric.value == value or (
                    loose and abs(cell.numeric.value) == abs(value)
                ):
                    return ev.CellOrigin(cell.row, cell.col)
            else:
                hay = cell.text.strip().casefold()
                if hay == needle or (loose and needle and needle in hay):
                    return ev.CellOrigin(cell.row, cell.col)
        return None

    def in_paragraphs(loose):
        for paragraph in context.paragraphs:
            spans = _reference_word_spans(paragraph.text)
            if value is not None:
                for parsed, (start, end) in extract_numbers(paragraph.text):
                    if parsed.value == value or (loose and abs(parsed.value) == abs(value)):
                        word_range = _reference_word_range(spans, start, end)
                        if word_range:
                            return ev.SpanOrigin(paragraph.paragraph_id, *word_range)
            else:
                index = paragraph.text.casefold().find(surface.casefold())
                if index >= 0:
                    word_range = _reference_word_range(spans, index, index + len(surface))
                    if word_range:
                        return ev.SpanOrigin(paragraph.paragraph_id, *word_range)
        return None

    for finder in ((in_table, in_paragraphs) if table_first else (in_paragraphs, in_table)):
        for loose in (False, True):
            origin = finder(loose)
            if origin is not None:
                return origin
    return None


def _reference_merge(origins):
    by_paragraph = {}
    for origin in origins:
        by_paragraph.setdefault(origin.paragraph_id, []).append(origin)
    merged = []
    for paragraph_id, spans in by_paragraph.items():
        spans.sort(key=lambda s: (s.start, s.stop))
        current = spans[0]
        for span in spans[1:]:
            if span.start <= current.stop:
                current = ev.SpanOrigin(paragraph_id, current.start, max(current.stop, span.stop))
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
        origin = _reference_locate(context, item, table_first)
        if origin is None:
            missing.append(item[0])
        else:
            located[item] = origin
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
                if unit.paragraph_id == origin.paragraph_id and unit.word == origin.start:
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


def reference_oracle_tags(question, context, labels):
    cell_set = {(o.row, o.col) for o in labels.g_tag if isinstance(o, ev.CellOrigin)}
    span_list = [o for o in labels.g_tag if isinstance(o, ev.SpanOrigin)]
    units = []
    for text, origin in reference_context_units(question.text, context):
        probability = 0.0
        if isinstance(origin, ev.CellWord) and (origin.row, origin.col) in cell_set:
            probability = 1.0
        elif isinstance(origin, ev.ParagraphWord):
            for span in span_list:
                if span.paragraph_id == origin.paragraph_id and span.start <= origin.word < span.stop:
                    probability = 1.0
                    break
        units.append(ev.TagUnit(text, origin, probability))
    return ev.TaggedSequence(tuple(units))


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

    def smooth(score):
        return floor + (1.0 - floor) * score

    question_words = _reference_content_words(question.text)
    table = context.table
    cell_scores = {}
    for cell in table.iter_cells():
        score = _reference_jaccard(question_words, _reference_content_words(cell.text))
        if cell.numeric is not None:
            header_words = set()
            if cell.row > 0:
                header_words |= _reference_content_words(table.cell(0, cell.col).text)
            if cell.col > 0:
                header_words |= _reference_content_words(table.cell(cell.row, 0).text)
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
    return ev.TaggedSequence(tuple(units))
