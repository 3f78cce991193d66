"""Exact Match and numeracy-focused F1, with per-category reports.

The token-bag metric follows the published DROP evaluator: lowercase,
split on spaces and hyphens, strip punctuation from non-numeric tokens,
normalize numbers through their float rendering, drop articles, then
score bags with an optimal one-to-one span alignment (gold spans that
contain numbers only match predictions sharing one).  Two deliberate
departures make the metric finance-safe: a leading minus on a number is
preserved (so "-1,657" and "1,657" differ), and a gold numeric answer
scores 1 only when the predicted number times the predicted scale
equals the gold number times the gold scale under the rounding policy.

Each span is normalized once, and its EM string and its F1 bag are
built from the same tokens; each bag's numbers are found once, not once
per aligned pair.  A bag is never rebuilt from an EM string, because
normalizing is not idempotent: "1.5." gives "15", and "15" gives "15.0".

The span alignment is solved in pure Python: an exact maximum-score
assignment by the Hungarian method (shortest augmenting paths with dual
potentials), run over the shorter side of the gold x predicted score
matrix, followed by a mean in numpy's summation order.  Both follow the
published evaluator's ``scipy``/``numpy`` calls operation for operation,
so tied alignments pick the same pairs and every F1 is bit-identical.
"""

from __future__ import annotations

import json
import math
import operator
import string
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import reduce
from pathlib import Path
from typing import Mapping

from .corpus import (
    AnswerSource,
    AnswerType,
    Dataset,
    QuestionRecord,
    iter_questions,
    repeated_question_id,
)
from .errors import NumberTooLongError, ScoringError
from .numerics import Scale, json_decimal, parse_number, render_decimal, round_fraction

# ---------------------------------------------------------------------------
# Rounding policy and numeric comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoundingPolicy:
    """Both sides of a numeric comparison are rounded to ``places``
    decimal places after scale application (ties to even)."""

    places: int = 4


DEFAULT_POLICY = RoundingPolicy()


def numbers_match(
    pred_value: Fraction,
    pred_scale: Scale,
    gold_value: Fraction,
    gold_scale: Scale,
    policy: RoundingPolicy = DEFAULT_POLICY,
) -> bool:
    pred = round_fraction(pred_value * pred_scale.factor, policy.places)
    gold = round_fraction(gold_value * gold_scale.factor, policy.places)
    return pred == gold


# ---------------------------------------------------------------------------
# Token normalization (DROP-compatible, sign-preserving)
# ---------------------------------------------------------------------------

_DELETE_PUNCT = str.maketrans("", "", string.punctuation)
_ARTICLES = {"a", "an", "the"}


def _is_float(text: str) -> bool:
    try:
        float(text)
    except (ValueError, OverflowError):
        return False
    return True


def _numeric_form(token: str) -> str | None:
    """Float rendering of a numeric token, tolerating currency symbols,
    thousands separators, and a trailing percent sign."""
    t = token.lstrip("$£€¥").replace(",", "")
    if t.endswith("%"):
        t = t[:-1]
    if t and _is_float(t):
        return str(float(t))
    return None


def _split_token(piece: str) -> list[str]:
    # a leading minus stays attached to its number; all other hyphens
    # split tokens exactly like the reference tokenizer
    if piece.startswith(("-", "−")) and _numeric_form(piece[1:]) is not None:
        return [piece]
    return piece.split("-")


def normalize_answer(text: str) -> list[str]:
    """Normalized token sequence of one answer span."""
    tokens: list[str] = []
    for piece in str(text).lower().split():
        for token in _split_token(piece):
            if not token:
                continue
            if token.startswith("−"):
                token = "-" + token[1:]
            numeric = _numeric_form(token.lstrip("-")) if token.startswith("-") else _numeric_form(token)
            if numeric is not None:
                token = "-" + numeric if token.startswith("-") and float(numeric) != 0 else numeric
            else:
                token = token.translate(_DELETE_PUNCT)
            if token and token not in _ARTICLES:
                tokens.append(token)
    return tokens


def _bag_f1(pred_bag: frozenset[str], gold_bag: frozenset[str]) -> float:
    intersection = len(pred_bag & gold_bag)
    if not pred_bag and not gold_bag:
        return 1.0
    precision = intersection / len(pred_bag) if pred_bag else 1.0
    recall = intersection / len(gold_bag) if gold_bag else 1.0
    if precision == 0.0 and recall == 0.0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


_Bag = tuple[frozenset[str], frozenset[str]]  # (tokens, the tokens that are numbers)


def _bag(tokens: list[str]) -> _Bag:
    bag = frozenset(tokens)
    return bag, frozenset(token for token in bag if _is_float(token))


def _gated_f1(pred: _Bag, gold: _Bag) -> float:
    (pred_bag, pred_numbers), (gold_bag, gold_numbers) = pred, gold
    if gold_numbers and not (gold_numbers & pred_numbers):
        return 0.0
    return _bag_f1(pred_bag, gold_bag)


def _max_assignment(scores: list[list[float]]) -> list[tuple[int, int]]:
    """(row, column) pairs of a one-to-one assignment of maximum total
    score, covering every row or every column, whichever is fewer.

    The Hungarian method with dual potentials in its shortest augmenting
    path form (Crouse 2016), O(n²m) over the shorter side, transposing
    a tall matrix.  Its float operations and tie-breaking follow
    ``scipy.optimize.linear_sum_assignment`` step for step, so tied
    alignments resolve to the same pairs as in the published evaluator.
    """
    transpose = len(scores) > len(scores[0])
    if transpose:
        scores = [list(column) for column in zip(*scores)]
    cost = [[-score for score in row] for row in scores]
    n_cols = len(cost[0])
    u = [0.0] * len(cost)
    v = [0.0] * n_cols
    col4row = [-1] * len(cost)
    row4col = [-1] * n_cols
    path = [-1] * n_cols
    for current in range(len(cost)):
        dist = [math.inf] * n_cols
        remaining = list(range(n_cols - 1, -1, -1))
        seen_rows, seen_cols = [], []
        row, low, sink = current, 0.0, -1
        while sink == -1:
            seen_rows.append(row)
            index, lowest = -1, math.inf
            for k, col in enumerate(remaining):
                reduced = low + cost[row][col] - u[row] - v[col]
                if reduced < dist[col]:
                    path[col], dist[col] = row, reduced
                # on a tie prefer a free column: it ends the path
                if dist[col] < lowest or (dist[col] == lowest and row4col[col] == -1):
                    index, lowest = k, dist[col]
            low = lowest
            col = remaining[index]
            if row4col[col] == -1:
                sink = col
            else:
                row = row4col[col]
            seen_cols.append(col)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[current] += low
        for row in seen_rows[1:]:
            u[row] += low - dist[col4row[row]]
        for col in seen_cols:
            v[col] -= low - dist[col]
        col = sink
        while True:
            row = path[col]
            row4col[col] = row
            col4row[row], col = col, col4row[row]
            if row == current:
                break
    return [(col, row) if transpose else (row, col) for row, col in enumerate(col4row)]


def _pairwise_sum(values: list[float]) -> float:
    """Sum in numpy's order for a contiguous float64 array, the order of
    the published evaluator's ``np.mean``: left to right below 8 values,
    eight strided partial sums up to 128, halves above.  The means then
    agree to the last bit, which ``round(·, 2)`` can expose.  Python's
    ``sum`` is not used because from 3.12 it compensates rounding."""
    n = len(values)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])
    if n < 8:
        return reduce(operator.add, values, 0.0)
    blocks = n - n % 8
    r = [reduce(operator.add, values[j + 8 : blocks : 8], values[j]) for j in range(8)]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    return reduce(operator.add, values[blocks:], total)


def _align_bags(pred_bags: list[_Bag], gold_bags: list[_Bag]) -> float:
    if not pred_bags or not gold_bags:
        return float(not pred_bags and not gold_bags)
    scores = [[_gated_f1(pred_bag, gold_bag) for pred_bag in pred_bags] for gold_bag in gold_bags]
    per_span = [0.0] * max(len(gold_bags), len(pred_bags))
    for row, col in _max_assignment(scores):
        per_span[row] = scores[row][col]
    return _pairwise_sum(per_span) / len(per_span)


def align_spans_f1(pred_spans: list[str], gold_spans: list[str]) -> float:
    """Mean F1 under the optimal one-to-one span alignment.

    Solved exactly as an assignment problem; unmatched spans on either
    side score 0.  Equal to brute-force enumeration over alignments.
    """
    return _align_bags(
        [_bag(normalize_answer(span)) for span in pred_spans],
        [_bag(normalize_answer(span)) for span in gold_spans],
    )


def drop_em_f1(pred_spans: list[str], gold_spans: list[str]) -> tuple[float, float]:
    """Span-bag EM and F1 exactly as the published numeracy-focused
    evaluator computes them (per-question F1 rounded to 2 decimals)."""
    pred_tokens = [normalize_answer(span) for span in pred_spans]
    gold_tokens = [normalize_answer(span) for span in gold_spans]
    pred_strings = [" ".join(tokens) for tokens in pred_tokens]
    gold_strings = [" ".join(tokens) for tokens in gold_tokens]
    em = float(
        set(pred_strings) == set(gold_strings)
        and len(pred_strings) == len(gold_strings)
    )
    f1 = round(_align_bags([_bag(t) for t in pred_tokens], [_bag(t) for t in gold_tokens]), 2)
    return em, f1


# ---------------------------------------------------------------------------
# Question scoring
# ---------------------------------------------------------------------------


def _single_answer(value) -> object:
    if isinstance(value, list) and len(value) == 1:
        return value[0]
    return value


def _as_fraction(value) -> Fraction | None:
    value = _single_answer(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, Decimal)):
        return Fraction(value)
    if isinstance(value, str):
        parsed = parse_number(value)
        return parsed.value if parsed else None
    return None


def _as_spans(value, scale: Scale) -> list[str]:
    if isinstance(value, (Fraction, int)):
        spans = [render_decimal(value)]
    elif isinstance(value, list):
        spans = [str(item) for item in value]
    else:
        spans = [str(value)] if str(value) else []
    if scale is not Scale.NONE:
        spans = [f"{span} {scale.word}" for span in spans]
    return spans


def score_question(
    pred_value,
    pred_scale: Scale,
    gold: QuestionRecord,
    policy: RoundingPolicy = DEFAULT_POLICY,
) -> tuple[float, float]:
    """(EM, F1) for one question, each in [0, 1].

    A gold answer that is a single number is compared numerically with
    scale factors applied (all-or-nothing); everything else goes through
    the span-bag metric with scale words concatenated onto both sides.
    """
    gold_answer = _single_answer(gold.answer)
    if not isinstance(gold_answer, list):
        gold_numeric = _as_fraction(gold_answer)
        if gold_numeric is not None:
            pred_numeric = _as_fraction(pred_value)
            if pred_numeric is None:
                return 0.0, 0.0
            hit = numbers_match(
                pred_numeric, pred_scale, gold_numeric, gold.gold_scale, policy
            )
            return (1.0, 1.0) if hit else (0.0, 0.0)

    pred_spans = _as_spans(pred_value, pred_scale)
    gold_spans = _as_spans(gold.answer, gold.gold_scale)
    if not pred_spans:
        return 0.0, 0.0
    return drop_em_f1(pred_spans, gold_spans)


# ---------------------------------------------------------------------------
# Dataset-level evaluation
# ---------------------------------------------------------------------------


@dataclass
class CellScore:
    n: int = 0
    em_sum: float = 0.0
    f1_sum: float = 0.0

    def add(self, em: float, f1: float, n: int = 1) -> None:
        """Count ``n`` questions scoring ``em`` and ``f1`` in total."""
        self.n += n
        self.em_sum += em
        self.f1_sum += f1

    @classmethod
    def merged(cls, cells) -> CellScore:
        """One cell holding ``cells``' questions, summed in the given order."""
        total = cls()
        for cell in cells:
            total.add(cell.em_sum, cell.f1_sum, cell.n)
        return total

    @property
    def em(self) -> float:
        return 100.0 * self.em_sum / self.n if self.n else 0.0

    @property
    def f1(self) -> float:
        return 100.0 * self.f1_sum / self.n if self.n else 0.0


@dataclass
class EvalReport:
    overall: CellScore
    cells: dict  # (answer_type, answer_source) -> CellScore
    questions: list  # (question_id, em, f1)
    missing: list[str] = field(default_factory=list)

    @property
    def em(self) -> float:
        return self.overall.em

    @property
    def f1(self) -> float:
        return self.overall.f1


Predictions = Mapping[str, tuple[object, Scale]]


def evaluate(
    predictions: Predictions,
    dataset: Dataset,
    policy: RoundingPolicy = DEFAULT_POLICY,
) -> EvalReport:
    """Micro-averaged EM/F1 overall and per (answer type, answer source).

    Gold questions with no prediction score (0, 0) and are listed in
    ``missing``; prediction ids not present in the gold set are an error,
    and so is a repeated gold uid, which no prediction file can address.
    """
    repeated = repeated_question_id(dataset)
    if repeated is not None:
        raise ScoringError(f"{repeated}: repeated gold question uid")
    gold_ids = {q.question_id for _, q in iter_questions(dataset)}
    unknown = sorted(set(predictions) - gold_ids)
    if unknown:
        shown = ", ".join(unknown[:5])
        raise ScoringError(
            f"{len(unknown)} prediction id(s) not in the gold dataset: {shown}"
        )

    overall = CellScore()
    cells = {
        (t, s): CellScore() for t in AnswerType.ALL for s in AnswerSource.ALL
    }
    questions = []
    missing = []
    for _, gold in iter_questions(dataset):
        if gold.question_id in predictions:
            value, scale = predictions[gold.question_id]
            try:
                em, f1 = score_question(value, scale, gold, policy)
            except NumberTooLongError as exc:
                raise ScoringError(f"{gold.question_id}: unreadable number: {exc}") from exc
        else:
            missing.append(gold.question_id)
            em, f1 = 0.0, 0.0
        overall.add(em, f1)
        cells[(gold.answer_type, gold.answer_source)].add(em, f1)
        questions.append((gold.question_id, em, f1))
    return EvalReport(overall=overall, cells=cells, questions=questions, missing=missing)


def format_report(report: EvalReport) -> str:
    """Render the per-type/source EM/F1 grid as a fixed-width table."""
    headers = [AnswerSource.LABELS[s] for s in AnswerSource.ALL] + ["Total"]
    lines = [f"{'':<12}" + "".join(f"{h:>16}" for h in headers)]
    for answer_type in AnswerType.ALL:
        row = [report.cells[(answer_type, source)] for source in AnswerSource.ALL]
        row.append(CellScore.merged(row))
        lines.append(AnswerType.LABELS[answer_type].ljust(12) + "".join(map(_fmt_cell, row)))
    totals = [
        CellScore.merged(report.cells[(answer_type, source)] for answer_type in AnswerType.ALL)
        for source in AnswerSource.ALL
    ]
    totals.append(report.overall)
    lines.append("Total".ljust(12) + "".join(map(_fmt_cell, totals)))
    return "\n".join(lines)


def _fmt_cell(cell: CellScore) -> str:
    if cell.n == 0:
        return f"{'-/-':>16}"
    return f"{cell.em:7.1f}/{cell.f1:<8.1f}"


# ---------------------------------------------------------------------------
# Prediction file format: {question_id: [answer, scale word]}
# ---------------------------------------------------------------------------


def prediction_file_entry(value, scale: Scale) -> list:
    if isinstance(value, (Fraction, int)):
        entry_value: object = render_decimal(value)
    elif isinstance(value, list):
        entry_value = [str(item) for item in value]
    else:
        entry_value = str(value)
    return [entry_value, scale.word]


def write_predictions(predictions: Mapping[str, tuple[object, Scale]], path: str | Path) -> None:
    payload = {
        question_id: prediction_file_entry(value, scale)
        for question_id, (value, scale) in predictions.items()
    }
    Path(path).write_text(json.dumps(payload, indent=1), encoding="utf-8")


def read_predictions(path: str | Path) -> dict[str, tuple[object, Scale]]:
    """Read a prediction file, with JSON numbers as exact ``int`` or
    ``Decimal``.  Every malformation raises ``ScoringError`` naming the
    file and the JSON location."""

    def error(location: str, message: str) -> ScoringError:
        return ScoringError(f"{path}: {location}: {message}")

    top_level_pairs: list = []

    def keep_pairs(pairs):
        # objects are completed innermost first, so the top level is last
        nonlocal top_level_pairs
        top_level_pairs = pairs
        return dict(pairs)

    try:
        with Path(path).open("r", encoding="utf-8") as handle:
            raw = json.load(handle, object_pairs_hook=keep_pairs, parse_float=json_decimal)
    except json.JSONDecodeError as exc:
        raise error(f"line {exc.lineno} column {exc.colno}", f"invalid JSON: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"byte {exc.start}", "not UTF-8 text") from exc
    except ValueError as exc:  # a number past the digit limit, JSON integers included
        raise error("$", f"unreadable number: {exc}") from exc
    if not isinstance(raw, dict):
        raise error("$", "top level must be an object of {question id: [answer, scale word]}")
    if len(raw) < len(top_level_pairs):
        seen = set()
        for key, _ in top_level_pairs:
            if key in seen:
                raise error("$", f"duplicate prediction id: {key}")
            seen.add(key)
    predictions: dict[str, tuple[object, Scale]] = {}
    for question_id, entry in raw.items():
        location = f"$[{json.dumps(question_id)}]"
        if not isinstance(entry, list) or len(entry) != 2:
            raise error(location, f"prediction for {question_id} must be [answer, scale word]")
        value, scale_word = entry
        if not _is_answer(value):
            raise error(f"{location}[0]", "answer must be a string, a number or a list of strings")
        try:
            scale = Scale.from_word(str(scale_word))
        except ValueError as exc:
            raise error(f"{location}[1]", str(exc)) from exc
        predictions[question_id] = (value, scale)
    return predictions


def _is_answer(value) -> bool:
    if isinstance(value, list):
        return all(isinstance(item, str) for item in value)
    # JSON numbers are read as int or Decimal; NaN and Infinity come as float
    return isinstance(value, (str, int, Decimal)) and not isinstance(value, bool)
