"""Operator execution and the end-to-end answering pipeline.

The pipeline for one question is: tag the input sequence, decode the
positive units into evidence candidates, predict an aggregation
operator, execute it over the candidates (consulting an order decider
for the order-sensitive operators), predict the answer scale, and
assemble the final prediction.  Every stage is pluggable behind a small
interface with an oracle implementation (driven by gold annotations)
and a deterministic heuristic one, so the symbolic layer runs and can
be verified without any learned model.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import chain
from typing import Protocol

from .corpus import Dataset, HybridContext, QuestionRecord, repeated_question_id
from .derivation import (
    ORDER_SENSITIVE,
    Operator,
    classify_question,
    operand_sequence,
    parsed_derivation,
)
from .errors import (
    DatasetValidationError,
    ExecutionError,
    InsufficientEvidenceError,
    PipelineError,
    UnsupportedOperatorError,
)
from .evidence import (
    CellOrigin,
    EvidenceCandidate,
    LexicalTagger,
    OracleTagger,
    SpanOrigin,
    TaggedSequence,
    _context_index,
    decode_evidence,
    origin_to_json,
)
from .numerics import Scale, render_decimal


class Tagger(Protocol):
    def tag(self, question: QuestionRecord, context: HybridContext) -> TaggedSequence: ...


class OperatorPredictor(Protocol):
    def predict(
        self,
        question: QuestionRecord,
        context: HybridContext,
        candidates: list[EvidenceCandidate],
    ) -> str: ...


class OrderDecider(Protocol):
    def decide(
        self, question: QuestionRecord, top_two: list[EvidenceCandidate]
    ) -> int: ...


class ScalePredictor(Protocol):
    def predict(
        self,
        question: QuestionRecord,
        context: HybridContext,
        candidates: list[EvidenceCandidate],
    ) -> Scale: ...


@dataclass(frozen=True)
class PredictionTrace:
    """What the pipeline did for one question, for explainability."""

    operator: str | None = None
    order_flag: int | None = None
    scale: Scale = Scale.NONE
    candidates: tuple = ()
    raw_value: str | None = None
    note: str | None = None


@dataclass(frozen=True)
class Prediction:
    value: object  # str, list of str, int, or Fraction (exact, pre-rounding)
    scale: Scale
    trace: PredictionTrace = field(default=PredictionTrace(), compare=False)

    def display(self) -> str:
        """Human-readable final answer with the scale word attached."""
        if isinstance(self.value, list):
            text = ", ".join(str(v) for v in self.value)
        elif isinstance(self.value, (Fraction, int)):
            text = render_decimal(self.value)
        else:
            text = str(self.value)
        if self.scale is not Scale.NONE and text:
            return f"{text} {self.scale.word}"
        return text


def abstained(note: str) -> Prediction:
    return Prediction(value="", scale=Scale.NONE, trace=PredictionTrace(note=note))


# ---------------------------------------------------------------------------
# Operator execution
# ---------------------------------------------------------------------------


def rank_candidates(candidates: list[EvidenceCandidate]) -> list[EvidenceCandidate]:
    """Numeric-only candidates by probability descending; ties keep
    input-sequence order (earlier first)."""
    numeric = [c for c in candidates if c.numeric is not None]
    return sorted(numeric, key=lambda c: (-c.probability, c.position))


def _best(candidates: list[EvidenceCandidate]) -> EvidenceCandidate:
    return min(candidates, key=lambda c: (-c.probability, c.position))


def _top_two(
    candidates: list[EvidenceCandidate], order_flag: int | None
) -> tuple[Fraction, Fraction]:
    ranked = rank_candidates(candidates)
    if len(ranked) < 2:
        raise InsufficientEvidenceError(
            f"need two numeric candidates, have {len(ranked)}"
        )
    if order_flag is None:
        raise ValueError("order flag required for an order-sensitive operator")
    first, second = ranked[0], ranked[1]
    if order_flag == 1:
        first, second = second, first
    assert first.numeric is not None and second.numeric is not None
    return first.numeric.value, second.numeric.value


def execute_operator(
    operator: str,
    candidates: list[EvidenceCandidate],
    order_flag: int | None = None,
):
    """Apply one aggregation operator to decoded evidence candidates.

    Selection operators pick by probability; numeric operators work on
    candidates that parse fully as numbers; the three order-sensitive
    operators take the top two by rank, swapped when ``order_flag`` is 1.
    """
    if operator == Operator.OTHER:
        raise UnsupportedOperatorError("the Other class has no executable program")
    if operator == Operator.COUNT:
        return len(candidates)
    if not candidates:
        raise InsufficientEvidenceError("no evidence candidates")

    if operator == Operator.SPAN_IN_TEXT:
        spans = [c for c in candidates if isinstance(c.origin, SpanOrigin)]
        if not spans:
            raise InsufficientEvidenceError("no span candidates")
        return _best(spans).text
    if operator == Operator.CELL_IN_TABLE:
        cells = [c for c in candidates if isinstance(c.origin, CellOrigin)]
        if not cells:
            raise InsufficientEvidenceError("no cell candidates")
        return _best(cells).text
    if operator == Operator.SPANS:
        return [c.text for c in sorted(candidates, key=lambda c: c.position)]

    if operator in (Operator.SUM, Operator.AVERAGE, Operator.MULTIPLICATION):
        numeric = rank_candidates(candidates)
        if not numeric:
            raise InsufficientEvidenceError("no numeric candidates")
        values = [c.numeric.value for c in numeric]
        if operator == Operator.SUM:
            return sum(values, Fraction(0))
        if operator == Operator.AVERAGE:
            return sum(values, Fraction(0)) / len(values)
        product = Fraction(1)
        for value in values:
            product *= value
        return product

    if operator == Operator.DIFFERENCE:
        a, b = _top_two(candidates, order_flag)
        return a - b
    if operator == Operator.DIVISION:
        a, b = _top_two(candidates, order_flag)
        if b == 0:
            raise ExecutionError("division by zero")
        return a / b
    if operator == Operator.CHANGE_RATIO:
        a, b = _top_two(candidates, order_flag)
        if b == 0:
            raise ExecutionError("change ratio against zero")
        return (a - b) / b
    raise ValueError(f"unknown operator: {operator!r}")


def assemble_prediction(
    raw, scale: Scale, trace: PredictionTrace | None = None
) -> Prediction:
    """Pair the raw operator output with the predicted scale.

    Numeric values stay exact and unmultiplied; scale application
    happens at comparison time, and the scale word is concatenated only
    when the answer is emitted as a string.
    """
    value = Fraction(raw) if isinstance(raw, int) else raw
    return Prediction(value=value, scale=scale, trace=trace or PredictionTrace(scale=scale))


# ---------------------------------------------------------------------------
# Component implementations
# ---------------------------------------------------------------------------


class OracleOperator:
    """Reads the gold operator off the question's own annotation."""

    def predict(self, question, context, candidates) -> str:
        return classify_question(question)


class KeywordOperator:
    """Fixed keyword-to-operator rule table, evaluated in priority order.

    More specific cues outrank generic ones (a "percentage change"
    question must not fall into the bare "change in" rule), and ratio
    cues outrank "total", which often names the divisor row rather than
    a sum.
    """

    _RULES = (
        (re.compile(r"\bhow many\b.*\bexceed", re.I), Operator.COUNT),
        (re.compile(r"percentage change|percent change|change ratio", re.I), Operator.CHANGE_RATIO),
        (re.compile(r"\bchange in\b|\bdifference\b", re.I), Operator.DIFFERENCE),
        (re.compile(r"\baverage\b", re.I), Operator.AVERAGE),
        (re.compile(r"\bproportion\b|\baccount for\b|\bratio\b", re.I), Operator.DIVISION),
        (re.compile(r"\btotal\b|\bsum\b", re.I), Operator.SUM),
        (re.compile(r"\bproduct\b", re.I), Operator.MULTIPLICATION),
        (
            re.compile(r"\brespectively\b|\bwhat (are|were)\b|\bwhich (are|were)\b", re.I),
            Operator.SPANS,
        ),
    )

    def predict(self, question, context, candidates) -> str:
        for pattern, operator in self._RULES:
            if pattern.search(question.text):
                return operator
        if candidates and isinstance(_best(candidates).origin, CellOrigin):
            return Operator.CELL_IN_TABLE
        return Operator.SPAN_IN_TEXT


class PositionalOrder:
    """Always keep ranked (input-sequence) order."""

    def decide(self, question, top_two) -> int:
        return 0


class OracleOrder:
    """Order flag recovered from the gold derivation.

    The first two derivation operands are compared by value against the
    two ranked candidates; if the ranked order already matches the
    derivation order the flag is 0, if it is reversed the flag is 1.
    """

    def decide(self, question, top_two) -> int:
        try:
            operands = operand_sequence(parsed_derivation(question))
        except (PipelineError, ValueError):
            return 0
        if len(operands) < 2 or len(top_two) < 2:
            return 0
        a, b = operands[0].value, operands[1].value
        v1 = top_two[0].numeric.value if top_two[0].numeric else None
        v2 = top_two[1].numeric.value if top_two[1].numeric else None
        if (v1, v2) == (b, a) and a != b:
            return 1
        return 0


class OracleScale:
    def predict(self, question, context, candidates) -> Scale:
        return question.gold_scale


_PERCENT_CUE_RE = re.compile(r"percentage|percent\b|%|\bproportion\b|\bratio\b", re.I)


class HeuristicScale:
    """Deterministic scale guess from the question and the evidence context.

    Percent questions are detected from the question itself; otherwise
    the headers and caption rows governing the winning cell candidates
    are scanned for a scale word, then the paragraph text nearest a span
    candidate, and finally the answer defaults to no scale.  The scale
    words of a context are read once, by its index.
    """

    def predict(self, question, context, candidates) -> Scale:
        if _PERCENT_CUE_RE.search(question.text):
            return Scale.PERCENT

        index = _context_index(context)
        ordered = sorted(candidates, key=lambda c: (-c.probability, c.position))
        cells = [c.origin for c in ordered if isinstance(c.origin, CellOrigin)]
        if cells and index.header_scale is not None:
            return index.header_scale
        grid = index.cell_scales
        for origin in cells:  # the column above the cell, then the row left of it
            above = (grid[r][origin.col] for r in range(origin.row))
            scale = next(filter(None, chain(above, grid[origin.row][: origin.col])), None)
            if scale is not None:
                return scale

        for candidate in ordered:
            if isinstance(candidate.origin, SpanOrigin):
                words = index.paragraphs[candidate.origin.paragraph].scale_words
                if words:  # the nearest, the first of a tie
                    start = candidate.origin.start
                    return min(words, key=lambda word: abs(word[0] - start))[1]
        return Scale.NONE


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


def _candidate_summary(candidates: list[EvidenceCandidate], context: HybridContext) -> tuple:
    return tuple(
        (c.text, round(c.probability, 6), origin_to_json(c.origin, context))
        for c in candidates
    )


def answer_question(
    question: QuestionRecord,
    context: HybridContext,
    tagger: Tagger,
    op_predictor: OperatorPredictor,
    order_decider: OrderDecider,
    scale_predictor: ScalePredictor,
    threshold: float = 0.5,
) -> Prediction:
    """Run the full pipeline for one question.

    Component errors propagate to the caller, except that an Other
    operator prediction yields an explicit abstained prediction (scored
    as wrong) rather than an exception.
    """
    tags = tagger.tag(question, context)
    candidates = decode_evidence(tags, threshold)
    operator = op_predictor.predict(question, context, candidates)

    trace = PredictionTrace(
        operator=operator,
        candidates=_candidate_summary(candidates, context),
    )
    if operator == Operator.OTHER:
        return Prediction(
            value="",
            scale=Scale.NONE,
            trace=replace(trace, note="abstained: unsupported operator"),
        )

    order_flag: int | None = None
    if operator in ORDER_SENSITIVE:
        order_flag = order_decider.decide(question, rank_candidates(candidates)[:2])

    raw = execute_operator(operator, candidates, order_flag)
    scale = scale_predictor.predict(question, context, candidates)
    if operator in (Operator.DIVISION, Operator.CHANGE_RATIO) and scale is Scale.PERCENT:
        # ratio operators yield dimensionless fractions; expressed at
        # percent scale the face value is the fraction over the factor
        raw = raw / Scale.PERCENT.factor

    trace = replace(
        trace,
        order_flag=order_flag,
        scale=scale,
        raw_value=render_decimal(raw) if isinstance(raw, (int, Fraction)) else str(raw),
    )
    return assemble_prediction(raw, scale, trace)


# ---------------------------------------------------------------------------
# Dataset-level runner
# ---------------------------------------------------------------------------

TAGGERS = {"oracle": OracleTagger, "lexical": LexicalTagger}
OPERATOR_PREDICTORS = {"oracle": OracleOperator, "keyword": KeywordOperator}
ORDER_DECIDERS = {"oracle": OracleOrder, "positional": PositionalOrder}
SCALE_PREDICTORS = {"oracle": OracleScale, "heuristic": HeuristicScale}


@dataclass(frozen=True)
class PipelineConfig:
    tagger: str = "oracle"
    operator: str = "oracle"
    order: str = "oracle"
    scale: str = "oracle"
    threshold: float = 0.5

    def build(self) -> tuple[Tagger, OperatorPredictor, OrderDecider, ScalePredictor]:
        try:
            return (
                TAGGERS[self.tagger](),
                OPERATOR_PREDICTORS[self.operator](),
                ORDER_DECIDERS[self.order](),
                SCALE_PREDICTORS[self.scale](),
            )
        except KeyError as exc:
            raise ValueError(f"unknown component name: {exc.args[0]!r}") from exc


def _answer_safely(
    question: QuestionRecord,
    context: HybridContext,
    components,
    threshold: float,
) -> Prediction:
    tagger, op_predictor, order_decider, scale_predictor = components
    try:
        return answer_question(
            question, context, tagger, op_predictor, order_decider,
            scale_predictor, threshold,
        )
    except PipelineError as exc:
        return abstained(f"{type(exc).__name__}: {exc}")


def _run_context(args) -> list[tuple[str, Prediction]]:
    context, questions, config = args
    components = config.build()
    return [
        (q.question_id, _answer_safely(q, context, components, config.threshold))
        for q in questions
    ]


def run_pipeline(
    dataset: Dataset, config: PipelineConfig, workers: int = 1
) -> dict[str, Prediction]:
    """Answer every question in the dataset.

    Per-question pipeline errors become abstained predictions, so a run
    always produces one record per question.  Results are merged in
    dataset order and are identical for any worker count.  Predictions
    are keyed by question uid, so a repeated uid raises
    ``DatasetValidationError`` before any question is answered.
    """
    repeated = repeated_question_id(dataset)
    if repeated is not None:
        raise DatasetValidationError("repeated question uid", question_id=repeated)
    jobs = [(context, questions, config) for context, questions in dataset]
    if workers <= 1:
        batches = map(_run_context, jobs)
    else:
        # imported here, so that a one-worker run does not load it
        from multiprocessing import Pool

        with Pool(processes=workers) as pool:
            batches = pool.map(_run_context, jobs)
    predictions: dict[str, Prediction] = {}
    for batch in batches:
        for question_id, prediction in batch:
            predictions[question_id] = prediction
    return predictions
