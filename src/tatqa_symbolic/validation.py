"""Dataset consistency checks behind the validate command.

Every Counting/Arithmetic gold derivation is parsed, executed exactly,
and compared against the gold answer.  Because the release stores some
numeric answers at face value and some at the quantity level (most
visibly percent answers, where the derivation yields a plain ratio but
the gold is in percentage points), each question is checked under both
storage conventions and the one that matched is reported, resolving the
question empirically rather than by assumption.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any

from .corpus import AnswerType, Dataset, field_inventory, iter_questions, read_documents
from .derivation import eval_derivation, parsed_derivation
from .errors import (
    DerivationParseError,
    ExecutionError,
    NumberTooLongError,
    UnlocatableEvidenceError,
)
from .evaluation import DEFAULT_POLICY, RoundingPolicy, _as_fraction, numbers_match
from .evidence import build_supervision
from .numerics import Scale

CONSISTENT = "consistent"
MISMATCH = "mismatch"
PARSE_ERROR = "parse_error"
EXECUTION_ERROR = "execution_error"
NO_NUMERIC_GOLD = "no_numeric_gold"
UNREADABLE_NUMBER = "unreadable_number"


@dataclass(frozen=True)
class DerivationCheck:
    question_id: str
    status: str
    convention: str | None = None  # "face", "scaled", or "both"
    detail: str = ""


@dataclass
class ValidationReport:
    checks: list[DerivationCheck] = field(default_factory=list)
    n_questions: int = 0
    n_checked: int = 0  # Counting/Arithmetic questions
    unlocatable: list[tuple[str, str]] = field(default_factory=list)
    n_supervised: int = 0

    @property
    def n_consistent(self) -> int:
        return sum(1 for c in self.checks if c.status == CONSISTENT)

    @property
    def consistency_rate(self) -> float:
        return self.n_consistent / self.n_checked if self.n_checked else 0.0

    @property
    def unlocatable_rate(self) -> float:
        total = self.n_supervised + len(self.unlocatable)
        return len(self.unlocatable) / total if total else 0.0

    def failures(self) -> list[DerivationCheck]:
        return [c for c in self.checks if c.status != CONSISTENT]

    def consistent_ids(self) -> set[str]:
        return {c.question_id for c in self.checks if c.status == CONSISTENT}

    def convention_counts(self) -> dict[str, int]:
        counts = {"face": 0, "scaled": 0, "both": 0}
        for check in self.checks:
            if check.status == CONSISTENT and check.convention:
                counts[check.convention] += 1
        return counts


def check_question(question, policy: RoundingPolicy = DEFAULT_POLICY) -> DerivationCheck:
    """Execute one gold derivation and compare it with the gold answer.

    A question is consistent when the exact result equals the gold
    answer under either storage convention: face value (result == gold)
    or scale-applied (result == gold x scale factor), both sides rounded
    per the policy.
    """
    question_id = question.question_id
    try:
        ast = parsed_derivation(question)
    except DerivationParseError as exc:
        return DerivationCheck(question_id, PARSE_ERROR, detail=str(exc))
    except NumberTooLongError as exc:
        return DerivationCheck(question_id, UNREADABLE_NUMBER, detail=str(exc))
    try:
        result = Fraction(eval_derivation(ast))
    except ExecutionError as exc:
        return DerivationCheck(question_id, EXECUTION_ERROR, detail=str(exc))

    try:
        gold = _as_fraction(question.answer)
    except NumberTooLongError as exc:
        return DerivationCheck(question_id, UNREADABLE_NUMBER, detail=str(exc))
    if gold is None:
        return DerivationCheck(
            question_id, NO_NUMERIC_GOLD, detail=f"gold answer {question.answer!r}"
        )

    face = numbers_match(result, Scale.NONE, gold, Scale.NONE, policy)
    scaled = numbers_match(result, Scale.NONE, gold, question.gold_scale, policy)
    if face or scaled:
        convention = "both" if (face and scaled) else ("face" if face else "scaled")
        return DerivationCheck(question_id, CONSISTENT, convention=convention)
    return DerivationCheck(
        question_id,
        MISMATCH,
        detail=(
            f"derivation {question.derivation!r} = {float(result):.6g}, "
            f"gold {float(gold):.6g} @ {question.gold_scale.label}"
        ),
    )


def validate_dataset(
    dataset: Dataset, policy: RoundingPolicy = DEFAULT_POLICY
) -> ValidationReport:
    """Run all consistency checks over a loaded dataset.

    A number too long to read exactly fails the question's check when
    its derivation or gold answer holds it; found while locating the
    evidence (in the gold answer or the paragraphs), it makes the
    evidence unlocatable.
    """
    report = ValidationReport()
    for context, question in iter_questions(dataset):
        report.n_questions += 1
        check = None
        if question.answer_type in (AnswerType.COUNTING, AnswerType.ARITHMETIC):
            report.n_checked += 1
            check = check_question(question, policy)
            report.checks.append(check)
        try:
            build_supervision(question, context)
            report.n_supervised += 1
        except UnlocatableEvidenceError as exc:
            report.unlocatable.append((question.question_id, ", ".join(exc.missing)))
        except DerivationParseError:
            pass  # already reported as a parse failure above
        except NumberTooLongError as exc:
            if check is None or check.status != UNREADABLE_NUMBER:
                report.unlocatable.append((question.question_id, f"unreadable number: {exc}"))
    return report


# Field paths every release document is expected to carry.
EXPECTED_FIELDS = frozenset(
    {
        "$[].table",
        "$[].table.uid",
        "$[].table.table",
        "$[].paragraphs",
        "$[].paragraphs[].uid",
        "$[].paragraphs[].order",
        "$[].paragraphs[].text",
        "$[].questions",
        "$[].questions[].uid",
        "$[].questions[].question",
        "$[].questions[].answer",
        "$[].questions[].derivation",
        "$[].questions[].answer_type",
        "$[].questions[].answer_from",
        "$[].questions[].scale",
    }
)


def schema_deviations(path: str | Path) -> dict[str, list[str]]:
    """Field paths missing from, or extra to, the expected core schema.

    Extra fields are informational (the loader preserves and ignores
    them); missing expected fields usually mean a format revision.
    """
    return field_deviations(read_documents(path))


def field_deviations(raw: Any) -> dict[str, list[str]]:
    """:func:`schema_deviations` of documents already decoded by
    :func:`~.corpus.read_documents`."""
    observed = set(field_inventory(raw))
    return {
        "missing": sorted(EXPECTED_FIELDS - observed),
        "unexpected": sorted(
            p for p in observed - EXPECTED_FIELDS if p.count(".") >= 1
        ),
    }


def format_validation(report: ValidationReport) -> str:
    conventions = report.convention_counts()
    lines = [
        f"questions                  {report.n_questions}",
        f"derivations checked        {report.n_checked}",
        f"  consistent               {report.n_consistent}"
        f" ({100.0 * report.consistency_rate:.1f}%)",
        f"    face-value convention   {conventions['face']}",
        f"    scale-applied           {conventions['scaled']}",
        f"    both                    {conventions['both']}",
        f"  failures                  {len(report.failures())}",
        f"evidence located           {report.n_supervised}"
        f" (unlocatable rate {100.0 * report.unlocatable_rate:.1f}%)",
    ]
    failures = report.failures()
    if failures:
        lines.append("")
        lines.append("itemized failures:")
        for check in failures:
            lines.append(f"  {check.question_id}  {check.status}  {check.detail}")
    if report.unlocatable:
        lines.append("")
        lines.append("unlocatable evidence:")
        for question_id, missing in report.unlocatable:
            lines.append(f"  {question_id}  missing: {missing}")
    return "\n".join(lines)
