"""Exception hierarchy shared across the pipeline."""

from __future__ import annotations


class PipelineError(Exception):
    """Base class for all errors raised by this package."""


class DatasetParseError(PipelineError):
    """A dataset file is malformed.  ``location`` is a JSON-path-like string."""

    def __init__(self, message: str, location: str = "$"):
        super().__init__(f"{location}: {message}")
        self.location = location


class DatasetValidationError(PipelineError):
    """A loaded record violates a data-model invariant."""

    def __init__(self, message: str, context_id: str = "", question_id: str = ""):
        ref = "/".join(x for x in (context_id, question_id) if x)
        super().__init__(f"{ref}: {message}" if ref else message)
        self.context_id = context_id
        self.question_id = question_id


class DerivationParseError(PipelineError):
    """A derivation string could not be parsed.  ``offset`` is a char index."""

    def __init__(self, message: str, text: str = "", offset: int = 0):
        super().__init__(f"{message} at offset {offset} in {text!r}")
        self.message = message
        self.text = text
        self.offset = offset


class ExecutionError(PipelineError):
    """Arithmetic could not be carried out (e.g. division by zero)."""


class UnlocatableEvidenceError(PipelineError):
    """A gold evidence string could not be found anywhere in its context."""

    def __init__(self, question_id: str, missing: list[str]):
        super().__init__(
            f"question {question_id}: evidence not locatable: {missing!r}"
        )
        self.question_id = question_id
        self.missing = missing


class UnsupportedOperatorError(PipelineError):
    """The question requires a computation outside the ten operators."""


class InsufficientEvidenceError(PipelineError):
    """An operator was invoked with too few usable candidates."""


class ScoringError(PipelineError):
    """A prediction file does not line up with the gold dataset."""
