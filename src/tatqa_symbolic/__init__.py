"""Symbolic tag-and-aggregate QA over hybrid table+text financial contexts."""

from .corpus import (
    AnswerSource,
    AnswerType,
    HybridContext,
    Paragraph,
    QuestionRecord,
    Table,
    iter_questions,
    load_dataset,
    scale_distribution,
    split_stats,
    type_source_matrix,
)
from .derivation import (
    Operator,
    classify_operator,
    eval_derivation,
    operand_sequence,
    operator_distribution,
    parse_derivation,
)
from .errors import (
    DatasetParseError,
    DatasetValidationError,
    DerivationParseError,
    ExecutionError,
    InsufficientEvidenceError,
    NumberTooLongError,
    PipelineError,
    ScoringError,
    UnlocatableEvidenceError,
    UnsupportedOperatorError,
)
from .evaluation import (
    evaluate,
    normalize_answer,
    numbers_match,
    read_predictions,
    score_question,
    write_predictions,
)
from .evidence import (
    CellOrigin,
    EvidenceCandidate,
    LexicalTagger,
    OracleTagger,
    SpanOrigin,
    SupervisionLabels,
    TaggedSequence,
    build_supervision,
    decode_evidence,
    export_supervision,
)
from .numerics import (
    Scale,
    extract_numbers,
    parse_number,
    render_decimal,
)
from .reasoning import (
    HeuristicScale,
    KeywordOperator,
    OracleOperator,
    OracleOrder,
    OracleScale,
    PipelineConfig,
    PositionalOrder,
    Prediction,
    answer_question,
    execute_operator,
    rank_candidates,
    run_pipeline,
)
from .validation import validate_dataset

# the library API that README declares, and what ``import *`` gives
__all__ = [
    "AnswerSource", "AnswerType", "CellOrigin", "DatasetParseError",
    "DatasetValidationError", "DerivationParseError", "EvidenceCandidate",
    "ExecutionError", "HeuristicScale", "HybridContext", "InsufficientEvidenceError",
    "KeywordOperator", "LexicalTagger", "NumberTooLongError", "Operator",
    "OracleOperator", "OracleOrder", "OracleScale", "OracleTagger", "Paragraph",
    "PipelineConfig", "PipelineError", "PositionalOrder", "Prediction",
    "QuestionRecord", "Scale", "ScoringError", "SpanOrigin", "SupervisionLabels",
    "Table", "TaggedSequence", "UnlocatableEvidenceError", "UnsupportedOperatorError",
    "answer_question", "build_supervision", "classify_operator", "decode_evidence",
    "eval_derivation", "evaluate", "execute_operator", "export_supervision",
    "extract_numbers", "iter_questions", "load_dataset", "normalize_answer",
    "numbers_match", "operand_sequence", "operator_distribution", "parse_derivation",
    "parse_number", "rank_candidates", "read_predictions", "render_decimal",
    "run_pipeline", "scale_distribution", "score_question", "split_stats",
    "type_source_matrix", "validate_dataset", "write_predictions",
]

__version__ = "0.1.0"
