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

__version__ = "0.1.0"
