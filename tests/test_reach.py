"""Which functions in ``src/`` the seven commands reach.

Every command runs in process, under a profiler, with one worker and
``--rounding 4``: ``run`` and ``ablate`` under the oracle config and the
lexical one at 0.05.  The inputs are the fixture corpus, small dense,
sparse and multispan corpora of ``bench/gen.py``, the three split names
of ``stats``, the README's custom-tagger recipe and one malformed input
per error path.  The functions never entered must be exactly
``NOT_REACHED``, each with its reason.  So code that neither a command
nor a documented library use needs fails here, and so does a listed
function that something has come to reach.  ``test_library_surface``
pins the names the package exports and its ``__all__``, which README
declares its API, and ``test_only_corpus_writes_files`` that every
output file is written through ``corpus``.
"""

import ast
import contextlib
import inspect
import io
import json
import os
import sys
import types
from pathlib import Path

from conftest import CORPUS_DOCS, TEXT_DOC, bench_module

import tatqa_symbolic
from tatqa_symbolic import evaluation, evidence
from tatqa_symbolic.cli import main
from tatqa_symbolic.corpus import load_dataset
from tatqa_symbolic.evidence import TaggedSequence, context_units, decode_evidence

PROTOCOL = "a Protocol stub"
AT_IMPORT = "runs at import, before the profiler is set"
BENCH = "reached only by bench/ (ROADMAP item 1)"
README = "library API named in README"

# "module:qualified name" -> why no command enters it
NOT_REACHED = {
    "cli:_integer_at_least": AT_IMPORT,
    "evaluation:align_spans_f1": BENCH,
    "evidence:TaggedSequence.__eq__": README,
    "evidence:TaggedSequence.__repr__": README,
    "evidence:TaggedSequence.units": BENCH,
    "reasoning:OperatorPredictor.predict": PROTOCOL,
    "reasoning:OrderDecider.decide": PROTOCOL,
    "reasoning:ScalePredictor.predict": PROTOCOL,
    "reasoning:Tagger.tag": PROTOCOL,
    "validation:schema_deviations": BENCH,
}

# the names ``import tatqa_symbolic`` gives, less its modules
LIBRARY = [
    "AnswerSource", "AnswerType", "CellOrigin", "DatasetParseError",
    "DatasetValidationError", "DerivationParseError", "EvidenceCandidate",
    "ExecutionError", "HeuristicScale", "HybridContext",
    "InsufficientEvidenceError", "KeywordOperator", "LexicalTagger",
    "NumberTooLongError", "Operator", "OracleOperator", "OracleOrder",
    "OracleScale", "OracleTagger", "Paragraph", "PipelineConfig",
    "PipelineError", "PositionalOrder", "Prediction", "QuestionRecord", "Scale",
    "ScoringError", "SpanOrigin", "SupervisionLabels", "Table", "TaggedSequence",
    "UnlocatableEvidenceError", "UnsupportedOperatorError", "answer_question",
    "build_supervision", "classify_operator", "decode_evidence",
    "eval_derivation", "evaluate", "execute_operator", "export_supervision",
    "extract_numbers", "iter_questions", "load_dataset", "normalize_answer",
    "numbers_match", "operand_sequence", "operator_distribution",
    "parse_derivation", "parse_number", "rank_candidates", "read_predictions",
    "render_decimal", "run_pipeline", "scale_distribution", "score_question",
    "split_stats", "type_source_matrix", "validate_dataset", "write_predictions",
]

CONFIGS = {
    "oracle": (),
    "lexical": ("--tagger", "lexical", "--operator", "keyword", "--order", "positional",
                "--scale", "heuristic", "--threshold", "0.05"),
}

SRC = Path(os.path.realpath(tatqa_symbolic.__file__)).parent


def functions() -> dict[tuple[str, int, str], str]:
    """Every function defined in ``src/``, by (file, first line, name),
    to its "module:qualified name"; lambdas and comprehensions are left
    out."""
    found = {}

    def walk(code, module: str, prefix: str) -> None:
        for const in code.co_consts:
            if not isinstance(const, types.CodeType) or const.co_name.startswith("<"):
                continue
            is_function = bool(const.co_flags & inspect.CO_OPTIMIZED)
            qualname = prefix + const.co_name
            if is_function:
                key = (const.co_filename, const.co_firstlineno, const.co_name)
                found[key] = f"{module}:{qualname}"
            walk(const, module, qualname + (".<locals>." if is_function else "."))

    for path in sorted(SRC.glob("*.py")):
        walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), path.stem, "")
    return found


def call(*argv) -> int:
    """``main(argv)`` with its printing kept from the test's output."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([str(arg) for arg in argv])


def write(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def corpora(root: Path) -> dict[str, tuple[Path, Path | None]]:
    """Each corpus file, with its planted predictions where it has them."""
    gen = bench_module("gen")
    multispan, planted, _ = gen.multispan_corpus(5, 6)
    return {
        "fixture": (write(root / "fixture.json", CORPUS_DOCS), None),
        "dense": (write(root / "dense.json", gen.dense_corpus(5, 8)[0]), None),
        "sparse": (write(root / "sparse.json", gen.sparse_corpus(5, 24)[0]), None),
        "multispan": (write(root / "multispan.json", multispan),
                      write(root / "planted.json", planted)),
    }


def commands(root: Path) -> list[tuple[tuple, int]]:
    """(arguments, expected exit code) of every command run."""
    out = root / "out"
    runs = []
    for name, (dataset, planted) in corpora(root).items():
        preds = root / f"{name}.preds.json"
        runs += [
            (("validate", "--dataset", dataset, "--rounding", 4, "--out", out / "v.json"), 0),
            (("stats", "--dataset", dataset), 0),
            (("schema-report", "--dataset", dataset), 0),
            (("export-supervision", "--dataset", dataset, "--out", out / "s.jsonl"), 0),
        ]
        for config in CONFIGS.values():
            runs += [
                (("run", "--dataset", dataset, "--out", preds, "--workers", 1, *config), 0),
                (("eval", "--dataset", dataset, "--pred", preds, "--rounding", 4,
                  "--out", out / "e.json"), 0),
                (("ablate", "--dataset", dataset, "--workers", 1, "--rounding", 4,
                  "--out", out / "a.json", *config), 0),
            ]
        if planted is not None:
            runs.append((("eval", "--dataset", dataset, "--pred", planted), 0))
    fixture = root / "fixture.json"
    runs.append((("stats", "--dataset", fixture, fixture, fixture,
                  "--split", "train", "dev", "test"), 0))
    return runs + malformed(root)


def malformed(root: Path) -> list[tuple[tuple, int]]:
    """One input for each error path, with the exit code it must give."""
    ragged = json.loads(json.dumps(TEXT_DOC))
    ragged["table"]["table"][1].pop()
    ragged = write(root / "ragged.json", [ragged])
    essay = json.loads(json.dumps(TEXT_DOC))
    essay["questions"][0]["answer_type"] = "essay"
    essay = write(root / "essay.json", [essay])
    long_cell = json.loads(json.dumps(TEXT_DOC))
    long_cell["table"]["table"][1][1] = "1" * 4301
    long_cell = write(root / "long-cell.json", [long_cell])
    bad_preds = write(root / "bad-preds.json", {"q-text-span": "not [answer, scale word]"})
    fixture, out = root / "fixture.json", root / "out" / "p.json"
    return [
        (("run", "--dataset", ragged, "--out", out), 0),
        (("run", "--dataset", ragged, "--out", out, "--strict"), 1),
        (("validate", "--dataset", essay), 1),
        (("stats", "--dataset", long_cell), 1),
        (("eval", "--dataset", fixture, "--pred", bad_preds), 1),
    ]


def custom_tagger_recipe(dataset_path: Path) -> None:
    """README's custom-tagger recipe, over every question of the corpus."""
    for context, questions in load_dataset(dataset_path):
        for question in questions:
            units = context_units(question.text, context)
            scores = [float(any(ch.isdigit() for ch in text)) for text, _ in units]
            tags = TaggedSequence(question, context, scores)
            decode_evidence(tags, threshold=0.5)


def test_never_entered_functions_are_the_listed_ones(tmp_path):
    (tmp_path / "out").mkdir()
    argvs = commands(tmp_path)
    entered: set = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    # a word cached by an earlier test would not enter its normalizer, nor
    # a code point translated before enter the digit-key table's filler
    evaluation._normalize_piece.cache_clear()
    evaluation._is_number.cache_clear()
    evidence._DIGIT_KEYS.clear()
    sys.setprofile(profile)
    try:
        codes = [call(*argv) for argv, _ in argvs]
        custom_tagger_recipe(tmp_path / "fixture.json")
    finally:
        sys.setprofile(None)
    assert codes == [code for _, code in argvs]
    reached = {(os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name)
               for code in entered}
    never = {name for key, name in functions().items() if key not in reached}
    assert sorted(never - NOT_REACHED.keys()) == [], "never entered, and not listed"
    assert sorted(NOT_REACHED.keys() - never) == [], "listed, but entered"


def test_library_surface():
    exported = [name for name, value in vars(tatqa_symbolic).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert sorted(exported) == LIBRARY
    assert sorted(tatqa_symbolic.__all__) == LIBRARY


def test_only_corpus_writes_files():
    """No module but ``corpus`` calls ``open``, ``.open``, ``.write_text``
    or ``.write_bytes``, so every output file is written by
    ``corpus.write_json`` or ``corpus.write_lines``."""
    calls: dict[str, list[int]] = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "open"
                    or isinstance(func, ast.Attribute)
                    and func.attr in {"open", "write_text", "write_bytes"}):
                calls.setdefault(path.stem, []).append(node.lineno)
    assert sorted(calls) == ["corpus"], f"file writes by line: {calls}"
