"""Command-line front door: validate, stats, run, eval, ablate, plus
schema-report and export-supervision utilities.

Exit codes: 0 on success, 1 on validation failure or unreadable input,
2 on usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import logging
import sys
from dataclasses import asdict
from itertools import zip_longest
from pathlib import Path

from . import reference
from .corpus import (
    AnswerSource,
    AnswerType,
    load_dataset,
    parse_documents,
    read_documents,
    scale_distribution,
    schema_report,
    split_stats,
    type_source_matrix,
)
from .derivation import Operator, operator_distribution
from .errors import PipelineError
from .evaluation import (
    CellScore,
    RoundingPolicy,
    evaluate,
    format_report,
    read_predictions,
    write_predictions,
)
from .evidence import export_supervision
from .numerics import Scale
from .reasoning import (
    ORDER_DECIDERS,
    OPERATOR_PREDICTORS,
    SCALE_PREDICTORS,
    TAGGERS,
    PipelineConfig,
    run_pipeline,
)
from .validation import field_deviations, format_validation, validate_dataset


def _add_strict_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--strict", action="store_true", help="fail on any schema deviation")


def _add_dataset_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", required=True, help="dataset JSON file")
    _add_strict_arg(parser)


def _threshold(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1), got {text}")
    return value


def _integer_at_least(minimum: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {text}")
        return value

    return parse


_workers = _integer_at_least(1)
# a negative number of places would round to tens, hundreds, ...
_rounding = _integer_at_least(0)


def _add_pipeline_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tagger", choices=sorted(TAGGERS), default="oracle")
    parser.add_argument("--operator", choices=sorted(OPERATOR_PREDICTORS), default="oracle")
    parser.add_argument("--order", choices=sorted(ORDER_DECIDERS), default="oracle")
    parser.add_argument("--scale", choices=sorted(SCALE_PREDICTORS), default="oracle")
    parser.add_argument(
        "--threshold", type=_threshold, default=0.5, help="tag decode threshold, in [0, 1)"
    )
    parser.add_argument("--workers", type=_workers, default=1, help="worker processes, at least 1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tatqa-symbolic",
        description="Symbolic tag-and-aggregate QA over table+text financial contexts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check dataset consistency and report")
    _add_dataset_arg(p)
    p.add_argument(
        "--rounding", type=_rounding, default=4, help="comparison decimal places, at least 0"
    )
    p.add_argument("--out", help="write the machine-readable report here")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("stats", help="corpus statistics with published deltas")
    p.add_argument("--dataset", nargs="+", required=True, help="dataset JSON file(s)")
    p.add_argument(
        "--split",
        nargs="*",
        default=[],
        help="split name per dataset file (train/dev/test), for reference deltas",
    )
    _add_strict_arg(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("run", help="answer every question with configured components")
    _add_dataset_arg(p)
    _add_pipeline_args(p)
    p.add_argument("--out", required=True, help="predictions file to write")
    p.add_argument("--traces", help="trace file (default: <out>.traces.jsonl)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="score a predictions file against gold")
    _add_dataset_arg(p)
    p.add_argument("--pred", required=True, help="predictions file")
    p.add_argument("--rounding", type=_rounding, default=4)
    p.add_argument("--out", help="write the machine-readable report here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="cumulative operator ablation grid")
    _add_dataset_arg(p)
    _add_pipeline_args(p)
    p.add_argument("--rounding", type=_rounding, default=4)
    p.add_argument("--out", help="write the grid as JSON here")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("schema-report", help="print the observed field inventory")
    p.add_argument("--dataset", required=True)
    p.set_defaults(func=cmd_schema_report)

    p = sub.add_parser("export-supervision", help="write gold labels to a JSONL file")
    _add_dataset_arg(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_supervision)

    return parser


@contextlib.contextmanager
def _loading():
    """Build a command's long-lived inputs with the cyclic collector
    paused, then freeze them.

    The loaded records hold no cycles and live until the command ends,
    so a collector pass over them frees nothing: the pause skips the
    passes that their allocation would trigger, and the freeze keeps
    later passes from rescanning them.  The collector is re-enabled only
    if it was enabled before; ``main`` unfreezes on the way out.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        gc.freeze()
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    with _loading():
        documents = read_documents(args.dataset)
        dataset = parse_documents(documents, strict=args.strict)
    deviations = field_deviations(documents)
    del documents  # the checks below need only the records
    report = validate_dataset(dataset, RoundingPolicy(places=args.rounding))
    print(format_validation(report))
    print()
    print(f"schema: {len(deviations['missing'])} expected field(s) missing, "
          f"{len(deviations['unexpected'])} unexpected")
    for path in deviations["missing"]:
        print(f"  missing    {path}")
    for path in deviations["unexpected"]:
        print(f"  unexpected {path}")
    if args.out:
        payload = {
            "n_questions": report.n_questions,
            "n_checked": report.n_checked,
            "n_consistent": report.n_consistent,
            "consistency_rate": report.consistency_rate,
            "conventions": report.convention_counts(),
            "unlocatable_rate": report.unlocatable_rate,
            "schema_deviations": deviations,
            "checks": [asdict(check) for check in report.checks],
            "unlocatable": [
                {"question_id": qid, "missing": missing}
                for qid, missing in report.unlocatable
            ],
        }
        Path(args.out).write_text(json.dumps(payload, indent=1), encoding="utf-8")
    return 0


def _print_distributions(title, datasets, distribution, labels, width, published) -> None:
    for label, dataset in datasets:
        ref = published.get(label)
        print(f"== gold {title} distribution: {label} (%) ==")
        for key, share in distribution(dataset).items():
            line = f"  {labels[key]:<{width}} {share:6.1f}"
            if ref:
                line += f"   published {ref[key]:6.1f}   delta {share - ref[key]:+.1f}"
            print(line)
        print()


def cmd_stats(args) -> int:
    if len(args.split) > len(args.dataset):
        names, files = len(args.split), len(args.dataset)
        print(f"error: --split: {names} split names for {files} --dataset file(s)", file=sys.stderr)
        return 2
    datasets = []
    with _loading():
        for path, name in zip_longest(args.dataset, args.split, fillvalue=""):
            label = name or Path(path).stem
            datasets.append((label, load_dataset(path, strict=args.strict)))

    for label, dataset in datasets:
        stats = split_stats(dataset)
        published = reference.SPLIT_STATS.get(label)
        print(f"== corpus shape: {label} ==")
        for attr, nice in stats.ROW_LABELS:
            value = getattr(stats, attr)
            text = f"{value:,}" if isinstance(value, int) else f"{value:.1f}"
            if published:
                ref = published[attr]
                ref_text = f"{ref:,}" if isinstance(ref, int) else f"{ref:.1f}"
                print(f"  {nice:<28} {text:>10}   published {ref_text:>10}   delta {value - ref:+.1f}")
            else:
                print(f"  {nice:<28} {text:>10}")
        print()

    combined = [pair for _, dataset in datasets for pair in dataset]
    matrix = type_source_matrix(combined)
    have_all = {label for label, _ in datasets} >= {"train", "dev", "test"}
    print("== questions by answer type and source (all given splits) ==")
    header = "".join(f"{AnswerSource.LABELS[s]:>12}" for s in AnswerSource.ALL)
    print(f"  {'':<12}{header}{'Total':>12}")
    for answer_type in AnswerType.ALL:
        row = "".join(
            f"{matrix.counts[(answer_type, s)]:>12,}" for s in AnswerSource.ALL
        )
        print(f"  {AnswerType.LABELS[answer_type]:<12}{row}{matrix.type_totals[answer_type]:>12,}")
    row = "".join(f"{matrix.source_totals[s]:>12,}" for s in AnswerSource.ALL)
    print(f"  {'Total':<12}{row}{matrix.total:>12,}")
    if have_all:
        print("  delta vs published (whole corpus):")
        for answer_type in AnswerType.ALL:
            row = "".join(
                f"{matrix.counts[(answer_type, s)] - reference.TYPE_SOURCE_COUNTS[(answer_type, s)]:>+12d}"
                for s in AnswerSource.ALL
            )
            print(f"  {AnswerType.LABELS[answer_type]:<12}{row}")
        print(f"  total delta {matrix.total - reference.TOTAL_QUESTIONS:+d}")
    print()

    _print_distributions("operator", datasets, operator_distribution, Operator.LABELS, 16,
                         reference.OPERATOR_PROPORTIONS)
    _print_distributions("scale", datasets, scale_distribution,
                         {scale: scale.label for scale in Scale}, 10, reference.SCALE_PROPORTIONS)
    return 0


def _pipeline_config(args) -> PipelineConfig:
    return PipelineConfig(
        tagger=args.tagger,
        operator=args.operator,
        order=args.order,
        scale=args.scale,
        threshold=args.threshold,
    )


def _trace_payload(question_id: str, prediction) -> dict:
    trace = prediction.trace
    return {
        "question_id": question_id,
        "operator": trace.operator,
        "order_flag": trace.order_flag,
        "scale": trace.scale.word,
        "candidates": [
            {"text": text, "probability": probability, "origin": origin}
            for text, probability, origin in trace.candidates
        ],
        "raw_value": trace.raw_value,
        "answer": prediction.display(),
        "note": trace.note,
    }


def cmd_run(args) -> int:
    with _loading():
        dataset = load_dataset(args.dataset, strict=args.strict)
    config = _pipeline_config(args)
    predictions = run_pipeline(dataset, config, workers=args.workers)

    write_predictions(
        {qid: (p.value, p.scale) for qid, p in predictions.items()}, args.out
    )
    traces_path = args.traces or f"{args.out}.traces.jsonl"
    with Path(traces_path).open("w", encoding="utf-8") as handle:
        for question_id, prediction in predictions.items():
            handle.write(json.dumps(_trace_payload(question_id, prediction)) + "\n")

    abstained = sum(1 for p in predictions.values() if p.trace.note)
    print(f"answered {len(predictions)} questions ({abstained} abstained)")
    print(f"predictions: {args.out}")
    print(f"traces:      {traces_path}")
    return 0


def cmd_eval(args) -> int:
    with _loading():
        dataset = load_dataset(args.dataset, strict=args.strict)
        predictions = read_predictions(args.pred)
    report = evaluate(predictions, dataset, RoundingPolicy(places=args.rounding))
    print(f"EM {report.em:.1f}  F1 {report.f1:.1f}  ({report.overall.n} questions)")
    if report.missing:
        print(f"missing predictions for {len(report.missing)} question(s), scored 0")
    print()
    print(format_report(report))
    if args.out:
        payload = {
            "em": report.em,
            "f1": report.f1,
            "n": report.overall.n,
            "cells": {
                f"{t}/{s}": {"n": cell.n, "em": cell.em, "f1": cell.f1}
                for (t, s), cell in report.cells.items()
            },
            "questions": [
                {"question_id": qid, "em": em, "f1": f1}
                for qid, em, f1 in report.questions
            ],
            "missing": report.missing,
        }
        Path(args.out).write_text(json.dumps(payload, indent=1), encoding="utf-8")
    return 0


def cmd_ablate(args) -> int:
    with _loading():
        dataset = load_dataset(args.dataset, strict=args.strict)
    predictions = run_pipeline(dataset, _pipeline_config(args), workers=args.workers)
    report = evaluate(
        {qid: (p.value, p.scale) for qid, p in predictions.items()},
        dataset,
        RoundingPolicy(places=args.rounding),
    )
    operators = [predictions[qid].trace.operator for qid, _, _ in report.questions]

    rows = []
    print(f"{'enabled operators':<22}{'EM':>8}{'F1':>8}")
    for k, newest in enumerate(Operator.ALL, 1):
        # a question whose predicted operator is not enabled yet abstains,
        # and an abstention scores (0, 0)
        enabled = {None, *Operator.ALL[:k]}
        row = CellScore()
        for operator, (_, em, f1) in zip(operators, report.questions):
            if operator in enabled:
                row.add(em, f1)
            else:
                row.add(0.0, 0.0)
        label = f"+ {Operator.LABELS[newest]}"
        rows.append({"row": label, "em": row.em, "f1": row.f1})
        print(f"{label:<22}{row.em:>8.1f}{row.f1:>8.1f}")
    if args.out:
        Path(args.out).write_text(json.dumps(rows, indent=1), encoding="utf-8")
    return 0


def cmd_schema_report(args) -> int:
    with _loading():
        inventory = schema_report(args.dataset)
    width = max(len(path) for path in inventory) if inventory else 0
    for path, entry in inventory.items():
        print(f"{path:<{width}}  {entry['count']:>8}  {', '.join(entry['types'])}")
    return 0


def cmd_export_supervision(args) -> int:
    with _loading():
        dataset = load_dataset(args.dataset, strict=args.strict)
    export = export_supervision(dataset, args.out)
    print(
        f"wrote {export.n_written} label records to {args.out} "
        f"({len(export.failures)} skipped, unlocatable rate "
        f"{100.0 * export.unlocatable_rate:.1f}%)"
    )
    for question_id, reason in export.failures:
        print(f"  skipped {question_id}: {reason}")
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        # an in-process caller gets back a heap its collector scans
        gc.unfreeze()


if __name__ == "__main__":
    sys.exit(main())
