"""Command-line front door: validate, stats, run, eval, ablate, plus
schema-report and export-supervision utilities.

Exit codes: 0 on success, 1 on validation failure or unreadable input,
2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import asdict
from pathlib import Path

from . import reference
from .corpus import (
    AnswerSource,
    AnswerType,
    load_dataset,
    scale_distribution,
    schema_report,
    split_stats,
    type_source_matrix,
)
from .derivation import Operator, operator_distribution
from .errors import PipelineError
from .evaluation import (
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
from .validation import format_validation, schema_deviations, validate_dataset


def _add_dataset_arg(parser: argparse.ArgumentParser, multiple: bool = False) -> None:
    if multiple:
        parser.add_argument(
            "--dataset", nargs="+", required=True, help="dataset JSON file(s)"
        )
        parser.add_argument(
            "--split",
            nargs="*",
            default=[],
            help="split name per dataset file (train/dev/test), for reference deltas",
        )
    else:
        parser.add_argument("--dataset", required=True, help="dataset JSON file")
        parser.add_argument(
            "--split", default="", help="split name, for reference deltas"
        )
    parser.add_argument(
        "--strict", action="store_true", help="fail on any schema deviation"
    )


def _threshold(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1), got {text}")
    return value


def _workers(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return value


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
    p.add_argument("--rounding", type=int, default=4, help="comparison decimal places")
    p.add_argument("--out", help="write the machine-readable report here")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("stats", help="corpus statistics with published deltas")
    _add_dataset_arg(p, multiple=True)
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
    p.add_argument("--rounding", type=int, default=4)
    p.add_argument("--out", help="write the machine-readable report here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="cumulative operator ablation grid")
    _add_dataset_arg(p)
    _add_pipeline_args(p)
    p.add_argument("--rounding", type=int, default=4)
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


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    dataset = load_dataset(args.dataset, strict=args.strict)
    report = validate_dataset(dataset, RoundingPolicy(places=args.rounding))
    deviations = schema_deviations(args.dataset)
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


def _delta(computed: float, published: float) -> str:
    return f"{computed - published:+.1f}"


def cmd_stats(args) -> int:
    names = list(args.split) + [""] * (len(args.dataset) - len(args.split))
    datasets = []
    for path, name in zip(args.dataset, names):
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

    for label, dataset in datasets:
        ops = operator_distribution(dataset)
        published_ops = reference.OPERATOR_PROPORTIONS.get(label)
        print(f"== gold operator distribution: {label} (%) ==")
        for op in (*Operator.ALL, Operator.OTHER):
            line = f"  {Operator.LABELS[op]:<16} {ops[op]:6.1f}"
            if published_ops:
                line += f"   published {published_ops[op]:6.1f}   delta {_delta(ops[op], published_ops[op])}"
            print(line)
        print()

    for label, dataset in datasets:
        scales = scale_distribution(dataset)
        published_scales = reference.SCALE_PROPORTIONS.get(label)
        print(f"== gold scale distribution: {label} (%) ==")
        for scale in Scale:
            line = f"  {scale.label:<10} {scales[scale]:6.1f}"
            if published_scales:
                line += f"   published {published_scales[scale]:6.1f}   delta {_delta(scales[scale], published_scales[scale])}"
            print(line)
        print()
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
    from .reasoning import abstained as make_abstained

    dataset = load_dataset(args.dataset, strict=args.strict)
    config = _pipeline_config(args)
    policy = RoundingPolicy(places=args.rounding)
    predictions = run_pipeline(dataset, config, workers=args.workers)

    rows = []
    print(f"{'enabled operators':<22}{'EM':>8}{'F1':>8}")
    for k in range(1, len(Operator.ALL) + 1):
        enabled = set(Operator.ALL[:k])
        routed = {
            qid: (p if (p.trace.operator is None or p.trace.operator in enabled)
                  else make_abstained("operator disabled in ablation"))
            for qid, p in predictions.items()
        }
        report = evaluate(
            {qid: (p.value, p.scale) for qid, p in routed.items()}, dataset, policy
        )
        label = f"+ {Operator.LABELS[Operator.ALL[k - 1]]}"
        rows.append({"row": label, "em": report.em, "f1": report.f1})
        print(f"{label:<22}{report.em:>8.1f}{report.f1:>8.1f}")
    if args.out:
        Path(args.out).write_text(json.dumps(rows, indent=1), encoding="utf-8")
    return 0


def cmd_schema_report(args) -> int:
    inventory = schema_report(args.dataset)
    width = max(len(path) for path in inventory) if inventory else 0
    for path, entry in inventory.items():
        print(f"{path:<{width}}  {entry['count']:>8}  {', '.join(entry['types'])}")
    return 0


def cmd_export_supervision(args) -> int:
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


if __name__ == "__main__":
    sys.exit(main())
