"""Acceptance suite: one pass/fail line per criterion.

Criteria over the public dataset splits run only when the files are
present (point TATQA_DATA_DIR at a directory holding
``tatqa_dataset_{train,dev,test}.json``); they skip with an explicit
message otherwise.  Everything else runs on every build.
"""

from __future__ import annotations

import itertools
import os
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import word_inputs
from oracles import brute_force_alignment_f1, random_expression, shunting_yard_eval
from tatqa_symbolic import reference
from tatqa_symbolic.corpus import (
    AnswerSource,
    AnswerType,
    load_dataset,
    scale_distribution,
    split_stats,
    type_source_matrix,
)
from tatqa_symbolic.derivation import (
    Operator,
    classify_operator,
    eval_derivation,
    operator_distribution,
    parse_derivation,
)
from tatqa_symbolic.errors import ExecutionError
from tatqa_symbolic.evaluation import (
    align_spans_f1,
    drop_em_f1,
    evaluate,
    score_question,
)
from tatqa_symbolic.evidence import TaggedSequence, context_units, decode_evidence
from tatqa_symbolic.numerics import Scale
from tatqa_symbolic.reasoning import PipelineConfig, answer_question, run_pipeline
from tatqa_symbolic.validation import validate_dataset

from test_evaluation import CONFORMANCE_VECTORS

_ELAPSED: dict[str, float] = {}


def report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] {criterion}{suffix}")
    assert passed, f"{criterion}{suffix}"


def official_split(name: str) -> Path:
    root = Path(os.environ.get("TATQA_DATA_DIR", "data"))
    for filename in (f"tatqa_dataset_{name}.json", f"{name}.json"):
        path = root / filename
        if path.exists():
            return path
    pytest.skip(
        f"criterion needs the public {name} split: put tatqa_dataset_{name}.json "
        "under ./data or set TATQA_DATA_DIR (no network in this environment)"
    )


# ---------------------------------------------------------------------------
# Criterion 1: dataset statistics reproduction (public splits)
# ---------------------------------------------------------------------------


def test_criterion_1_dataset_statistics():
    paths = {name: official_split(name) for name in ("train", "dev", "test")}
    start = time.perf_counter()
    datasets = {name: load_dataset(path) for name, path in paths.items()}

    for name, dataset in datasets.items():
        stats = split_stats(dataset)
        published = reference.SPLIT_STATS[name]
        assert stats.n_contexts == published["n_contexts"], name
        assert stats.n_questions == published["n_questions"], name
        for attr in (
            "avg_rows", "avg_cols", "avg_paragraphs",
            "avg_paragraph_len", "avg_question_len", "avg_answer_len",
        ):
            assert abs(getattr(stats, attr) - published[attr]) <= 0.1, (name, attr)

    combined = [pair for dataset in datasets.values() for pair in dataset]
    matrix = type_source_matrix(combined)
    for key, count in reference.TYPE_SOURCE_COUNTS.items():
        assert matrix.counts[key] == count, key
    assert matrix.total == reference.TOTAL_QUESTIONS
    assert matrix.type_totals[AnswerType.ARITHMETIC] == 6964
    assert matrix.type_totals[AnswerType.SPAN] == 7139

    dev_scales = scale_distribution(datasets["dev"])
    for scale, published_pct in reference.SCALE_PROPORTIONS["dev"].items():
        assert abs(dev_scales[scale] - published_pct) <= 0.2, scale

    elapsed = time.perf_counter() - start
    report("criterion 1: dataset statistics reproduction", elapsed < 5.0,
           f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# Criterion 2: derivation consistency on dev
# ---------------------------------------------------------------------------


def test_criterion_2_derivation_consistency():
    dev = load_dataset(official_split("dev"))
    validation = validate_dataset(dev)
    failures = validation.failures()
    assert validation.n_checked == len(validation.checks)
    assert len(failures) == validation.n_checked - validation.n_consistent
    for failure in failures:  # itemized: every failure names its question
        assert failure.question_id and failure.status
    rate = validation.consistency_rate
    report(
        "criterion 2: >=95% dev derivation consistency",
        rate >= 0.95,
        f"{100 * rate:.1f}% of {validation.n_checked}",
    )


# ---------------------------------------------------------------------------
# Criterion 3: operator-mapping distribution on dev
# ---------------------------------------------------------------------------


def test_criterion_3_operator_distribution():
    dev = load_dataset(official_split("dev"))
    computed = operator_distribution(dev)
    worst = 0.0
    for operator, published_pct in reference.OPERATOR_PROPORTIONS["dev"].items():
        worst = max(worst, abs(computed[operator] - published_pct))
        assert abs(computed[operator] - published_pct) <= 2.0, operator
    report("criterion 3: gold-operator distribution within +/-2.0", True,
           f"max delta {worst:.2f}")


# ---------------------------------------------------------------------------
# Criterion 4: oracle upper bound on dev
# ---------------------------------------------------------------------------


def test_criterion_4_oracle_upper_bound():
    dev = load_dataset(official_split("dev"))
    predictions = run_pipeline(dev, PipelineConfig())
    eval_report = evaluate(
        {qid: (p.value, p.scale) for qid, p in predictions.items()}, dev
    )
    consistent = validate_dataset(dev).consistent_ids()
    subset = [(qid, em) for qid, em, _ in eval_report.questions if qid in consistent]
    subset_em = 100.0 * sum(em for _, em in subset) / len(subset) if subset else 0.0
    above = eval_report.em > reference.LEARNED_DEV_EM
    report(
        "criterion 4: all-oracle dev EM above the learned 55.2 and >=95 on the consistent subset",
        above and subset_em >= 95.0,
        f"EM {eval_report.em:.1f}, consistent-subset EM {subset_em:.1f}",
    )


# ---------------------------------------------------------------------------
# Criterion 5: metric conformance
# ---------------------------------------------------------------------------


def test_criterion_5_metric_conformance(questions):
    start = time.perf_counter()
    for pred, gold, em, f1 in CONFORMANCE_VECTORS:
        pred_spans = pred if isinstance(pred, list) else [pred]
        gold_spans = gold if isinstance(gold, list) else [gold]
        assert drop_em_f1(pred_spans, gold_spans) == (em, f1), (pred, gold)

    # the two metric modifications: sign flips and scale mismatches score 0
    _, gold_diff = questions["q-exp-diff"]  # gold -1,657 @ thousand
    assert score_question(Fraction(1657), Scale.THOUSAND, gold_diff) == (0.0, 0.0)
    assert score_question(Fraction(-1657), Scale.THOUSAND, gold_diff) == (1.0, 1.0)

    _, gold_ratio = questions["q-rev-ratio"]  # gold 9.98 @ percent
    assert score_question(Fraction("9.98"), Scale.NONE, gold_ratio) == (0.0, 0.0)
    assert score_question(Fraction("9.98"), Scale.PERCENT, gold_ratio) == (1.0, 1.0)

    elapsed = time.perf_counter() - start
    report("criterion 5: 50-vector metric conformance plus sign/scale zeros",
           elapsed < 1.0, f"{len(CONFORMANCE_VECTORS)} vectors, {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# Criterion 6: property suites
# ---------------------------------------------------------------------------


def test_criterion_6a_expression_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(20240811)
    zero_divisions = 0
    for _ in range(10_000):
        text = random_expression(rng)
        try:
            expected = shunting_yard_eval(text)
        except ZeroDivisionError:
            zero_divisions += 1
            with pytest.raises(ExecutionError):
                eval_derivation(parse_derivation(text, AnswerType.ARITHMETIC))
            continue
        assert eval_derivation(parse_derivation(text, AnswerType.ARITHMETIC)) == expected
    _ELAPSED["expressions"] = time.perf_counter() - start
    report("criterion 6a: evaluator == shunting-yard oracle on 10^4 expressions",
           True, f"{zero_divisions} zero-division pairs agreed")


def test_criterion_6b_multispan_alignment_brute_force():
    start = time.perf_counter()
    rng = random.Random(777)
    vocabulary = ["net", "loss", "5", "1,033", "tax", "cloud", "total", "9.98"]
    for _ in range(200):
        pred = [" ".join(rng.sample(vocabulary, rng.randint(1, 3)))
                for _ in range(rng.randint(1, 6))]
        gold = [" ".join(rng.sample(vocabulary, rng.randint(1, 3)))
                for _ in range(rng.randint(1, 6))]
        assert align_spans_f1(pred, gold) == pytest.approx(
            brute_force_alignment_f1(pred, gold)
        )
    _ELAPSED["alignment"] = time.perf_counter() - start
    report("criterion 6b: multi-span F1 == permutation brute force (<=6 spans)", True)


def _random_candidates(rng: random.Random, n: int):
    from tatqa_symbolic.evidence import CellOrigin, EvidenceCandidate
    from tatqa_symbolic.numerics import parse_number

    candidates = []
    for position in range(n):
        text = str(rng.randint(1, 999)) if rng.random() < 0.8 else f"label{position}"
        candidates.append(
            EvidenceCandidate(
                text=text,
                probability=rng.random(),
                origin=CellOrigin(0, position),
                numeric=parse_number(text),
                position=position,
            )
        )
    return candidates


def test_criterion_6c_permutation_and_scaling_invariance():
    from tatqa_symbolic.evidence import EvidenceCandidate
    from tatqa_symbolic.reasoning import execute_operator, rank_candidates

    start = time.perf_counter()
    rng = random.Random(31337)
    for _ in range(100):
        candidates = _random_candidates(rng, rng.randint(1, 6))
        for operator in (Operator.SUM, Operator.COUNT, Operator.AVERAGE,
                         Operator.MULTIPLICATION, Operator.SPANS):
            try:
                expected = execute_operator(operator, candidates)
            except Exception:
                continue
            shuffled = candidates[:]
            rng.shuffle(shuffled)
            assert execute_operator(operator, shuffled) == expected

        factor = rng.uniform(0.05, 1.0)
        scaled = [
            EvidenceCandidate(c.text, c.probability * factor, c.origin,
                              c.numeric, c.position)
            for c in candidates
        ]
        assert [c.text for c in rank_candidates(scaled)] == [
            c.text for c in rank_candidates(candidates)
        ]
    _ELAPSED["invariance"] = time.perf_counter() - start
    report("criterion 6c: permutation and probability-scaling invariance", True)


def test_criterion_6d_swap_identities():
    from tatqa_symbolic.reasoning import execute_operator

    start = time.perf_counter()
    rng = random.Random(2718)
    for _ in range(200):
        candidates = _random_candidates(rng, 2)
        if any(c.numeric is None for c in candidates):
            continue
        difference = execute_operator(Operator.DIFFERENCE, candidates, 0)
        assert execute_operator(Operator.DIFFERENCE, candidates, 1) == -difference
        try:
            ratio = execute_operator(Operator.CHANGE_RATIO, candidates, 0)
            swapped = execute_operator(Operator.CHANGE_RATIO, candidates, 1)
        except ExecutionError:
            continue
        if 1 + ratio != 0:
            assert swapped == -ratio / (1 + ratio)
    _ELAPSED["swap"] = time.perf_counter() - start
    report("criterion 6d: difference/change-ratio swap identities", True)


def test_criterion_6e_decode_threshold_monotonicity():
    # Raising the threshold only shrinks what is decoded: every candidate
    # at a higher threshold lies inside one at a lower threshold, and cell
    # candidates are a subset.  Raw span COUNTS are not monotone (raising
    # the threshold can split one contiguous run into two), so the
    # containment form is the true invariant.
    from tatqa_symbolic.evidence import CellOrigin, SpanOrigin

    start = time.perf_counter()
    rng = random.Random(1618)
    words = (f"w{index}" for index in itertools.count())

    def draw(most):
        return [next(words) for _ in range(rng.randint(0, most))]

    for _ in range(200):
        # a random small table (cells of up to three words, some empty)
        # and up to three paragraphs of up to ten words
        n_cols = rng.randint(1, 3)
        table = [[draw(3) for _ in range(n_cols)] for _ in range(rng.randint(0, 4))]
        paragraphs = [(f"p{number}", draw(10)) for number in range(rng.randint(0, 3))]
        question, context = word_inputs(draw(3), table, paragraphs)
        n_units = len(context_units(question.text, context))
        tags = TaggedSequence(question, context, [rng.random() for _ in range(n_units)])
        low_t, high_t = sorted((rng.random(), rng.random()))
        low = decode_evidence(tags, low_t)
        high = decode_evidence(tags, high_t)

        low_cells = {c.origin for c in low if isinstance(c.origin, CellOrigin)}
        high_cells = {c.origin for c in high if isinstance(c.origin, CellOrigin)}
        assert high_cells <= low_cells

        low_spans = [c.origin for c in low if isinstance(c.origin, SpanOrigin)]
        for candidate in high:
            if isinstance(candidate.origin, SpanOrigin):
                assert any(
                    s.paragraph == candidate.origin.paragraph
                    and s.start <= candidate.origin.start
                    and candidate.origin.stop <= s.stop
                    for s in low_spans
                )
        covered = lambda spans: sum(s.stop - s.start for s in spans)
        high_spans = [c.origin for c in high if isinstance(c.origin, SpanOrigin)]
        assert covered(high_spans) <= covered(low_spans)
    _ELAPSED["threshold"] = time.perf_counter() - start
    report(
        "criterion 6e: decoding shrinks (by containment) as threshold rises", True
    )


def test_criterion_6_total_runtime():
    total = sum(_ELAPSED.values())
    report("criterion 6: property suites complete", total < 30.0, f"{total:.2f}s")


# ---------------------------------------------------------------------------
# Criterion 7: worked examples as golden tests
# ---------------------------------------------------------------------------


def test_criterion_7_worked_examples(questions):
    oracle = PipelineConfig().build()

    context, question = questions["q-rev-count"]
    counting = answer_question(question, context, *oracle)
    assert counting.value == 2

    context, question = questions["q-rev-diff"]
    difference = answer_question(question, context, *oracle)
    assert difference.value == 105226
    assert difference.scale is Scale.MILLION
    assert score_question(difference.value, difference.scale, question) == (1.0, 1.0)

    context, question = questions["q-rev-ratio"]
    ratio = answer_question(question, context, *oracle)
    assert ratio.scale is Scale.PERCENT
    assert round(float(ratio.value), 2) == 9.98
    assert score_question(ratio.value, ratio.scale, question) == (1.0, 1.0)

    # published error-analysis rows reproduce under the gold expressions
    assert eval_derivation(parse_derivation("375 - 2,032", AnswerType.ARITHMETIC)) == -1657
    assert eval_derivation(
        parse_derivation("2017 ## 2018 ## 2019", AnswerType.COUNTING)
    ) == 3
    assert eval_derivation(parse_derivation("39% - 20%", AnswerType.ARITHMETIC)) == 19
    unsupported = parse_derivation("(105,639 + 245,386)/19,133,139", AnswerType.ARITHMETIC)
    assert classify_operator(unsupported, AnswerType.ARITHMETIC, AnswerSource.TABLE) == Operator.OTHER
    assert eval_derivation(unsupported) == Fraction(351025, 19133139)
    # the scale-error row: right number, wrong scale, scored zero
    assert score_question(Fraction("0.22"), Scale.MILLION, _gold_022()) == (0.0, 0.0)

    report("criterion 7: worked examples reproduce", True)


def _gold_022():
    from tatqa_symbolic.corpus import QuestionRecord

    return QuestionRecord(
        question_id="golden-price",
        text="What is the closing price in March, 2020?",
        answer=Fraction("0.22"),
        answer_type=AnswerType.ARITHMETIC,
        answer_source=AnswerSource.TABLE,
        gold_scale=Scale.NONE,
    )
