import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import word_inputs
from tatqa_symbolic.corpus import AnswerSource, AnswerType, QuestionRecord
from tatqa_symbolic.derivation import Operator
from tatqa_symbolic.errors import (
    ExecutionError,
    InsufficientEvidenceError,
    UnlocatableEvidenceError,
    UnsupportedOperatorError,
)
from tatqa_symbolic.evaluation import score_question
from tatqa_symbolic.evidence import (
    CellOrigin,
    EvidenceCandidate,
    SpanOrigin,
    TaggedSequence,
    _ContextIndex,
    _locate,
    _text_item,
    build_supervision,
    decode_evidence,
)
from tatqa_symbolic.numerics import Scale, parse_number
from tatqa_symbolic.reasoning import (
    HeuristicScale,
    KeywordOperator,
    OracleOrder,
    PipelineConfig,
    PositionalOrder,
    answer_question,
    assemble_prediction,
    execute_operator,
    rank_candidates,
    run_pipeline,
)


def cell(text, prob, position, row=0, col=None):
    return EvidenceCandidate(
        text=text,
        probability=prob,
        origin=CellOrigin(row, position if col is None else col),
        numeric=parse_number(text),
        position=position,
    )


def span(text, prob, position, paragraph=0, start=0):
    return EvidenceCandidate(
        text=text,
        probability=prob,
        origin=SpanOrigin(paragraph, start, start + len(text.split())),
        numeric=parse_number(text),
        position=position,
    )


class TestRank:
    def test_by_probability_descending(self):
        candidates = [cell("1", 0.3, 0), cell("2", 0.9, 1), cell("3", 0.7, 2)]
        assert [c.text for c in rank_candidates(candidates)] == ["2", "3", "1"]

    def test_ties_keep_input_order(self):
        candidates = [cell("1", 0.5, 0), cell("2", 0.5, 1), cell("3", 0.5, 2)]
        assert [c.text for c in rank_candidates(candidates)] == ["1", "2", "3"]

    def test_non_numeric_excluded(self):
        candidates = [cell("Total revenue", 0.9, 0), cell("5,134", 0.1, 1)]
        assert [c.text for c in rank_candidates(candidates)] == ["5,134"]


class TestExecute:
    def test_difference_from_published_error_table(self):
        # operands 375 and 2,032, higher probability first
        candidates = [cell("375", 0.9, 0), cell("2,032", 0.8, 1)]
        assert execute_operator(Operator.DIFFERENCE, candidates, 0) == -1657

    def test_difference_flag_swaps(self):
        candidates = [cell("375", 0.9, 0), cell("2,032", 0.8, 1)]
        assert execute_operator(Operator.DIFFERENCE, candidates, 1) == 1657

    def test_count(self):
        candidates = [cell("2017", 1.0, 0), cell("2018", 1.0, 1), cell("2019", 1.0, 2)]
        assert execute_operator(Operator.COUNT, candidates) == 3

    def test_count_tolerates_empty(self):
        assert execute_operator(Operator.COUNT, []) == 0

    def test_average_single_candidate(self):
        candidates = [cell("42", 0.9, 0)]
        assert execute_operator(Operator.AVERAGE, candidates) == 42

    def test_average_and_sum_and_product(self):
        candidates = [cell("375", 0.9, 0), cell("2,032", 0.8, 1)]
        assert execute_operator(Operator.SUM, candidates) == 2407
        assert execute_operator(Operator.AVERAGE, candidates) == Fraction("1203.5")
        assert execute_operator(Operator.MULTIPLICATION, candidates) == 375 * 2032

    def test_change_ratio(self):
        candidates = [cell("11,386", 1.0, 0), cell("10,353", 1.0, 1)]
        assert execute_operator(Operator.CHANGE_RATIO, candidates, 0) == Fraction(1033, 10353)

    def test_span_and_cell_selection(self):
        candidates = [
            span("subscription growth", 0.9, 5),
            cell("5,134", 0.95, 1),
        ]
        assert execute_operator(Operator.SPAN_IN_TEXT, candidates) == "subscription growth"
        assert execute_operator(Operator.CELL_IN_TABLE, candidates) == "5,134"

    def test_spans_returns_all_in_position_order(self):
        candidates = [cell("b", 0.5, 2), cell("a", 0.9, 1)]
        assert execute_operator(Operator.SPANS, candidates) == ["a", "b"]

    def test_other_is_unsupported(self):
        with pytest.raises(UnsupportedOperatorError):
            execute_operator(Operator.OTHER, [cell("1", 1.0, 0)])

    def test_insufficient_for_order_sensitive(self):
        with pytest.raises(InsufficientEvidenceError):
            execute_operator(Operator.DIFFERENCE, [cell("1", 1.0, 0)], 0)

    def test_division_by_zero(self):
        candidates = [cell("5", 0.9, 0), cell("0", 0.8, 1)]
        with pytest.raises(ExecutionError):
            execute_operator(Operator.DIVISION, candidates, 0)

    def test_span_in_text_without_spans(self):
        with pytest.raises(InsufficientEvidenceError):
            execute_operator(Operator.SPAN_IN_TEXT, [cell("5", 1.0, 0)])

    def test_empty_candidates(self):
        with pytest.raises(InsufficientEvidenceError):
            execute_operator(Operator.SPAN_IN_TEXT, [])

    def test_permutation_invariance(self):
        rng = random.Random(7)
        base = [cell(str(v), rng.random(), i) for i, v in enumerate((3, 14, 15, 92))]
        for operator in (Operator.SUM, Operator.AVERAGE, Operator.MULTIPLICATION,
                         Operator.COUNT, Operator.SPANS):
            reference = execute_operator(operator, base)
            for _ in range(5):
                shuffled = base[:]
                rng.shuffle(shuffled)
                assert execute_operator(operator, shuffled) == reference

    def test_probability_scaling_keeps_selection(self):
        candidates = [cell("5", 0.8, 0), cell("7", 0.4, 1), cell("9", 0.2, 2)]
        scaled = [
            EvidenceCandidate(c.text, c.probability * 0.5, c.origin, c.numeric, c.position)
            for c in candidates
        ]
        for operator in (Operator.DIFFERENCE, Operator.DIVISION, Operator.CHANGE_RATIO):
            assert execute_operator(operator, candidates, 0) == execute_operator(
                operator, scaled, 0
            )

    def test_difference_flag_identity(self):
        candidates = [cell("11,386", 0.9, 0), cell("10,353", 0.8, 1)]
        assert execute_operator(Operator.DIFFERENCE, candidates, 1) == -execute_operator(
            Operator.DIFFERENCE, candidates, 0
        )

    def test_change_ratio_swap_identity(self):
        candidates = [cell("11,386", 0.9, 0), cell("10,353", 0.8, 1)]
        r = execute_operator(Operator.CHANGE_RATIO, candidates, 0)
        r_swapped = execute_operator(Operator.CHANGE_RATIO, candidates, 1)
        assert r_swapped == -r / (1 + r)


def make_question(text, **overrides):
    fields = dict(
        question_id="adhoc",
        text=text,
        answer="",
        answer_type=AnswerType.SPAN,
        answer_source=AnswerSource.TABLE,
        gold_scale=Scale.NONE,
        derivation="",
    )
    fields.update(overrides)
    return QuestionRecord(**fields)


class TestKeywordOperator:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("What is the change in the % of pre-tax loss from 2018 to 2019?", Operator.DIFFERENCE),
            ("How many years did adjusted EBITDA exceed $4,000 million?", Operator.COUNT),
            ("How much does the commercial cloud revenue account for the total revenue in 2019?", Operator.DIVISION),
            ("What was the percentage change in gaming revenue?", Operator.CHANGE_RATIO),
            ("What was the average of investor relations costs?", Operator.AVERAGE),
            ("What was the total revenue across 2018 and 2019 combined?", Operator.SUM),
            ("What is the product of headcount and offices?", Operator.MULTIPLICATION),
            ("What are the expense lines, respectively?", Operator.SPANS),
        ],
    )
    def test_rule_table(self, text, expected):
        predictor = KeywordOperator()
        assert predictor.predict(make_question(text), None, []) == expected

    def test_default_uses_best_candidate_kind(self):
        predictor = KeywordOperator()
        question = make_question("Where is the headquarters?")
        assert predictor.predict(question, None, [cell("x", 0.9, 0)]) == Operator.CELL_IN_TABLE
        assert predictor.predict(question, None, [span("y", 0.9, 0)]) == Operator.SPAN_IN_TEXT
        assert predictor.predict(question, None, []) == Operator.SPAN_IN_TEXT


class TestOrderDeciders:
    def test_positional_always_zero(self):
        assert PositionalOrder().decide(make_question("q"), []) == 0

    def test_oracle_order_matches_supervision(self, questions):
        decider = OracleOrder()
        for qid, expected in [
            ("q-rev-diff", 1),
            ("q-rev-ratio", 0),
            ("q-exp-diff", 0),
            ("q-exp-pct", 0),
            ("q-text-arith", 1),
        ]:
            context, question = questions[qid]
            assert build_supervision(question, context).g_order == expected, qid
            # the decider sees ranked candidates and agrees with G^order
            from tatqa_symbolic.evidence import decode_evidence
            from tatqa_symbolic.reasoning import TAGGERS

            candidates = decode_evidence(TAGGERS["oracle"]().tag(question, context))
            top_two = rank_candidates(candidates)[:2]
            assert decider.decide(question, top_two) == expected, qid

    def test_single_operand_has_no_gold_order(self, contexts):
        question = make_question(
            "What is it?",
            answer_type=AnswerType.ARITHMETIC,
            derivation="5,134",
            answer=5134,
        )
        assert build_supervision(question, contexts["ctx-revenue"]).g_order is None


class TestZeroIsANumber:
    """A number is its ``Fraction``, and ``Fraction(0)`` is falsy: each
    reader that asks whether a text is a number tests ``is None``."""

    def test_zero_cell_and_span_decode_as_numbers(self):
        record, context = word_inputs(table=[[["0"]]], paragraphs=[("p1", ["fell", "0.00"])])
        tags = TaggedSequence(record, context, [0.9, 0.1, 0.8])
        candidates = decode_evidence(tags)
        assert [(c.text, c.numeric) for c in candidates] == [("0", 0), ("0.00", 0)]
        assert rank_candidates(candidates) == candidates

    @pytest.mark.parametrize("gold", ["0", Fraction(0)], ids=["string", "number"])
    def test_zero_gold_matches_a_zero_prediction(self, gold):
        question = make_question("q", answer=gold, answer_type=AnswerType.ARITHMETIC)
        assert score_question("0.00", Scale.NONE, question) == (1.0, 1.0)
        # compared as numbers, so the scales apply to 0 and still match
        million = replace(question, gold_scale=Scale.MILLION)
        assert score_question("0.00", Scale.NONE, million) == (1.0, 1.0)

    def test_zero_answer_locates_its_cell_by_value(self):
        # read as text, "0" would be found first in the paragraph's "2020"
        _, context = word_inputs(table=[[["0"]]], paragraphs=[("p1", ["in", "2020"])])
        item = _text_item("0")
        assert item.value == 0
        assert _locate(_ContextIndex(context), item, table_first=False) == CellOrigin(0, 0)

    def test_oracle_order_reverses_a_pair_with_zero(self):
        question = make_question("q", answer_type=AnswerType.ARITHMETIC, derivation="0 - 5")
        assert OracleOrder().decide(question, [cell("5", 0.9, 0), cell("0", 0.8, 1)]) == 1
        assert OracleOrder().decide(question, [cell("0", 0.9, 0), cell("5", 0.8, 1)]) == 0


class TestHeuristicScale:
    def test_million_from_caption_row(self, questions):
        context, question = questions["q-rev-diff"]
        from tatqa_symbolic.evidence import decode_evidence
        from tatqa_symbolic.reasoning import TAGGERS

        candidates = decode_evidence(TAGGERS["oracle"]().tag(question, context))
        assert HeuristicScale().predict(question, context, candidates) is Scale.MILLION

    def test_thousand_from_caption_row(self, questions):
        context, question = questions["q-exp-diff"]
        from tatqa_symbolic.evidence import decode_evidence
        from tatqa_symbolic.reasoning import TAGGERS

        candidates = decode_evidence(TAGGERS["oracle"]().tag(question, context))
        # question says "change in" but not percent; caption row says $'000
        assert HeuristicScale().predict(question, context, candidates) is Scale.THOUSAND

    def test_percent_cue_wins(self, contexts):
        question = make_question("What is the percentage of change in revenue?")
        assert HeuristicScale().predict(question, contexts["ctx-revenue"], []) is Scale.PERCENT

    def test_paragraph_proximity(self, questions):
        context, question = questions["q-text-arith"]
        from tatqa_symbolic.evidence import decode_evidence
        from tatqa_symbolic.reasoning import TAGGERS

        candidates = decode_evidence(TAGGERS["oracle"]().tag(question, context))
        assert HeuristicScale().predict(question, context, candidates) is Scale.MILLION

    def test_no_cue_defaults_to_none(self, contexts):
        question = make_question("Where is the company headquartered?")
        assert HeuristicScale().predict(question, contexts["ctx-text"], []) is Scale.NONE


class TestAssemble:
    def test_numeric_pair_kept(self):
        prediction = assemble_prediction(Fraction(105226), Scale.MILLION)
        assert prediction.value == 105226
        assert prediction.scale is Scale.MILLION
        assert prediction.display() == "105226 million"

    def test_string_concatenation_on_display(self):
        assert assemble_prediction("0.22", Scale.MILLION).display() == "0.22 million"

    def test_plain_string_unchanged(self):
        prediction = assemble_prediction("enterprise services", Scale.NONE)
        assert prediction.value == "enterprise services"
        assert prediction.display() == "enterprise services"


@pytest.fixture(scope="module")
def components():
    return PipelineConfig().build()


class TestAnswerQuestion:
    def answer(self, questions, qid, components):
        context, question = questions[qid]
        return answer_question(question, context, *components)

    def test_difference_golden(self, questions, components):
        prediction = self.answer(questions, "q-rev-diff", components)
        assert prediction.value == 105226
        assert prediction.scale is Scale.MILLION
        assert prediction.trace.order_flag == 1

    def test_count_golden(self, questions, components):
        prediction = self.answer(questions, "q-rev-count", components)
        assert prediction.value == 2

    def test_change_ratio_percent_points(self, questions, components):
        prediction = self.answer(questions, "q-rev-ratio", components)
        assert prediction.value == Fraction(103300, 10353)
        assert prediction.scale is Scale.PERCENT
        assert round(float(prediction.value), 2) == 9.98

    def test_percent_difference_not_rescaled(self, questions, components):
        prediction = self.answer(questions, "q-exp-pct", components)
        assert prediction.value == 19
        assert prediction.scale is Scale.PERCENT

    def test_abstains_on_other(self, questions, components):
        prediction = self.answer(questions, "q-exp-other", components)
        assert prediction.value == ""
        assert prediction.trace.note == "abstained: unsupported operator"
        assert prediction.trace.operator == Operator.OTHER

    def test_propagates_unlocatable(self, questions, components):
        with pytest.raises(UnlocatableEvidenceError):
            self.answer(questions, "q-rev-div", components)

    def test_spans_golden(self, questions, components):
        prediction = self.answer(questions, "q-exp-spans", components)
        assert prediction.value == [
            "Investor relations",
            "Restructuring charges",
            "Consultants",
        ]

    def test_trace_records_candidates(self, questions, components):
        prediction = self.answer(questions, "q-rev-diff", components)
        assert len(prediction.trace.candidates) == 2
        assert prediction.trace.raw_value == "105226"


class TestOraclePipelineInvariant:
    def test_supported_locatable_questions_reproduce_gold(self, corpus):
        # wherever the gold operator is supported and the evidence can be
        # located, the all-oracle run must score an exact hit
        from tatqa_symbolic.derivation import classify_question
        from tatqa_symbolic.errors import UnlocatableEvidenceError
        from tatqa_symbolic.evaluation import score_question
        from tatqa_symbolic.evidence import build_supervision

        predictions = run_pipeline(corpus, PipelineConfig())
        for context, questions_list in corpus:
            for question in questions_list:
                if classify_question(question) == Operator.OTHER:
                    continue
                try:
                    build_supervision(question, context)
                except UnlocatableEvidenceError:
                    continue
                prediction = predictions[question.question_id]
                assert score_question(
                    prediction.value, prediction.scale, question
                ) == (1.0, 1.0), question.question_id


class TestRunPipeline:
    def test_all_questions_answered(self, corpus):
        predictions = run_pipeline(corpus, PipelineConfig())
        assert len(predictions) == 17
        abstained = {qid for qid, p in predictions.items() if p.trace.note}
        assert abstained == {"q-rev-div", "q-exp-other", "q-exp-zero"}

    def test_deterministic_and_worker_independent(self, corpus):
        first = run_pipeline(corpus, PipelineConfig())
        second = run_pipeline(corpus, PipelineConfig())
        parallel = run_pipeline(corpus, PipelineConfig(), workers=2)
        assert first == second == parallel

    def test_lexical_keyword_heuristic_runs(self, corpus):
        config = PipelineConfig(
            tagger="lexical", operator="keyword", order="positional",
            scale="heuristic", threshold=0.3,
        )
        predictions = run_pipeline(corpus, config)
        assert len(predictions) == 17
        assert run_pipeline(corpus, config) == predictions

    def test_unknown_component_name(self, corpus):
        with pytest.raises(ValueError):
            PipelineConfig(tagger="neural").build()

    def test_generated_corpus_scales_and_matches_across_workers(self):
        # a few hundred generated contexts keep the Pool path honest
        import json as json_mod

        from conftest import CORPUS_DOCS
        from tatqa_symbolic.corpus import load_dataset
        from tatqa_symbolic.evaluation import evaluate

        docs = []
        for index in range(60):
            for doc in json_mod.loads(json_mod.dumps(CORPUS_DOCS)):
                doc["table"]["uid"] = f"{doc['table']['uid']}-{index}"
                for paragraph in doc["paragraphs"]:
                    paragraph["uid"] = f"{paragraph['uid']}-{index}"
                for question in doc["questions"]:
                    question["uid"] = f"{question['uid']}-{index}"
                docs.append(doc)
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "large.json"
            path.write_text(json_mod.dumps(docs), encoding="utf-8")
            dataset = load_dataset(path)
        assert sum(len(qs) for _, qs in dataset) == 17 * 60

        sequential = run_pipeline(dataset, PipelineConfig(), workers=1)
        parallel = run_pipeline(dataset, PipelineConfig(), workers=4)
        assert sequential == parallel
        report = evaluate(
            {qid: (p.value, p.scale) for qid, p in parallel.items()}, dataset
        )
        assert report.em == pytest.approx(100 * 14 / 17, abs=0.01)
