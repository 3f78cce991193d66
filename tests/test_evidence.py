import re
from dataclasses import replace

import pytest

from conftest import word_inputs
from tatqa_symbolic.corpus import AnswerSource, AnswerType, QuestionRecord
from tatqa_symbolic.derivation import Operator
from tatqa_symbolic.errors import UnlocatableEvidenceError
from tatqa_symbolic.evidence import (
    CellOrigin,
    CellWord,
    LexicalTagger,
    OracleTagger,
    SpanOrigin,
    TaggedSequence,
    build_supervision,
    context_units,
    decode_evidence,
    export_supervision,
)
from tatqa_symbolic.numerics import Scale


def tagged(probabilities, **words) -> TaggedSequence:
    """``probabilities`` over the sequence of ``word_inputs(**words)``."""
    return TaggedSequence(*word_inputs(**words), probabilities)


class TestDecode:
    def test_all_zero_probabilities(self):
        tags = tagged([0.0, 0.0], table=[[["5,134"]]], paragraphs=[("p1", ["word"])])
        assert decode_evidence(tags) == []

    def test_paragraph_runs_become_spans(self):
        # I, I, O, I over one paragraph -> two spans
        tags = tagged([0.9, 0.8, 0.1, 0.7],
                      paragraphs=[("p1", ["alpha", "beta", "gamma", "delta"])])
        candidates = decode_evidence(tags)
        assert [c.origin for c in candidates] == [
            SpanOrigin(0, 0, 2),
            SpanOrigin(0, 3, 4),
        ]
        assert candidates[0].text == "alpha beta"
        assert candidates[0].probability == 0.9

    def test_positive_cell_with_numeric(self):
        tags = tagged([1.0], table=[[[], []], [[], []], [[], ["5,134"]]])
        (candidate,) = decode_evidence(tags)
        assert candidate.origin == CellOrigin(2, 1)
        assert candidate.numeric == 5134

    def test_any_subtoken_marks_cell(self):
        tags = tagged([0.2, 0.8], table=[[[]]] * 5 + [[["Enterprise", "Services"]]])
        (candidate,) = decode_evidence(tags)
        assert candidate.origin == CellOrigin(5, 0)
        assert candidate.text == "Enterprise Services"
        assert candidate.probability == 0.8

    def test_question_units_never_candidates(self):
        tags = tagged([1.0, 0.0], question=["revenue"], paragraphs=[("p1", ["revenue"])])
        assert decode_evidence(tags) == []

    def test_span_does_not_cross_paragraphs(self):
        tags = tagged([0.0] * 5 + [0.9, 0.9],
                      paragraphs=[("p1", ["a", "b", "c", "d", "e", "one"]), ("p2", ["two"])])
        origins = [c.origin for c in decode_evidence(tags)]
        assert origins == [SpanOrigin(0, 5, 6), SpanOrigin(1, 0, 1)]

    def test_candidates_in_input_sequence_order(self):
        # question words first, then cells row by row, then paragraphs
        tags = tagged([0.0, 0.9, 0.9, 0.9, 0.1, 0.1, 0.9],
                      question=["q"], table=[[["5"], ["6"]]],
                      paragraphs=[("p1", ["a", "b"]), ("p2", ["c", "d"])])
        assert [(c.text, c.origin, c.position) for c in decode_evidence(tags)] == [
            ("5", CellOrigin(0, 0), 1),
            ("6", CellOrigin(0, 1), 2),
            ("a", SpanOrigin(0, 0, 1), 3),
            ("d", SpanOrigin(1, 1, 2), 6),
        ]

    def test_threshold_is_strict(self):
        tags = tagged([0.5], table=[[["x"]]])
        assert decode_evidence(tags, threshold=0.5) == []
        assert len(decode_evidence(tags, threshold=0.49)) == 1

    def test_max_pooling_invariant_to_finer_units(self):
        coarse = tagged([0.7], table=[[["alpha"]]])
        fine = tagged([0.7, 0.3], table=[[["alpha", "beta"]]])
        assert (
            decode_evidence(coarse)[0].probability
            == decode_evidence(fine)[0].probability
        )

    def test_candidate_count_monotone_in_threshold(self):
        tags = tagged([0.9, 0.3, 0.6], table=[[["c"]]], paragraphs=[("p", ["a", "b"])])
        counts = [len(decode_evidence(tags, t)) for t in (0.1, 0.5, 0.8, 0.95)]
        assert counts == sorted(counts, reverse=True)

    def test_probability_validation(self):
        # one question word and one cell word: two units
        words = {"question": ["q"], "table": [[["x"]]]}
        assert tagged([0.0, 1.0], **words).probabilities == (0.0, 1.0)
        for probabilities, message in [
            ([0.0, 1.5], "probability 1.5 out of [0, 1] for CellWord"),
            ([-0.1, 0.0], "probability -0.1 out of [0, 1] for QuestionWord"),
            ([0.0, float("nan")], "probability nan out of [0, 1] for CellWord"),
            ([0.0], "1 probabilities for 1 question words and 1 context units"),
            ([0.0, 0.0, 0.0], "3 probabilities for 1 question words and 1 context units"),
        ]:
            with pytest.raises(ValueError, match=re.escape(message)):
                tagged(probabilities, **words)


class TestSupervision:
    def test_difference_cells_and_reversed_order(self, questions):
        context, question = questions["q-rev-diff"]
        labels = build_supervision(question, context)
        assert labels.g_tag == {CellOrigin(7, 2), CellOrigin(6, 2)}
        assert labels.g_op == Operator.DIFFERENCE
        assert labels.g_scale is Scale.MILLION
        # derivation order 110,360 then 5,134; the input sequence meets
        # 5,134 (row 6) before 110,360 (row 7)
        assert labels.g_order == 1

    def test_change_ratio_same_order(self, questions):
        context, question = questions["q-rev-ratio"]
        labels = build_supervision(question, context)
        assert labels.g_tag == {CellOrigin(3, 1), CellOrigin(3, 2)}
        assert labels.g_order == 0

    def test_percent_difference_same_order(self, questions):
        context, question = questions["q-exp-pct"]
        labels = build_supervision(question, context)
        assert labels.g_tag == {CellOrigin(6, 1), CellOrigin(6, 2)}
        assert labels.g_order == 0

    def test_text_evidence_reversed_order(self, questions):
        context, question = questions["q-text-arith"]
        labels = build_supervision(question, context)
        assert labels.g_tag == {
            SpanOrigin(0, 4, 5),
            SpanOrigin(0, 7, 8),
        }
        assert labels.g_order == 1

    def test_counting_items_match_cells_loosely(self, questions):
        context, question = questions["q-rev-count"]
        labels = build_supervision(question, context)
        assert labels.g_tag == {CellOrigin(6, 0), CellOrigin(5, 0)}
        assert labels.g_op == Operator.COUNT
        assert labels.g_order is None

    def test_table_preferred_when_among_sources(self, questions):
        # 2,032 appears in both the table and exp-p1; source is table
        context, question = questions["q-exp-diff"]
        labels = build_supervision(question, context)
        assert CellOrigin(2, 2) in labels.g_tag

    def test_average_divisor_is_not_evidence(self, questions):
        context, question = questions["q-exp-avg"]
        labels = build_supervision(question, context)
        assert labels.g_tag == {CellOrigin(2, 1), CellOrigin(2, 2)}
        assert labels.g_op == Operator.AVERAGE

    def test_duplicate_evidence_keeps_first_found(self, questions):
        context, question = questions["q-text-span"]
        labels = build_supervision(question, context)
        assert labels.g_tag == {SpanOrigin(1, 4, 5)}

    def test_multi_span_text_origins(self, questions):
        context, question = questions["q-text-spans"]
        labels = build_supervision(question, context)
        assert labels.g_tag == {
            SpanOrigin(1, 4, 5),
            SpanOrigin(1, 7, 8),
            SpanOrigin(1, 10, 11),
        }

    def test_unlocatable_evidence(self, questions):
        context, question = questions["q-rev-div"]
        with pytest.raises(UnlocatableEvidenceError) as excinfo:
            build_supervision(question, context)
        assert excinfo.value.missing == ["38,100"]
        assert excinfo.value.question_id == "q-rev-div"

    def test_numeric_span_answer_matches_by_value(self, contexts):
        # "5134" written without the thousands separator still locates
        # the cell printed as "5,134"
        context = contexts["ctx-revenue"]
        question = QuestionRecord(
            question_id="adhoc-numeric-span",
            text="What was the devices revenue in 2018?",
            answer=["5134"],
            answer_type=AnswerType.SPAN,
            answer_source=AnswerSource.TABLE,
            gold_scale=Scale.MILLION,
        )
        labels = build_supervision(question, context)
        assert labels.g_tag == {CellOrigin(6, 2)}

    def test_adjacent_gold_spans_merge(self, contexts):
        # two adjacent span evidences collapse into one origin, exactly
        # as decoding contiguous positive words would
        context = contexts["ctx-text"]
        question = QuestionRecord(
            question_id="adhoc",
            text="Where does the company operate first and also?",
            answer=["Singapore, also", "in Germany"],
            answer_type=AnswerType.SPANS,
            answer_source=AnswerSource.TEXT,
            gold_scale=Scale.NONE,
        )
        labels = build_supervision(question, context)
        assert labels.g_tag == {SpanOrigin(1, 4, 8)}

    def test_spans_in_paragraphs_sharing_a_uid_stay_apart(self):
        # ranges 0-2 and 2-4 would merge if both paragraphs were one
        record, context = word_inputs(
            paragraphs=[("p", ["alpha", "beta", "x", "y"]), ("p", ["u", "v", "gamma", "delta"])]
        )
        question = replace(record, answer=["alpha beta", "gamma delta"],
                           answer_type=AnswerType.SPANS)
        labels = build_supervision(question, context)
        assert labels.g_tag == {SpanOrigin(0, 0, 2), SpanOrigin(1, 2, 4)}


class TestOracleTagger:
    def test_decode_recovers_gold_origins(self, questions):
        tagger = OracleTagger()
        supervisable = [
            qid
            for qid in questions
            if qid not in ("q-rev-div", "q-exp-zero")
        ]
        assert len(supervisable) == 15
        for qid in supervisable:
            context, question = questions[qid]
            labels = build_supervision(question, context)
            candidates = decode_evidence(tagger.tag(question, context))
            assert {c.origin for c in candidates} == set(labels.g_tag), qid

    def test_pure_text_question_has_no_positive_cells(self, questions):
        context, question = questions["q-text-arith"]
        tags = OracleTagger().tag(question, context)
        for unit in tags.units:
            if isinstance(unit.origin, CellWord):
                assert unit.probability == 0.0

    def test_propagates_unlocatable(self, questions):
        context, question = questions["q-rev-div"]
        with pytest.raises(UnlocatableEvidenceError):
            OracleTagger().tag(question, context)


class TestLexicalTagger:
    def test_header_boosted_cells_outrank_unrelated(self, questions):
        # hand-computed: question content words {total, revenue, 2018,
        # come, devices}; Devices/2018 headers give Jaccard 2/5, the
        # Total/2018 cell 3/5, Gaming/2017 0
        context, question = questions["q-rev-diff"]
        tags = LexicalTagger().tag(question, context)
        by_origin = {}
        for unit in tags.units:
            if isinstance(unit.origin, CellWord):
                by_origin[(unit.origin.row, unit.origin.col)] = unit.probability
        assert by_origin[(6, 2)] == pytest.approx(0.01 + 0.99 * 0.4)
        assert by_origin[(7, 2)] == pytest.approx(0.01 + 0.99 * 0.6)
        assert by_origin[(3, 3)] == pytest.approx(0.01)
        assert by_origin[(6, 2)] > by_origin[(3, 3)]
        assert by_origin[(7, 2)] > by_origin[(6, 2)]

    def test_no_overlap_stays_at_floor(self, contexts):
        context = contexts["ctx-revenue"]
        question = QuestionRecord(
            question_id="adhoc",
            text="zzz qqq xxaxx",
            answer="",
            answer_type=AnswerType.SPAN,
            answer_source=AnswerSource.TEXT,
            gold_scale=Scale.NONE,
        )
        tagger = LexicalTagger(floor=0.05)
        tags = tagger.tag(question, context)
        assert all(unit.probability <= 0.05 for unit in tags.units)

    def test_deterministic(self, questions):
        context, question = questions["q-rev-diff"]
        tagger = LexicalTagger()
        assert tagger.tag(question, context) == tagger.tag(question, context)


class TestContextUnits:
    def test_question_then_table_then_paragraphs(self, questions):
        context, question = questions["q-rev-span"]
        units = context_units(question.text, context)
        kinds = [type(origin).__name__ for _, origin in units]
        first_cell = kinds.index("CellWord")
        first_para = kinds.index("ParagraphWord")
        assert all(k == "QuestionWord" for k in kinds[:first_cell])
        assert first_cell < first_para
        assert all(k == "ParagraphWord" for k in kinds[first_para:])


class TestExport:
    def test_export_and_rate(self, corpus, tmp_path):
        path = tmp_path / "labels.jsonl"
        export = export_supervision(corpus, path)
        assert export.n_written == 15
        failed_ids = {qid for qid, _ in export.failures}
        assert failed_ids == {"q-rev-div", "q-exp-zero"}
        assert export.unlocatable_rate == pytest.approx(2 / 17)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 15
