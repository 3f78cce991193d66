import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_force_alignment_f1,
    drop_metrics,
    reference_align_spans_f1,
    reference_drop_em_f1,
    reference_normalize_answer,
)
from tatqa_symbolic import evaluation
from tatqa_symbolic.corpus import AnswerSource, AnswerType, QuestionRecord, iter_questions
from tatqa_symbolic.errors import ScoringError
from tatqa_symbolic.evaluation import (
    RoundingPolicy,
    _max_assignment,
    _pairwise_sum,
    align_spans_f1,
    drop_em_f1,
    evaluate,
    format_report,
    normalize_answer,
    numbers_match,
    read_predictions,
    score_question,
    write_predictions,
)
from tatqa_symbolic.numerics import Scale

# Expected values computed with a faithful transcription of the published
# numeracy-focused evaluator (tests/oracles.py) and frozen here.  The set
# stays inside the domain where the sign-preserving normalizer and the
# published one agree; the two deliberate departures are tested separately.
CONFORMANCE_VECTORS = [
    ("enterprise services", "enterprise services", 1.0, 1.0),
    ("The Enterprise Services", "enterprise services", 1.0, 1.0),
    ("the gross margin", "gross margin", 1.0, 1.0),
    ("Deferred income taxes", "deferred income taxes", 1.0, 1.0),
    ("server products", "server products and cloud services", 0.0, 0.57),
    ("cloud services", "server products and cloud services", 0.0, 0.57),
    ("subscription growth across offerings", "subscription growth", 0.0, 0.67),
    ("n/a", "n/a", 1.0, 1.0),
    ("Singapore.", "Singapore", 1.0, 1.0),
    ("U.S. operations", "us operations", 1.0, 1.0),
    ("operating lease liabilities", "finance lease liabilities", 0.0, 0.67),
    ("total operating expenses", "operating expenses", 0.0, 0.8),
    ("increase in revenue", "decrease in revenue", 0.0, 0.67),
    ("fair value of assets", "fair value", 0.0, 0.67),
    ("completely different words", "nothing shared here", 0.0, 0.0),
    ("growth driven by cloud", "cloud", 0.0, 0.4),
    ("the the the", "the", 1.0, 1.0),
    ("a b c", "b", 0.0, 0.67),
    ("x", "x y z", 0.0, 0.5),
    ("one two three four", "one two", 0.0, 0.67),
    ("105,226", "105226", 1.0, 1.0),
    ("105226.0", "105226", 1.0, 1.0),
    ("39%", "39", 1.0, 1.0),
    ("$5,134", "5134", 1.0, 1.0),
    ("0.22", ".22", 1.0, 1.0),
    ("a net loss of 1,033", "net loss of 1,033", 1.0, 1.0),
    ("2,407 thousand", "2407 thousand", 1.0, 1.0),
    ("rose by 9.98 points", "fell by 9.98 points", 0.0, 0.75),
    ("12", "12.0", 1.0, 1.0),
    ("1,000,000", "1000000", 1.0, 1.0),
    ("5 cats", "6 cats", 0.0, 0.0),
    ("6 cats", "6 cats", 1.0, 1.0),
    ("revenue of 125,843 million", "revenue of 125843 million", 1.0, 1.0),
    ("3 years", "three years", 0.0, 0.5),
    ("2019", "2018", 0.0, 0.0),
    ("grew 14% in 2019", "grew 14% in 2019", 1.0, 1.0),
    ("about 38.1 billion", "38.1 billion", 0.0, 0.8),
    ("7 offices", "7", 0.0, 0.67),
    ("no change", "0", 0.0, 0.0),
    ("zero", "0.0", 0.0, 0.0),
    (["Singapore", "Germany"], ["Germany", "Singapore"], 1.0, 1.0),
    (["Singapore"], ["Singapore", "Germany"], 0.0, 0.5),
    (["Singapore", "Germany", "Japan"], ["Singapore", "Germany"], 0.0, 0.67),
    (["device", "enterprise services"], ["device", "enterprise services"], 1.0, 1.0),
    (["investor relations", "restructuring charges"], ["restructuring charges"], 0.0, 0.5),
    (["2017", "2018", "2019"], ["2017", "2018", "2019"], 1.0, 1.0),
    (["2017", "2018"], ["2018", "2019"], 0.0, 0.5),
    (["alpha beta", "gamma"], ["alpha", "beta gamma"], 0.0, 0.67),
    (["the first item", "second"], ["first item", "the second"], 1.0, 1.0),
    (["spans with numbers 5", "and 6"], ["numbers 5 spans with", "with 6"], 0.0, 0.75),
]


class TestNormalize:
    def test_articles_case_punct(self):
        assert normalize_answer("The Enterprise Services") == ["enterprise", "services"]

    def test_minus_preserved(self):
        assert normalize_answer("-1,657") == ["-1657.0"]
        assert normalize_answer("-1,657") != normalize_answer("1657")

    def test_unicode_minus(self):
        assert normalize_answer("−5") == ["-5.0"]

    def test_grouped_number_equals_plain(self):
        assert normalize_answer("105,226") == normalize_answer("105226")

    def test_hyphen_splits_words_not_signs(self):
        assert normalize_answer("pre-tax") == ["pre", "tax"]
        assert normalize_answer("2018-2019") == ["2018.0", "2019.0"]

    def test_decimal_marks_survive_percent(self):
        assert normalize_answer("9.98%") == ["9.98"]


class TestDropConformance:
    @pytest.mark.parametrize("pred,gold,em,f1", CONFORMANCE_VECTORS)
    def test_frozen_vectors(self, pred, gold, em, f1):
        pred_spans = pred if isinstance(pred, list) else [pred]
        gold_spans = gold if isinstance(gold, list) else [gold]
        assert drop_em_f1(pred_spans, gold_spans) == (em, f1)

    @pytest.mark.parametrize("pred,gold,em,f1", CONFORMANCE_VECTORS)
    def test_oracle_transcription_agrees(self, pred, gold, em, f1):
        pytest.importorskip("scipy.optimize")
        assert drop_metrics(pred, gold) == (em, f1)


def make_gold(answer, answer_type=AnswerType.ARITHMETIC, scale=Scale.NONE, qid="q"):
    if isinstance(answer, (int, float)) and not isinstance(answer, bool):
        answer = Fraction(str(answer))
    return QuestionRecord(
        question_id=qid,
        text="",
        answer=answer,
        answer_type=answer_type,
        answer_source=AnswerSource.TABLE,
        gold_scale=scale,
    )


class TestScoreQuestion:
    def test_scale_mismatch_is_zero(self):
        # a correct number at the wrong magnitude scores nothing
        gold = make_gold(0.22, scale=Scale.NONE)
        assert score_question(Fraction("0.22"), Scale.MILLION, gold) == (0.0, 0.0)
        assert score_question(Fraction("0.22"), Scale.NONE, gold) == (1.0, 1.0)

    def test_identical_span(self):
        gold = make_gold("enterprise services", AnswerType.SPAN)
        assert score_question("enterprise services", Scale.NONE, gold) == (1.0, 1.0)

    def test_multi_span_partial(self):
        # brute force over alignments: mean(1, 0) = 0.5
        gold = make_gold(["A bc", "B de"], AnswerType.SPANS)
        assert score_question(["A bc"], Scale.NONE, gold) == (0.0, 0.5)

    def test_sign_flip_is_zero(self):
        gold = make_gold(-1657, scale=Scale.THOUSAND)
        assert score_question(Fraction(1657), Scale.THOUSAND, gold) == (0.0, 0.0)
        assert score_question(Fraction(-1657), Scale.THOUSAND, gold) == (1.0, 1.0)

    def test_numeric_gold_against_string_prediction(self):
        gold = make_gold(5134, scale=Scale.THOUSAND)
        assert score_question("5,134", Scale.THOUSAND, gold) == (1.0, 1.0)
        assert score_question("(5,134)", Scale.THOUSAND, gold) == (0.0, 0.0)

    def test_numeric_gold_rounding_policy(self):
        gold = make_gold(9.98, scale=Scale.PERCENT)
        value = Fraction(103300, 10353)  # 9.97778..., rounds to gold at 4 places
        assert score_question(value, Scale.PERCENT, gold) == (1.0, 1.0)
        strict = RoundingPolicy(places=6)
        assert score_question(value, Scale.PERCENT, gold, strict) == (0.0, 0.0)

    def test_scale_word_concatenated_for_string_gold(self):
        gold = make_gold("0.22", AnswerType.SPAN, scale=Scale.MILLION)
        em, f1 = score_question("0.22", Scale.NONE, gold)
        assert em == 0.0  # bare number misses the million-scaled gold

    def test_numeric_span_gold_uses_scale_comparison(self):
        gold = make_gold("(1,033)", AnswerType.SPAN, scale=Scale.THOUSAND)
        assert score_question("(1,033)", Scale.THOUSAND, gold) == (1.0, 1.0)
        assert score_question("(1,033)", Scale.NONE, gold) == (0.0, 0.0)

    def test_empty_prediction(self):
        gold = make_gold("enterprise services", AnswerType.SPAN)
        assert score_question("", Scale.NONE, gold) == (0.0, 0.0)

    def test_em_implies_f1(self):
        rng = random.Random(99)
        words = ["alpha", "beta", "1,033", "gamma", "39%", "delta"]
        for _ in range(200):
            spans = [
                " ".join(rng.sample(words, rng.randint(1, 3)))
                for _ in range(rng.randint(1, 3))
            ]
            gold = make_gold(list(spans), AnswerType.SPANS)
            em, f1 = score_question(list(spans), Scale.NONE, gold)
            if em == 1.0:
                assert f1 == 1.0

    def test_adding_correct_token_never_lowers_f1(self):
        gold = make_gold("deferred income taxes net", AnswerType.SPAN)
        partial = "deferred income"
        _, f1_partial = score_question(partial, Scale.NONE, gold)
        _, f1_more = score_question(partial + " taxes", Scale.NONE, gold)
        assert f1_more >= f1_partial


class TestRandomizedConformance:
    # vocabulary drawn from the domain where the sign-preserving
    # normalizer and the published one agree (no leading minus, no
    # decimal point living inside a %- or comma-token)
    VOCAB = [
        "the", "a", "net", "income", "Enterprise", "services", "u.s.",
        "pre-tax", "105,226", "39%", "$5,134", "0.22", "9.98", "2019",
        "1,000,000", "12", "cloud", "growth", "(loss)", "year-end",
    ]

    def test_agrees_with_published_evaluator_on_random_answers(self):
        pytest.importorskip("scipy.optimize")
        rng = random.Random(20260809)
        for _ in range(300):
            pred = [" ".join(rng.sample(self.VOCAB, rng.randint(1, 4)))
                    for _ in range(rng.randint(1, 3))]
            gold = [" ".join(rng.sample(self.VOCAB, rng.randint(1, 4)))
                    for _ in range(rng.randint(1, 3))]
            assert drop_em_f1(pred, gold) == drop_metrics(pred, gold), (pred, gold)

    def test_f1_monotone_under_correct_token_addition(self):
        rng = random.Random(1234)
        words = ["alpha", "beta", "gamma", "delta", "105,226", "39%"]
        for _ in range(100):
            gold_tokens = rng.sample(words, rng.randint(2, 5))
            gold = make_gold(" ".join(gold_tokens), AnswerType.SPAN)
            partial_n = rng.randint(1, len(gold_tokens) - 1)
            partial = " ".join(gold_tokens[:partial_n])
            extended = " ".join(gold_tokens[: partial_n + 1])
            _, f1_partial = score_question(partial, Scale.NONE, gold)
            _, f1_extended = score_question(extended, Scale.NONE, gold)
            assert f1_extended >= f1_partial


class TestAlignment:
    def test_matches_brute_force_on_random_spans(self):
        rng = random.Random(4242)
        vocabulary = ["net", "income", "5", "loss", "9.98", "tax", "cloud", "total"]
        for _ in range(150):
            pred = [
                " ".join(rng.sample(vocabulary, rng.randint(1, 3)))
                for _ in range(rng.randint(1, 4))
            ]
            gold = [
                " ".join(rng.sample(vocabulary, rng.randint(1, 3)))
                for _ in range(rng.randint(1, 4))
            ]
            assert align_spans_f1(pred, gold) == pytest.approx(
                brute_force_alignment_f1(pred, gold)
            )

    def test_assignment_and_mean_match_scipy_and_numpy(self):
        """Same pairs as ``linear_sum_assignment`` on tie-heavy rectangular
        matrices, and the same mean to the last bit as ``np.mean``, whose
        pairwise summation starts at 8 spans."""
        np = pytest.importorskip("numpy")
        optimize = pytest.importorskip("scipy.optimize")
        rng = random.Random(8080)
        values = [0.0, 0.25, 1 / 3, 0.4, 0.5, 2 / 3, 0.8, 1.0]
        for _ in range(3000):
            n_gold, n_pred = rng.randint(1, 8), rng.randint(1, 8)
            palette = values[: rng.randint(2, len(values))]
            scores = [[rng.choice(palette) for _ in range(n_pred)] for _ in range(n_gold)]
            rows, cols = optimize.linear_sum_assignment(-np.array(scores))
            pairs = sorted(_max_assignment(scores))
            assert pairs == sorted(zip(rows.tolist(), cols.tolist())), scores
            per_span = [0.0] * max(n_gold, n_pred)
            for row, col in pairs:
                per_span[row] = scores[row][col]
            assert _pairwise_sum(per_span) / len(per_span) == float(np.mean(per_span))
        for n in range(1, 300):
            summands = [rng.random() for _ in range(n)]
            assert _pairwise_sum(summands) == float(np.sum(summands))


class TestOneNormalizationPerSpan:
    """EM and F1 scored from one normalization per span equal the scoring
    that normalized every span twice and built number sets per pair."""

    # "1.5." normalizes to "15", which normalizes again to "15.0"; the
    # rest are signs, non-finite floats, hyphens, money, percentages,
    # accountant's negatives and articles
    TOKENS = [
        "1.5.", "15", "-0", "−5", "-5", "nan", "inf.", "Inf", "pre-tax", "$1,033",
        "1,033", "12%", "(5,678)", "5,678", "-1.5.", "0.0", "the", "a", "an",
        "net", "income", "tax", "u.s.",
    ]

    def spans(self, rng, like=()):
        if like and rng.random() < 0.5:
            spans = rng.sample(list(like), len(like))
            if rng.random() < 0.5:
                spans[rng.randrange(len(spans))] = rng.choice(self.TOKENS)
        else:
            spans = [
                " ".join(rng.choices(self.TOKENS, k=rng.randint(0, 3)))
                for _ in range(rng.randint(0, 6))
            ]
        if 0 < len(spans) < 6 and rng.random() < 0.2:
            spans.append(rng.choice(spans))
        return spans

    def test_matches_two_pass_reference(self):
        rng = random.Random(20261018)
        exact = 0
        for _ in range(20_000):
            gold = self.spans(rng)
            pred = self.spans(rng, like=gold)
            em_f1 = drop_em_f1(pred, gold)
            assert em_f1 == reference_drop_em_f1(pred, gold), (pred, gold)
            assert align_spans_f1(pred, gold) == reference_align_spans_f1(pred, gold), (pred, gold)
            exact += em_f1[0] == 1.0
        assert 2_000 < exact < 18_000

    def test_each_span_is_normalized_once(self, monkeypatch):
        calls = []

        def counted(text):
            calls.append(text)
            return normalize_answer(text)

        monkeypatch.setattr(evaluation, "normalize_answer", counted)
        gold = make_gold(["Singapore", "Germany", "Japan"], AnswerType.SPANS)
        assert score_question(["Japan", "Germany"], Scale.NONE, gold) == (0.0, 0.67)
        assert sorted(calls) == ["Germany", "Germany", "Japan", "Japan", "Singapore"]


# digits, money and number punctuation, both minus signs, letters with
# irregular case mappings (İ, ſ), and three kinds of whitespace
_NORMALIZE_CHARS = "0123456789,.$£%()-−İſ\t\u3000 aeinfstxAENT"


@settings(max_examples=600, deadline=None)
@given(
    text=st.lists(
        st.one_of(
            st.sampled_from(TestOneNormalizationPerSpan.TOKENS),
            st.text(alphabet=_NORMALIZE_CHARS, max_size=8),
        ),
        max_size=6,
    ).map(" ".join)
)
def test_cached_normalizer_matches_reference_cold_and_warm(text):
    expected = reference_normalize_answer(text)
    evaluation._normalize_piece.cache_clear()
    assert normalize_answer(text) == expected
    assert normalize_answer(text) == expected


class TestNormalizationCache:
    def test_returned_list_is_fresh(self):
        first = normalize_answer("the $1,033 pre-tax")
        assert first == ["1033.0", "pre", "tax"]
        first[0] = "changed"
        first.append("appended")
        second = normalize_answer("the $1,033 pre-tax")
        assert second == ["1033.0", "pre", "tax"]
        assert second is not first

    def test_caches_are_bounded(self):
        assert evaluation._normalize_piece.cache_info().maxsize == 1 << 15
        assert evaluation._is_number.cache_info().maxsize == 1 << 15

    def test_one_miss_per_distinct_piece(self, corpus, monkeypatch):
        # every other question gets a wrong multi-span answer, so the
        # predicted pieces are not only the gold ones
        predictions = {}
        for i, (_, question) in enumerate(iter_questions(corpus)):
            if i % 2:
                predictions[question.question_id] = (question.answer, question.gold_scale)
            else:
                predictions[question.question_id] = (["Net income", "-1,033 The"], Scale.MILLION)
        normalized = []

        def recorded(text):
            normalized.append(text)
            return normalize_answer(text)

        monkeypatch.setattr(evaluation, "normalize_answer", recorded)
        evaluation._normalize_piece.cache_clear()
        evaluate(predictions, corpus)
        pieces = {piece for text in normalized for piece in str(text).lower().split()}
        info = evaluation._normalize_piece.cache_info()
        assert info.misses == len(pieces) > 10
        assert info.hits > 0


class TestEvaluate:
    @pytest.fixture()
    def gold_predictions(self, corpus):
        predictions = {}
        for _, questions in corpus:
            for q in questions:
                predictions[q.question_id] = (q.answer, q.gold_scale)
        return predictions

    def test_gold_as_predictions_scores_100(self, corpus, gold_predictions):
        report = evaluate(gold_predictions, corpus)
        assert report.em == pytest.approx(100.0)
        assert report.f1 == pytest.approx(100.0)

    def test_empty_predictions(self, corpus):
        report = evaluate({}, corpus)
        assert report.em == 0.0
        assert report.f1 == 0.0
        assert len(report.missing) == 17

    def test_missing_scored_zero_and_listed(self, corpus, gold_predictions):
        del gold_predictions["q-rev-span"]
        report = evaluate(gold_predictions, corpus)
        assert report.missing == ["q-rev-span"]
        assert report.overall.n == 17
        assert report.em == pytest.approx(100.0 * 16 / 17)

    def test_unknown_id_is_error(self, corpus, gold_predictions):
        gold_predictions["nonexistent"] = ("x", Scale.NONE)
        with pytest.raises(ScoringError):
            evaluate(gold_predictions, corpus)

    def test_per_cell_breakdown(self, corpus, gold_predictions):
        report = evaluate(gold_predictions, corpus)
        cell = report.cells[(AnswerType.ARITHMETIC, AnswerSource.TABLE)]
        assert cell.n == 8
        assert cell.em == pytest.approx(100.0)
        table = format_report(report)
        assert "Arithmetic" in table and "Table-text" in table

    def test_round_trip_through_prediction_file(self, corpus, gold_predictions, tmp_path):
        path = tmp_path / "preds.json"
        write_predictions(gold_predictions, path)
        reread = read_predictions(path)
        report = evaluate(reread, corpus)
        assert report.em == pytest.approx(100.0)
        assert report.f1 == pytest.approx(100.0)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "dupes.json"
        path.write_text('{"q": ["1", ""], "q": ["2", ""]}', encoding="utf-8")
        with pytest.raises(ScoringError, match=r": \$: duplicate prediction id: q$"):
            read_predictions(path)

    def test_malformed_entry_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"q": "just a string"}), encoding="utf-8")
        with pytest.raises(ScoringError):
            read_predictions(path)


class TestNumbersMatch:
    def test_same_quantity_different_scales(self):
        # 220,000 at no scale equals 0.22 at million scale
        assert numbers_match(Fraction(220000), Scale.NONE, Fraction("0.22"), Scale.MILLION)

    def test_percent_factor(self):
        assert numbers_match(Fraction("9.98"), Scale.PERCENT, Fraction("0.0998"), Scale.NONE)
