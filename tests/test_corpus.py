import json
from decimal import Decimal
from fractions import Fraction

import pytest

from conftest import REVENUE_DOC, bench_module
from oracles import reference_cell, reference_field_inventory
from tatqa_symbolic.corpus import (
    AnswerSource,
    AnswerType,
    dump_dataset,
    field_inventory,
    load_dataset,
    read_json,
    scale_distribution,
    schema_report,
    split_stats,
    type_source_matrix,
)
from tatqa_symbolic.errors import DatasetParseError, DatasetValidationError
from tatqa_symbolic.evaluation import _as_fraction
from tatqa_symbolic.numerics import Scale


class TestLoad:
    def test_counts(self, corpus):
        assert len(corpus) == 3
        assert sum(len(qs) for _, qs in corpus) == 17

    def test_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("[]", encoding="utf-8")
        assert load_dataset(path) == []

    def test_cells_carry_numerics(self, contexts):
        table = contexts["ctx-revenue"].table
        assert reference_cell(table, 7, 1).numeric == 125843
        assert reference_cell(table, 0, 1).numeric == 2019
        assert reference_cell(table, 2, 0).numeric is None

    def test_parenthesized_negative_cell(self, contexts):
        assert reference_cell(contexts["ctx-expenses"].table, 3, 1).numeric == -1033

    def test_gold_answer_decimals_are_exact(self, questions):
        _, question = questions["q-rev-ratio"]
        assert question.answer == Fraction("9.98")

    def test_answer_enums(self, questions):
        _, question = questions["q-rev-div"]
        assert question.answer_type == AnswerType.ARITHMETIC
        assert question.answer_source == AnswerSource.TABLE_TEXT
        assert question.gold_scale is Scale.PERCENT

    def test_paragraphs_sorted_by_order(self, contexts):
        orders = [p.order for p in contexts["ctx-revenue"].paragraphs]
        assert orders == sorted(orders)

    def test_unknown_fields_preserved(self, questions):
        _, question = questions["q-rev-span"]
        assert question.extras.get("order") == 1

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("[{", encoding="utf-8")
        with pytest.raises(DatasetParseError):
            load_dataset(path)

    def test_missing_table(self, tmp_path):
        path = tmp_path / "notable.json"
        path.write_text(json.dumps([{"paragraphs": [], "questions": []}]), encoding="utf-8")
        with pytest.raises(DatasetParseError) as excinfo:
            load_dataset(path)
        assert "$[0]" in str(excinfo.value)

    def test_bad_answer_type_names_question(self, tmp_path):
        doc = json.loads(json.dumps(REVENUE_DOC))
        doc["questions"][0]["answer_type"] = "essay"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([doc]), encoding="utf-8")
        with pytest.raises(DatasetValidationError) as excinfo:
            load_dataset(path)
        assert "q-rev-span" in str(excinfo.value)
        assert "unknown answer_type: 'essay'" in str(excinfo.value)

    @pytest.mark.parametrize(
        "field, raw, parsed, canonical",
        [
            ("answer_type", " Span ", AnswerType.SPAN, True),
            ("answer_type", "multispan", AnswerType.SPANS, False),
            ("answer_from", "TEXT", AnswerSource.TEXT, True),
            ("answer_from", "table_text", AnswerSource.TABLE_TEXT, False),
        ],
    )
    def test_label_aliases_outside_strict_mode(self, tmp_path, field, raw, parsed, canonical):
        doc = json.loads(json.dumps(REVENUE_DOC))
        doc["questions"][0][field] = raw
        path = tmp_path / "labels.json"
        path.write_text(json.dumps([doc]), encoding="utf-8")
        question = load_dataset(path)[0][1][0]
        attr = "answer_type" if field == "answer_type" else "answer_source"
        assert getattr(question, attr) == parsed
        if canonical:
            assert getattr(load_dataset(path, strict=True)[0][1][0], attr) == parsed
        else:
            with pytest.raises(DatasetValidationError, match=f"unknown {field}: {raw!r}"):
                load_dataset(path, strict=True)

    def test_small_table_warns_but_loads(self, tmp_path, caplog):
        doc = {
            "table": {"uid": "tiny", "table": [["a", "b"], ["1", "2"]]},
            "paragraphs": [
                {"uid": "p1", "order": 1, "text": "one"},
                {"uid": "p2", "order": 2, "text": "two"},
            ],
            "questions": [],
        }
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps([doc]), encoding="utf-8")
        with caplog.at_level("WARNING"):
            dataset = load_dataset(path)
        assert dataset[0][0].table.n_rows == 2
        assert any("rows" in record.message for record in caplog.records)

    def test_strict_rejects_single_paragraph(self, tmp_path):
        doc = json.loads(json.dumps(REVENUE_DOC))
        doc["paragraphs"] = doc["paragraphs"][:1]
        path = tmp_path / "onep.json"
        path.write_text(json.dumps([doc]), encoding="utf-8")
        load_dataset(path)  # tolerant mode only warns
        with pytest.raises(DatasetParseError):
            load_dataset(path, strict=True)

    def test_release_style_annotation_extras_round_trip(self, tmp_path):
        # public release files carry annotation extras on questions
        doc = json.loads(json.dumps(REVENUE_DOC))
        doc["questions"][2].update(
            {
                "req_comparison": False,
                "facts": ["110,360", "5,134"],
                "mapping": {"table": [[7, 2], [6, 2]]},
                "rel_paragraphs": [],
            }
        )
        path = tmp_path / "extras.json"
        path.write_text(json.dumps([doc]), encoding="utf-8")
        dataset = load_dataset(path)
        question = dataset[0][1][2]
        assert question.extras["facts"] == ["110,360", "5,134"]
        out = tmp_path / "extras-again.json"
        dump_dataset(dataset, out)
        again = load_dataset(out)
        assert again[0][1][2].extras["mapping"] == {"table": [[7, 2], [6, 2]]}
        assert load_dataset(out)[0][1] == dataset[0][1]

    def test_strict_rejects_ragged_table(self, tmp_path):
        doc = json.loads(json.dumps(REVENUE_DOC))
        doc["table"]["table"][2] = doc["table"]["table"][2][:2]
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps([doc]), encoding="utf-8")
        padded = load_dataset(path)
        assert padded[0][0].table.texts[2][3] == ""
        with pytest.raises(DatasetParseError):
            load_dataset(path, strict=True)


class TestRoundTrip:
    def test_load_dump_load_identity(self, corpus, tmp_path):
        path = tmp_path / "again.json"
        dump_dataset(corpus, path)
        again = load_dataset(path)
        assert len(again) == len(corpus)
        for (ctx_a, qs_a), (ctx_b, qs_b) in zip(corpus, again):
            assert ctx_a == ctx_b
            assert qs_a == qs_b

    def test_answer_past_a_floats_range(self, tmp_path):
        """A non-integer answer no float can hold is written as its plain
        decimal, and reads back as the same value."""
        literal = "1" + "0" * 400 + ".5"
        text = json.dumps([REVENUE_DOC]).replace('"answer": 105226', f'"answer": {literal}')
        path = tmp_path / "huge.json"
        path.write_text(text, encoding="utf-8")
        dataset = load_dataset(path)
        (answer,) = [q.answer for q in dataset[0][1] if q.question_id == "q-rev-diff"]
        assert answer == Fraction(literal)
        out = tmp_path / "again.json"
        dump_dataset(dataset, out)
        (again,) = [q.answer for q in load_dataset(out)[0][1] if q.question_id == "q-rev-diff"]
        assert _as_fraction(again) == answer


class TestStats:
    def test_counts_match_matrix_total(self, corpus):
        stats = split_stats(corpus)
        matrix = type_source_matrix(corpus)
        assert stats.n_questions == matrix.total == 17
        assert stats.n_contexts == 3

    def test_singleton_average(self, corpus):
        single = [corpus[2]]  # ctx-text has a 3x3 table
        stats = split_stats(single)
        assert stats.avg_rows == 3.0
        assert stats.avg_cols == 3.0
        assert stats.avg_paragraphs == 2.0

    def test_matrix_cells(self, corpus):
        matrix = type_source_matrix(corpus)
        assert matrix.counts[(AnswerType.ARITHMETIC, AnswerSource.TABLE)] == 8
        assert matrix.counts[(AnswerType.SPAN, AnswerSource.TEXT)] == 2
        assert matrix.type_totals[AnswerType.ARITHMETIC] == 10
        assert sum(matrix.type_totals.values()) == sum(matrix.source_totals.values())

    def test_empty_matrix(self):
        matrix = type_source_matrix([])
        assert matrix.total == 0
        assert all(count == 0 for count in matrix.counts.values())

    def test_scale_distribution_sums_to_100(self, corpus):
        distribution = scale_distribution(corpus)
        assert sum(distribution.values()) == pytest.approx(100.0)

    def test_scale_distribution_singleton(self, corpus):
        percent_only = [
            (ctx, [q for q in qs if q.gold_scale is Scale.PERCENT])
            for ctx, qs in corpus
        ]
        distribution = scale_distribution(percent_only)
        assert distribution[Scale.PERCENT] == pytest.approx(100.0)

    def test_word_counts_whitespace(self, corpus):
        stats = split_stats([corpus[2]])
        # ctx-text questions: 10 + 7 + 5 words
        assert stats.avg_question_len == pytest.approx((10 + 7 + 5) / 3)


class TestSchemaReport:
    def test_inventory(self, corpus_path):
        inventory = schema_report(corpus_path)
        assert inventory["$[].table.uid"]["count"] == 3
        assert inventory["$[].questions[].answer_type"]["count"] == 17
        assert "str" in inventory["$[].questions[].question"]["types"]
        assert "$[].questions[].order" in inventory


class _Record(dict):
    pass


class _Rows(list):
    pass


class _Amount(Decimal):
    pass


SCHEMA_EDGE_DOCUMENTS = {
    "nested-lists": [[[1, [2, {"a": 1}]], []], {"b": [[{"c": True}], [[{"c": "x"}]]]}],
    "empty-containers": [[], {}, [{}], {"a": {}, "b": [], "c": [[], {}]}],
    "bool-vs-int": [{"x": True}, {"x": 1}, {"x": Decimal("1.5")}, {"x": None}, {"x": "1"}],
    "subclasses": [_Record(a=1, b=_Record(c=_Rows([_Record(d=2)]))), {"b": {"c": []}},
                   {"e": _Amount("2.5")}, _Rows([{"a": 2.5}])],
    "colliding-paths": [{"a.b": 1, "a": {"b": "x", "b.c": 2, "b[]": [3]}},
                        {"a": {"b": {"c": [{"d": 4}]}}}, _Record({1: 1, "1": "one"})],
    "scalar-int": 5,
    "scalar-str": "text",
    "scalar-none": None,
    "scalar-decimal": Decimal("1.5"),
}


class TestFieldInventory:
    """The breadth-first inventory against the recursive walk it replaced."""

    @pytest.mark.parametrize("name", sorted(SCHEMA_EDGE_DOCUMENTS))
    def test_edge_documents(self, name):
        raw = SCHEMA_EDGE_DOCUMENTS[name]
        assert field_inventory(raw) == reference_field_inventory(raw)

    def test_edge_cases_are_reached(self):
        assert field_inventory(5) == {} == field_inventory([])
        subclasses = field_inventory(SCHEMA_EDGE_DOCUMENTS["subclasses"])
        assert subclasses["$[].b.c[].d"] == {"count": 1, "types": ["int"]}
        assert subclasses["$[].b"]["types"] == ["_Record", "dict"]
        assert subclasses["$[].e"]["types"] == ["float"]
        assert subclasses["$[][].a"] == {"count": 1, "types": ["float"]}
        collisions = field_inventory(SCHEMA_EDGE_DOCUMENTS["colliding-paths"])
        # "a.b" at one level and "a", "b" at the next spell one path
        assert collisions["$[].a.b"] == {"count": 3, "types": ["dict", "int", "str"]}
        assert collisions["$[].a.b.c"] == {"count": 2, "types": ["int", "list"]}
        assert collisions["$[].a.b[]"] == {"count": 1, "types": ["list"]}
        assert collisions["$[].1"] == {"count": 2, "types": ["int", "str"]}
        assert field_inventory(SCHEMA_EDGE_DOCUMENTS["bool-vs-int"])["$[].x"]["types"] == [
            "NoneType", "bool", "float", "int", "str"]

    def test_fixture_corpus(self, corpus_path):
        raw = read_json(corpus_path)
        assert field_inventory(raw) == reference_field_inventory(raw)
        assert len(field_inventory(raw)) > 10

    @pytest.mark.parametrize("kind", ["dense", "sparse", "multispan"])
    def test_generated_corpora(self, kind, tmp_path):
        gen = bench_module("gen")
        made = getattr(gen, f"{kind}_corpus")(3, 40)
        # the multispan corpus comes with a predictions file
        files = made[:2] if kind == "multispan" else made[:1]
        for n, payload in enumerate(files):
            path = tmp_path / f"{kind}-{n}.json"
            path.write_text(gen.dumps(payload), encoding="utf-8")
            raw = read_json(path)
            assert field_inventory(raw) == reference_field_inventory(raw)
