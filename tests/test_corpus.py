import json
import math
import os
import stat
import threading
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REVENUE_DOC, bench_module
from oracles import reference_cell, reference_field_inventory
from tatqa_symbolic import cli, corpus
from tatqa_symbolic.corpus import (
    AnswerSource,
    AnswerType,
    field_inventory,
    load_dataset,
    parse_documents,
    read_json,
    scale_distribution,
    split_stats,
    type_source_matrix,
    write_json,
    write_lines,
)
from tatqa_symbolic.errors import DatasetParseError, DatasetValidationError
from tatqa_symbolic.numerics import Scale
from tatqa_symbolic.validation import field_deviations


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

    @pytest.fixture
    def decoded_with_unknowns(self, tmp_path):
        """The raw JSON of REVENUE_DOC as it is ("plain") and with unknown
        fields at every level ("noisy")."""
        noisy = json.loads(json.dumps(REVENUE_DOC))
        # public release files carry these annotations on questions
        noisy["questions"][2].update(
            {
                "req_comparison": False,
                "facts": ["110,360", "5,134"],
                "mapping": {"table": [[7, 2], [6, 2]]},
                "rel_paragraphs": [],
            }
        )
        noisy["paragraphs"][0]["note"] = {"source": "annual report"}
        noisy["table"]["caption"] = "Revenue by year"
        noisy["source_file"] = "10-K.pdf"
        decoded = {}
        for name, doc in (("plain", REVENUE_DOC), ("noisy", noisy)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps([doc]), encoding="utf-8")
            decoded[name] = read_json(path)
        return decoded

    def test_unknown_fields_are_ignored(self, decoded_with_unknowns):
        """Unknown fields at every level leave the records as they are,
        strict or not."""
        decoded = decoded_with_unknowns
        for strict in (False, True):
            assert (parse_documents(decoded["noisy"], strict)
                    == parse_documents(decoded["plain"], strict))

    def test_unknown_fields_are_listed(self, decoded_with_unknowns):
        """The schema check, which reads the raw JSON, is where unknown
        fields show."""
        decoded = decoded_with_unknowns
        added = {
            "$[].questions[].req_comparison",
            "$[].questions[].facts",
            "$[].questions[].mapping",
            "$[].questions[].mapping.table",
            "$[].questions[].rel_paragraphs",
            "$[].paragraphs[].note",
            "$[].paragraphs[].note.source",
            "$[].table.caption",
            "$[].source_file",
        }
        unexpected = field_deviations(decoded["noisy"])["unexpected"]
        assert set(unexpected) == set(field_deviations(decoded["plain"])["unexpected"]) | added

    @pytest.mark.parametrize(
        "literal",
        [
            pytest.param("1" + "0" * 400 + ".5", id="past-a-floats-range"),
            pytest.param("0.10000000000000000000001", id="23-places"),
            pytest.param("-2.000000000000000000005", id="21-places-negative"),
            pytest.param("1" * 30 + "." + "0" * 40 + "1", id="41-places"),
        ],
    )
    def test_answer_literal_loads_exactly(self, tmp_path, literal):
        """An answer no float holds loads as the exact value of its literal."""
        text = json.dumps([REVENUE_DOC]).replace('"answer": 105226', f'"answer": {literal}')
        path = tmp_path / "exact.json"
        path.write_text(text, encoding="utf-8")
        (answer,) = [q.answer for q in load_dataset(path)[0][1] if q.question_id == "q-rev-diff"]
        assert answer == Fraction(literal)

    def test_strict_rejects_ragged_table(self, tmp_path):
        doc = json.loads(json.dumps(REVENUE_DOC))
        doc["table"]["table"][2] = doc["table"]["table"][2][:2]
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps([doc]), encoding="utf-8")
        padded = load_dataset(path)
        assert padded[0][0].table.texts[2][3] == ""
        with pytest.raises(DatasetParseError):
            load_dataset(path, strict=True)


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
        inventory = field_inventory(read_json(corpus_path))
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


# Strings that look like the separators and brackets write_json relies on,
# escapes and non-ASCII text.
_TRICKY_TEXT = st.sampled_from(
    ["}", "{", "},\n", "},\n {", "},\n  {", "],", ": [", '": ["', "\n", " \n ", "\\n", "\\",
     '"', "caf\u00e9", "\u20ac 1,234", "\U0001f600", "\u2028", ""]
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),  # NaN and both infinities included
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300]),
    st.text(max_size=8),
    _TRICKY_TEXT,
)
_KEYS = st.one_of(st.text(max_size=6), _TRICKY_TEXT, st.integers(), st.floats(), st.booleans(),
                  st.none())
_RECORD = st.dictionaries(_KEYS, _SCALARS, min_size=1, max_size=4)
# lists of flat, non-empty records, as the reports hold, with {} and
# dict subclasses mixed in
_RECORDS = st.lists(st.one_of(_RECORD, _RECORD.map(_Record), st.just({})), max_size=5)
_EMPTY = st.sampled_from([[], {}, (), _Record()])
_JSON_TREES = st.recursive(
    st.one_of(_SCALARS, _EMPTY, _RECORD, _RECORDS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_KEYS, children, max_size=4),
        st.dictionaries(_KEYS, children, max_size=4).map(_Record),
    ),
    max_leaves=20,
)


class TestWriteJson:
    """``write_json`` writes exactly the text of ``json.dumps(v, indent=1)``."""

    @settings(max_examples=400, deadline=None)
    @given(tree=_JSON_TREES)
    def test_matches_json_dumps(self, tree, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "write_json.json"
        write_json(path, tree)
        assert path.read_bytes() == json.dumps(tree, indent=1).encode("utf-8")

    @pytest.mark.parametrize("payload", [
        [1, Decimal("1.5")],
        {"a": [{"b": 1}, {"b": Fraction(1, 3)}]},
        {"a": [[1]], (1, 2): [[1]]},
        [{"a": 1}, {"a": 2, (3,): 4}],
    ], ids=["value", "value-in-record", "key", "key-in-record"])
    def test_what_json_dumps_refuses_it_refuses(self, payload, tmp_path):
        with pytest.raises(TypeError):
            json.dumps(payload, indent=1)
        with pytest.raises(TypeError):
            write_json(tmp_path / "refused.json", payload)

    @pytest.mark.parametrize("command", ["eval", "validate", "ablate"])
    def test_reports_of_the_fixture_corpus(self, command, corpus_path, tmp_path, monkeypatch,
                                           capsys):
        written = []

        def spy(path, payload):
            written.append(payload)
            corpus.write_json(path, payload)

        monkeypatch.setattr(cli, "write_json", spy)
        argv = [command, "--dataset", str(corpus_path), "--out", str(tmp_path / "report.json")]
        if command == "eval":
            preds = tmp_path / "preds.json"
            assert cli.main(["run", "--dataset", str(corpus_path), "--out", str(preds)]) == 0
            argv += ["--pred", str(preds)]
        assert cli.main(argv) == 0
        capsys.readouterr()
        [payload] = written
        text = (tmp_path / "report.json").read_text(encoding="utf-8")
        assert text == json.dumps(payload, indent=1)
        # each report holds a list of records, the path that rewrites separators
        assert text.count("},\n") >= 2


class TestWriteLines:
    """``write_lines`` writes each record on its own line as exactly the
    text of ``json.dumps(record)``."""

    @settings(max_examples=100, deadline=None)
    @given(records=st.lists(_JSON_TREES, max_size=4))
    def test_matches_json_dumps(self, records, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "write_lines.jsonl"
        write_lines(path, iter(records))
        expected = "".join(json.dumps(record) + "\n" for record in records)
        assert path.read_bytes() == expected.encode("utf-8")


class TestWholeOrNothing:
    """Both writers write a new file beside the target and move it over
    the target, so a failed write leaves the previous file as it was and
    no other file behind."""

    WRITERS = {"write_json": (write_json, {"a": [1, 2]}), "write_lines": (write_lines, [{"a": 1}])}

    @pytest.mark.parametrize("name", sorted(WRITERS))
    def test_a_failed_move_keeps_the_previous_file(self, name, tmp_path, monkeypatch):
        writer, payload = self.WRITERS[name]
        path = tmp_path / "out.json"
        path.write_text("previous", encoding="utf-8")

        def refuse(source, target):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(corpus.os, "replace", refuse)
        with pytest.raises(OSError, match="No space left"):
            writer(path, payload)
        assert path.read_text(encoding="utf-8") == "previous"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]

    @pytest.mark.parametrize("name", sorted(WRITERS))
    def test_a_link_is_written_through(self, name, tmp_path):
        writer, payload = self.WRITERS[name]
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_text("previous", encoding="utf-8")
        link.symlink_to(target)
        writer(link, payload)
        assert link.is_symlink() and link.read_bytes() == target.read_bytes()
        assert target.read_text(encoding="utf-8") != "previous"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "target.json"]

    @pytest.mark.parametrize("linked", [False, True])
    def test_a_pipe_is_written_in_place(self, linked, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        path = fifo
        if linked:
            path = tmp_path / "link"
            path.symlink_to(fifo)
        read = []
        reader = threading.Thread(target=lambda: read.append(fifo.read_bytes()), daemon=True)
        reader.start()
        write_lines(path, [{"a": 1}])
        reader.join(timeout=60)
        assert read == [b'{"a": 1}\n']
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted({"fifo", path.name})

    def test_a_pipe_reached_through_dev_fd_is_written_in_place(self):
        """``/dev/fd/N`` (as bash's ``>(...)`` gives) and ``/dev/stdout``
        link to a pipe through a link that ``os.path.realpath`` cannot
        resolve to a path."""
        if not os.path.isdir("/dev/fd"):
            pytest.skip("no /dev/fd")
        read_end, write_end = os.pipe()
        try:
            write_json(f"/dev/fd/{write_end}", {"a": [1, 2]})
        finally:
            os.close(write_end)
        with os.fdopen(read_end, "rb") as pipe:
            assert pipe.read() == json.dumps({"a": [1, 2]}, indent=1).encode()

    def test_a_file_left_by_a_killed_writer_is_reused(self, tmp_path):
        """A writer killed before it could remove its new file leaves it
        behind; a later writer with the same pid writes over it."""
        path = tmp_path / "out.json"
        (tmp_path / f".out.json.{os.getpid()}.tmp").write_text("left", encoding="utf-8")
        write_json(path, {"a": 1})
        assert path.read_text(encoding="utf-8") == json.dumps({"a": 1}, indent=1)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]

    def test_an_unwritable_place_is_named_as_given(self, tmp_path):
        path = tmp_path / "missing" / "out.json"
        with pytest.raises(FileNotFoundError) as excinfo:
            write_json(path, {})
        assert excinfo.value.filename == str(path)
