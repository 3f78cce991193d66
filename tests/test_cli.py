import gc
import json
import os
import re
import subprocess
import sys
from collections import Counter

import pytest

from conftest import CORPUS_DOCS, REVENUE_DOC, TEXT_DOC
from oracles import reference_ablation, reference_margins
from tatqa_symbolic import cli, evaluation
from tatqa_symbolic.cli import main
from tatqa_symbolic.evaluation import RoundingPolicy, evaluate, read_predictions
from tatqa_symbolic.reasoning import PipelineConfig, run_pipeline
from tatqa_symbolic.validation import schema_deviations


def run_cli(*argv):
    return main([str(a) for a in argv])


# (command-line arguments, the same configuration in process)
CONFIGS = {
    "oracle": ((), PipelineConfig()),
    "lexical": (
        ("--tagger", "lexical", "--operator", "keyword", "--order", "positional",
         "--scale", "heuristic", "--threshold", "0.05"),
        PipelineConfig(tagger="lexical", operator="keyword", order="positional",
                       scale="heuristic", threshold=0.05),
    ),
}


class TestCollector:
    """Each command loads its inputs with the cyclic collector paused,
    then freezes them; whatever the exit, ``main`` leaves the collector
    enabled or not as it found it, with nothing frozen."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collector(self, request):
        was_enabled = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was_enabled else gc.disable)()

    def call(self, collector, *argv):
        assert gc.get_freeze_count() == 0
        try:
            code = run_cli(*argv)
        except SystemExit as exc:
            code = exc.code
        assert gc.isenabled() is collector
        assert gc.get_freeze_count() == 0
        return code

    def test_exit_0(self, collector, corpus_path, tmp_path):
        preds = tmp_path / "preds.json"
        assert self.call(collector, "run", "--dataset", corpus_path, "--out", preds) == 0
        assert self.call(collector, "eval", "--dataset", corpus_path, "--pred", preds) == 0
        assert self.call(collector, "validate", "--dataset", corpus_path) == 0

    def test_exit_1_raised_while_paused(self, collector, corpus_path, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text('{"q-rev-span": oops}', encoding="utf-8")
        assert self.call(collector, "validate", "--dataset", broken) == 1
        assert self.call(collector, "eval", "--dataset", corpus_path, "--pred", broken) == 1
        doc = json.loads(json.dumps(TEXT_DOC))
        doc["table"]["table"][1].pop()
        ragged = tmp_path / "ragged.json"
        ragged.write_text(json.dumps([doc]), encoding="utf-8")
        assert self.call(
            collector, "run", "--dataset", ragged, "--out", tmp_path / "p.json", "--strict"
        ) == 1

    def test_exit_2(self, collector, corpus_path):
        assert self.call(collector, "run", "--dataset", corpus_path) == 2  # no --out
        assert self.call(
            collector, "stats", "--dataset", corpus_path, "--split", "dev", "test"
        ) == 2

    def test_paused_while_loading_and_frozen_while_running(
        self, collector, corpus_path, tmp_path, monkeypatch
    ):
        seen = []
        real_load, real_run = cli.load_dataset, cli.run_pipeline

        def load(*args, **kwargs):
            seen.append(("load", gc.isenabled()))
            return real_load(*args, **kwargs)

        def run(*args, **kwargs):
            seen.append(("run", gc.isenabled(), gc.get_freeze_count() > 0))
            return real_run(*args, **kwargs)

        monkeypatch.setattr(cli, "load_dataset", load)
        monkeypatch.setattr(cli, "run_pipeline", run)
        for command in ("run", "ablate"):
            assert self.call(
                collector, command, "--dataset", corpus_path, "--out", tmp_path / "out.json"
            ) == 0
        assert seen == [("load", False), ("run", collector, True)] * 2


class TestValidate:
    def test_report_and_exit_code(self, corpus_path, capsys, tmp_path):
        out = tmp_path / "validation.json"
        code = run_cli("validate", "--dataset", corpus_path, "--out", out)
        assert code == 0
        text = capsys.readouterr().out
        assert "derivations checked        11" in text
        assert "consistent               10" in text
        assert "itemized failures:" in text
        assert "q-exp-zero" in text  # zero divisor flagged, not crashed
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["n_checked"] == 11
        assert payload["n_consistent"] == 10
        assert payload["conventions"]["scaled"] >= 3
        assert "schema:" in text
        assert payload["schema_deviations"]["missing"] == []
        assert "$[].questions[].order" in payload["schema_deviations"]["unexpected"]

    def test_unreadable_input(self, tmp_path, capsys):
        assert run_cli("validate", "--dataset", tmp_path / "missing.json") == 1

    def test_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('[{"table": "caf\u00e9"}]'.encode("latin-1"))
        assert run_cli("validate", "--dataset", path) == 1
        assert capsys.readouterr().err == "error: byte 15: not UTF-8 text\n"

    def test_decodes_the_file_once(self, corpus_path, monkeypatch):
        decoded = []
        load = json.load

        def counted(*args, **kwargs):
            decoded.append(args)
            return load(*args, **kwargs)

        monkeypatch.setattr(json, "load", counted)
        assert run_cli("validate", "--dataset", corpus_path) == 0
        assert len(decoded) == 1

    def test_deviations_match_schema_deviations(self, tmp_path, capsys):
        # no paragraph has an "order", and the questions have an extra one
        docs = json.loads(json.dumps(CORPUS_DOCS))
        for doc in docs:
            for paragraph in doc["paragraphs"]:
                del paragraph["order"]
        path = tmp_path / "deviating.json"
        path.write_text(json.dumps(docs), encoding="utf-8")
        expected = schema_deviations(path)
        assert expected == {
            "missing": ["$[].paragraphs[].order"],
            "unexpected": ["$[].questions[].order"],
        }

        out = tmp_path / "validation.json"
        assert run_cli("validate", "--dataset", path, "--out", out) == 0
        text = capsys.readouterr().out
        assert text.endswith(
            "schema: 1 expected field(s) missing, 1 unexpected\n"
            "  missing    $[].paragraphs[].order\n"
            "  unexpected $[].questions[].order\n"
        )
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["schema_deviations"] == expected

    def revenue_with_order(self, tmp_path, order):
        doc = json.loads(json.dumps(REVENUE_DOC))
        doc["paragraphs"][1]["order"] = order
        path = tmp_path / "order.json"
        path.write_text(json.dumps([doc]), encoding="utf-8")
        return path

    @pytest.mark.parametrize("order", ["first", 1.5, True, None, [2]])
    def test_non_integer_paragraph_order(self, tmp_path, capsys, order):
        path = self.revenue_with_order(tmp_path, order)
        assert run_cli("validate", "--dataset", path) == 1
        err = capsys.readouterr().err
        assert err == "error: $[0].paragraphs[1].order: paragraph order must be an integer\n"

    @pytest.mark.parametrize("order", [3, 3.0, "3"])
    def test_integer_paragraph_order(self, tmp_path, order):
        path = self.revenue_with_order(tmp_path, order)
        assert run_cli("validate", "--dataset", path, "--strict") == 0


def repeated_paragraph_uid(tmp_path):
    """The revenue document with both paragraphs under one uid, the
    shorter one last."""
    doc = json.loads(json.dumps(REVENUE_DOC))
    first, second = doc["paragraphs"]
    second["uid"] = first["uid"]
    assert first["order"] < second["order"]
    assert len(first["text"].split()) > len(second["text"].split())
    path = tmp_path / "repeated-uid.json"
    path.write_text(json.dumps([doc]), encoding="utf-8")
    return path


class TestRepeatedParagraphUid:
    def test_strict_validate_rejects(self, tmp_path, capsys):
        path = repeated_paragraph_uid(tmp_path)
        assert run_cli("validate", "--dataset", path, "--strict") == 1
        assert "duplicate paragraph uid rev-p1" in capsys.readouterr().err

    def test_lexical_run_answers(self, tmp_path):
        out = tmp_path / "preds.json"
        assert run_cli(
            "run", "--dataset", repeated_paragraph_uid(tmp_path), "--out", out,
            "--tagger", "lexical", "--operator", "keyword",
            "--order", "positional", "--scale", "heuristic",
        ) == 0
        assert len(json.loads(out.read_text(encoding="utf-8"))) == len(REVENUE_DOC["questions"])


class TestStats:
    def test_prints_tables(self, corpus_path, capsys):
        code = run_cli("stats", "--dataset", corpus_path)
        assert code == 0
        text = capsys.readouterr().out
        assert "# of questions" in text
        assert "gold operator distribution" in text
        assert "gold scale distribution" in text

    def test_reference_deltas_for_named_split(self, corpus_path, capsys):
        code = run_cli("stats", "--dataset", corpus_path, "--split", "dev")
        assert code == 0
        text = capsys.readouterr().out
        assert "published" in text
        assert "delta" in text

    def test_more_split_names_than_files_is_usage_error(self, corpus_path, capsys):
        assert run_cli("stats", "--dataset", corpus_path, "--split", "dev", "train") == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --split: 2 split names for 1 --dataset file(s)\n"
        assert captured.out == ""

    def test_files_without_a_split_name_use_their_stem(self, corpus_path, tmp_path, capsys):
        other = tmp_path / "second-file.json"
        other.write_bytes(corpus_path.read_bytes())
        assert run_cli("stats", "--dataset", corpus_path, other, "--split", "dev") == 0
        text = capsys.readouterr().out
        assert "== corpus shape: dev ==" in text
        assert "== corpus shape: second-file ==" in text

    def test_split_belongs_to_stats_only(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "x.json"
        with pytest.raises(SystemExit) as excinfo:
            run_cli("run", "--dataset", corpus_path, "--out", out, "--split", "dev")
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --split dev" in capsys.readouterr().err
        assert not out.exists()


class TestRunAndEval:
    def test_oracle_run_then_eval(self, corpus_path, tmp_path, capsys):
        preds = tmp_path / "preds.json"
        assert run_cli(
            "run", "--dataset", corpus_path, "--out", preds, "--workers", "1"
        ) == 0
        text = capsys.readouterr().out
        assert "answered 17 questions (3 abstained)" in text
        payload = json.loads(preds.read_text(encoding="utf-8"))
        assert len(payload) == 17
        assert payload["q-rev-diff"] == ["105226", "million"]
        traces = (tmp_path / "preds.json.traces.jsonl").read_text(encoding="utf-8")
        assert len(traces.strip().splitlines()) == 17

        assert run_cli("eval", "--dataset", corpus_path, "--pred", preds) == 0
        text = capsys.readouterr().out
        assert f"EM {100 * 14 / 17:.1f}" in text

    def test_file_boundary_matches_in_process(self, corpus, corpus_path, tmp_path):
        preds_path = tmp_path / "preds.json"
        run_cli("run", "--dataset", corpus_path, "--out", preds_path)
        file_report = evaluate(read_predictions(preds_path), corpus)

        in_process = run_pipeline(corpus, PipelineConfig())
        process_report = evaluate(
            {qid: (p.value, p.scale) for qid, p in in_process.items()}, corpus
        )
        assert file_report.em == process_report.em
        assert file_report.f1 == process_report.f1

    def test_worker_count_does_not_change_output(self, corpus_path, tmp_path):
        """Forked workers inherit the frozen records; predictions and
        traces are byte-identical to a one-worker run, under both
        configurations."""
        for name, (flags, _) in CONFIGS.items():
            outputs = []
            for workers in ("1", "2"):
                out = tmp_path / f"{name}-w{workers}.json"
                assert run_cli(
                    "run", "--dataset", corpus_path, "--out", out, "--workers", workers, *flags
                ) == 0
                traces = tmp_path / f"{out.name}.traces.jsonl"
                outputs.append((out.read_bytes(), traces.read_bytes()))
            assert outputs[0] == outputs[1]

    def test_heuristic_run_is_deterministic(self, corpus_path, tmp_path):
        first = tmp_path / "h1.json"
        second = tmp_path / "h2.json"
        for out in (first, second):
            assert run_cli(
                "run", "--dataset", corpus_path, "--out", out,
                "--tagger", "lexical", "--operator", "keyword",
                "--order", "positional", "--scale", "heuristic",
                "--threshold", "0.3",
            ) == 0
        assert first.read_text(encoding="utf-8") == second.read_text(encoding="utf-8")

    def test_unknown_component_is_usage_error(self, corpus_path, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("run", "--dataset", corpus_path, "--out", tmp_path / "x.json",
                    "--tagger", "transformer")
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_eval_grid_margins_match_cell_by_cell_sums(
        self, corpus, corpus_path, tmp_path, capsys, config
    ):
        preds = tmp_path / "preds.json"
        assert run_cli("run", "--dataset", corpus_path, "--out", preds, *CONFIGS[config][0]) == 0
        capsys.readouterr()
        assert run_cli("eval", "--dataset", corpus_path, "--pred", preds) == 0
        report = evaluate(read_predictions(preds), corpus)
        assert capsys.readouterr().out.endswith("\n\n" + reference_margins(report) + "\n")

    def test_eval_id_mismatch(self, corpus_path, tmp_path, capsys):
        preds = tmp_path / "bad.json"
        preds.write_text(json.dumps({"no-such-question": ["1", ""]}), encoding="utf-8")
        assert run_cli("eval", "--dataset", corpus_path, "--pred", preds) == 1
        assert "not in the gold dataset" in capsys.readouterr().err


class TestEvalRejectsMalformedPredictions:
    """Each malformed prediction file exits 1 with one ``error:`` line
    naming the file and the JSON location, and no traceback."""

    def run_eval(self, corpus_path, preds, capsys):
        code = run_cli("eval", "--dataset", corpus_path, "--pred", preds)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {preds}: ")
        assert "Traceback" not in err
        return err

    def test_invalid_json(self, corpus_path, tmp_path, capsys):
        preds = tmp_path / "broken.json"
        preds.write_text('{"q-rev-span": ["x", ""],\n oops}', encoding="utf-8")
        err = self.run_eval(corpus_path, preds, capsys)
        assert "line 2 column 2: invalid JSON" in err

    def test_not_utf8(self, corpus_path, tmp_path, capsys):
        preds = tmp_path / "latin1.json"
        preds.write_bytes('{"q-rev-span": ["caf\u00e9", ""]}'.encode("latin-1"))
        err = self.run_eval(corpus_path, preds, capsys)
        assert "byte 20: not UTF-8 text" in err

    def test_top_level_not_an_object(self, corpus_path, tmp_path, capsys):
        preds = tmp_path / "list.json"
        preds.write_text(json.dumps([["x", ""]]), encoding="utf-8")
        err = self.run_eval(corpus_path, preds, capsys)
        assert ": $: top level must be an object" in err

    def test_unknown_scale_word(self, corpus_path, tmp_path, capsys):
        preds = tmp_path / "scale.json"
        preds.write_text(json.dumps({"q-rev-span": ["x", "zillion"]}), encoding="utf-8")
        err = self.run_eval(corpus_path, preds, capsys)
        assert '$["q-rev-span"][1]: unknown scale word: \'zillion\'' in err

    @pytest.mark.parametrize(
        "answer",
        ['{"a": 1, "a": 2}', '{"a": 1}', "{}", "null", "true", '["x", 1]', '[["x"]]',
         "NaN", "Infinity", "-Infinity"],
    )
    def test_answer_of_wrong_type(self, corpus_path, tmp_path, capsys, answer):
        preds = tmp_path / "answer.json"
        preds.write_text(f'{{"q-rev-span": [{answer}, ""]}}', encoding="utf-8")
        err = self.run_eval(corpus_path, preds, capsys)
        assert err.endswith(
            '$["q-rev-span"][0]: answer must be a string, a number or a list of strings\n'
        )

    @pytest.mark.parametrize("answer", ['"x"', "3", "2.5", '["x", "y"]', "[]"])
    def test_answer_of_each_accepted_type(self, corpus_path, tmp_path, answer):
        preds = tmp_path / "answer.json"
        preds.write_text(f'{{"q-rev-span": [{answer}, ""]}}', encoding="utf-8")
        assert run_cli("eval", "--dataset", corpus_path, "--pred", preds) == 0


class TestJsonNumberPredictions:
    def test_scored_like_decimal_strings(self, corpus_path, tmp_path, capsys):
        preds = tmp_path / "preds.json"
        assert run_cli("run", "--dataset", corpus_path, "--out", preds) == 0
        capsys.readouterr()
        assert run_cli("eval", "--dataset", corpus_path, "--pred", preds) == 0
        from_strings = capsys.readouterr().out

        # the same predictions with every decimal string written as a JSON number
        payload = json.loads(preds.read_text(encoding="utf-8"))
        numbers = {
            question_id: value
            for question_id, (value, _) in payload.items()
            if isinstance(value, str) and re.fullmatch(r"-?\d+(\.\d+)?", value)
        }
        assert {"105226", "1203.5"} <= set(numbers.values())
        numbers["q-rev-diff"] = "1.05226e5"
        text = json.dumps({
            question_id: [f"@{numbers[question_id]}@" if question_id in numbers else value, scale]
            for question_id, (value, scale) in payload.items()
        })
        preds.write_text(re.sub(r'"@(.*?)@"', r"\1", text), encoding="utf-8")
        assert run_cli("eval", "--dataset", corpus_path, "--pred", preds) == 0
        assert capsys.readouterr().out == from_strings


class TestNumbersPastTheDigitLimit:
    """A number too long to read exactly ends in one ``error:`` line and
    exit 1, not a traceback."""

    BIG = "1" * 5000

    def assert_error(self, argv, capsys, location, digits=5000):
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {location}: unreadable number: ")
        assert f"value has {digits} digits" in err
        assert err.count("\n") == 1

    def write_dataset(self, tmp_path, text):
        path = tmp_path / "dataset.json"
        path.write_text(text, encoding="utf-8")
        return path

    def test_cell(self, tmp_path, capsys):
        doc = json.loads(json.dumps(REVENUE_DOC))
        doc["table"]["table"][2][1] = self.BIG
        path = self.write_dataset(tmp_path, json.dumps([doc]))
        self.assert_error(("validate", "--dataset", path), capsys, "$[0].table.table[2][1]")

    @pytest.mark.parametrize(
        "literal,digits",
        [(BIG, 5000), (BIG + ".5", 5002), ("1e5000", 5001)],
        ids=["integer", "decimal", "exponent"],
    )
    def test_dataset_number_literal(self, tmp_path, capsys, literal, digits):
        text = json.dumps([REVENUE_DOC]).replace('"answer": 105226', f'"answer": {literal}')
        path = self.write_dataset(tmp_path, text)
        self.assert_error(("validate", "--dataset", path), capsys, "$", digits)

    def test_prediction_string(self, corpus_path, tmp_path, capsys):
        preds = tmp_path / "preds.json"
        preds.write_text(json.dumps({"q-rev-diff": [self.BIG, "million"]}), encoding="utf-8")
        self.assert_error(("eval", "--dataset", corpus_path, "--pred", preds), capsys, "q-rev-diff")

    @pytest.mark.parametrize(
        "literal,digits", [(BIG, 5000), ("1e5000", 5001)], ids=["integer", "exponent"]
    )
    def test_prediction_number_literal(self, corpus_path, tmp_path, capsys, literal, digits):
        preds = tmp_path / "preds.json"
        preds.write_text(f'{{"q-rev-diff": [{literal}, "million"]}}', encoding="utf-8")
        self.assert_error(
            ("eval", "--dataset", corpus_path, "--pred", preds), capsys, f"{preds}: $", digits
        )

    def reported_by_validate(self, tmp_path, dataset, key):
        """Question id -> detail of each question that ``validate``
        reports for an unreadable number, as a failed check (``key``
        "checks") or as unlocatable evidence ("unlocatable")."""
        out = tmp_path / "validate.json"
        assert run_cli("validate", "--dataset", dataset, "--out", out) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        if key == "checks":
            return {c["question_id"]: c["detail"] for c in report["checks"]
                    if c["status"] == "unreadable_number"}
        return {u["question_id"]: u["missing"] for u in report["unlocatable"]
                if u["missing"].startswith("unreadable number: ")}

    def abstained_by_oracle_run(self, tmp_path, dataset):
        """Question id -> note of each question the oracle ``run``
        abstains on for an unreadable number."""
        preds = tmp_path / "preds.json"
        assert run_cli("run", "--dataset", dataset, "--out", preds) == 0
        traces = tmp_path / "preds.json.traces.jsonl"
        notes = [json.loads(line) for line in traces.read_text(encoding="utf-8").splitlines()]
        return {t["question_id"]: t["note"] for t in notes
                if (t["note"] or "").startswith("NumberTooLongError: ")}

    def test_number_in_paragraph_text(self, tmp_path):
        doc = json.loads(json.dumps(TEXT_DOC))
        doc["paragraphs"][0]["text"] += f" It also reported {self.BIG} units."
        dataset = self.write_dataset(tmp_path, json.dumps([doc]))
        reported = self.reported_by_validate(tmp_path, dataset, "unlocatable")
        assert list(reported) == ["q-text-arith"]
        assert "value has 5000 digits" in reported["q-text-arith"]
        notes = self.abstained_by_oracle_run(tmp_path, dataset)
        assert list(notes) == ["q-text-arith"]
        assert notes["q-text-arith"].endswith("value has 5000 digits")

    def test_gold_answer_string(self, tmp_path):
        doc = json.loads(json.dumps(REVENUE_DOC))
        doc["questions"][2]["answer"] = self.BIG
        dataset = self.write_dataset(tmp_path, json.dumps([doc]))
        reported = self.reported_by_validate(tmp_path, dataset, "checks")
        assert list(reported) == ["q-rev-diff"]
        assert reported["q-rev-diff"].endswith("value has 5000 digits")

    def test_derivation_operand(self, tmp_path):
        doc = json.loads(json.dumps(REVENUE_DOC))
        doc["questions"][2]["derivation"] = f"{self.BIG} - 5,134"
        dataset = self.write_dataset(tmp_path, json.dumps([doc]))
        reported = self.reported_by_validate(tmp_path, dataset, "checks")
        assert list(reported) == ["q-rev-diff"]
        assert reported["q-rev-diff"].endswith("value has 5000 digits")
        # reported once: locating the evidence fails on the same operand
        assert self.reported_by_validate(tmp_path, dataset, "unlocatable") == {}
        assert list(self.abstained_by_oracle_run(tmp_path, dataset)) == ["q-rev-diff"]
        # counted as Other, like a derivation that does not parse
        assert run_cli("stats", "--dataset", dataset) == 0


class TestPipelineArgumentRanges:
    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--threshold", "1.5"),
            ("--threshold", "1"),
            ("--threshold", "-0.1"),
            ("--threshold", "nan"),
            ("--threshold", "high"),
            ("--workers", "0"),
            ("--workers", "-2"),
            ("--workers", "two"),
        ],
    )
    def test_out_of_range_is_usage_error(self, corpus_path, tmp_path, capsys, flag, value):
        out = tmp_path / "x.json"
        with pytest.raises(SystemExit) as excinfo:
            run_cli("run", "--dataset", corpus_path, "--out", out, flag, value)
        assert excinfo.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-3", "-1", "2.5", "four"])
    @pytest.mark.parametrize("command", ["eval", "validate", "ablate"])
    def test_rounding_out_of_range_is_usage_error(
        self, corpus_path, tmp_path, capsys, command, value
    ):
        out = tmp_path / "x.json"
        argv = [command, "--dataset", corpus_path, "--out", out, "--rounding", value]
        if command == "eval":
            argv += ["--pred", tmp_path / "preds.json"]
        with pytest.raises(SystemExit) as excinfo:
            run_cli(*argv)
        assert excinfo.value.code == 2
        assert "argument --rounding" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "validate", "ablate"])
    def test_rounding_zero_is_accepted(self, corpus_path, tmp_path, command):
        preds = tmp_path / "preds.json"
        preds.write_text("{}", encoding="utf-8")
        argv = [command, "--dataset", corpus_path, "--rounding", "0"]
        if command == "eval":
            argv += ["--pred", preds]
        assert run_cli(*argv) == 0

    @pytest.mark.parametrize("command", ["run", "ablate"])
    def test_bounds_are_accepted(self, corpus_path, tmp_path, command):
        out = tmp_path / "x.json"
        assert run_cli(
            command, "--dataset", corpus_path, "--out", out,
            "--threshold", "0", "--workers", "1",
        ) == 0


class TestAblate:
    def test_grid_monotone_and_full_row_matches_run(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "grid.json"
        assert run_cli("ablate", "--dataset", corpus_path, "--out", out) == 0
        rows = json.loads(out.read_text(encoding="utf-8"))
        assert len(rows) == 10
        ems = [row["em"] for row in rows]
        assert ems == sorted(ems)  # cumulative enabling never hurts the oracle
        assert rows[0]["row"] == "+ Span-in-text"
        assert rows[-1]["row"] == "+ Change ratio"
        assert rows[-1]["em"] == pytest.approx(100 * 14 / 17, abs=0.05)

    def test_first_row_only_spans_in_text_score(self, corpus_path, tmp_path):
        out = tmp_path / "grid.json"
        run_cli("ablate", "--dataset", corpus_path, "--out", out)
        rows = json.loads(out.read_text(encoding="utf-8"))
        # only the two text-span questions can score in row 1
        assert rows[0]["em"] == pytest.approx(100 * 2 / 17, abs=0.05)

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_rows_match_one_evaluate_per_row(self, corpus, corpus_path, tmp_path, capsys, config):
        argv, pipeline_config = CONFIGS[config]
        out = tmp_path / "grid.json"
        assert run_cli("ablate", "--dataset", corpus_path, "--out", out, *argv) == 0
        rows = reference_ablation(corpus, run_pipeline(corpus, pipeline_config), RoundingPolicy())
        assert out.read_text(encoding="utf-8") == json.dumps(rows, indent=1)
        printed = capsys.readouterr().out.splitlines()[1:]
        assert printed == [f"{r['row']:<22}{r['em']:>8.1f}{r['f1']:>8.1f}" for r in rows]

    def test_scores_each_question_once(self, corpus, corpus_path, monkeypatch):
        calls = Counter()

        def counted(module, name):
            function = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(cli, "evaluate")
        counted(evaluation, "score_question")
        assert run_cli("ablate", "--dataset", corpus_path) == 0
        predicted = run_pipeline(corpus, PipelineConfig())
        assert calls == {"evaluate": 1, "score_question": len(predicted)}


class TestSchemaReport:
    def test_prints_inventory(self, corpus_path, capsys):
        assert run_cli("schema-report", "--dataset", corpus_path) == 0
        text = capsys.readouterr().out
        assert "$[].table.uid" in text
        assert "$[].questions[].answer_type" in text
        # the reader decodes floats as Decimal; the inventory names the JSON type
        [answer] = [line for line in text.splitlines() if line.startswith("$[].questions[].answer ")]
        assert answer.endswith("  float, int, list")

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("[1,\n", encoding="utf-8")
        assert run_cli("schema-report", "--dataset", path) == 1
        assert capsys.readouterr().err == (
            "error: $: invalid JSON: Expecting value: line 2 column 1 (char 4)\n"
        )


class TestExportSupervision:
    def test_writes_labels(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "labels.jsonl"
        assert run_cli("export-supervision", "--dataset", corpus_path, "--out", out) == 0
        text = capsys.readouterr().out
        assert "wrote 15 label records" in text
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        record = json.loads(lines[0])
        assert set(record) == {"question_id", "g_op", "g_scale", "g_order", "g_tag"}


def fresh_python(code, *argv):
    # the child finds the package wherever this process found it
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)],
        capture_output=True, text=True, timeout=120, env=env,
    )


def test_start_up_leaves_multiprocessing_unloaded():
    """Only a run with more than one worker imports it."""
    result = fresh_python(
        "import sys, tatqa_symbolic.cli as cli; cli.build_parser();"
        "print('multiprocessing' in sys.modules)"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


class TestWithoutNumpyOrScipy:
    """The package needs neither at run time; they are test dependencies."""

    def test_import_leaves_them_unloaded(self):
        result = fresh_python(
            "import sys, tatqa_symbolic.cli;"
            "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))"
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"

    def test_suite_collects_with_both_blocked(self):
        # a finder that refuses them behaves like an environment without
        # them; ``sys.modules[name] = None`` would also send hypothesis
        # after ``numpy.random``
        result = fresh_python(
            "import sys\n"
            "class Block:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.partition('.')[0] in ('numpy', 'scipy'):\n"
            "            raise ModuleNotFoundError(f'No module named {name!r}', name=name)\n"
            "sys.meta_path.insert(0, Block())\n"
            "import pytest\n"
            "sys.exit(pytest.main(['--collect-only', '-q', '-p', 'no:cacheprovider', sys.argv[1]]))\n",
            os.path.dirname(os.path.abspath(__file__)),
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_run_and_eval_with_both_blocked(self, corpus_path, tmp_path):
        preds = tmp_path / "preds.json"
        result = fresh_python(
            "import sys; sys.modules['numpy'] = sys.modules['scipy'] = None\n"
            "from tatqa_symbolic.cli import main\n"
            "dataset, preds = sys.argv[1:]\n"
            "assert main(['run', '--dataset', dataset, '--out', preds, '--workers', '1']) == 0\n"
            "assert main(['eval', '--dataset', dataset, '--pred', preds]) == 0\n",
            corpus_path, preds,
        )
        assert result.returncode == 0, result.stderr
        assert f"EM {100 * 14 / 17:.1f}" in result.stdout
