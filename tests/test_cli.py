import json
import os
import subprocess
import sys

import pytest

from conftest import REVENUE_DOC
from tatqa_symbolic.cli import main


def run_cli(*argv):
    return main([str(a) for a in argv])


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
        from tatqa_symbolic.evaluation import evaluate, read_predictions
        from tatqa_symbolic.reasoning import PipelineConfig, run_pipeline

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
        single = tmp_path / "w1.json"
        double = tmp_path / "w2.json"
        run_cli("run", "--dataset", corpus_path, "--out", single, "--workers", "1")
        run_cli("run", "--dataset", corpus_path, "--out", double, "--workers", "2")
        assert single.read_text(encoding="utf-8") == double.read_text(encoding="utf-8")

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
        ['{"a": 1, "a": 2}', '{"a": 1}', "{}", "null", "true", '["x", 1]', '[["x"]]'],
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


class TestSchemaReport:
    def test_prints_inventory(self, corpus_path, capsys):
        assert run_cli("schema-report", "--dataset", corpus_path) == 0
        text = capsys.readouterr().out
        assert "$[].table.uid" in text
        assert "$[].questions[].answer_type" in text


class TestExportSupervision:
    def test_writes_labels(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "labels.jsonl"
        assert run_cli("export-supervision", "--dataset", corpus_path, "--out", out) == 0
        text = capsys.readouterr().out
        assert "wrote 15 label records" in text
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        record = json.loads(lines[0])
        assert set(record) == {"question_id", "g_op", "g_scale", "g_order", "g_tag"}


class TestWithoutNumpyOrScipy:
    """The package needs neither at run time; they are test dependencies."""

    def python(self, code, *argv):
        # the child finds the package wherever this process found it
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        return subprocess.run(
            [sys.executable, "-c", code, *map(str, argv)],
            capture_output=True, text=True, timeout=120, env=env,
        )

    def test_import_leaves_them_unloaded(self):
        result = self.python(
            "import sys, tatqa_symbolic.cli;"
            "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))"
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"

    def test_run_and_eval_with_both_blocked(self, corpus_path, tmp_path):
        preds = tmp_path / "preds.json"
        result = self.python(
            "import sys; sys.modules['numpy'] = sys.modules['scipy'] = None\n"
            "from tatqa_symbolic.cli import main\n"
            "dataset, preds = sys.argv[1:]\n"
            "assert main(['run', '--dataset', dataset, '--out', preds, '--workers', '1']) == 0\n"
            "assert main(['eval', '--dataset', dataset, '--pred', preds]) == 0\n",
            corpus_path, preds,
        )
        assert result.returncode == 0, result.stderr
        assert f"EM {100 * 14 / 17:.1f}" in result.stdout
