"""Benchmark of the tatqa-symbolic batch CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload's inputs are generated from
the seed (bench/gen.py).  With ``--trace 0`` the job runs through the
public CLI entry point, ``tatqa_symbolic.cli.main``, in fresh
interpreters, one job each, as a user runs it, until ``--seconds`` have
passed (at least three jobs); set-up time, throughput (calibrated for
host speed, see JobSample.normalised_qps) and peak memory are the
medians over those jobs.  With ``--trace 1`` the same jobs run for
half the time, then a traced run calls the public functions of each
module in pipeline order, for the other half and at least twice, and
reports per-layer figures (bench/tracing.py).  Its result line holds the
per-layer metrics only; the end-to-end figures of its shorter untraced
jobs are printed above it but left out of it.

Every job's outputs are checked: against the outcome the generator
planted for each question, between jobs, between the traced and the
untraced run, and, on a small corpus from a pinned seed, against digests
of the outputs the code gave when the benchmark was written
(bench/golden.json, rewritten by ``--pin``).  A question whose output
differs counts as failed.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only when every output was right.

``--swap FIELD=VALUE`` replaces a field of the run workloads'
PipelineConfig, to show that the checks catch a changed component.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
from tracing import Tracer, resolve_hooks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN_PATH = Path(__file__).with_name("golden.json")
GOLDEN_SEED = 2105
MIN_JOBS = 3
CHILD_TIMEOUT_S = 60
# job.calibrate() time on the machine the baseline was taken on; see
# normalised_qps
REFERENCE_PROBE_S = 0.12


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    corpus: str  # generator: "dense", "multispan" or "sparse"
    n_contexts: int
    golden_contexts: int
    config: dict | None  # PipelineConfig fields for run + eval jobs


WORKLOADS = {
    w.name: w
    for w in (
        Workload("oracle-dense", "dense", 130, 40, {}),
        Workload("lexical-dense", "dense", 130, 40,
                 {"tagger": "lexical", "operator": "keyword", "order": "positional",
                  "scale": "heuristic", "threshold": 0.05}),
        Workload("eval-multispan", "multispan", 1000, 40, None),
        Workload("validate-sparse", "sparse", 1100, 200, None),
    )
}


# ---------------------------------------------------------------------------
# Inputs and jobs
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Inputs:
    dataset: Path
    predictions: Path | None
    expect: dict  # question id -> planted outcome
    n_contexts: int
    units: int  # question, cell and paragraph words summed over questions
    checked: set  # count and arithmetic questions, which validate checks

    @property
    def sparse_summary(self) -> dict:
        """Report fields validate must produce for this corpus."""
        return {"n_questions": len(self.expect), "n_checked": len(self.checked),
                "schema_deviations": {"missing": [], "unexpected": []}}


def prepare(workload: Workload, seed: int, n_contexts: int, directory: Path) -> Inputs:
    directory.mkdir(parents=True, exist_ok=True)
    predictions = None
    if workload.corpus == "dense":
        docs, expect = gen.dense_corpus(seed, n_contexts)
    elif workload.corpus == "sparse":
        docs, expect = gen.sparse_corpus(seed, n_contexts)
    else:
        docs, preds, expect = gen.multispan_corpus(seed, n_contexts)
        predictions = directory / "predictions.json"
        predictions.write_text(gen.dumps(preds), encoding="utf-8")
    dataset = directory / "dataset.json"
    dataset.write_text(gen.dumps(docs), encoding="utf-8")
    units = 0
    checked = {q["uid"] for doc in docs for q in doc["questions"]
               if q["answer_type"] in ("count", "arithmetic")}
    for doc in docs:
        context_words = sum(len(cell.split()) for row in doc["table"]["table"] for cell in row)
        context_words += sum(len(p["text"].split()) for p in doc["paragraphs"])
        units += sum(len(q["question"].split()) + context_words for q in doc["questions"])
    return Inputs(dataset, predictions, expect, len(docs), units, checked)


def config_args(config) -> list[str]:
    return [
        "--tagger", config.tagger, "--operator", config.operator, "--order", config.order,
        "--scale", config.scale, "--threshold", repr(config.threshold), "--workers", "1",
    ]


def job_argvs(workload: Workload, inputs: Inputs, config, out: Path) -> list[list[str]]:
    dataset = str(inputs.dataset)
    if workload.config is not None:
        preds = str(out / "preds.json")
        return [
            ["run", "--dataset", dataset, "--out", preds, *config_args(config)],
            ["eval", "--dataset", dataset, "--pred", preds, "--out", str(out / "eval.json")],
        ]
    if workload.corpus == "multispan":
        return [["eval", "--dataset", dataset, "--pred", str(inputs.predictions),
                 "--out", str(out / "eval.json")]]
    return [["validate", "--dataset", dataset, "--out", str(out / "validate.json")]]


# ---------------------------------------------------------------------------
# Outputs and checks
# ---------------------------------------------------------------------------

TRACE_FIELDS = ("operator", "order_flag", "scale", "candidates", "raw_value", "answer", "note")


def _load_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}


def read_records(workload: Workload, out: Path, qids) -> tuple[dict, dict]:
    """Per-question output records and a summary, from a job's files."""
    records = {}
    if workload.corpus == "sparse":
        report = _load_json(out / "validate.json")
        checks = {c["question_id"]: c for c in report.get("checks", [])}
        unlocatable = {u["question_id"]: u["missing"] for u in report.get("unlocatable", [])}
        for qid in qids:
            records[qid] = {"check": checks.get(qid), "unlocatable": unlocatable.get(qid)}
        summary = {k: v for k, v in report.items() if k not in ("checks", "unlocatable")}
        return records, summary
    report = _load_json(out / "eval.json")
    scores = {qid: [em, f1] for qid, em, f1 in
              ((q["question_id"], q["em"], q["f1"]) for q in report.get("questions", []))}
    summary = {k: v for k, v in report.items() if k != "questions"}
    if workload.config is None:
        return {qid: {"score": scores.get(qid)} for qid in qids}, summary
    preds = _load_json(out / "preds.json")
    traces = {}
    traces_path = out / "preds.json.traces.jsonl"
    if traces_path.exists():
        for line in traces_path.read_text(encoding="utf-8").splitlines():
            trace = json.loads(line)
            traces[trace["question_id"]] = {k: trace.get(k) for k in TRACE_FIELDS}
    for qid in qids:
        records[qid] = {"prediction": preds.get(qid), "trace": traces.get(qid),
                        "score": scores.get(qid)}
    return records, summary


def expectation_failures(workload: Workload, records: dict, summary: dict, inputs: Inputs) -> set:
    """Questions whose output contradicts what the generator planted."""
    failed = set()
    if workload.corpus == "sparse" and any(
        summary.get(key) != value for key, value in inputs.sparse_summary.items()
    ):
        failed.add("<summary>")
    for qid, record in records.items():
        if None in record.values() and workload.corpus != "sparse":
            failed.add(qid)
            continue
        planted = inputs.expect[qid]
        if workload.name == "oracle-dense":
            em, note = record["score"][0], record["trace"]["note"] or ""
            ok = {
                "answerable": em == 1.0,
                "other": em == 0.0 and note == "abstained: unsupported operator",
                "unlocatable": em == 0.0 and note.startswith("UnlocatableEvidenceError"),
            }[planted]
        elif workload.corpus == "multispan":
            em, f1 = record["score"]
            want_em, want_f1, _ = planted
            ok = em == want_em and {"one": f1 == 1.0, "zero": f1 == 0.0,
                                    "partial": 0.0 < f1 < 1.0}[want_f1]
        elif workload.corpus == "sparse":
            status = record["check"]["status"] if record["check"] else None
            want = {"answerable": "consistent", "unlocatable": "consistent"}.get(planted, planted)
            if qid not in inputs.checked:
                want = None  # span questions have no derivation to check
            ok = status == want and (record["unlocatable"] is not None) == (planted == "unlocatable")
        else:
            ok = True  # lexical answers are not known from construction
        if not ok:
            failed.add(qid)
    return failed


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def differing(mine: dict, theirs: dict) -> set:
    """Keys whose values differ, or that only one side has."""
    return {key for key in mine.keys() | theirs.keys() if mine.get(key) != theirs.get(key)}


@dataclasses.dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = dataclasses.field(default_factory=list)

    def add(self, attempted: int, failed: int, problem: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{problem}: {failed} question(s)")


# ---------------------------------------------------------------------------
# Running jobs
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class JobSample:
    setup_s: float
    wall_s: float
    peak_rss_mb: float
    probe_s: float
    ok: bool
    detail: str = ""

    def normalised_qps(self, n: int) -> float:
        """Questions per second at the reference machine speed.

        The host's speed drifts by tens of percent over minutes.  The job
        times a fixed calibration workload just before and after its
        work; scaling by that time over REFERENCE_PROBE_S takes the drift
        out.  bench/probe_check.py shows that the heap the job leaves
        behind does not move the calibration.
        """
        return n / self.wall_s * self.probe_s / REFERENCE_PROBE_S if self.wall_s else 0.0

    def normalised_setup_s(self) -> float:
        """Set-up time at the reference machine speed, as above."""
        return self.setup_s * REFERENCE_PROBE_S / self.probe_s if self.probe_s else self.setup_s


def run_child(argvs: list[list[str]], out: Path) -> JobSample:
    """One job in a fresh interpreter; set-up is timed to its ready line."""
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(out / "stderr.txt", "w+", encoding="utf-8") as err:
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("job.py")), json.dumps(argvs)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err, text=True,
        )
        try:
            ready = child.stdout.readline()
            setup = time.perf_counter() - start
            stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return JobSample(0.0, 0.0, 0.0, 0.0, False, "timed out")
        finally:
            if child.poll() is None:  # timed out or interrupted: leave nothing running
                child.kill()
                child.communicate()
        err.seek(0)
        errors = err.read()
    if ready.strip() != "ready" or child.returncode != 0:
        return JobSample(setup, 0.0, 0.0, 0.0, False, f"exit {child.returncode}: {errors[-2000:]}")
    result = json.loads(stdout.strip().splitlines()[-1])
    ok = all(code == 0 for code in result["codes"])
    detail = "" if ok else f"exit codes {result['codes']}: {errors[-2000:]}"
    return JobSample(setup, result["wall_s"], result["peak_rss_kb"] / 1024, result["probe_s"],
                     ok, detail)


def run_in_process(cli, argvs) -> bool:
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        return all(cli.main(argv) == 0 for argv in argvs)


def golden_digests(workload, cli, config, directory: Path) -> tuple[dict, str] | None:
    inputs = prepare(workload, GOLDEN_SEED, workload.golden_contexts, directory)
    if not run_in_process(cli, job_argvs(workload, inputs, config, directory)):
        return None
    records, summary = read_records(workload, directory, inputs.expect)
    return {qid: digest(r) for qid, r in records.items()}, digest(summary)


def pin() -> None:
    """Rewrite golden.json from the current code's outputs."""
    import_package()
    from tatqa_symbolic import cli
    from tatqa_symbolic.reasoning import PipelineConfig

    golden = {}
    for workload in WORKLOADS.values():
        directory = WORK / f"pin-{workload.name}-{os.getpid()}"
        try:
            config = PipelineConfig(**(workload.config or {}))
            result = golden_digests(workload, cli, config, directory)
            if result is None:
                raise SystemExit(f"error: golden job for {workload.name} failed")
            questions, summary = result
            golden[workload.name] = {"seed": GOLDEN_SEED, "contexts": workload.golden_contexts,
                                     "summary": summary, "questions": questions}
        finally:
            shutil.rmtree(directory, ignore_errors=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def traced_job(workload, modules, inputs: Inputs, config, out: Path, tracer: Tracer):
    """The workload's job through public module functions, in pipeline
    order, with a span around each call into a layer."""
    corpus, evaluation, reasoning, validation = modules
    span = tracer.span
    out.mkdir(parents=True, exist_ok=True)
    with tracer.hooked():
        if workload.corpus == "sparse":
            with span("corpus.load"):
                dataset = corpus.load_dataset(inputs.dataset)
            with span("validation.check"):
                report = validation.validate_dataset(dataset)
            with span("corpus.schema"):
                validation.schema_deviations(inputs.dataset)
            return {"validate": report}
        predictions_path = inputs.predictions
        predictions = None
        if workload.config is not None:
            with span("corpus.load"):
                dataset = corpus.load_dataset(inputs.dataset)
            with span("reasoning.run"):
                predictions = reasoning.run_pipeline(dataset, config)
            predictions_path = out / "preds.json"
            with span("evaluation.write"):
                evaluation.write_predictions(
                    {qid: (p.value, p.scale) for qid, p in predictions.items()}, predictions_path
                )
        with span("corpus.load"):
            dataset = corpus.load_dataset(inputs.dataset)
        with span("evaluation.read"):
            read = evaluation.read_predictions(predictions_path)
        with span("evaluation.score"):
            report = evaluation.evaluate(read, dataset)
    return {"predictions": predictions, "eval": report, "preds_path": predictions_path}


def traced_matches(workload, result, reference_out: Path) -> set:
    """Questions where the traced run's outputs differ from the untraced job's."""
    if workload.corpus == "sparse":
        report = _load_json(reference_out / "validate.json")
        validated = result["validate"]
        return differing(
            {c.question_id: dataclasses.asdict(c) for c in validated.checks},
            {c["question_id"]: c for c in report.get("checks", [])},
        ) | differing(
            dict(validated.unlocatable),
            {u["question_id"]: u["missing"] for u in report.get("unlocatable", [])},
        )
    bad = differing(
        {qid: [em, f1] for qid, em, f1 in result["eval"].questions},
        {q["question_id"]: [q["em"], q["f1"]]
         for q in _load_json(reference_out / "eval.json").get("questions", [])},
    )
    if result["predictions"] is not None:
        bad |= differing(_load_json(result["preds_path"]), _load_json(reference_out / "preds.json"))
    return bad


def layer_metrics(tracers: list[Tracer], results: list, inputs: Inputs,
                  traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer figures: self times per question (median over traced
    passes), call counts and ratios from the first pass."""
    n = len(inputs.expect)
    per_pass = [t.self_times_ns() for t in tracers]

    def us_per_q(name: str) -> float:
        return statistics.median(times[name] for times in per_pass) / 1e3 / n

    tracer = tracers[0]
    calls = tracer.calls
    answer = sorted(d for t in tracers for d in t.durations_ns("reasoning.answer"))
    align_calls = calls["evaluation:align_spans_f1"]
    parse_calls = calls["derivation:parse_derivation"]
    abstained = unlocatable = 0
    result = results[0]
    if result.get("predictions") is not None:
        notes = [p.trace.note or "" for p in result["predictions"].values()]
        abstained = sum(1 for note in notes if note)
        unlocatable = sum(1 for note in notes if note.startswith("UnlocatableEvidenceError"))
    elif "validate" in result:
        unlocatable = len(result["validate"].unlocatable)
    em = f1 = consistency = 0.0
    if "eval" in result:
        em, f1 = result["eval"].em, result["eval"].f1
    if "validate" in result:
        consistency = 100.0 * result["validate"].consistency_rate

    def percentile(values, q):
        return values[min(len(values) - 1, int(q * len(values)))] / 1e3 if values else 0.0

    align_time = statistics.median(times["evaluation.align"] for times in per_pass)
    return {
        "corpus.load_us_per_q": (us_per_q("corpus.load"), "us/q"),
        "corpus.schema_us_per_q": (us_per_q("corpus.schema"), "us/q"),
        "corpus.units_per_q": (inputs.units / n, "units/q"),
        "numerics.parse_number_calls_per_q": (calls["numerics:parse_number"] / n, "calls/q"),
        "numerics.extract_numbers_calls_per_q": (calls["numerics:extract_numbers"] / n, "calls/q"),
        "derivation.parse_calls_per_q": (parse_calls / n, "calls/q"),
        "derivation.parse_error_ratio": (
            tracer.none_returns["derivation:parse_derivation"] / parse_calls if parse_calls else 0.0,
            "ratio"),
        "evidence.tag_us_per_q": (us_per_q("evidence.tag"), "us/q"),
        "evidence.supervision_us_per_q": (us_per_q("evidence.supervision"), "us/q"),
        "evidence.supervision_calls_per_q": (calls["evidence:build_supervision"] / n, "calls/q"),
        "evidence.context_units_calls_per_q": (calls["evidence:context_units"] / n, "calls/q"),
        "evidence.decode_us_per_q": (us_per_q("evidence.decode"), "us/q"),
        "evidence.candidates_per_q": (tracer.candidates / n, "candidates/q"),
        "evidence.candidate_yield": (
            tracer.candidates / tracer.positive_units if tracer.positive_units else 0.0, "ratio"),
        "evidence.unlocatable_ratio": (unlocatable / n, "ratio"),
        "reasoning.operator_us_per_q": (us_per_q("reasoning.operator"), "us/q"),
        "reasoning.order_us_per_q": (us_per_q("reasoning.order"), "us/q"),
        "reasoning.execute_us_per_q": (us_per_q("reasoning.execute"), "us/q"),
        "reasoning.scale_us_per_q": (us_per_q("reasoning.scale"), "us/q"),
        "reasoning.answer_us_p50": (percentile(answer, 0.5), "us/q"),
        "reasoning.answer_us_p99": (percentile(answer, 0.99), "us/q"),
        "reasoning.abstain_ratio": (abstained / n, "ratio"),
        "evaluation.write_us_per_q": (us_per_q("evaluation.write"), "us/q"),
        "evaluation.read_us_per_q": (us_per_q("evaluation.read"), "us/q"),
        "evaluation.score_us_per_q": (us_per_q("evaluation.score"), "us/q"),
        "evaluation.align_calls_per_q": (align_calls / n, "calls/q"),
        "evaluation.align_us_per_call": (align_time / 1e3 / align_calls if align_calls else 0.0,
                                         "us/call"),
        "evaluation.em_pct": (em, "%"),
        "evaluation.f1_pct": (f1, "%"),
        "validation.check_us_per_q": (us_per_q("validation.check"), "us/q"),
        "validation.consistency_pct": (consistency, "%"),
        "trace_overhead_ratio": (traced_wall / untraced_wall, "ratio"),
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def import_package():
    """Import tatqa_symbolic from this checkout's src/, and nowhere else."""
    if not (SRC / "tatqa_symbolic" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'tatqa_symbolic'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import tatqa_symbolic

    if Path(tatqa_symbolic.__file__).resolve().parent != (SRC / "tatqa_symbolic").resolve():
        raise SystemExit(f"error: imported tatqa_symbolic from {tatqa_symbolic.__file__}")
    return tatqa_symbolic


def parse_swap(items: list[str], config):
    changes = {}
    for item in items:
        key, _, raw = item.partition("=")
        if key not in {f.name for f in dataclasses.fields(config)}:
            raise SystemExit(f"error: --swap: unknown PipelineConfig field {key!r}")
        changes[key] = type(getattr(config, key))(raw)
    return dataclasses.replace(config, **changes)


def check_golden(workload, cli, config, directory: Path, tally: Tally) -> None:
    """Outputs on the pinned-seed corpus against the digests in golden.json."""
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))[workload.name]
    expected = golden["questions"]
    result = golden_digests(workload, cli, config, directory)
    if result is None:
        tally.add(len(expected), len(expected), "golden job exited non-zero")
        return
    questions, summary = result
    bad = differing(questions, expected) | ({"<summary>"} if summary != golden["summary"] else set())
    tally.add(len(expected), len(bad), "golden outputs differ")


def run_jobs(workload, inputs: Inputs, config, work: Path, budget: float, tally: Tally):
    """Untraced jobs until ``budget`` seconds have passed, each checked."""
    n = len(inputs.expect)
    samples: list[JobSample] = []
    reference = None  # (records, summary, output directory) of the first good job
    start = time.perf_counter()
    while len(samples) < MIN_JOBS or time.perf_counter() - start < budget:
        out = work / f"job{len(samples)}"
        sample = run_child(job_argvs(workload, inputs, config, out), out)
        samples.append(sample)
        if not sample.ok:
            tally.add(n, n, f"job {len(samples)} failed ({sample.detail})")
            continue
        records, summary = read_records(workload, out, inputs.expect)
        bad = expectation_failures(workload, records, summary, inputs)
        if reference is None:
            reference = (records, summary, out)
        else:
            bad |= differing(records, reference[0])
            if summary != reference[1]:
                bad.add("<summary>")
            shutil.rmtree(out)
        tally.add(n, len(bad), f"job {len(samples)} contradicts the planted outcome or job 1")
    return samples, reference


def run_traced(workload, package, inputs: Inputs, config, work: Path, budget: float,
               reference_out: Path, tally: Tally):
    """Traced passes until ``budget`` seconds have passed, each checked
    against the untraced job's outputs."""
    from tatqa_symbolic import corpus, evaluation, reasoning, validation

    modules = (corpus, evaluation, reasoning, validation)
    hooks, missing = resolve_hooks(package)
    n = len(inputs.expect)
    if missing:
        tally.add(n, n, f"trace hook targets not found ({', '.join(missing)})")
    tracers, results, walls = [], [], []
    start = time.perf_counter()
    while len(tracers) < 2 or time.perf_counter() - start < budget:
        tracer = Tracer(hooks)
        begin = time.perf_counter()
        results.append(traced_job(workload, modules, inputs, config,
                                  work / f"traced{len(tracers)}", tracer))
        walls.append(time.perf_counter() - begin)
        tracers.append(tracer)
        bad = traced_matches(workload, results[-1], reference_out)
        if tracer.calls != tracers[0].calls:
            bad.add("<call counts>")
        tally.add(n, len(bad), "traced run differs from the untraced job")
    return tracers, results, walls


def _line(name: str, value: float, unit: str, note: str = "") -> str:
    return f"  {name:<38}{value:>14.6g} {unit:<10} {note}".rstrip()


def run(workload: Workload, seed: int, seconds: float, trace: bool, swap: list[str]) -> int:
    package = import_package()
    from tatqa_symbolic import cli, reasoning

    config = reasoning.PipelineConfig(**(workload.config or {}))
    if swap:
        if workload.config is None:
            raise SystemExit("error: --swap applies to the run workloads only")
        config = parse_swap(swap, config)

    work = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    tally = Tally()
    budget = seconds / 2 if trace else seconds
    try:
        check_golden(workload, cli, config, work / "golden", tally)
        inputs = prepare(workload, seed, workload.n_contexts, work / "inputs")
        n = len(inputs.expect)
        samples, reference = run_jobs(workload, inputs, config, work, budget, tally)
        good = [s for s in samples if s.ok] or samples
        metrics = {
            "setup_s": (statistics.median(s.normalised_setup_s() for s in good), "s"),
            "throughput_qps": (statistics.median(s.normalised_qps(n) for s in good), "q/s"),
            "peak_rss_mb": (statistics.median(s.peak_rss_mb for s in good), "MB"),
        }
        lines = [f"workload {workload.name}  seed {seed}  {inputs.n_contexts} contexts  "
                 f"{n} questions  {len(samples)} jobs"]
        lines += [_line(name, value, unit, f"median of {len(good)} jobs")
                  for name, (value, unit) in metrics.items()]
        wall_qps = statistics.median(n / s.wall_s if s.wall_s else 0.0 for s in good)
        lines.append(_line("wall_setup_s", statistics.median(s.setup_s for s in good), "s",
                           "before calibration"))
        lines.append(_line("wall_throughput_qps", wall_qps, "q/s", "before calibration"))
        lines.append(_line("calibration_s", statistics.median(s.probe_s for s in good), "s",
                           f"reference {REFERENCE_PROBE_S}"))
        summary = reference[1] if reference else {}
        if "em" in summary:
            lines += [_line("em", summary["em"], "%"), _line("f1", summary["f1"], "%")]
        if "consistency_rate" in summary:
            lines.append(_line("consistency_pct", 100 * summary["consistency_rate"], "%"))

        if trace and reference is not None:
            tracers, results, walls = run_traced(workload, package, inputs, config, work,
                                                 budget, reference[2], tally)
            traces_dir = WORK / "traces"
            traces_dir.mkdir(parents=True, exist_ok=True)
            tracers[-1].write(traces_dir / f"{workload.name}-seed{seed}.jsonl")
            metrics = layer_metrics(tracers, results, inputs, statistics.median(walls),
                                    statistics.median(s.wall_s for s in good))
            lines.append(f"  per layer, from {len(tracers)} traced passes "
                         f"(spans in {traces_dir.relative_to(ROOT)}):")
            lines += [_line(name, value, unit) for name, (value, unit) in metrics.items()]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines.append(_line("failed_ratio", tally.failed / tally.attempted, "ratio",
                       f"{tally.failed} of {tally.attempted} questions"))
    print("\n".join(lines))
    for problem in tally.problems:
        print(f"  FAIL {problem}")
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--swap", action="append", default=[], metavar="FIELD=VALUE")
    parser.add_argument("--pin", action="store_true", help="rewrite golden.json and exit")
    args = parser.parse_args(argv)
    if args.pin:
        pin()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    return run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.swap)


if __name__ == "__main__":
    sys.exit(main())
