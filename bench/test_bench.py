"""Checks of the benchmark itself.

    python3 -m pytest bench/test_bench.py

The suite under tests/ does not collect this file; each test here runs
the benchmark or its generator, which takes tens of seconds.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402


def run_bench(*extra: str):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "oracle-dense",
         "--seed", "7", "--seconds", "1", "--trace", "0", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def test_seed_code_passes():
    proc, result = run_bench()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] and result["failed"] == 0


def test_swapped_operator_is_reported_as_failures():
    # the keyword operator replaces the oracle through PipelineConfig; no
    # source is patched, so only the benchmark's checks can notice
    proc, result = run_bench("--swap", "operator=keyword")
    assert proc.returncode != 0
    assert not result["correct"]
    assert result["failed"] > 0
    assert "FAIL" in proc.stdout


@pytest.mark.parametrize("seed", [0, 11])
def test_generator_is_deterministic_and_loads_strictly(tmp_path, seed):
    from tatqa_symbolic import load_dataset

    corpora = {
        "dense": lambda: gen.dense_corpus(seed, 30)[0],
        "sparse": lambda: gen.sparse_corpus(seed, 60)[0],
        "multispan": lambda: gen.multispan_corpus(seed, 10)[0],
    }
    for name, make in corpora.items():
        text = gen.dumps(make())
        assert text == gen.dumps(make()), name
        path = tmp_path / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        assert load_dataset(path, strict=True)
