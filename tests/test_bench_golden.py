"""The benchmark's golden check, run in-process.

``bench/run.py`` compares every workload's outputs on a pinned-seed
corpus with the digests in ``bench/golden.json`` before it times
anything, and a digest that moves fails the benchmark.  Running the same
check here makes such a drift (a changed prediction, trace field or
report key) fail the test suite first.  Outputs go under ``tmp_path``.
"""

import sys

from conftest import bench_module
from tatqa_symbolic import cli
from tatqa_symbolic.reasoning import PipelineConfig


def test_every_workload_matches_its_golden_digests(tmp_path):
    path, modules = list(sys.path), set(sys.modules)
    run = bench_module("run")
    assert (list(sys.path), set(sys.modules)) == (path, modules)

    tally = run.Tally()
    for workload in run.WORKLOADS.values():
        config = PipelineConfig(**(workload.config or {}))
        run.check_golden(workload, cli, config, tmp_path / workload.name, tally)
    assert tally.problems == []
    assert tally.failed == 0 and tally.attempted > 0
