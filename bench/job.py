"""One CLI invocation, as a user runs it, in a fresh interpreter.

Usage: python3 bench/job.py '<JSON list of argv lists>'

Imports ``tatqa_symbolic.cli`` and builds its parser, prints ``ready``
(the parent times set-up up to that line), then runs each argv list
through ``cli.main`` in this process and prints one JSON line: the job's
wall time, the exit codes, the peak resident memory and the calibration
time.  The command's own console output is discarded.
"""

import contextlib
import gc
import json
import os
import re
import resource
import sys
import time
import traceback
from fractions import Fraction

_PROBE_TEXT = " ".join(
    "revenue cost of sales gross profit 1,234 (5,678) 12.5% million thousand the "
    "company reported higher demand in fiscal 2019 compared with 2018".split() * 4
)
_PROBE_NUMBER = re.compile(r"\d{1,3}(?:,\d{3})+|\d+(?:\.\d+)?")


class _ProbeUnit:
    __slots__ = ("text", "origin", "probability")

    def __init__(self, text, origin, probability):
        self.text, self.origin, self.probability = text, origin, probability


def calibrate(rounds: int = 500) -> float:
    """Seconds taken by fixed pure-Python work of the kind the pipeline
    does: small objects, dicts, regex scans, exact fractions and JSON.

    It reads the machine's speed at the time of the job, so that the
    parent can take host-speed drift out of throughput.  None of it
    depends on the program under test.  The collector is off, so heap
    size does not count.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    total, seen = Fraction(0), {}
    for r in range(rounds):
        units = [_ProbeUnit(w, (r, i), (i % 7) / 7) for i, w in enumerate(_PROBE_TEXT.split())]
        for unit in units:
            seen[unit.text] = seen.get(unit.text, 0) + 1
        for match in _PROBE_NUMBER.finditer(_PROBE_TEXT):
            total += Fraction(match.group().replace(",", ""))
        json.loads(json.dumps({"units": [unit.text for unit in units[:40]]}))
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


def main() -> None:
    argvs = json.loads(sys.argv[1])
    from tatqa_symbolic import cli

    cli.build_parser()
    print("ready", flush=True)
    before = calibrate()
    codes = []
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        for argv in argvs:
            try:
                codes.append(cli.main(argv))
            except Exception:  # reported to the parent, which fails the job
                traceback.print_exc()
                codes.append("exception")
                break
        wall = time.perf_counter() - start
    probe = (before + calibrate()) / 2
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"wall_s": wall, "codes": codes, "peak_rss_kb": peak_kb, "probe_s": probe}),
          flush=True)


if __name__ == "__main__":
    main()
