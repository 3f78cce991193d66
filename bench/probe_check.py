"""Check that a large heap does not move the calibration probe.

    python3 bench/probe_check.py

Each job times ``job.calibrate()`` before its work and again after it, in
the same interpreter (bench/job.py).  By the after-probe, the program may
have left a large heap behind, and a slower probe would raise the
calibrated throughput.  This script times the probe in one interpreter
with and without such a heap: in each round it times the probe, builds
about 160 MB of small objects (dicts, strings, lists and fractions, as a
loaded corpus has), times the probe while they are alive, frees them and
times the probe again.  The heap's effect is the middle time over the
mean of the two outer ones, which also cancels drift that is linear
within a round.  It prints the median ratio over the rounds and their
quartiles.
"""

import gc
import statistics
from fractions import Fraction

from job import calibrate

ROUNDS = 30
HEAP_OBJECTS = 300_000


def build_heap() -> list:
    return [
        {"text": f"line item {i}", "value": Fraction(i, 7), "cells": [str(i), f"({i:,})", "", "%"]}
        for i in range(HEAP_OBJECTS)
    ]


def main() -> None:
    calibrate()  # warm up
    ratios = []
    for _ in range(ROUNDS):
        without_before = calibrate()
        heap = build_heap()
        with_heap = calibrate()
        del heap
        gc.collect()
        without_after = calibrate()
        ratios.append(with_heap / ((without_before + without_after) / 2))
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    print(f"probe time with a ~160 MB heap / without, over {ROUNDS} rounds: "
          f"median {median:.4f}, quartiles {q1:.4f} to {q3:.4f}")


if __name__ == "__main__":
    main()
