"""Compare a generated dense corpus with the published TAT-QA statistics.

    python3 bench/conformance.py [--seed N]

Loads the corpus of the oracle-dense and lexical-dense workloads, at the
size those workloads run, with
``load_dataset(strict=True)`` and prints its ``split_stats``,
``operator_distribution`` and ``scale_distribution`` next to the dev-split
figures in ``tatqa_symbolic.reference``, with the deltas.
"""

import argparse
import sys
import tempfile
from pathlib import Path

import gen
from run import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    from tatqa_symbolic import (
        load_dataset, operator_distribution, reference, scale_distribution, split_stats,
    )

    docs, _ = gen.dense_corpus(args.seed, WORKLOADS["oracle-dense"].n_contexts)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dense.json"
        path.write_text(gen.dumps(docs), encoding="utf-8")
        dataset = load_dataset(path, strict=True)

    def show(title, rows):
        print(f"== {title} ==")
        for label, value, published in rows:
            print(f"  {label:<28}{value:>10.2f}   dev {published:>8.1f}   delta {value - published:+.2f}")

    stats = split_stats(dataset)
    published = reference.SPLIT_STATS["dev"]
    show("corpus shape", [(nice, getattr(stats, attr), published[attr])
                          for attr, nice in stats.ROW_LABELS if attr.startswith("avg")])
    print(f"  ({stats.n_contexts} contexts, {stats.n_questions} questions, "
          f"{stats.n_questions / stats.n_contexts:.2f} per context)")
    operators = operator_distribution(dataset)
    show("gold operator distribution (%)", [
        (op, share, reference.OPERATOR_PROPORTIONS["dev"][op]) for op, share in operators.items()
    ])
    scales = scale_distribution(dataset)
    show("gold scale distribution (%)", [
        (scale.label, share, reference.SCALE_PROPORTIONS["dev"][scale]) for scale, share in scales.items()
    ])


if __name__ == "__main__":
    main()
