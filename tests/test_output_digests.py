"""The bytes of the files a user keeps, pinned by their sha256.

``run`` writes a predictions file and a trace file, and ``eval --out``
a report; each is digested as written, not as decoded JSON, so a change
of spacing, key order or number form fails here as surely as a changed
answer.  Both configs run with one worker on the fixture corpus and on
the seed-7 dense corpus of ``bench/gen.py``.  The outputs that need no
config, ``export-supervision``'s labels, ``validate --out`` and what
``stats`` prints, are pinned on the same two corpora.  A change that
means to keep every output as it is leaves these digests alone; one that
means to move an output updates its digest and says why.
"""

import contextlib
import hashlib
import io

import pytest

from conftest import bench_module
from tatqa_symbolic.cli import main

CONFIGS = {
    "oracle": (),
    "lexical": ("--tagger", "lexical", "--operator", "keyword", "--order", "positional",
                "--scale", "heuristic", "--threshold", "0.05"),
}

# (corpus, config) -> sha256 of the predictions, the traces and the eval report
DIGESTS = {
    ("fixture", "oracle"): (
        "c9c4e028d3a37a9fbe8f0dfaade8672f51c07edc63f94c090f9a2dba9208be39",
        "fd54617bab23e30db9ad65f6352f5d1a9a3bf54a8664db5ff07db2ef767e2d30",
        "2c8bc48b3f8dd2d0f7424993325a255f2b7b495e652a1ba2091fbfe45c9e01cb",
    ),
    ("fixture", "lexical"): (
        "bac7ef684eebedd9c1181e73aaf26f605775d3c7563568d71f0d8c9e391a85d0",
        "dca60bbeb77864db76d21ef2076cfea3092074c924ce715d1d5bf9c2aea1856b",
        "a2abd0f33351e86ec90e803576c8316e5be3147fa1916298f4fa99c395d4e505",
    ),
    ("dense-7", "oracle"): (
        "598d47a7abd11c6d5a31b0c5c23010d242161ff4bf72da609ba75278a2763246",
        "6bd75062e6795114280dc56a1811efb8d732cdcfc38012b7da5981986dc8a177",
        "e788c8d8159dca65e58278ef7661271d6810a51fadc489a7216f90bb98d9da55",
    ),
    ("dense-7", "lexical"): (
        "825965a7b279709c1ebaa9114d9f389cbb73a3d069c6947e54362563884019b3",
        "041eb4a8582f04383c54effded1e811a9550b395a515b6740bf989c69a31071b",
        "05380ca4e72ff7f0c235b0ab64f29b38db8c4156fb303934b235051de214af83",
    ),
}


@pytest.fixture(scope="module")
def corpora(corpus_path, tmp_path_factory):
    gen = bench_module("gen")
    dense = tmp_path_factory.mktemp("digests") / "dense-7.json"
    dense.write_text(gen.dumps(gen.dense_corpus(7, 130)[0]), encoding="utf-8")
    return {"fixture": corpus_path, "dense-7": dense}


def output_digests(dataset, config: str, directory) -> tuple[str, str, str]:
    """sha256 of ``run``'s predictions and traces and of ``eval --out``."""
    preds, traces, report = (directory / name for name in ("p.json", "t.jsonl", "e.json"))
    run = ("run", "--dataset", dataset, "--out", preds, "--traces", traces, "--workers", 1)
    assert main([str(arg) for arg in (*run, *CONFIGS[config])]) == 0
    score = ("eval", "--dataset", dataset, "--pred", preds, "--out", report)
    assert main([str(arg) for arg in score]) == 0
    return tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in (preds, traces, report))


@pytest.mark.parametrize("key", sorted(DIGESTS), ids="-".join)
def test_outputs_match_their_digests(corpora, key, tmp_path, capsys):
    corpus, config = key
    assert output_digests(corpora[corpus], config, tmp_path) == DIGESTS[key]


# corpus -> sha256 of the supervision labels, the validate report and stats' stdout
CONFIGLESS_DIGESTS = {
    "fixture": (
        "325d33444dfaa01b99afedeaf0c34d43f88a82f2dafddeebde5d0e3fa7845da3",
        "80edd44ae0ef3a642758990a42492df2058a1ecdd2103c0c7298569bfa1efb9b",
        "8c0862d3a58627f22d4435a2b4107eac8ad14617869a48ee6a8dd3c4aca9c3a9",
    ),
    "dense-7": (
        "42f9343c052ed54cb399209d50fb65f743203b63f95ca8a804856eea9aa1bfc4",
        "1e0d5065bc22d4fa6f1e83bd97a5a5a8cf6b5be5c207db72841c1f614b8d6d07",
        "f552cb7a51d783d3da6cbb139afeee07048bd4290af886f6f6dbdc01f3fa6fa9",
    ),
}


def configless_digests(dataset, directory) -> tuple[str, str, str]:
    """sha256 of ``export-supervision``'s file, of ``validate --out`` and of
    ``stats``' stdout, which names the corpus by its file's stem."""
    labels, report = directory / "s.jsonl", directory / "v.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["export-supervision", "--dataset", str(dataset), "--out", str(labels)]) == 0
        assert main(["validate", "--dataset", str(dataset), "--out", str(report)]) == 0
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert main(["stats", "--dataset", str(dataset)]) == 0
    return (*(hashlib.sha256(path.read_bytes()).hexdigest() for path in (labels, report)),
            hashlib.sha256(printed.getvalue().encode("utf-8")).hexdigest())


@pytest.mark.parametrize("corpus", sorted(CONFIGLESS_DIGESTS))
def test_configless_outputs_match_their_digests(corpora, corpus, tmp_path):
    assert configless_digests(corpora[corpus], tmp_path) == CONFIGLESS_DIGESTS[corpus]
