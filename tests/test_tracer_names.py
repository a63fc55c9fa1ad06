"""The benchmark's tracer wraps program functions by name; a rename or a
deletion would break `perfbench/run.py --trace 1` without failing any other
test, since pytest does not collect `perfbench/selftest.py`."""

import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

from sumprobe.cli import main
from sumprobe.corpus import load_run

from corpusgen import write_corpus

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    # by path: perfbench is not a package, and tracer.py imports only the
    # standard library
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracer = load_tracer()
    assert tracer.FUNCTIONS and tracer.METHODS
    for span, module_name, attr in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), span
    for span, module_name, cls_name, attr in tracer.METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        assert attr in cls.__dict__, span


def test_score_runs_the_traced_kernels(tmp_path):
    """Score's BLEU, BERTScore and re-pairing go through the names the
    tracer wraps, so their per-layer metrics cannot read 0; BERTScore
    stacks pairs, so it makes fewer calls than it scores pairs."""
    tracer_module = load_tracer()
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, 20, seed=11)
    out = tmp_path / "out"
    common = ["--seed", "4", "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(common + ["transform", "--corpus", str(corpus)]) == 0
        assert main(common + ["generate", "--model", "m", "--mock", "echo"]) == 0
        records = load_run(out / "runs.jsonl")
        with tracer_module.Tracer() as tracer:
            assert main(common + ["score"]) == 0
    calls = tracer_module.aggregate(tracer.spans())
    originals = sum(1 for rec in records if rec.variant == "original")
    # each record with a generation, and three re-pairings of the originals
    bertscore_pairs = sum(1 for rec in records if rec.generated) + 3 * originals
    assert calls["cli.cmd_score.calls"] == 1
    assert calls["metrics.bleu4.calls"] == len(records) + 3 * originals
    assert calls["analysis.paired_vs_random.calls"] > 0
    assert 0 < calls["metrics.bertscore.calls"] < bertscore_pairs
