"""The benchmark's tracer wraps program functions by name; a rename or a
deletion would break `perfbench/run.py --trace 1` without failing any other
test, since pytest does not collect `perfbench/selftest.py`."""

import contextlib
import importlib
import importlib.util
import io
import json
import random
from pathlib import Path

from sumprobe.analysis import derangement
from sumprobe.cli import main
from sumprobe.corpus import load_corpus, load_run, screen_example

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
    references = {
        (path.stem, ex.id): ex.reference
        for path in (out / "variants").iterdir()
        for ex in load_corpus(path)[0]
    }
    # (candidate, reference) of each record and of the three re-pairings of
    # the originals, which share one derangement
    record_pairs = [(rec.generated, references[(rec.variant, rec.example_id)])
                    for rec in records]
    originals = [rec for rec in records if rec.variant == "original"]
    refs = [references[("original", rec.example_id)] for rec in originals]
    gens = [rec.generated for rec in originals]
    perm = derangement(len(refs), random.Random(4))
    repaired = [(side[perm[i]], other[i])
                for side, other in ((gens, refs), (refs, refs), (gens, gens))
                for i in range(len(refs))]
    bertscore_pairs = sum(1 for rec in records if rec.generated) + len(repaired)
    assert calls["cli.cmd_score.calls"] == 1
    # each distinct text pair is scored once
    assert calls["metrics.bleu4.calls"] == len(set(record_pairs + repaired))
    assert calls["analysis.paired_vs_random.calls"] > 0
    assert 0 < calls["metrics.bertscore.calls"] < bertscore_pairs


def test_score_runs_the_traced_copy_rate_and_attribution(tmp_path):
    """Score's copy rate and copy attribution go through the names the
    tracer wraps: one `p_copy` per description with subwords and one
    `attribute_copies` per scored record, as the run file shows."""
    tracer_module = load_tracer()
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, 20, seed=11)
    out = tmp_path / "out"
    common = ["--seed", "4", "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(common + ["transform", "--corpus", str(corpus)]) == 0
        assert main(common + ["generate", "--model", "m", "--mock", "echo"]) == 0
        runs = out / "runs.jsonl"
        rows = [json.loads(line) for line in runs.read_text().splitlines()]
        for row in rows[::4]:
            row["generated"] = ""  # no generated copy rate
        runs.write_text("".join(json.dumps(row) + "\n" for row in rows))
        with tracer_module.Tracer() as tracer:
            assert main(common + ["score"]) == 0
    calls = tracer_module.aggregate(tracer.spans())
    records = load_run(runs)
    assert all(rec.metrics is not None for rec in records)
    with_generation = [rec for rec in records if rec.metrics.p_copy_generated_total is not None]
    assert 0 < len(with_generation) < len(records)
    assert calls["analysis.attribute_copies.calls"] == len(records)
    assert calls["metrics.p_copy.calls"] == len(records) + len(with_generation)


def test_analyze_runs_the_traced_report_layers(tmp_path):
    """One analyze is one `emit_report`, which buckets each (model,
    variant) group once and draws each SVG of the report with one
    `grouped_bars` call."""
    tracer_module = load_tracer()
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, 20, seed=11)
    out = tmp_path / "out"
    common = ["--seed", "4", "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(common + ["transform", "--corpus", str(corpus)]) == 0
        for model in ("m", "n"):
            assert main(common + ["generate", "--model", model, "--mock", "echo"]) == 0
        assert main(common + ["score"]) == 0
        with tracer_module.Tracer() as tracer:
            assert main(common + ["analyze"]) == 0
    calls = tracer_module.aggregate(tracer.spans())
    groups = {(rec.model_id, rec.variant) for rec in load_run(out / "runs.jsonl")}
    svgs = list((out / "report").glob("*.svg"))
    assert len(groups) == 10 and len(svgs) == 2 * len(groups) + 4
    assert calls["analysis.emit_report.calls"] == 1
    assert calls["analysis.bucketize.calls"] == len(groups)
    assert calls["svgplot.grouped_bars.calls"] == len(svgs)


def test_transform_screens_and_scans_inside_one_traced_filter(tmp_path):
    """Transform screens its corpus with the one `filter_corpus`, which
    scans each snippet that passes `screen_example`: one traced call, the
    parent of every `lexemes` scan, so `corpus.filter_corpus.s` cannot
    read 0 on a transform."""
    tracer_module = load_tracer()
    tracer_module.FUNCTIONS.append(("pylex.lexemes", "sumprobe.pylex", "lexemes"))
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, 40, seed=11, unlexable_every=9)
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        with tracer_module.Tracer() as tracer:
            assert main(["--seed", "4", "--out", str(out), "transform",
                         "--corpus", str(corpus)]) == 0
    spans = tracer.spans()
    (filter_id,) = [s[0] for s in spans if s[3] == "corpus.filter_corpus"]
    scans = [s for s in spans if s[3] == "pylex.lexemes"]
    screened = [ex for ex in load_corpus(corpus)[0] if screen_example(ex) is None]
    assert len(scans) == len(screened) == 40
    assert all(parent == filter_id for _, parent, *_ in scans)
