"""Each stage runs with the cyclic GC off, and makes no reference cycle per
record: the collector would only rescan the records a stage holds."""

import contextlib
import gc
import io

import pytest

import sumprobe.cli
from sumprobe.cli import main

from corpusgen import write_corpus


@contextlib.contextmanager
def gc_state(enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_gc_as_it_found_it(tmp_path, monkeypatch, enabled):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, 5, seed=2)
    common = ["--seed", "1", "--out", str(tmp_path / "out")]
    seen = []

    def failing_score(config):
        seen.append(gc.isenabled())
        raise RuntimeError("stage failed")

    monkeypatch.setattr(sumprobe.cli, "cmd_score", failing_score)
    with gc_state(enabled):
        assert main(common + ["generate", "--model", "m", "--mock", "echo"]) == 2
        assert gc.isenabled() is enabled
        assert main(common + ["transform", "--corpus", str(corpus)]) == 0
        assert gc.isenabled() is enabled
        with pytest.raises(RuntimeError, match="stage failed"):
            main(common + ["score"])
        assert gc.isenabled() is enabled
    assert seen == [False]


def unreachable_after_each_stage(tmp_path, examples):
    corpus, out = tmp_path / f"corpus{examples}.jsonl", tmp_path / f"out{examples}"
    write_corpus(corpus, examples, seed=3)
    found = []
    for stage in (["transform", "--corpus", str(corpus)],
                  ["generate", "--model", "m", "--mock", "echo"], ["score"], ["analyze"]):
        gc.collect()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["--seed", "1", "--out", str(out), *stage]) == 0
        found.append(gc.collect())
    return found


def test_no_stage_leaves_a_cycle_per_record(tmp_path):
    unreachable_after_each_stage(tmp_path, 5)  # first-use caches and imports
    small = unreachable_after_each_stage(tmp_path, 20)
    assert small == unreachable_after_each_stage(tmp_path, 80)
