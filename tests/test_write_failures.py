"""A write that fails leaves every file of the run directory whole, and a
rerun finishes the stage: each stage's k-th replaced file, for every k,
raises OSError just before it would replace the old one. A failed
generation-cache append, whole or part-way, costs only its own record."""

import contextlib
import errno
import hashlib
import io
import json
import os
import shutil

import pytest

import sumprobe.corpus
from sumprobe.cli import main

from corpusgen import write_corpus
from httpstub import serve

STAGES = {
    "transform": ["transform", "--max-errors", "100"],
    "generate": ["generate", "--model", "m", "--mock", "echo"],
    "score": ["score"],
    "analyze": ["analyze"],
}


def tree(out):
    return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def run(out, corpus, stage):
    argv = ["--seed", "4", "--out", str(out), *STAGES[stage]]
    if stage == "transform":
        argv += ["--corpus", str(corpus)]
    return main(argv)


@pytest.fixture(scope="module")
def run_dirs(tmp_path_factory):
    """A second corpus, and for each stage: the run directory before it,
    after a full pipeline on a first corpus and the earlier stages on the
    second, the tree that the stage then leaves, and the number of files
    it replaced."""
    tmp = tmp_path_factory.mktemp("writes")
    first, second = tmp / "first.jsonl", tmp / "second.jsonl"
    write_corpus(first, 6, seed=8, unlexable_every=3)
    write_corpus(second, 8, seed=9, unlexable_every=4)
    out = tmp / "out"
    replaced = []
    real = sumprobe.corpus._replacing

    def counting(path, what="file"):
        replaced.append(path)
        return real(path, what)

    dirs = {}
    with contextlib.redirect_stdout(io.StringIO()), pytest.MonkeyPatch.context() as mp:
        for stage in STAGES:
            assert run(out, first, stage) == 0
        mp.setattr(sumprobe.corpus, "_replacing", counting)
        for stage in STAGES:
            before = tmp / f"before_{stage}"
            shutil.copytree(out, before)
            replaced.clear()
            assert run(out, second, stage) == 0
            dirs[stage] = (before, tree(out), len(replaced))
    return second, dirs


@pytest.mark.parametrize("stage", STAGES)
def test_each_failed_write_leaves_whole_files_and_a_rerun_finishes(
        tmp_path, monkeypatch, capsys, run_dirs, stage):
    corpus, dirs = run_dirs
    before, after, count = dirs[stage]
    old = tree(before)
    assert count >= 2 and after != old
    real = sumprobe.corpus._replacing
    for k in range(1, count + 1):
        out = tmp_path / f"out{k}"
        shutil.copytree(before, out)
        calls = 0

        @contextlib.contextmanager
        def failing(path, what="file"):
            nonlocal calls
            calls += 1
            with real(path, what) as fh:
                yield fh
                if calls == k:
                    raise OSError(errno.ENOSPC, "No space left on device")

        capsys.readouterr()
        with monkeypatch.context() as mp:
            mp.setattr(sumprobe.corpus, "_replacing", failing)
            assert run(out, corpus, stage) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot write "), err
        assert "No space left on device" in err[0]
        # a file is missing (None) only where the run before or after lacks it
        now = tree(out)
        for name in now.keys() | old.keys() | after.keys():
            assert now.get(name) in (old.get(name), after.get(name)), (k, name)
        assert not list(out.rglob("*.tmp"))

        with contextlib.redirect_stdout(io.StringIO()):
            assert run(out, corpus, stage) == 0
        assert tree(out) == after, k


def cache_entries(out):
    """Each usable cache entry without its `latency`, which times the call
    that made it and so differs from run to run, as the cache reads its
    log: the last line of a key wins, and one that is not JSON is a miss."""
    entries = {}
    for line in (out / "cache" / "entries.log").read_bytes().split(b"\n"):
        key, _, text = line.partition(b"\t")
        try:
            entries[key.decode()] = json.loads(text)
        except ValueError:
            entries[key.decode()] = None
    for entry in entries.values():
        if entry is not None:
            del entry["latency"]
    return {key: entry for key, entry in entries.items() if entry is not None}


def write_nothing(write, fd, line):
    raise OSError(errno.ENOSPC, "No space left on device")


def write_part(write, fd, line):
    write(fd, line[:len(line) // 2])
    raise OSError(errno.ENOSPC, "No space left on device")


def write_short(write, fd, line):
    return write(fd, line[:len(line) // 2])


def check_each_failed_cache_append(tmp_path, monkeypatch, fail, message):
    """A chat generate at --jobs 2 whose k-th cache append is `fail(write,
    fd, line)` in place of `os.write`, for every k: that record is one error
    row that says `message`, no temporary file is left, every entry is
    absent or whole, and a rerun writes what an uninterrupted run does."""
    corpus, base = tmp_path / "corpus.jsonl", tmp_path / "base"
    write_corpus(corpus, 4, seed=5)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--seed", "4", "--out", str(base), "transform", "--corpus", str(corpus)]) == 0
    real = os.write

    def script(body, hit):
        prompt = body["messages"][0]["content"]
        summary = hashlib.sha256(prompt.encode("utf-8")).hexdigest()[:12]
        return 200, {"choices": [{"message": {"content": f"Summary {summary}."}}]}

    with serve(script) as (url, hits), contextlib.redirect_stdout(io.StringIO()):
        def generate(out):
            argv = ["--seed", "4", "--out", str(out), "--jobs", "2",
                    "generate", "--model", "m", "--endpoint", url]
            return main(argv)

        whole = tmp_path / "whole"
        shutil.copytree(base, whole)
        assert generate(whole) == 0
        runs = (whole / "runs.jsonl").read_text(encoding="utf-8").splitlines()
        entries = cache_entries(whole)
        # Every request has its own prompt, so each cache write is one record's.
        assert len(hits) == len(runs) == len(entries) >= 2
        assert (whole / "errors_generate.jsonl").read_bytes() == b""

        for k in range(1, len(entries) + 1):
            out = tmp_path / f"out{k}"
            shutil.copytree(base, out)
            log = out / "cache" / "entries.log"
            appends = 0

            def failing(fd, data):
                nonlocal appends
                if log.exists() and os.path.samestat(os.fstat(fd), os.stat(log)):
                    appends += 1
                    if appends == k:
                        return fail(real, fd, data)
                return real(fd, data)

            with monkeypatch.context() as mp:
                mp.setattr(os, "write", failing)
                assert generate(out) == 0
            (error,) = sumprobe.corpus.read_jsonl(out / "errors_generate.jsonl")
            assert error["error"].startswith("cannot write ") and message in error["error"]
            assert not list(out.rglob("*.tmp"))
            now = cache_entries(out)
            assert len(now) == len(entries) - 1
            assert all(entries[key] == entry for key, entry in now.items())
            kept = (out / "runs.jsonl").read_text(encoding="utf-8").splitlines()
            (lost,) = [line for line in runs if line not in kept]
            assert len(kept) == len(runs) - 1
            lost = json.loads(lost)
            assert error["where"] == f"{lost['example_id']}/{lost['variant']}"

            sent = len(hits)
            assert generate(out) == 0
            assert len(hits) == sent + 1  # the other records come from the cache
            assert (out / "runs.jsonl").read_bytes() == (whole / "runs.jsonl").read_bytes()
            assert (out / "errors_generate.jsonl").read_bytes() == b""
            assert cache_entries(out) == entries


def test_each_failed_cache_write_costs_only_its_record(tmp_path, monkeypatch):
    check_each_failed_cache_append(tmp_path, monkeypatch, write_nothing, "No space")


@pytest.mark.parametrize("fail,message", [
    pytest.param(write_part, "No space", id="raises"),
    pytest.param(write_short, "wrote ", id="returns-short"),
])
def test_a_cache_append_cut_part_way_costs_only_its_record(tmp_path, monkeypatch, fail, message):
    """An append that writes part of its line leaves a torn line, which the
    next append does not run into: it starts a line of its own."""
    check_each_failed_cache_append(tmp_path, monkeypatch, fail, message)
