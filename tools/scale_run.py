#!/usr/bin/env python3
"""Run the whole pipeline in-process on a seeded `tests/corpusgen.py` corpus
and print each stage's time and peak RSS, and the SHA-256 of every output
file that a run reproduces byte for byte.

The stages are `transform`, `generate` with the echo mock, `score` with the
fallback tokenizer and the hashed one-hot embeddings, and `analyze`, all
with `--jobs 1`. With `--models K`, generate runs K times, once per echo
model: the first is `echo`, so a K=1 run is the default one, and the later
ones are `echo-2` ... `echo-K`, each timed on its own. The corpus and the
pipeline share one seed. Each stage starts after a `gc.collect()`. Its
peak RSS is the process's peak so far (`ru_maxrss`), so a stage that needs
less than an earlier one shows that earlier peak. Two checkouts that print the same digests for the same
arguments wrote the same bytes.

The digests cover every file under `variants/` and `report/`, plus
`rejects.jsonl`, `runs.jsonl` and `pairings.jsonl`. `tests/golden_scale.json`
holds those of two 1,000-example runs, a clean corpus and one with an
unlexable snippet on every seventh line (`run(..., unlexable_every=7)`),
and a test checks them.

Usage: python tools/scale_run.py [--examples N] [--seed S] [--models K] [--out DIR]
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import resource
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from corpusgen import write_corpus  # noqa: E402
from sumprobe.cli import main  # noqa: E402

DIGESTED_FILES = ("rejects.jsonl", "runs.jsonl", "pairings.jsonl")
DIGESTED_DIRS = ("variants", "report")


def digests(out: Path) -> dict[str, str]:
    """Run-directory path -> SHA-256 of each digested file, sorted by path."""
    paths = [out / name for name in DIGESTED_FILES]
    for name in DIGESTED_DIRS:
        paths.extend(p for p in (out / name).rglob("*") if p.is_file())
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(paths)}


def run(
    examples: int, seed: int, out: Path, unlexable_every: int = 0, models: int = 1
) -> tuple[dict[str, dict[str, float]], dict[str, str]]:
    """Run every stage into `out`; returns (stage -> seconds and peak RSS
    in MiB, the digests). `unlexable_every` > 0 puts an unlexable snippet
    on every such line of the corpus, which transform rejects. `models` > 1
    adds the stages `generate echo-2` ... `generate echo-K` after
    `generate`. A stage that does not exit 0 raises."""
    out.mkdir(parents=True, exist_ok=True)
    corpus = out / "corpus.jsonl"
    write_corpus(corpus, examples, seed=seed, unlexable_every=unlexable_every)
    common = ["--seed", str(seed), "--out", str(out), "--jobs", "1"]
    stage_argv = {
        "transform": ["transform", "--corpus", str(corpus)],
        "generate": ["generate", "--model", "echo", "--mock", "echo"],
        **{f"generate echo-{k}": ["generate", "--model", f"echo-{k}", "--mock", "echo"]
           for k in range(2, models + 1)},
        "score": ["score"],
        "analyze": ["analyze"],
    }
    stages: dict[str, dict[str, float]] = {}
    for name, argv in stage_argv.items():
        gc.collect()
        printed = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(printed):
            code = main(common + argv)
        seconds = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"{name} exited {code}: {printed.getvalue()}")
        # ru_maxrss is in KiB on Linux
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        stages[name] = {"s": seconds, "peak_rss_mb": peak}
    return stages, digests(out)


def main_cli(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--examples", type=int, default=15_000, help="corpus size (15000)")
    parser.add_argument("--seed", type=int, default=3, help="corpus and pipeline seed (3)")
    parser.add_argument("--models", type=int, default=1,
                        help="echo models to generate, each timed (1)")
    parser.add_argument("--out", type=Path,
                        help="run directory, kept afterwards (default: a temporary one)")
    args = parser.parse_args(argv)
    with contextlib.ExitStack() as stack:
        out = args.out or Path(stack.enter_context(tempfile.TemporaryDirectory()))
        stages, hashes = run(args.examples, args.seed, out, models=args.models)
    print(f"{args.examples} examples, seed {args.seed}, {args.models} echo model(s)")
    for name, figures in stages.items():
        print(f"{name:18} {figures['s']:8.3f} s  peak RSS {figures['peak_rss_mb']:7.1f} MiB")
    for path, digest in hashes.items():
        print(f"{digest}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main_cli())
