"""Stage-and-layer benchmark for the sumprobe pipeline.

    python3 perfbench/run.py --workload echo-corpus --seed 1 --seconds 40 --trace 0

Runs the pipeline in-process through `sumprobe.cli.main` on corpora made by
`tests/corpusgen.py`, checks every output with `checks.py`, and prints one
JSON object as its last line of output: `correct`, `attempted` and `failed`
operations (an operation is one example x variant record going through a
round's stages) and `metrics`. With `--trace 0` the metrics are the
end-to-end ones; with `--trace 1` they are the per-layer ones, from a
traced round run after an untraced one. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

START = time.perf_counter()  # a run's --seconds budget counts from here

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

import corpusgen  # noqa: E402  (tests/corpusgen.py)
from sumprobe import cli  # noqa: E402

import bpe  # noqa: E402
import checks  # noqa: E402
from tracer import Tracer, aggregate  # noqa: E402

WORK = ROOT / ".perfbench_work"
SETUP_REPS = 5
RESERVE_S = 2.0  # the checks and the clean-up after the last round

ECHO_EXAMPLES = 500
ECHO_SEED = 3  # corpus and transform seed of echo-corpus; see README
HTTP_EXAMPLES = 50
HTTP_FAIL_EVERY = 100  # one distinct prompt in this many gets a first-attempt 503
BPE_EXAMPLES = 300
WARMUP_SHARE = 10  # set-up warms up on the first 1/WARMUP_SHARE of the corpus
BPE_MERGES = 1000

STAGE_METRICS = {
    "transform": "transform_s",
    "generate_cold": "generate_cold_s",
    "generate_warm": "generate_warm_s",
    "score": "score_s",
    "analyze": "analyze_s",
}

# (name, unit, better) of every per-layer metric, as in BENCHMARK.json.
PER_LAYER = [
    ("cli.cmd_transform.self_s", "s", "lower"),
    ("cli.cmd_generate.self_s", "s", "lower"),
    ("cli.cmd_score.self_s", "s", "lower"),
    ("cli.cmd_analyze.self_s", "s", "lower"),
    ("corpus.load_corpus.calls", "count", "lower"),
    ("corpus.load_corpus.s", "s", "lower"),
    ("corpus.filter_corpus.s", "s", "lower"),
    ("corpus.save_run.s", "s", "lower"),
    ("corpus.load_run.s", "s", "lower"),
    ("corpus.runs_jsonl_bytes", "bytes", "lower"),
    ("pylex.lex.calls", "count", "lower"),
    ("pylex.lex.s", "s", "lower"),
    ("pylex.lex.calls_per_example", "count/example", "lower"),
    ("pylex.classify_roles.calls", "count", "lower"),
    ("pylex.classify_roles.s", "s", "lower"),
    ("transform.donor_assignment.s", "s", "lower"),
    *[(f"transform.apply_variant.{v}.s", "s", "lower") for v in checks.VARIANTS],
    ("llmgen.generate.calls", "count", "lower"),
    ("llmgen.generate.s", "s", "lower"),
    ("llmgen.cache.get.s", "s", "lower"),
    ("llmgen.cache.hits", "count", "higher"),
    ("llmgen.cache.misses", "count", "lower"),
    ("llmgen.cache.put.calls", "count", "lower"),
    ("llmgen.cache.put.s", "s", "lower"),
    ("llmgen.cache.entries", "count", "lower"),
    ("llmgen.cache.bytes", "bytes", "lower"),
    ("llmgen.complete.calls", "count", "lower"),
    ("llmgen.complete.s", "s", "lower"),
    ("stub.chat.requests", "count", "lower"),
    ("stub.chat.retried", "count", "lower"),
    ("stub.chat.max_in_flight", "count", "higher"),
    ("subtok.tokenize.calls", "count", "lower"),
    ("subtok.tokenize.s", "s", "lower"),
    ("subtok.encode.s", "s", "lower"),
    ("subtok.code_subwords.calls", "count", "lower"),
    ("subtok.code_subwords.s", "s", "lower"),
    ("metrics.bleu4.calls", "count", "lower"),
    ("metrics.bleu4.s", "s", "lower"),
    ("metrics.p_copy.s", "s", "lower"),
    ("metrics.embed.calls", "count", "lower"),
    ("metrics.embed.s", "s", "lower"),
    ("metrics.bertscore.s", "s", "lower"),
    ("metrics.remote_embed.calls", "count", "lower"),
    ("metrics.remote_embed.s", "s", "lower"),
    ("stub.embed.requests", "count", "lower"),
    ("stub.embed.tokens", "count", "lower"),
    ("stub.embed.unique_tokens", "count", "lower"),
    ("analysis.emit_report.s", "s", "lower"),
    ("analysis.attribute_copies.calls", "count", "lower"),
    ("analysis.attribute_copies.s", "s", "lower"),
    ("analysis.paired_vs_random.s", "s", "lower"),
    ("analysis.bucketize.s", "s", "lower"),
    ("svgplot.grouped_bars.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

END_TO_END = [
    ("setup_s", "s"),
    ("transform_s", "s"),
    ("generate_cold_s", "s"),
    ("generate_warm_s", "s"),
    ("score_s", "s"),
    ("analyze_s", "s"),
    ("records_per_s", "records/s"),
    ("peak_rss_mb", "MiB"),
]


class StageFailed(RuntimeError):
    pass


def run_stage(argv: list[str], tracer: Tracer | None = None) -> float:
    """One `sumprobe` command in-process; returns its wall time.

    Garbage left by earlier stages is collected first, so it does not land
    in this stage's time.
    """
    gc.collect()
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), (tracer or contextlib.nullcontext()):
        code = cli.main(argv)
    elapsed = time.perf_counter() - start
    if code != 0:
        raise StageFailed(f"sumprobe {' '.join(argv)} exited {code}: {out.getvalue()}")
    return elapsed


_FS_IOC_GETFLAGS = 0x80086601
_FS_IOC_SETFLAGS = 0x40086602
_FS_TOPDIR_FL = 0x00020000


def spread_dir(path: Path) -> Path:
    """Make `path` a directory whose subdirectories ext4 places in block
    groups of their own (the `chattr +T` flag).

    ext4 skips inodes freed within the last minute or more when it allocates
    a new one in the same block group, so after a run deletes thousands of
    files, creating files near them costs up to ten times as much system
    time. Spreading each set-up and round directory keeps the cost of the
    cache files the program creates independent of what ran before. File
    systems without the flag ignore it.
    """
    path.mkdir(parents=True, exist_ok=True)
    fd = os.open(path, os.O_RDONLY)
    try:
        flags = struct.unpack("l", fcntl.ioctl(fd, _FS_IOC_GETFLAGS, struct.pack("l", 0)))[0]
        fcntl.ioctl(fd, _FS_IOC_SETFLAGS, struct.pack("l", flags | _FS_TOPDIR_FL))
    except OSError:
        pass
    finally:
        os.close(fd)
    return path


def unique_dir(parent: Path, prefix: str) -> Path:
    # ext4 picks the block group of a spread directory from a hash of its
    # name, so a fixed name would land every run on the groups whose inodes
    # the previous run just freed.
    return parent / f"{prefix}-{os.getpid()}-{time.time_ns()}"


def file_digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        for f in sorted(path.rglob("*")) if path.is_dir() else [path]:
            if f.is_file():
                h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


class Stub:
    """The HTTP stub process (perfbench/stub.py), stopped on exit."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError(f"stub did not start: {line!r}")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"

    def call(self, path: str, body: dict | None = None) -> dict:
        data = None if body is None else json.dumps(body).encode()
        with urllib.request.urlopen(self.url + path, data=data, timeout=30) as resp:
            return json.loads(resp.read())

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Workload:
    """Inputs and stage options of one workload.

    `setup(d)` writes the seeded corpus (and anything else the rounds read)
    in directory `d`, then warms up on a slice of it. `round(k)` runs every
    stage on the whole corpus in a fresh run directory and returns that
    directory and the stage times; `check(d)` returns (problems, failed
    operations) for one round's output.
    """

    name = ""
    examples = 0
    jobs = 1

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.corpus: list[dict] = []

    def corpus_seed(self) -> int:
        return self.seed

    def generate_args(self) -> list[str]:
        return ["--model", "echo", "--mock", "echo"]

    def score_args(self) -> list[str]:
        return []

    def analyze_args(self) -> list[str]:
        return []

    def before_generate(self, out: Path, warmup: bool) -> None:
        pass

    def setup(self, d: Path) -> None:
        self.corpus_path = d / "corpus.jsonl"
        corpusgen.write_corpus(self.corpus_path, self.examples, self.corpus_seed())
        self.corpus = checks.read_jsonl(self.corpus_path)
        self.prepare(d)
        warmup = d / "warmup.jsonl"
        corpusgen.write_corpus(warmup, self.examples // WARMUP_SHARE, self.corpus_seed())
        self.stages(warmup, d / "warmup", warmup=True)

    def prepare(self, d: Path) -> None:
        pass

    def stages(self, corpus: Path, d: Path, tracer=None, warmup: bool = False) -> dict:
        out = d / "out"

        def cmd(seed: int, *args: str) -> list[str]:
            return ["--seed", str(seed), "--out", str(out), "--jobs", str(self.jobs), *args]

        took = {"transform": run_stage(
            cmd(self.corpus_seed(), "transform", "--corpus", str(corpus)), tracer)}
        self.before_generate(out, warmup)
        generate = cmd(self.corpus_seed(), "generate", *self.generate_args())
        took["generate_cold"] = run_stage(generate, tracer)
        took["generate_warm"] = run_stage(generate, tracer)
        took["score"] = run_stage(cmd(self.seed, "score", *self.score_args()), tracer)
        took["analyze"] = run_stage(cmd(self.seed, "analyze", *self.analyze_args()), tracer)
        return took

    def round(self, k: int, tracer=None) -> tuple[Path, dict]:
        d = unique_dir(self.work, f"round{k}")
        return d, self.stages(self.corpus_path, d, tracer)

    def records(self) -> int:
        return len(self.corpus) * len(checks.VARIANTS)

    def close(self) -> None:
        pass

    def check_common(self, out: Path, **kwargs) -> tuple[list[str], list[dict], dict, list]:
        problems = checks.check_transform(self.corpus, out)
        rows = checks.variant_rows(out)
        records = checks.read_jsonl(out / "runs.jsonl")
        found, mismatches = checks.check_records(records, rows, **kwargs)
        problems += found + checks.check_report(records, out / "report")
        return problems, records, rows, mismatches


class EchoCorpus(Workload):
    """The echo mock on a fixed corpus, single-threaded."""

    name = "echo-corpus"
    examples = ECHO_EXAMPLES

    def corpus_seed(self) -> int:
        return ECHO_SEED

    def check(self, d: Path) -> tuple[list[str], int]:
        problems, _, rows, mismatches = self.check_common(d / "out", echo=True)
        problems += checks.check_names(rows)
        return problems, len(mismatches)


class HttpEndpoints(Workload):
    """Generate at --jobs 2 against the chat stub and score against the
    embedding stub, on a small seeded corpus."""

    name = "http-endpoints"
    examples = HTTP_EXAMPLES
    jobs = 2

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        self.stub = Stub()
        self.fail: set[str] = set()
        self.stats: dict = {}

    def close(self) -> None:
        self.stub.close()

    def generate_args(self) -> list[str]:
        return ["--model", "stub", "--endpoint", self.stub.url + "/v1/chat/completions"]

    def score_args(self) -> list[str]:
        return ["--embedding-endpoint", self.stub.url + "/v1/embeddings"]

    def before_generate(self, out: Path, warmup: bool) -> None:
        """Reset the stub; one distinct prompt in HTTP_FAIL_EVERY, in order
        of code hash, gets a 503 on its first attempt."""
        codes = {row["code"] for rows in checks.variant_rows(out).values()
                 for row in rows.values()}
        hashes = sorted(checks.stub.code_hash(c) for c in codes)
        self.fail = set() if warmup else set(hashes[::HTTP_FAIL_EVERY])
        self.stub.call("/reset", {"fail": sorted(self.fail)})

    def round(self, k: int, tracer=None) -> tuple[Path, dict]:
        d, took = super().round(k, tracer)
        self.stats = self.stub.call("/stats")
        return d, took

    def check(self, d: Path) -> tuple[list[str], int]:
        problems, records, rows, _ = self.check_common(d / "out")
        problems += checks.check_names(rows)
        problems += checks.check_http(records, rows, self.stats, self.fail)
        return problems, 0


class BpeRescore(Workload):
    """The echo pipeline with score and analyze under a BPE vocabulary
    learned from the seeded corpus."""

    name = "bpe-rescore"
    examples = BPE_EXAMPLES

    def prepare(self, d: Path) -> None:
        self.vocab = d / "bpe-vocab.json"
        bpe.write_vocab(self.corpus_path, self.vocab, BPE_MERGES)

    def score_args(self) -> list[str]:
        return ["--tokenizer", str(self.vocab)]

    analyze_args = score_args

    def check(self, d: Path) -> tuple[list[str], int]:
        from sumprobe.subtok import tokenizer_from_spec

        problems, records, rows, _ = self.check_common(
            d / "out", tokenizer_id=f"bpe:{self.vocab.name}", recompute_copy=False, echo=True)
        texts = {rec["generated"] for rec in records}
        texts |= {row[k] for variant in rows.values() for row in variant.values()
                  for k in ("code", "docstring")}
        problems += checks.check_subwords(texts, tokenizer_from_spec(str(self.vocab)))
        return problems, 0


WORKLOADS = {w.name: w for w in (EchoCorpus, HttpEndpoints, BpeRescore)}


def output_digest(d: Path) -> str:
    out = d / "out"
    return file_digest(out / "runs.jsonl", out / "report")


def run_dir_sizes(d: Path) -> dict:
    """Sizes of the run files a traced round leaves behind."""
    out = d / "out"
    entries = list((out / "cache").glob("*.json"))
    return {
        "corpus.runs_jsonl_bytes": (out / "runs.jsonl").stat().st_size,
        "llmgen.cache.entries": len(entries),
        "llmgen.cache.bytes": sum(f.stat().st_size for f in entries),
    }


def layer_metrics(tracer: Tracer, workload: Workload, sizes: dict, overhead: float) -> dict:
    values = aggregate(tracer.spans())
    values.update(tracer.counts())
    values.update(sizes)
    values["pylex.lex.calls_per_example"] = values.get("pylex.lex.calls", 0) / len(workload.corpus)
    stats = getattr(workload, "stats", {})
    for name, key in (("stub.chat.requests", "chat_requests"),
                      ("stub.chat.retried", "chat_retried"),
                      ("stub.chat.max_in_flight", "chat_max_in_flight"),
                      ("stub.embed.requests", "embed_requests"),
                      ("stub.embed.tokens", "embed_tokens"),
                      ("stub.embed.unique_tokens", "embed_unique_tokens")):
        values[name] = stats.get(key, 0)
    values["trace.overhead_s"] = overhead
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit, _ in PER_LAYER}


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = spread_dir(unique_dir(spread_dir(WORK), workload_name))
    workload = WORKLOADS[workload_name](seed, work)
    if workload.jobs == 1:
        # At --jobs 1, generate hands every record from the main thread to
        # one worker thread and back. On two vCPUs each handoff can wake the
        # idle one, at a cost that varies with the host's load; on one CPU
        # the handoff is a local switch. Threads started later inherit this.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        return measure(workload, work, START + seconds, trace)
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)
        os.sync()  # the deletions' write-back belongs to this run, not the next


def measure(workload: Workload, work: Path, deadline: float, trace: bool) -> dict:
    """Set up `SETUP_REPS` times, then run whole rounds until `deadline`.

    A round starts only if it (at the median round time so far) and
    `RESERVE_S` for the checks and the clean-up fit before the deadline.
    Traced: one set-up, an untraced round, then a traced one; the difference
    of their stage times is the tracing overhead.
    """
    tracer = Tracer() if trace else None
    setup_times: list[float] = []
    for rep in range(1 if trace else SETUP_REPS):
        d = unique_dir(work, f"setup{rep}")
        d.mkdir()
        start = time.perf_counter()
        workload.setup(d)
        setup_times.append(time.perf_counter() - start)

    stage_times: dict[str, list[float]] = {}
    round_totals: list[float] = []
    digests: list[str] = []
    while True:
        k = len(round_totals)
        d, took = workload.round(k, tracer if trace and k == 1 else None)
        round_totals.append(sum(took.values()))
        for stage, t in took.items():
            stage_times.setdefault(stage, []).append(t)
        digests.append(output_digest(d))
        if (len(round_totals) == 2) if trace else (
                time.perf_counter() + statistics.median(round_totals) + RESERVE_S > deadline):
            break
    # Read before the checks, so that their allocations do not count.
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Every round's outputs must equal the last round's, which is checked in
    # full (in a traced run, the traced round; for http-endpoints, against
    # the stub's counters of that round).
    check_start = time.perf_counter()
    problems, failed_per_round = workload.check(d)
    check_s = time.perf_counter() - check_start
    if len(set(digests)) != 1:
        problems.append(f"rounds produced {len(set(digests))} different outputs")
    rounds = len(round_totals)
    result = {
        "correct": not problems,
        "attempted": workload.records() * rounds,
        "failed": failed_per_round * rounds,
    }
    if trace:
        overhead = round_totals[1] - round_totals[0]
        result["metrics"] = layer_metrics(tracer, workload, run_dir_sizes(d), overhead)
    else:
        # A shared VM's CPU can switch between two speeds about a factor of
        # two apart for seconds at a time; the mean over a run's rounds moves
        # smoothly with the share of time spent at each, where the median
        # and the minimum jump between the two.
        metrics = {"setup_s": statistics.median(setup_times)}
        for stage, metric in STAGE_METRICS.items():
            metrics[metric] = statistics.fmean(stage_times[stage])
        metrics["records_per_s"] = workload.records() / statistics.fmean(round_totals)
        metrics["peak_rss_mb"] = peak_rss
        result["metrics"] = {name: {"value": metrics[name], "unit": unit}
                             for name, unit in END_TO_END}
    print("samples: " + json.dumps({"setup": setup_times, **stage_times, "check": check_s}),
          file=sys.stderr)
    for problem in problems[:50]:
        print(f"check failed: {problem}", file=sys.stderr)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
