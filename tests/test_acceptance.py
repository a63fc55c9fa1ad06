"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import csv
import functools
import itertools
import json
import math
import random
import re
import shutil
import statistics
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from sumprobe.analysis import BUCKET_LABELS, bucketize
from sumprobe.cli import main as cli_main
from sumprobe.corpus import (
    EvalRecord,
    FilterReason,
    RunRecord,
    filter_corpus,
    load_corpus,
    load_run,
    save_run,
)
from sumprobe import metrics
from sumprobe.metrics import bertscore, bleu4, p_copy, pearson, spearman
from sumprobe.pylex import (
    Category, UnlexableError, categories, function_name_at, lex, lexemes, signature_span,
)
from sumprobe.transform import (
    Snippet,
    Variant,
    _comment_free,
    apply_variant,
    donor_assignment,
    donor_entries,
)
from sumprobe.subtok import FallbackTokenizer, code_subwords

from corpusgen import write_corpus
from httpstub import serve

ORACLE_PATH = Path(__file__).parent / "data" / "bleu_oracle.jsonl"


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} FAIL  {title}")
                raise
            print(f"criterion {number:2d} PASS  {title}")
            return result

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def mixed_corpus(tmp_path_factory):
    """1,000 snippets, one in fifty unlexable."""
    path = tmp_path_factory.mktemp("mixed") / "corpus.jsonl"
    write_corpus(path, 1000, seed=97, unlexable_every=50)
    examples, errors = load_corpus(path)
    assert not errors
    return examples


@pytest.fixture(scope="module")
def clean_corpus(tmp_path_factory):
    """1,000 snippets, all lexable."""
    path = tmp_path_factory.mktemp("clean") / "corpus.jsonl"
    write_corpus(path, 1000, seed=101)
    examples, errors = load_corpus(path)
    assert not errors
    return examples


@criterion(1, "BLEU-4 matches the frozen reference-implementation oracle")
def test_criterion_1_bleu_oracle_parity():
    lines = ORACLE_PATH.read_text().splitlines()
    header = json.loads(lines[0])
    cases = [json.loads(line) for line in lines[1:]]
    random_cases = [c for c in cases if c["kind"] == "random"]
    identity_cases = [c for c in cases if c["kind"] == "identity"]
    assert header["pairs"] == len(random_cases) == 500
    assert header["max_len"] == 40 and header["vocab_size"] == 50

    start = time.monotonic()
    for case in cases:
        got = bleu4(case["candidate"], case["reference"]).value
        assert abs(got - case["bleu"]) <= 1e-9, (case["kind"], case["index"])
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"oracle comparison took {elapsed:.2f}s"

    # identity pairs score exactly 100 wherever the reference implementation
    # itself does: length 1 and lengths >= 4 (its smoothing of the missing
    # higher orders pulls lengths 2-3 below 100; parity still holds there)
    for case in identity_cases:
        if case["index"] == 1 or case["index"] >= 4:
            assert bleu4(case["candidate"], case["reference"]).value == 100.0
        else:
            assert bleu4(case["candidate"], case["reference"]).value < 100.0


@criterion(2, "lexer round-trips every lexable snippet byte-exactly")
def test_criterion_2_lexer_roundtrip(mixed_corpus):
    lexable = 0
    unlexable = 0
    for ex in mixed_corpus:
        try:
            stream = lex(ex.code)
        except UnlexableError:
            unlexable += 1
            assert filter_corpus([ex]) == ([], [(ex, FilterReason.UNLEXABLE)])
            continue
        lexable += 1
        assert "".join(tok.lexeme for tok in stream) == ex.code, ex.id
        offset = 0
        encoded = ex.code.encode("utf-8")
        for tok in stream:
            assert tok.start == offset < tok.end
            assert encoded[tok.start : tok.end].decode("utf-8") == tok.lexeme
            offset = tok.end
    assert lexable + unlexable == 1000
    assert unlexable == 20


_UNSHIFT = str.maketrans(
    "bcdefghijklmnopqrstuvwxyzaBCDEFGHIJKLMNOPQRSTUVWXYZA",
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ",
)


@criterion(3, "transformation invariants hold on the full sample corpus")
def test_criterion_3_transform_invariants(mixed_corpus):
    """Checked on the texts `transform` writes, against the comment-free
    lexemes every transformed variant is built from."""
    accepted, _ = filter_corpus(mixed_corpus, scan=Snippet.of)
    donors = donor_assignment(donor_entries(accepted), seed=12)
    checked = 0
    for ex, snippet in accepted:
        found = lexemes(ex.code)
        free, free_categories = _comment_free(found, categories(found))
        at = function_name_at(free)
        names = {i for i in range(at, len(free)) if free[i] == free[at]}

        relexed = lex(snippet.text(Variant.NO_CODE_STRUCTURE))
        for tok in relexed:
            assert tok.category not in (
                Category.KEYWORD, Category.OPERATOR, Category.DELIMITER,
            ), (ex.id, tok)

        # from the comment-free lexemes: a comment inside a multi-line
        # parameter list is not part of the signature
        expected = "".join(free[signature_span(free)])
        assert snippet.text(Variant.NO_FUNCTION_BODY) == expected, ex.id

        obfuscated = lex(snippet.text(Variant.OBFUSCATED_NAMES))
        assert len(obfuscated) == len(free), ex.id
        restored = "".join(
            tok.lexeme.translate(_UNSHIFT) if i in names else tok.lexeme
            for i, tok in enumerate(obfuscated)
        )
        assert restored == "".join(free), ex.id

        adversarial = lex(snippet.text(Variant.ADVERSARIAL_NAMES, donors[ex.id]))
        assert len(adversarial) == len(free), ex.id

        def rest(pairs):
            return Counter(pair for i, pair in enumerate(pairs) if i not in names)

        assert rest((tok.lexeme, tok.category) for tok in adversarial) == rest(
            zip(free, free_categories)
        ), ex.id
        checked += 1
    assert checked == len(accepted) >= 900


@criterion(4, "one-hot BERTScore equals set-overlap precision/recall")
def test_criterion_4_bertscore_reduction():
    symbols = ["a", "b", "c"]
    basis = {s: np.eye(3)[i] for i, s in enumerate(symbols)}

    def embeddings(seq):
        return np.array([basis[s] for s in seq])

    sequences = [
        list(seq)
        for length in range(1, 5)
        for seq in itertools.product(symbols, repeat=length)
    ]
    assert len(sequences) == 120
    for x_seq in sequences:
        x_set = set(x_seq)
        for hat_seq in sequences:
            hat_set = set(hat_seq)
            [result] = bertscore(embeddings(x_seq)[None], embeddings(hat_seq)[None])
            recall_expected = 100 * sum(1 for s in x_seq if s in hat_set) / len(x_seq)
            precision_expected = 100 * sum(1 for s in hat_seq if s in x_set) / len(hat_seq)
            assert abs(result.recall - recall_expected) <= 1e-12
            assert abs(result.precision - precision_expected) <= 1e-12
            if precision_expected + recall_expected > 0:
                harmonic = (
                    2 * precision_expected * recall_expected
                    / (precision_expected + recall_expected)
                )
            else:
                harmonic = 0.0
            assert abs(result.f1 - harmonic) <= 1e-12
            if x_seq == hat_seq:
                assert result.f1 == 100.0
            if not (x_set & hat_set):
                assert result.precision == result.recall == result.f1 == 0.0


@criterion(5, "copy-rate permutation/monotonicity/boundary properties")
def test_criterion_5_p_copy_properties():
    rng = random.Random(55)
    vocab = [f"tok{i}" for i in range(20)]
    cases = 0
    for _ in range(1100):
        code = [rng.choice(vocab) for _ in range(rng.randint(0, 15))]
        desc = [rng.choice(vocab) for _ in range(rng.randint(1, 15))]
        base = p_copy(code, desc)
        assert 0.0 <= base.value <= 1.0
        assert base.value == base.matched / base.total

        shuffled = code[:]
        rng.shuffle(shuffled)
        assert p_copy(shuffled, desc).value == base.value

        extra = [rng.choice(vocab) for _ in range(rng.randint(1, 4))]
        assert p_copy(code + extra, desc).value >= base.value

        assert p_copy([], desc).value == 0.0 if not code else True
        assert p_copy(desc, desc).value == 1.0
        disjoint = [f"other{i}" for i in range(3)]
        assert p_copy(disjoint, desc).value == 0.0
        cases += 1
    assert cases >= 1000


@criterion(6, "echo pipeline: perfect scores, random re-pairing below 100")
def test_criterion_6_end_to_end_echo(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, 20, seed=606)
    out = tmp_path / "out"
    assert cli_main(["--seed", "13", "--out", str(out), "transform",
                     "--corpus", str(corpus)]) == 0
    assert cli_main(["--seed", "13", "--out", str(out), "generate",
                     "--model", "echo-model", "--mock", "echo"]) == 0
    assert cli_main(["--seed", "13", "--out", str(out), "score",
                     "--tokenizer", "fallback"]) == 0
    assert cli_main(["--seed", "13", "--out", str(out), "analyze"]) == 0

    records = load_run(out / "runs.jsonl")
    original = [r for r in records if r.variant == "original"]
    assert len(original) == 20
    assert all(r.metrics.bleu4 == 100.0 for r in original)
    assert all(r.metrics.bertscore_f1 == 100.0 for r in original)
    mean_bleu = statistics.fmean(r.metrics.bleu4 for r in original)
    mean_bert = statistics.fmean(r.metrics.bertscore_f1 for r in original)
    assert mean_bleu == 100.0 and mean_bert == 100.0

    with (out / "report" / "summary.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    row = next(r for r in rows if r["variant"] == "original")
    assert float(row["mean_bleu4"]) == 100.0
    assert float(row["mean_bertscore_f1"]) == 100.0

    with (out / "report" / "distributions.csv").open() as fh:
        dist = list(csv.DictReader(fh))
    for statistic in ("median", "mean"):
        own = {r["metric"]: float(r[statistic]) for r in dist
               if r["pairing"] == "ref-vs-own-gen"}
        rand = {r["metric"]: float(r[statistic]) for r in dist
                if r["pairing"] == "ref-vs-random-gen"}
        assert own == {"bleu4": 100.0, "bertscore_f1": 100.0}, statistic
        assert rand["bleu4"] < 100.0, statistic
        assert rand["bertscore_f1"] < 100.0, statistic


@criterion(7, "every record lands in exactly one of the 11 buckets")
def test_criterion_7_bucketing():
    rng = random.Random(70)
    records = []
    for i in range(1000):
        total = rng.randint(1, 60)
        matched = rng.choice([0, 0, rng.randint(0, total), total])
        records.append(
            RunRecord(
                example_id=f"e{i}", variant="original", model_id="m", generated="g",
                metrics=EvalRecord(
                    p_copy_reference=matched / total,
                    p_copy_reference_matched=matched,
                    p_copy_reference_total=total,
                ),
            )
        )
    buckets = bucketize(records)
    assert [b.label for b in buckets] == list(BUCKET_LABELS)
    all_keys = [k for b in buckets for k in b.record_keys]
    assert len(all_keys) == 1000 and len(set(all_keys)) == 1000
    zero_bucket = next(b for b in buckets if b.label == "=0")
    by_key = {r.key: r for r in records}
    for b in buckets:
        for key in b.record_keys:
            m = by_key[key].metrics
            rate = Fraction(m.p_copy_reference_matched, m.p_copy_reference_total)
            if b.label == "=0":
                assert rate == 0
            else:
                low, high = b.label[1:-1].split(",")
                assert Fraction(int(low), 100) < rate <= Fraction(int(high), 100)
    assert all(
        by_key[k].metrics.p_copy_reference_matched == 0 for k in zero_bucket.record_keys
    )


@criterion(8, "correlations match closed forms; invariances hold")
def test_criterion_8_correlations():
    # closed-form checks on 3-5 point sets
    assert abs(pearson([1, 2, 3], [1, 3, 2]) - 0.5) <= 1e-12
    assert abs(spearman([1, 2, 3], [1, 3, 2]) - 0.5) <= 1e-12
    xs4, ys4 = [0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 2.0, 4.0]
    hand = 4.5 / math.sqrt(5.0 * 4.75)
    assert abs(pearson(xs4, ys4) - hand) <= 1e-12
    ranks_y = [1.5, 1.5, 3.0, 5.0, 4.0]  # ys5 ranks with the tie averaged
    ys5 = [7.0, 7.0, 9.0, 30.0, 12.0]
    hand_s = pearson([1.0, 2.0, 3.0, 4.0, 5.0], ranks_y)
    assert abs(spearman([10.0, 20.0, 30.0, 40.0, 50.0], ys5) - hand_s) <= 1e-12
    assert abs(spearman([1, 2, 3, 4], [1, 2, 4, 8]) - 1.0) <= 1e-12
    assert abs(spearman([1, 2, 3, 4], [8, 4, 2, 1]) + 1.0) <= 1e-12

    rng = random.Random(88)
    for _ in range(1000):
        n = rng.randint(3, 12)
        xs = [rng.uniform(-50, 50) for _ in range(n)]
        ys = [rng.uniform(-50, 50) for _ in range(n)]
        p = pearson(xs, ys)
        s = spearman(xs, ys)
        assert -1.0 - 1e-12 <= p <= 1.0 + 1e-12
        assert -1.0 - 1e-12 <= s <= 1.0 + 1e-12
        a, b = rng.uniform(-5, 5), rng.uniform(0.1, 5)
        assert abs(pearson([a + b * x for x in xs], ys) - p) <= 1e-9
        assert abs(pearson(xs, [a + b * y for y in ys]) - p) <= 1e-9
        assert spearman([math.exp(x / 50) for x in xs], ys) == s
        assert spearman(xs, [y**3 for y in ys]) == s


@criterion(9, "identical (corpus, config, seed, cache) runs are byte-identical")
def test_criterion_9_determinism(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, 12, seed=909)

    def run(out: Path):
        for args in (
            ["transform", "--corpus", str(corpus)],
            ["generate", "--model", "echo-model", "--mock", "echo"],
            ["score", "--tokenizer", "fallback"],
            ["analyze"],
        ):
            assert cli_main(["--seed", "31", "--out", str(out)] + args) == 0

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run(out_a)
    run(out_b)
    assert (out_a / "runs.jsonl").read_bytes() == (out_b / "runs.jsonl").read_bytes()
    report_a = sorted(p.name for p in (out_a / "report").iterdir())
    report_b = sorted(p.name for p in (out_b / "report").iterdir())
    assert report_a == report_b
    for name in report_a:
        assert (out_a / "report" / name).read_bytes() == (
            out_b / "report" / name
        ).read_bytes(), name
    # and a repeated stage over the same directory stays stable
    run(out_a)
    assert (out_a / "runs.jsonl").read_bytes() == (out_b / "runs.jsonl").read_bytes()


@criterion(10, "1,000 snippets through transforms+tokenize+p_copy+BLEU < 60 s")
def test_criterion_10_throughput(clean_corpus):
    tokenize = FallbackTokenizer()
    start = time.monotonic()
    donors = donor_assignment(
        donor_entries((ex, Snippet.of(ex.code)) for ex in clean_corpus), seed=5
    )
    processed = 0
    for ex in clean_corpus:
        for variant in Variant:
            donor = donors[ex.id] if variant is Variant.ADVERSARIAL_NAMES else None
            apply_variant(ex, variant, donor)
        code_sw = code_subwords(ex.code, tokenize)
        ref_sw = tokenize(ex.reference)
        p_copy(code_sw, ref_sw)
        bleu4(ex.reference.split(), ex.reference.split())
        processed += 1
    elapsed = time.monotonic() - start
    assert processed == 1000
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"  (throughput: {processed} snippets in {elapsed:.1f}s)")


@criterion(11, "echo pipeline scores exactly 100 when snippets repeat")
def test_criterion_11_echo_duplicate_snippets(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, 12, seed=1111)
    rows = [json.loads(line) for line in corpus.read_text().splitlines()]
    # same snippets, other descriptions: identical prompts, different echoes
    for i, row in enumerate(rows[:3]):
        rows.append({"id": f"dup{i}", "code": row["code"],
                     "docstring": f"another account of snippet {i} and its result"})
    corpus.write_text("".join(json.dumps(row) + "\n" for row in rows))
    out = tmp_path / "out"
    for args in (
        ["transform", "--corpus", str(corpus)],
        ["generate", "--model", "echo-model", "--mock", "echo"],
        ["score", "--tokenizer", "fallback"],
    ):
        assert cli_main(["--seed", "17", "--out", str(out)] + args) == 0

    records = load_run(out / "runs.jsonl")
    assert len(records) == 15 * len(Variant)
    for rec in records:
        assert rec.metrics.bleu4 == 100.0, rec.key
        assert rec.metrics.bertscore_f1 == 100.0, rec.key


class DenseProvider:
    """Context-free dense vectors: each token's vector is seeded by the
    token alone."""

    provider_id = "dense-test"

    @staticmethod
    def vector(token):
        rng = random.Random("dense:" + token)
        return [rng.gauss(0, 1) for _ in range(40)]

    def embed(self, tokens):
        return np.array([self.vector(t) for t in tokens])


def chat_words(body, hit):
    """Chat server script: a seeded sentence of words from the prompt's
    code and a fixed filler, never the reference."""
    filler = "return the value of a given list for each input".split()
    prompt = body["messages"][-1]["content"]
    words = re.findall(r"[A-Za-z]+", prompt.rpartition("Code:\n")[2]) + filler
    rng = random.Random(prompt)
    text = " ".join(rng.choice(words) for _ in range(rng.randint(3, 10)))
    return 200, {"choices": [{"message": {"content": f"Returns {text}."}}]}


def dense_embeddings(body, hit):
    """Embedding server script: `DenseProvider` vectors."""
    return 200, {"vectors": [DenseProvider.vector(t) for t in body["tokens"]]}


@criterion(12, "score embeds each distinct subword once, scores as if text by text")
def test_criterion_12_batched_embeddings(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, 24, seed=1212)
    out = tmp_path / "out"
    with serve(chat_words) as (chat_url, _), serve(dense_embeddings) as (embed_url, hits):
        for args in (
            ["transform", "--corpus", str(corpus)],
            ["generate", "--model", "chat-model", "--endpoint", chat_url],
            ["score", "--embedding-endpoint", embed_url],
            ["analyze"],
        ):
            assert cli_main(["--seed", "19", "--out", str(out)] + args) == 0

    # the same records, with BERTScore computed text by text
    tokenize = FallbackTokenizer()
    provider = DenseProvider()
    references = {}
    for path in (out / "variants").iterdir():
        for ex in load_corpus(path)[0]:
            references[(path.stem, ex.id)] = ex.reference
    records = load_run(out / "runs.jsonl")
    assert len(records) == 24 * len(Variant)
    distinct = set()
    for rec in records:
        ref_sw = tokenize(references[(rec.variant, rec.example_id)])
        gen_sw = tokenize(rec.generated)
        assert gen_sw and rec.generated != references[(rec.variant, rec.example_id)]
        distinct.update(ref_sw, gen_sw)
        x, x_hat = metrics.embed(ref_sw, provider), metrics.embed(gen_sw, provider)
        for sw, vectors in ((ref_sw, x), (gen_sw, x_hat)):
            raw = provider.embed(sw)
            assert np.array_equal(vectors, raw / np.linalg.norm(raw, axis=1, keepdims=True))
        [bert] = metrics.bertscore(x[None], x_hat[None])
        rec.metrics.bertscore_precision = bert.precision
        rec.metrics.bertscore_recall = bert.recall
        rec.metrics.bertscore_f1 = bert.f1
    expected = tmp_path / "expected"
    shutil.copytree(out, expected)
    shutil.rmtree(expected / "report")
    save_run(records, expected / "runs.jsonl")
    assert cli_main(["--seed", "19", "--out", str(expected), "analyze"]) == 0
    assert (out / "runs.jsonl").read_bytes() == (expected / "runs.jsonl").read_bytes()
    names = sorted(p.name for p in (out / "report").iterdir())
    assert names == sorted(p.name for p in (expected / "report").iterdir())
    for name in names:
        assert (out / "report" / name).read_bytes() == \
            (expected / "report" / name).read_bytes(), name

    assert len(hits) <= math.ceil(len(distinct) / metrics.EMBED_BATCH_TOKENS)
    sent = [t for body in hits for t in body["tokens"]]
    assert sorted(sent) == sorted(distinct)
    print(f"  ({len(distinct)} distinct subwords in {len(hits)} request(s))")


def own_gen_means(out):
    """{metric: (summary.csv mean of the original rows, distributions.csv
    ref-vs-own-gen mean)}."""
    with (out / "report" / "summary.csv").open() as fh:
        original = next(r for r in csv.DictReader(fh) if r["variant"] == "original")
    with (out / "report" / "distributions.csv").open() as fh:
        own = {r["metric"]: float(r["mean"]) for r in csv.DictReader(fh)
               if r["pairing"] == "ref-vs-own-gen"}
    return {metric: (float(original[f"mean_{metric}"]), own[metric])
            for metric in ("bleu4", "bertscore_f1")}


@criterion(13, "the ref-vs-own-gen means are the summary means, whatever scored them")
def test_criterion_13_one_scoring_configuration(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, 16, seed=1313)

    # (a) upper-cased echoes, BLEU scored case-insensitively
    out = tmp_path / "lowercase"
    for args in (["transform", "--corpus", str(corpus)],
                 ["generate", "--model", "echo-model", "--mock", "echo"]):
        assert cli_main(["--seed", "23", "--out", str(out)] + args) == 0
    records = load_run(out / "runs.jsonl")
    for rec in records:
        rec.generated = rec.generated.upper()
    save_run(records, out / "runs.jsonl")
    for args in (["score", "--lowercase-bleu"], ["analyze"]):
        assert cli_main(["--seed", "23", "--out", str(out)] + args) == 0
    means = own_gen_means(out)
    assert means["bleu4"] == (100.0, 100.0)
    assert means["bertscore_f1"][0] == means["bertscore_f1"][1]

    # (b) a remote embedding service with dense vectors
    out = tmp_path / "remote"
    with serve(chat_words) as (chat_url, _), serve(dense_embeddings) as (embed_url, hits):
        for args in (
            ["transform", "--corpus", str(corpus)],
            ["generate", "--model", "chat-model", "--endpoint", chat_url],
            ["score", "--embedding-endpoint", embed_url],
            ["analyze"],
        ):
            assert cli_main(["--seed", "23", "--out", str(out)] + args) == 0
    assert len(hits) == 1
    means = own_gen_means(out)
    for metric, (summary_mean, own_mean) in means.items():
        assert summary_mean == own_mean, metric
    assert means["bertscore_f1"][0] < 100.0
