import csv
import hashlib
import json
import math
import os
import random
import re
import shutil
import socket
import subprocess
import sys
import threading
import time
from dataclasses import fields
from pathlib import Path

import pytest

import sumprobe.metrics
import sumprobe.pylex
from sumprobe.cli import RunConfig, build_parser, config_from_args, main
from sumprobe.corpus import filter_corpus, load_corpus
from sumprobe.errors import HarnessError
from sumprobe.llmgen import ChatCompletionsClient, GenerationCache
from sumprobe.metrics import EmbeddingTable, RemoteEmbeddingProvider
from sumprobe.pylex import Category
from sumprobe.subtok import BpeTokenizer, FallbackTokenizer, code_subwords
from sumprobe.transform import Variant, apply_variant, donor_assignment, donor_entries

from corpusgen import write_corpus
from httpstub import serve


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def corpus5(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, 5, seed=21)
    return path


@pytest.fixture()
def bpe_vocab(tmp_path):
    vocab = tmp_path / "vocab.json"
    vocab.write_text(json.dumps({
        "merges": ["r e", "re t", "ret u", "retu r", "retur n"],
        "vocab": ["r", "e", "t", "u", "n", "re", "ret", "retu", "retur", "return"],
    }))
    return vocab


def read_summary(out_dir):
    with (Path(out_dir) / "report" / "summary.csv").open() as fh:
        return list(csv.DictReader(fh))


def test_full_mock_pipeline(tmp_path, corpus5):
    out = tmp_path / "out"
    assert run_cli("--seed", 7, "--out", out, "transform", "--corpus", corpus5) == 0
    variants = sorted(p.name for p in (out / "variants").iterdir())
    assert variants == [
        "adversarial_names.jsonl",
        "no_code_structure.jsonl",
        "no_function_body.jsonl",
        "obfuscated_names.jsonl",
        "original.jsonl",
    ]
    assert run_cli("--seed", 7, "--out", out, "generate", "--model", "mock-1", "--mock", "echo") == 0
    assert run_cli("--seed", 7, "--out", out, "score", "--tokenizer", "fallback") == 0
    assert run_cli("--seed", 7, "--out", out, "analyze") == 0

    rows = read_summary(out)
    original = next(r for r in rows if r["variant"] == "original")
    assert float(original["mean_bleu4"]) == 100.0
    assert float(original["mean_bertscore_f1"]) == 100.0
    assert original["records"] == "5"
    # echo returns the reference for every variant, so all rows are perfect
    assert all(float(r["mean_bleu4"]) == 100.0 for r in rows)


def test_score_is_idempotent(tmp_path, corpus5):
    out = tmp_path / "out"
    run_cli("--seed", 3, "--out", out, "transform", "--corpus", corpus5, "--variant", "original")
    run_cli("--seed", 3, "--out", out, "generate", "--model", "m", "--mock", "echo")
    run_cli("--seed", 3, "--out", out, "score")
    first = (out / "runs.jsonl").read_bytes()
    run_cli("--seed", 3, "--out", out, "score")
    assert (out / "runs.jsonl").read_bytes() == first


def test_generate_without_transform_names_prerequisite(tmp_path, capsys):
    code = run_cli("--seed", 1, "--out", tmp_path / "out", "generate", "--model", "m", "--mock", "echo")
    assert code == 2
    assert "sumprobe transform" in capsys.readouterr().err


def test_score_without_generate_names_prerequisite(tmp_path, capsys):
    code = run_cli("--seed", 1, "--out", tmp_path / "out", "score")
    assert code == 2
    assert "sumprobe generate" in capsys.readouterr().err


def test_analyze_without_score_names_prerequisite(tmp_path, corpus5, capsys):
    out = tmp_path / "out"
    run_cli("--seed", 1, "--out", out, "transform", "--corpus", corpus5, "--variant", "original")
    run_cli("--seed", 1, "--out", out, "generate", "--model", "m", "--mock", "echo")
    code = run_cli("--seed", 1, "--out", out, "analyze")
    assert code == 2
    assert "sumprobe score" in capsys.readouterr().err

    # a run file scored before copy attribution was stored
    run_cli("--seed", 1, "--out", out, "score")
    runs = out / "runs.jsonl"
    records = [json.loads(line) for line in runs.read_text().splitlines()]
    for rec in records:
        del rec["metrics"]["copy_attribution"]
    runs.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    code = run_cli("--seed", 1, "--out", out, "analyze")
    assert code == 2
    assert "sumprobe score" in capsys.readouterr().err


def test_analyze_refuses_another_tokenizer(tmp_path, corpus5, bpe_vocab, capsys):
    out = tmp_path / "out"
    run_cli("--seed", 1, "--out", out, "transform", "--corpus", corpus5, "--variant", "original")
    run_cli("--seed", 1, "--out", out, "generate", "--model", "m", "--mock", "echo")
    assert run_cli("--seed", 1, "--out", out, "score", "--tokenizer", bpe_vocab) == 0
    assert run_cli("--seed", 1, "--out", out, "analyze") == 2
    err = capsys.readouterr().err
    assert "'bpe:vocab.json'" in err and "'fallback'" in err
    assert run_cli("--seed", 1, "--out", out, "analyze", "--tokenizer", bpe_vocab) == 0


def test_analyze_refuses_model_ids_whose_charts_share_a_file(tmp_path, capsys):
    """`a/b` and `a_b` give the same chart file names, so one model's
    charts would replace the other's: analyze exits 2 naming both ids and
    writes no report file."""
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, 20, seed=11)
    out = tmp_path / "out"
    assert run_cli("--seed", 1, "--out", out, "transform", "--corpus", corpus) == 0
    for model in ("a/b", "a_b"):
        assert run_cli("--seed", 1, "--out", out, "generate", "--model", model, "--mock", "echo") == 0
    assert run_cli("--seed", 1, "--out", out, "score") == 0
    capsys.readouterr()
    assert run_cli("--seed", 1, "--out", out, "analyze") == 2
    err = capsys.readouterr().err
    assert "'a/b'" in err and "'a_b'" in err
    assert not (out / "report").exists()


def test_analyze_does_no_lexing(tmp_path, corpus5, monkeypatch):
    out = tmp_path / "out"
    for args in (
        ["transform", "--corpus", corpus5],
        ["generate", "--model", "m", "--mock", "echo"],
        ["score"],
    ):
        assert run_cli("--seed", 1, "--out", out, *args) == 0

    def no_lex(source):
        raise AssertionError("analyze lexed code")

    lex = sumprobe.pylex.lex
    patched = 0
    for name, module in list(sys.modules.items()):
        if name == "sumprobe" or name.startswith("sumprobe."):
            for alias, value in list(vars(module).items()):
                if value is lex:
                    monkeypatch.setattr(module, alias, no_lex)
                    patched += 1
    assert patched >= 2
    assert run_cli("--seed", 1, "--out", out, "analyze") == 0
    assert (out / "report" / "attribution.csv").exists()


def test_transform_lexes_each_snippet_once(tmp_path, monkeypatch):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, 30, seed=3, unlexable_every=7)
    rows = [json.loads(line) for line in corpus.read_text().splitlines()]
    rows.append({"id": "short", "code": "def f(x):\n    return x\n", "docstring": "too short"})
    rows.append({"id": "url", "code": "def g(x):\n    return x\n",
                 "docstring": "see http://example.com for it"})
    corpus.write_text("".join(json.dumps(row) + "\n" for row in rows))

    lexed = []
    lex = sumprobe.pylex.lex

    def counting_lex(source, *memo):
        lexed.append(source)
        return lex(source, *memo)

    patched = 0
    for name, module in list(sys.modules.items()):
        if name == "sumprobe" or name.startswith("sumprobe."):
            for alias, value in list(vars(module).items()):
                if value is lex:
                    monkeypatch.setattr(module, alias, counting_lex)
                    patched += 1
    assert patched >= 2
    out = tmp_path / "out"
    assert run_cli("--seed", 3, "--out", out, "transform", "--corpus", corpus) == 0
    rejects = [json.loads(line) for line in (out / "rejects.jsonl").read_text().splitlines()]
    unlexable = [f"ex{i:04d}" for i in range(6, 30, 7)]
    assert rejects == [{"id": i, "reason": "unlexable"} for i in unlexable] + [
        {"id": "short", "reason": "too_short"}, {"id": "url", "reason": "has_url"},
    ]
    # every example that reaches the lexability rule, once: all but the two
    # the description rules reject
    assert sorted(lexed) == sorted(row["code"] for row in rows[:30])


def test_analyze_scores_nothing(tmp_path, monkeypatch):
    out = echo_run(tmp_path)
    assert run_cli("--seed", 5, "--out", out, "score") == 0
    assert run_cli("--seed", 5, "--out", out, "analyze") == 0
    report = {p.name: p.read_bytes() for p in (out / "report").iterdir()}
    shutil.rmtree(out / "variants")
    shutil.rmtree(out / "report")

    def refuse(*args, **kwargs):
        raise AssertionError("analyze scored text")

    monkeypatch.setattr(FallbackTokenizer, "__call__", refuse)
    monkeypatch.setattr(sumprobe.metrics.HashedOneHotProvider, "embed", refuse)
    bleu4 = sumprobe.metrics.bleu4
    patched = 0
    for name, module in list(sys.modules.items()):
        if name == "sumprobe" or name.startswith("sumprobe."):
            for alias, value in list(vars(module).items()):
                if value is bleu4:
                    monkeypatch.setattr(module, alias, refuse)
                    patched += 1
    assert patched >= 1
    assert run_cli("--seed", 5, "--out", out, "analyze") == 0
    assert {p.name: p.read_bytes() for p in (out / "report").iterdir()} == report


@pytest.mark.parametrize("case", ["missing", "another seed", "another score run"])
def test_analyze_refuses_pairings_of_another_score(tmp_path, case, capsys):
    out = echo_run(tmp_path)
    assert run_cli("--seed", 5, "--out", out, "score") == 0
    pairings = out / "pairings.jsonl"
    seed = 5
    if case == "missing":
        pairings.unlink()
    elif case == "another seed":
        seed = 6
    else:
        # a score killed after rewriting runs.jsonl leaves the old side file
        old = pairings.read_bytes()
        runs = out / "runs.jsonl"
        records = [json.loads(line) for line in runs.read_text().splitlines()]
        original = next(rec for rec in records if rec["variant"] == "original")
        original["generated"] += " twice"
        runs.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        assert run_cli("--seed", 5, "--out", out, "score") == 0
        pairings.write_bytes(old)
    capsys.readouterr()
    assert run_cli("--seed", seed, "--out", out, "analyze") == 2
    assert "sumprobe score" in capsys.readouterr().err
    assert not (out / "report").exists()


def blank_generations(out, variants=("original",)):
    """Empty the generations of the first example's records of `variants`;
    returns the example's id."""
    runs = out / "runs.jsonl"
    records = [json.loads(line) for line in runs.read_text().splitlines()]
    example_id = records[0]["example_id"]
    for rec in records:
        if rec["example_id"] == example_id and rec["variant"] in variants:
            rec["generated"] = ""
    runs.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    return example_id


def test_score_logs_a_pairing_it_cannot_score(tmp_path):
    out = echo_run(tmp_path)
    blanked = blank_generations(out, [v.value for v in Variant])
    subwords = record_subwords(out)
    # a token of only that example's reference: its records' own scores
    # need no vectors, but a re-pairing of the reference with another
    # generation does
    zero = next(tok for tok in subwords[(blanked, "original")]
                if all(tok not in sws for (ex_id, _), sws in subwords.items() if ex_id != blanked))

    def script(body, hit):
        return 200, {"vectors": [[0.0] * 12 if tok == zero else dense_vector(tok)
                                 for tok in body["tokens"]]}

    with serve(script) as (url, hits):
        assert run_cli("--seed", 5, "--out", out, "score", "--embedding-endpoint", url,
                       "--max-errors", 100) == 0
    assert [e["where"] for e in score_errors(out)] == ["m/bertscore_f1 pairings"]
    assert run_cli("--seed", 5, "--out", out, "analyze", "--tokenizer", "fallback") == 0
    with (out / "report" / "distributions.csv").open() as fh:
        assert {r["metric"] for r in csv.DictReader(fh)} == {"bleu4"}


def test_score_pairs_an_empty_generation_with_bleu_zero(tmp_path):
    out = echo_run(tmp_path)
    blank_generations(out)
    # gen-vs-gen BLEU takes the empty generation as its reference
    assert run_cli("--seed", 5, "--out", out, "score") == 0
    assert score_errors(out) == []
    assert run_cli("--seed", 5, "--out", out, "analyze") == 0
    with (out / "report" / "distributions.csv").open() as fh:
        rows = [r for r in csv.DictReader(fh) if r["metric"] == "bleu4"]
    assert sorted(r["pairing"] for r in rows) == [
        "gen-vs-gen", "ref-vs-own-gen", "ref-vs-random-gen", "ref-vs-ref",
    ]


def test_score_stores_copy_attribution_counts(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, 40, seed=3)
    out = tmp_path / "out"
    for args in (
        ["transform", "--corpus", corpus],
        ["generate", "--model", "m", "--mock", "echo"],
        ["score"],
    ):
        assert run_cli("--seed", 3, "--out", out, *args) == 0
    codes = {}
    for path in (out / "variants").iterdir():
        for line in path.read_text().splitlines():
            row = json.loads(line)
            codes[(path.stem, row["id"])] = row["code"]
    records = [json.loads(line) for line in (out / "runs.jsonl").read_text().splitlines()]
    assert len(records) == len(codes) == 200
    tokenize = FallbackTokenizer()
    for rec in records:
        m = rec["metrics"]
        code, reference, generated = m["copy_attribution"]
        assert sum(reference) == m["p_copy_reference_matched"]
        assert sum(generated) == (m["p_copy_generated_matched"] if m["p_copy_generated_total"] else 0)
        code_sw = code_subwords(codes[(rec["variant"], rec["example_id"])], tokenize)
        assert sum(code) == len(code_sw)


def test_failed_rewrite_keeps_previous_run_file(tmp_path, corpus5):
    out = tmp_path / "out"
    run_cli("--seed", 3, "--out", out, "transform", "--corpus", corpus5, "--variant", "original")
    run_cli("--seed", 3, "--out", out, "generate", "--model", "m", "--mock", "echo")
    runs = out / "runs.jsonl"
    before = runs.read_bytes()
    # score rewrites runs.jsonl with the scores added, so a file-size limit
    # of the current size makes that write fail part-way, as a full disk would
    child = (
        "import resource, signal, sys\n"
        "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
        f"resource.setrlimit(resource.RLIMIT_FSIZE, ({len(before)}, {len(before)}))\n"
        "from sumprobe.cli import main\n"
        f"sys.exit(main(['--seed', '3', '--out', {str(out)!r}, 'score']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 2, proc.stderr
    assert "cannot write run file" in proc.stderr
    assert runs.read_bytes() == before
    assert not list(out.glob("*.tmp"))


GOLDEN_EDGE_ROWS = [
    {"id": "edge_unicode", "code": "def größe_von(maß):\n    return maß * größe_von(maß - 1)\n",
     "docstring": "Return the size of the given measure."},
    {"id": "edge_comment",
     "code": "def clamp_value(v):\n    # keep v in range\n    return min(v, 10)  # upper bound\n",
     "docstring": "Clamp the value to at most ten."},
    {"id": "edge_decorator",
     "code": "@register('pick_item')\n@wraps(pick_item)\ndef pick_item(items):\n    return items[0]\n",
     "docstring": "Pick the first of the given items."},
    {"id": "edge_no_def", "code": "total = sum(values)\nprint(total)\n",
     "docstring": "Print the total of the values."},
    {"id": "edge_no_colon", "code": "def broken_sig(a, b)\n    return a + b\n",
     "docstring": "Add two numbers without a colon."},
    {"id": "edge_unterminated", "code": "def say_hi():\n    return 'hi\n",
     "docstring": "Say hi with an unterminated string."},
]

# sha256 of each transform output: every variant text, donor draw, reject
# and error row is pinned byte for byte
GOLDEN_TRANSFORM_DIGESTS = {
    "errors_transform.jsonl": "966f048c2e57d15798cfa5c230d8ad289c845dd64dbf6e025f4e3ec1c5775b3a",
    "rejects.jsonl": "90c8b75a410dfe4c5c57dc975db583d8b3e907192deba30e346b56f287d26278",
    "variants/adversarial_names.jsonl": "d38e140b8baa147f5704c328ee767e31f936423adfe87edbe6fbc9ae8daa2607",
    "variants/no_code_structure.jsonl": "e1e40eeae149b8b094777fe1c98eb8995183e648c03cb580a414698dc3b42767",
    "variants/no_function_body.jsonl": "8eed72aaa07a88dcd98c61588166d381bec1c297171746e146442e1c609264a9",
    "variants/obfuscated_names.jsonl": "817af01b7a8e418b1edab22658ab97127aa230a6635b8ab7770b020e2a15cb9c",
    "variants/original.jsonl": "1101822ad0676efe118f7d877ced4236c73081ced495abdcc0e31e07b3cae2fd",
}


def test_transform_outputs_match_golden_digests(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, 300, seed=3)
    with corpus.open("a", encoding="utf-8") as fh:
        for row in GOLDEN_EDGE_ROWS:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")
    out = tmp_path / "out"
    assert run_cli("--seed", 3, "--out", out, "transform", "--corpus", corpus,
                   "--max-errors", 100) == 0
    digests = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.rglob("*.jsonl")}
    assert digests == GOLDEN_TRANSFORM_DIGESTS


def golden_bpe_vocab(path):
    """A small BPE vocabulary: each word below merged left to right, in
    this order, so pieces of common code and description words compete."""
    words = ("in", "er", "re", "return", "self", "value", "item", "items",
             "limit", "parts", "the", "and", "for", "load", "user", "count")
    merges: dict[str, None] = {}
    vocab: dict[str, None] = {}
    for word in words:
        vocab.update(dict.fromkeys(word))
        for i in range(1, len(word)):
            merges[f"{word[:i]} {word[i]}"] = None
            vocab[word[:i + 1]] = None
    path.write_text(json.dumps({"merges": list(merges), "vocab": list(vocab)}))
    return path


# sha256 of score's outputs over the golden transform corpus: every stored
# score, copy count and attribution, and every re-paired score
GOLDEN_SCORE_DIGESTS = {
    "bpe": {
        "pairings.jsonl": "cd6e47590c42d4016bfa607143fe6f4b8d6b40de58fa55243c12ca34fdfc4dc3",
        "runs.jsonl": "bad70a6c16147d88ffcc02600f5904a72d26e38e272bd79ad45c9432d787d262",
    },
    "fallback": {
        "pairings.jsonl": "c9524eab5acdb599b65a5fba063663853a9b86332423bc2a69a3cf6e4f722f94",
        "runs.jsonl": "9b4d3269f07fb42d029326bf6ec3efab830519d2cd883e20ed956c6adfe451b0",
    },
}

# sha256 of every report file that analyze writes from the fallback golden
# run: each CSV cell and each chart, byte for byte
GOLDEN_REPORT_DIGESTS = {
    "attribution.csv": "7198c5defdd70891d7a65f4fb3ca277f45aee14730338eb2ff0a55e7c4050765",
    "bertscore_f1_paired_m.svg": "8063a7f1e9c972c456d299fefae4254409c28800d3abf8679d6322d836b04c9b",
    "bleu4_paired_m.svg": "1cce087b11f7e3bf4a8b668b8be461319ddce290d6305d1c9dc63e6e94436dd1",
    "bleu_buckets_m_adversarial_names.svg": "4edc9370faaaf59ff6d8dd94c7923f93c335f42db70806964a20f5fa2a8eb3eb",
    "bleu_buckets_m_no_code_structure.svg": "a82aa6fbb8e4aef4e4d4cd725b942e5618ec6bde36ce6a39b69cb8e47cd98c18",
    "bleu_buckets_m_no_function_body.svg": "af44330018d5b2eea3d2e421731044c60ddfb6d2417f435bb3ace862a49c26fe",
    "bleu_buckets_m_obfuscated_names.svg": "11cec6840b47a46fe8ffc37f3da8813703eb5dc723d0e92a1768211e41d122e8",
    "bleu_buckets_m_original.svg": "7f99f8b2334a99993945250f07ef564aa2db14441e38bf86a7e2b890d518f5db",
    "buckets.csv": "8ababc03654e28f2b1b36235079f095319eb2ec1760a8b88700b8b697d57d2fb",
    "correlations.csv": "293a47093db2cf4844de56ebfa7dee09d1ca49e3c365ca4b7806e5c03908b3f2",
    "distributions.csv": "4d49fc65902e709d475f59dd85531729f11543090d5e1849cb0e3785e9b0dcd8",
    "pcopy_m_adversarial_names.svg": "0e3e52316b465ac70e86c6cdae0d7c7e3e2c0a8f3e2009d6d25d76236ef9b39f",
    "pcopy_m_no_code_structure.svg": "11f92af9de8e5f8e41ec25c9918c0d5c4928523a577d78a517cad3f7b3e0e836",
    "pcopy_m_no_function_body.svg": "b6515975a56dad073809c66972f57d5c2d7d19892f8160829c8beab21031a1f7",
    "pcopy_m_obfuscated_names.svg": "132a2f04494e26b4dc7e859e464b08a5111f5dc2a34eb11a19757494e8a7964a",
    "pcopy_m_original.svg": "5c6952e4a56f28e101ebf0f5c0d85774011b91f72aaee6a50efc0bd6e9121f53",
    "summary.csv": "c03043fea8016d346a28f5ef591efa41befa10e3b06ac0b191609fc83ddd2c09",
}


@pytest.mark.parametrize("tokenizer", sorted(GOLDEN_SCORE_DIGESTS))
def test_score_outputs_match_golden_digests(tmp_path, tokenizer):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, 300, seed=3)
    with corpus.open("a", encoding="utf-8") as fh:
        for row in GOLDEN_EDGE_ROWS:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")
    spec = "fallback" if tokenizer == "fallback" else golden_bpe_vocab(tmp_path / "vocab.json")
    out = tmp_path / "out"
    for args in (
        ["transform", "--corpus", corpus, "--max-errors", 100],
        ["generate", "--model", "m", "--mock", "echo"],
        ["score", "--tokenizer", spec],
    ):
        assert run_cli("--seed", 3, "--out", out, *args) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("runs.jsonl", "pairings.jsonl")}
    assert digests == GOLDEN_SCORE_DIGESTS[tokenizer]
    if tokenizer == "fallback":
        assert run_cli("--seed", 3, "--out", out, "analyze", "--tokenizer", spec) == 0
        report = out / "report"
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in report.iterdir()}
        assert digests == GOLDEN_REPORT_DIGESTS


@pytest.mark.parametrize("tokenizer", ["fallback", "bpe"])
def test_score_tokenizes_each_distinct_text_once(tmp_path, monkeypatch, tokenizer):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, 60, seed=3)
    out = tmp_path / "out"
    for args in (["transform", "--corpus", corpus], ["generate", "--model", "m", "--mock", "echo"]):
        assert run_cli("--seed", 3, "--out", out, *args) == 0

    calls = []
    for cls in (FallbackTokenizer, BpeTokenizer):
        call = cls.__call__

        def counting(self, text, call=call):
            calls.append(text)
            return call(self, text)

        for module_name, module in list(sys.modules.items()):
            if module_name == "sumprobe" or module_name.startswith("sumprobe."):
                for owner in [module] + [v for v in vars(module).values() if isinstance(v, type)]:
                    for alias, value in list(vars(owner).items()):
                        if value is call:
                            monkeypatch.setattr(owner, alias, counting)
    spec = "fallback" if tokenizer == "fallback" else golden_bpe_vocab(tmp_path / "vocab.json")
    assert run_cli("--seed", 3, "--out", out, "score", "--tokenizer", spec) == 0

    lexemes, descriptions = set(), set()
    for path in (out / "variants").iterdir():
        for line in path.read_text().splitlines():
            row = json.loads(line)
            descriptions.add(row["docstring"])
            lexemes.update(tok.lexeme for tok in sumprobe.pylex.lex(row["code"])
                           if tok.category not in (Category.WHITESPACE, Category.NEWLINE))
    for line in (out / "runs.jsonl").read_text().splitlines():
        descriptions.add(json.loads(line)["generated"])
    assert calls and len(calls) == len(set(calls))
    assert len(calls) <= len(lexemes) + len(descriptions)


def test_score_scores_each_text_pair_once_across_models(tmp_path, monkeypatch):
    """Two echo models give the same text pairs. Score runs BLEU-4 and
    BERTScore once per distinct pair, for the records and every model's
    re-pairings, and each model's pairings equal a run of that model alone."""
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, 12, seed=7)
    runs = {}
    for models in (("a",), ("b",), ("a", "b")):
        out = runs[models] = tmp_path / "-".join(models)
        assert run_cli("--seed", 5, "--out", out, "transform", "--corpus", corpus) == 0
        for model in models:
            assert run_cli("--seed", 5, "--out", out, "generate",
                           "--model", model, "--mock", "echo") == 0

    bleu_pairs, bert_pairs = [], []
    bleu4, bertscores = sumprobe.metrics.bleu4, EmbeddingTable.bertscores

    def counting_bleu4(candidate, reference, *args):
        bleu_pairs.append((tuple(candidate), tuple(reference)))
        return bleu4(candidate, reference, *args)

    def counting_bertscores(self, pairs):
        bert_pairs.extend((tuple(ref), tuple(gen)) for ref, gen in pairs)
        return bertscores(self, pairs)

    monkeypatch.setattr(sumprobe.metrics, "bleu4", counting_bleu4)
    monkeypatch.setattr(EmbeddingTable, "bertscores", counting_bertscores)
    counts, rows = {}, {}
    for models, out in runs.items():
        bleu_pairs.clear()
        bert_pairs.clear()
        assert run_cli("--seed", 5, "--out", out, "score") == 0
        assert bleu_pairs and len(set(bleu_pairs)) == len(bleu_pairs)
        assert bert_pairs and len(set(bert_pairs)) == len(bert_pairs)
        counts[models] = (len(bleu_pairs), len(bert_pairs))
        rows[models] = (out / "pairings.jsonl").read_text().splitlines()[1:]  # no header
    # the second model's text pairs are the first one's
    assert counts[("a", "b")] == counts[("a",)] == counts[("b",)]
    for model in ("a", "b"):
        assert [row for row in rows[("a", "b")] if json.loads(row)["model_id"] == model] \
            == rows[(model,)]


def test_repeated_variant_is_transformed_once(tmp_path, corpus5, capsys):
    with corpus5.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps({"id": "no_def", "code": "total = sum(values)\nprint(total)\n",
                             "docstring": "Print the total of the values."}) + "\n")
        # shifted, `hm` would become the keyword `in`
        fh.write(json.dumps({"id": "hm", "code": "def hm(x):\n    return hm(x - 1)\n",
                             "docstring": "Recurse on one less than x."}) + "\n")
    out = tmp_path / "out"
    assert run_cli("--seed", 1, "--out", out, "transform", "--corpus", corpus5,
                   "--variant", "obfuscated_names", "--variant", "obfuscated_names",
                   "--max-errors", 2) == 0
    assert "1 variant file(s)" in capsys.readouterr().out
    assert [p.name for p in (out / "variants").iterdir()] == ["obfuscated_names.jsonl"]
    rows = (out / "variants" / "obfuscated_names.jsonl").read_text().splitlines()
    assert [json.loads(line)["id"] for line in rows] == [f"ex{i:04d}" for i in range(5)]
    errors = [json.loads(line) for line in (out / "errors_transform.jsonl").read_text().splitlines()]
    assert [e["where"] for e in errors] == ["no_def/obfuscated_names", "hm/obfuscated_names"]


# `f²` lexes as an identifier but is not a Python one: as a donor it can
# only be an error row
NON_IDENTIFIER_DONOR_ROWS = [
    {"id": "a", "code": "def f²(x): return x", "docstring": "returns the value x"},
    {"id": "b", "code": "def g(y): return y", "docstring": "returns the value y"},
]


@pytest.mark.parametrize("max_errors,status", [(0, 1), (1, 0)])
def test_non_identifier_donor_is_one_error_row(tmp_path, max_errors, status):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n"
                              for r in NON_IDENTIFIER_DONOR_ROWS), encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("--seed", 1, "--out", out, "transform", "--corpus", corpus,
                   "--max-errors", max_errors) == status
    assert sorted(p.name for p in (out / "variants").iterdir()) == sorted(
        f"{v.value}.jsonl" for v in Variant
    )
    errors = [json.loads(line) for line in (out / "errors_transform.jsonl").read_text().splitlines()]
    assert [e["where"] for e in errors] == ["b/adversarial_names"]
    assert "'f²' is not a valid identifier" in errors[0]["error"]
    rows = (out / "variants" / "adversarial_names.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["code"] for line in rows] == ["def g(x): return x"]


def test_every_variant_row_is_apply_variant(tmp_path):
    corpus = tmp_path / "c.jsonl"
    write_corpus(corpus, 200, seed=5, unlexable_every=23)
    with corpus.open("a", encoding="utf-8") as fh:
        for row in NON_IDENTIFIER_DONOR_ROWS + [
            {"id": "no_def", "code": "total = sum(values)  # all\n",
             "docstring": "Sum up all of the values."},
        ]:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")
    out = tmp_path / "out"
    assert run_cli("--seed", 5, "--out", out, "transform", "--corpus", corpus,
                   "--max-errors", 1000) == 0

    accepted, _ = filter_corpus(load_corpus(corpus)[0])
    donors = donor_assignment(donor_entries(accepted), 5)
    failed = {json.loads(line)["where"]
              for line in (out / "errors_transform.jsonl").read_text().splitlines()}
    # the no-def snippet, and whichever snippet draws `f²` as its donor
    no_def = {"no_def/obfuscated_names", "no_def/adversarial_names", "no_def/no_function_body"}
    assert no_def < failed and all(w.endswith("/adversarial_names") for w in failed - no_def)
    for variant in Variant:
        path = out / "variants" / f"{variant.value}.jsonl"
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        expected = []
        for ex in accepted:
            if f"{ex.id}/{variant.value}" in failed:
                with pytest.raises((HarnessError, ValueError)):
                    apply_variant(ex, variant, donors.get(ex.id))
                continue
            made = apply_variant(ex, variant, donors.get(ex.id))
            expected.append({"id": made.id, "code": made.code, "docstring": made.reference})
        assert rows == expected, variant


def test_seed_is_mandatory(tmp_path, corpus5, capsys):
    code = run_cli("--out", tmp_path / "out", "transform", "--corpus", corpus5)
    assert code == 2
    assert "seed" in capsys.readouterr().err.lower()


def test_unknown_variant_rejected(tmp_path, corpus5, capsys):
    code = run_cli("--seed", 1, "--out", tmp_path / "out", "transform",
                   "--corpus", corpus5, "--variant", "nonsense")
    assert code == 2
    assert "nonsense" in capsys.readouterr().err


def test_rejects_file_written(tmp_path):
    corpus = tmp_path / "c.jsonl"
    rows = [
        {"id": "ok", "code": "def f(x):\n    return x\n", "docstring": "returns the given value"},
        {"id": "url", "code": "def g(x):\n    return x\n", "docstring": "see http://example.com now"},
        {"id": "short", "code": "def h(x):\n    return x\n", "docstring": "too short"},
        {"id": "bad", "code": "x = 'open\n", "docstring": "code does not lex"},
    ]
    corpus.write_text("".join(json.dumps(r) + "\n" for r in rows))
    out = tmp_path / "out"
    assert run_cli("--seed", 1, "--out", out, "transform", "--corpus", corpus,
                   "--variant", "original") == 0
    rejects = {json.loads(line)["id"]: json.loads(line)["reason"]
               for line in (out / "rejects.jsonl").read_text().splitlines()}
    assert rejects == {"url": "has_url", "short": "too_short", "bad": "unlexable"}
    kept = [json.loads(line)["id"]
            for line in (out / "variants" / "original.jsonl").read_text().splitlines()]
    assert kept == ["ok"]


def test_malformed_lines_fail_transform_by_default(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text(
        json.dumps({"id": "ok", "code": "def f(x):\n    return x\n",
                    "docstring": "returns the given value"}) + "\nnot json\n"
    )
    out = tmp_path / "out"
    assert run_cli("--seed", 1, "--out", out, "transform", "--corpus", corpus,
                   "--variant", "original") == 1
    assert run_cli("--seed", 1, "--out", out, "transform", "--corpus", corpus,
                   "--variant", "original", "--max-errors", 1) == 0


def test_config_file_with_flag_override(tmp_path, corpus5):
    out = tmp_path / "from_config"
    config = tmp_path / "run.ini"
    config.write_text(
        f"[corpus]\npath = {corpus5}\n\n"
        f"[run]\nseed = 11\nout = {out}\nvariants = original,no_function_body\n\n"
        "[model]\nid = config-model\nmock = echo\n"
    )
    assert run_cli("--config", config, "transform") == 0
    assert sorted(p.stem for p in (out / "variants").iterdir()) == [
        "no_function_body", "original",
    ]
    assert run_cli("--config", config, "generate") == 0
    assert run_cli("--config", config, "score") == 0
    override = tmp_path / "override"
    assert run_cli("--config", config, "--out", override, "transform") == 0
    assert (override / "variants" / "original.jsonl").exists()


STAGES = ("transform", "generate", "score", "analyze")
ALL_VARIANTS = [v.value for v in Variant]

# (field, INI key, INI text, its value, flag arguments, their value,
#  the stages whose subcommand takes the flag (None: before the stage), default)
SETTING_CASES = [
    ("corpus_path", "corpus.path", "a.jsonl", "a.jsonl",
     ["--corpus", "b.jsonl"], "b.jsonl", ("transform",), ""),
    ("train_path", "corpus.train_path", "a.jsonl", "a.jsonl",
     ["--shots-corpus", "b.jsonl"], "b.jsonl", ("generate",), ""),
    ("min_tokens", "corpus.min_tokens", "5", 5, ["--min-tokens", "6"], 6, ("transform",), 3),
    ("max_tokens", "corpus.max_tokens", "50", 50, ["--max-tokens", "60"], 60, ("transform",), 256),
    ("variants", "run.variants", "original, no_function_body", ["original", "no_function_body"],
     ["--variant", "obfuscated_names"], ["obfuscated_names"], ("transform",), ALL_VARIANTS),
    ("model_id", "model.id", "m1", "m1", ["--model", "m2"], "m2", ("generate",), ""),
    ("endpoint", "model.endpoint", "http://a", "http://a",
     ["--endpoint", "http://b"], "http://b", ("generate",), ""),
    ("mock", "model.mock", "replay", "replay", ["--mock", "echo"], "echo", ("generate",), ""),
    ("temperature", "model.temperature", "0.5", 0.5,
     ["--temperature", "0.9"], 0.9, ("generate",), 0.0),
    ("gen_max_tokens", "model.max_tokens", "64", 64,
     ["--gen-max-tokens", "32"], 32, ("generate",), 128),
    ("shots", "model.shots", "4", 4, ["--shots", "2"], 2, ("generate",), 10),
    ("tokenizer", "tokenizer.spec", "a.json", "a.json",
     ["--tokenizer", "b.json"], "b.json", ("score", "analyze"), "fallback"),
    ("embedding_endpoint", "embedding.endpoint", "http://a", "http://a",
     ["--embedding-endpoint", "http://b"], "http://b", ("score",), ""),
    ("embedding_dim", "embedding.dim", "64", 64, ["--embedding-dim", "32"], 32, ("score",), 256),
    ("seed", "run.seed", "7", 7, ["--seed", "8"], 8, None, None),
    ("out_dir", "run.out", "a", "a", ["--out", "b"], "b", None, "out"),
    ("jobs", "run.jobs", "3", 3, ["--jobs", "2"], 2, None, 4),
    ("max_errors", "run.max_errors", "5", 5, ["--max-errors", "6"], 6, ("transform", "score"), 0),
    # A flag without a value; the INI text differs from the default and
    # so equals the flag's value (test_lowercase_bleu_words covers the rest).
    ("lowercase_bleu", "report.lowercase_bleu", "yes", True,
     ["--lowercase-bleu"], True, ("score",), False),
    ("report_dir", "report.dir", "a", "a", ["--report", "b"], "b", ("analyze",), ""),
]


def parsed_config(*argv):
    return config_from_args(build_parser().parse_args([str(a) for a in argv]))


def write_ini(path, key, text):
    section, option = key.split(".")
    path.write_text(f"[{section}]\n{option} = {text}\n", encoding="utf-8")
    return path


def test_setting_cases_name_every_config_field():
    assert sorted(row[0] for row in SETTING_CASES) == sorted(f.name for f in fields(RunConfig))


@pytest.mark.parametrize("row", SETTING_CASES, ids=[row[0] for row in SETTING_CASES])
def test_each_setting_from_ini_and_flag(tmp_path, row, capsys):
    attr, key, ini_text, ini_value, flag, flag_value, stages, default = row
    ini = write_ini(tmp_path / "run.ini", key, ini_text)
    takes = STAGES if stages is None else stages
    for stage in STAGES:
        # the default, and the INI value, whatever the stage
        assert getattr(parsed_config(stage), attr) == default, stage
        assert getattr(parsed_config("--config", ini, stage), attr) == ini_value, stage
    for stage in takes:
        before, after = (flag, []) if stages is None else ([], flag)
        assert getattr(parsed_config(*before, stage, *after), attr) == flag_value, stage
        # the flag beats the INI value
        config = parsed_config("--config", ini, *before, stage, *after)
        assert getattr(config, attr) == flag_value, stage
    # refused after every other stage, and a stage's flag before the stage
    refused = [[stage, *flag] for stage in STAGES if stage not in takes or stages is None]
    if stages is not None:
        refused.append([*flag, takes[0]])
    for argv in refused:
        with pytest.raises(SystemExit) as exc:
            parsed_config(*argv)
        assert exc.value.code == 2, argv
    capsys.readouterr()


@pytest.mark.parametrize("text, value", [
    ("1", True), ("yes", True), ("TRUE", True), ("On", True),
    ("0", False), ("no", False), ("False", False), ("OFF", False),
])
def test_lowercase_bleu_words(tmp_path, text, value):
    ini = write_ini(tmp_path / "run.ini", "report.lowercase_bleu", text)
    assert parsed_config("--config", ini, "score").lowercase_bleu is value
    assert parsed_config("--config", ini, "score", "--lowercase-bleu").lowercase_bleu is True


@pytest.mark.parametrize("text", ["ture", "", "2", "y es"])
def test_lowercase_bleu_rejects_other_words(tmp_path, text, capsys):
    ini = write_ini(tmp_path / "run.ini", "report.lowercase_bleu", text)
    assert run_cli("--config", ini, "--seed", 1, "--out", tmp_path / "out", "score") == 2
    assert "bad config value report.lowercase_bleu" in capsys.readouterr().err


@pytest.mark.parametrize("text, named", [
    ("[model]\ntemprature = 0.9\n", "model.temprature"),
    ("[modle]\nid = m\n", "modle.id"),
    ("[DEFAULT]\ntemprature = 0.9\n[model]\nid = m\n[corpus]\n", "DEFAULT.temprature"),
])
def test_unknown_config_key_is_an_error(tmp_path, corpus5, text, named, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    argv = ["--config", ini, "--seed", 1, "--out", out, "transform", "--corpus", corpus5]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert named in err
    assert err.count("temprature") <= 1  # a DEFAULT key is named once
    assert not out.exists()


@pytest.mark.parametrize(
    "data", [b"id = m\n", b"[model]\nid = m\nid = n\n", b"[model]\nid = \xff\n"]
)
def test_unreadable_config_is_an_error(tmp_path, data, capsys):
    ini = tmp_path / "run.ini"
    ini.write_bytes(data)
    assert run_cli("--config", ini, "--seed", 1, "--out", tmp_path / "out", "generate") == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_readme_lists_every_setting():
    from sumprobe.cli import SETTINGS

    assert [s.attr for s in SETTINGS] == [f.name for f in fields(RunConfig)]
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration file")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `([\w.]+)` \| `(--[\w-]+)` \| ([\w, ]+) \|", section, re.M)
    assert sorted(rows) == sorted(
        (s.key, s.flag, ", ".join(s.stages) or "global") for s in SETTINGS
    )


def test_default_section_keys_apply_where_they_are_settings(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[DEFAULT]\nendpoint = http://a\n[model]\n[embedding]\n[corpus]\n", encoding="utf-8"
    )
    config = parsed_config("--config", ini, "score")
    assert (config.endpoint, config.embedding_endpoint) == ("http://a", "http://a")


def test_config_is_read_as_utf8(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[model]\nid = modèle-ü\n", encoding="utf-8")
    # An ASCII locale, without UTF-8 mode or locale coercion.
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from sumprobe.cli import load_config; "
         "print(ascii(load_config(sys.argv[1]).model_id))", str(ini)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ascii("modèle-ü")


@pytest.mark.parametrize("where, dim", [("flag", "0"), ("flag", "-4"), ("ini", "0")])
def test_embedding_dimension_below_one_is_refused(tmp_path, corpus5, where, dim, capsys):
    out = tmp_path / "out"
    run_cli("--seed", 1, "--out", out, "transform", "--corpus", corpus5, "--variant", "original")
    run_cli("--seed", 1, "--out", out, "generate", "--model", "m", "--mock", "echo")
    runs = (out / "runs.jsonl").read_bytes()
    capsys.readouterr()
    if where == "ini":
        ini = write_ini(tmp_path / "run.ini", "embedding.dim", dim)
        argv = ["--config", ini, "--seed", 1, "--out", out, "score"]
    else:
        argv = ["--seed", 1, "--out", out, "score", "--embedding-dim", dim]
    assert run_cli(*argv) == 2
    assert "embedding dimension" in capsys.readouterr().err
    assert (out / "runs.jsonl").read_bytes() == runs
    with pytest.raises(HarnessError):
        sumprobe.metrics.HashedOneHotProvider(0)


@pytest.mark.parametrize("key, flag, text", [
    ("model.temperature", "--temperature", "nan"),
    ("model.temperature", "--temperature", "inf"),
    ("model.temperature", "--temperature", "-inf"),
    ("model.shots", "--shots", "-3"),
    ("run.jobs", "--jobs", "0"),
    ("run.jobs", "--jobs", "-1"),
])
def test_out_of_range_settings_are_refused(tmp_path, corpus5, key, flag, text, capsys):
    out = tmp_path / "out"
    run_cli("--seed", 1, "--out", out, "transform", "--corpus", corpus5, "--variant", "original")
    capsys.readouterr()
    generate = ["generate", "--model", "m", "--mock", "echo"]
    value = [f"{flag}={text}"]
    argv = value + generate if flag == "--jobs" else generate + value
    with pytest.raises(SystemExit) as exc:
        run_cli("--seed", 1, "--out", out, *argv)
    assert exc.value.code == 2
    assert f"argument {flag}: invalid" in capsys.readouterr().err
    ini = write_ini(tmp_path / "run.ini", key, text)
    assert run_cli("--config", ini, "--seed", 1, "--out", out, *generate) == 2
    assert f"bad config value {key}: invalid" in capsys.readouterr().err
    assert not (out / "runs.jsonl").exists()


def test_least_settings_in_range_are_taken():
    config = parsed_config("--jobs", "1", "generate", "--shots", "0", "--temperature", "-0.5")
    assert (config.jobs, config.shots, config.temperature) == (1, 0, -0.5)


def test_console_entry_point(tmp_path, corpus5):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "sumprobe.cli", "--seed", "5", "--out", str(out),
         "transform", "--corpus", str(corpus5), "--variant", "original"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "transform:" in proc.stdout


def test_outputs_do_not_depend_on_hash_seed_or_jobs(tmp_path):
    # One process per run: string hashing, and so the order of every set,
    # is fixed when the interpreter starts.
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, 40, seed=17)
    outs = []
    for hash_seed, jobs in (("0", "1"), ("1", "2")):
        out = tmp_path / f"out-{hash_seed}-{jobs}"
        child = (
            "import sys\n"
            "from sumprobe.cli import main\n"
            f"common = ['--seed', '9', '--jobs', '{jobs}', '--out', {str(out)!r}]\n"
            f"for args in (['transform', '--corpus', {str(corpus)!r}],\n"
            "             ['generate', '--model', 'm', '--mock', 'echo'],\n"
            "             ['score'], ['analyze']):\n"
            "    if main(common + args) != 0:\n"
            "        sys.exit(f'{args[0]} failed')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", child], capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONDONTWRITEBYTECODE": "1"},
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    names = ["runs.jsonl", "pairings.jsonl"] + sorted(
        f"report/{p.name}" for p in (outs[0] / "report").iterdir()
    )
    assert sorted(p.name for p in (outs[1] / "report").iterdir()) == \
        sorted(p.name for p in (outs[0] / "report").iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_score_with_bpe_vocab_file(tmp_path, corpus5, bpe_vocab):
    out = tmp_path / "out"
    run_cli("--seed", 4, "--out", out, "transform", "--corpus", corpus5, "--variant", "original")
    run_cli("--seed", 4, "--out", out, "generate", "--model", "m", "--mock", "echo")
    assert run_cli("--seed", 4, "--out", out, "score", "--tokenizer", bpe_vocab) == 0
    records = [json.loads(line) for line in (out / "runs.jsonl").read_text().splitlines()]
    assert all(r["metrics"]["tokenizer_id"] == "bpe:vocab.json" for r in records)
    assert all(r["metrics"]["bleu4"] == 100.0 for r in records)


def test_generate_with_shots_corpus(tmp_path, corpus5):
    train = tmp_path / "train.jsonl"
    write_corpus(train, 15, seed=31)
    out = tmp_path / "out"
    run_cli("--seed", 2, "--out", out, "transform", "--corpus", corpus5, "--variant", "original")
    assert run_cli("--seed", 2, "--out", out, "generate", "--model", "m",
                   "--mock", "echo", "--shots-corpus", train) == 0
    records = (out / "runs.jsonl").read_text().splitlines()
    assert len(records) == 5


def dense_vector(tok):
    rng = random.Random("v:" + tok)
    return [rng.gauss(0, 1) for _ in range(12)]


def echo_run(tmp_path, examples=8, seed=41):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, examples, seed=seed)
    out = tmp_path / "out"
    assert run_cli("--seed", 5, "--out", out, "transform", "--corpus", corpus) == 0
    assert run_cli("--seed", 5, "--out", out, "generate", "--model", "m", "--mock", "echo") == 0
    return out


def record_subwords(out):
    """(example id, variant) -> subwords of the reference plus generation."""
    tokenize = FallbackTokenizer()
    refs = {}
    for path in (out / "variants").iterdir():
        for line in path.read_text().splitlines():
            row = json.loads(line)
            refs[(row["id"], path.stem)] = row["docstring"]
    subwords = {}
    for line in (out / "runs.jsonl").read_text().splitlines():
        rec = json.loads(line)
        key = (rec["example_id"], rec["variant"])
        subwords[key] = tokenize(refs[key]) + tokenize(rec["generated"])
    return subwords


def score_errors(out):
    return [json.loads(line) for line in (out / "errors_score.jsonl").read_text().splitlines()]


def test_score_against_dead_embedding_service(tmp_path, monkeypatch):
    out = echo_run(tmp_path)
    monkeypatch.setattr(RemoteEmbeddingProvider, "retry_delay", lambda self, attempt: 0.0)

    def script(body, hit):
        return 500, {"error": "down"}

    with serve(script) as (url, hits):
        assert run_cli("--seed", 5, "--out", out, "score", "--embedding-endpoint", url) == 1
        # one request's retries in all, not one per record
        assert len(hits) == 3
    runs = [json.loads(line) for line in (out / "runs.jsonl").read_text().splitlines()]
    assert len(runs) == 40
    errors = score_errors(out)
    assert sorted(e["where"] for e in errors) == sorted(
        f"{r['example_id']}/{r['variant']}" for r in runs
    )
    assert all("unavailable after 3 attempts" in e["error"] for e in errors)
    assert all(r["metrics"] is None for r in runs)
    assert run_cli("--seed", 5, "--out", out, "score", "--embedding-endpoint", url,
                   "--max-errors", 40) == 0


def closed_port_url():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}/embed"


def test_failed_rescore_keeps_no_earlier_scores(tmp_path, monkeypatch, capsys):
    out = echo_run(tmp_path)
    assert run_cli("--seed", 5, "--out", out, "score") == 0
    runs = [json.loads(line) for line in (out / "runs.jsonl").read_text().splitlines()]
    assert all(r["metrics"]["bertscore_f1"] is not None for r in runs)
    monkeypatch.setattr(RemoteEmbeddingProvider, "retry_delay", lambda self, attempt: 0.0)
    assert run_cli("--seed", 5, "--out", out, "score", "--embedding-endpoint",
                   closed_port_url(), "--max-errors", 100) == 0
    assert len(score_errors(out)) == len(runs)
    runs = [json.loads(line) for line in (out / "runs.jsonl").read_text().splitlines()]
    assert not [r for r in runs if r["metrics"] and r["metrics"]["bertscore_f1"] is not None]
    capsys.readouterr()
    assert run_cli("--seed", 5, "--out", out, "analyze") == 2
    assert "sumprobe score" in capsys.readouterr().err


def test_score_reports_a_record_whose_example_is_missing(tmp_path):
    out = echo_run(tmp_path)
    assert run_cli("--seed", 5, "--out", out, "score") == 0
    variant = out / "variants" / "no_function_body.jsonl"
    rows = variant.read_text().splitlines(keepends=True)
    missing = (json.loads(rows[2])["id"], "no_function_body")
    variant.write_text("".join(rows[:2] + rows[3:]))

    assert run_cli("--seed", 5, "--out", out, "score") == 1
    assert score_errors(out) == [{"stage": "score", "where": "/".join(missing),
                                  "error": "example missing from variant corpus"}]
    runs = {(r["example_id"], r["variant"]): r
            for r in map(json.loads, (out / "runs.jsonl").read_text().splitlines())}
    assert len(runs) == 40
    # not the scores of the earlier run
    assert runs.pop(missing)["metrics"] is None
    assert all(r["metrics"]["bleu4"] == 100.0 for r in runs.values())
    assert run_cli("--seed", 5, "--out", out, "score", "--max-errors", 1) == 0
    assert len(score_errors(out)) == 1


def test_zero_vector_fails_only_records_with_that_token(tmp_path):
    out = echo_run(tmp_path)
    subwords = record_subwords(out)
    counts = {}
    for sws in subwords.values():
        for tok in set(sws):
            counts[tok] = counts.get(tok, 0) + 1
    zero = min((n, tok) for tok, n in counts.items() if n >= 2)[1]
    assert counts[zero] < len(subwords)

    def script(body, hit):
        return 200, {"vectors": [[0.0] * 12 if tok == zero else dense_vector(tok)
                                 for tok in body["tokens"]]}

    with serve(script) as (url, hits):
        assert run_cli("--seed", 5, "--out", out, "score", "--embedding-endpoint", url) == 1
        assert len(hits) == 1
    failed = {tuple(e["where"].split("/")) for e in score_errors(out)}
    assert failed == {key for key, sws in subwords.items() if zero in sws}
    assert all("zero vector" in e["error"] for e in score_errors(out))


def test_zero_vector_spares_the_other_records_of_its_shape(tmp_path):
    out = echo_run(tmp_path, examples=12)
    clean = tmp_path / "clean"
    shutil.copytree(out, clean)
    subwords = record_subwords(out)
    # an echo record's BERTScore pairs its reference with itself, so its
    # stack shape is (n, n) for n subwords a side
    shape = {key: len(sws) // 2 for key, sws in subwords.items()}
    zero = min(
        tok for sws in subwords.values() for tok in sws
        if any(shape[other] == shape[key] and tok not in subwords[other]
               for key in subwords if tok in subwords[key] for other in subwords)
    )
    hit = {key for key, sws in subwords.items() if zero in sws}
    spared = {key for key in subwords if key not in hit}
    assert {shape[key] for key in hit} & {shape[key] for key in spared}

    def script(body, hit):
        return 200, {"vectors": [[0.0] * 12 if tok == zero else dense_vector(tok)
                                 for tok in body["tokens"]]}

    def clean_script(body, hit):
        return 200, {"vectors": [dense_vector(tok) for tok in body["tokens"]]}

    for run_dir, reply in ((out, script), (clean, clean_script)):
        with serve(reply) as (url, _):
            assert run_cli("--seed", 5, "--out", run_dir, "score", "--embedding-endpoint", url,
                           "--max-errors", 100) == 0
    assert {tuple(e["where"].split("/")) for e in score_errors(out)} == hit

    def runs(run_dir):
        rows = [json.loads(line) for line in (run_dir / "runs.jsonl").read_text().splitlines()]
        return {(r["example_id"], r["variant"]): r for r in rows}

    scored, expected = runs(out), runs(clean)
    assert all(scored[key]["metrics"] is None for key in hit)
    assert all(scored[key] == expected[key] for key in spared)
    assert all(scored[key]["metrics"]["bertscore_f1"] is not None for key in spared)


def test_score_embeds_each_subword_once_in_bounded_requests(tmp_path, monkeypatch):
    out = echo_run(tmp_path)
    other = tmp_path / "other"
    shutil.copytree(out, other)
    distinct = {tok for sws in record_subwords(out).values() for tok in sws}
    batch = 7

    def script(body, hit):
        return 200, {"vectors": [dense_vector(tok) for tok in body["tokens"]]}

    with serve(script) as (url, hits):
        assert run_cli("--seed", 5, "--out", other, "score", "--embedding-endpoint", url) == 0
        assert len(hits) == math.ceil(len(distinct) / sumprobe.metrics.EMBED_BATCH_TOKENS)
        hits.clear()
        monkeypatch.setattr(sumprobe.metrics, "EMBED_BATCH_TOKENS", batch)
        assert run_cli("--seed", 5, "--out", out, "score", "--embedding-endpoint", url) == 0
        sent = [tok for body in hits for tok in body["tokens"]]
        assert len(sent) == len(set(sent))
        assert set(sent) == distinct
        assert all(len(body["tokens"]) <= batch for body in hits)
        assert len(hits) == math.ceil(len(distinct) / batch)
    # how tokens are grouped into requests does not change a single bit
    assert (out / "runs.jsonl").read_bytes() == (other / "runs.jsonl").read_bytes()


def test_generate_keeps_records_when_a_cache_write_fails(tmp_path, corpus5, monkeypatch):
    out = tmp_path / "out"
    run_cli("--seed", 2, "--out", out, "transform", "--corpus", corpus5, "--variant", "original")
    ids = [json.loads(line)["id"]
           for line in (out / "variants" / "original.jsonl").read_text().splitlines()]
    put = GenerationCache.put

    def failing_put(self, key, entry):
        if entry["example_id"] == ids[2]:
            raise OSError(28, "No space left on device")
        put(self, key, entry)

    monkeypatch.setattr(GenerationCache, "put", failing_put)

    def script(body, hit):
        return 200, {"choices": [{"message": {"content": "Does a thing."}}]}

    with serve(script) as (url, _):
        assert run_cli("--seed", 2, "--out", out, "generate", "--model", "m",
                       "--endpoint", url) == 0
    saved = [json.loads(line)["example_id"]
             for line in (out / "runs.jsonl").read_text().splitlines()]
    assert sorted(saved) == sorted(ids[:2] + ids[3:])
    errors = [json.loads(line)
              for line in (out / "errors_generate.jsonl").read_text().splitlines()]
    assert [e["where"] for e in errors] == [f"{ids[2]}/original"]
    assert "No space left on device" in errors[0]["error"]


def prompt_answer(prompt):
    """A summary that differs from prompt to prompt."""
    return {"choices": [{"message": {"content": f"Summary {hash_text(prompt)}."}}]}


def hash_text(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def sent_prompts(hits):
    return [body["messages"][0]["content"] for body in hits]


def test_generate_retries_after_the_other_prompts_at_one_job(tmp_path, corpus5):
    out = tmp_path / "out"
    run_cli("--seed", 2, "--out", out, "transform", "--corpus", corpus5, "--variant", "original")
    failing = []

    def script(body, hit):
        prompt = body["messages"][0]["content"]
        if hit == 0:
            failing.append(prompt)
            return 503, {"error": "busy"}
        return 200, prompt_answer(prompt)

    with serve(script) as (url, hits):
        assert run_cli("--seed", 2, "--jobs", 1, "--out", out, "generate", "--model", "m",
                       "--endpoint", url) == 0
    prompts = sent_prompts(hits)
    # the backoff did not hold the only worker: every other prompt went first
    assert len(prompts) == 6 and len(set(prompts)) == 5
    assert prompts[0] == prompts[-1] == failing[0]
    assert (out / "errors_generate.jsonl").read_text() == ""


def test_generate_keeps_at_most_jobs_requests_in_flight(tmp_path, corpus5):
    out = tmp_path / "out"
    run_cli("--seed", 2, "--out", out, "transform", "--corpus", corpus5)
    lock = threading.Lock()
    running = [0]
    most = [0]

    def script(body, hit):
        with lock:
            running[0] += 1
            most[0] = max(most[0], running[0])
        time.sleep(0.01)
        with lock:
            running[0] -= 1
        return 200, prompt_answer(body["messages"][0]["content"])

    with serve(script) as (url, hits):
        assert run_cli("--seed", 2, "--jobs", 3, "--out", out, "generate", "--model", "m",
                       "--endpoint", url) == 0
    assert len((out / "runs.jsonl").read_text().splitlines()) == 25
    assert 1 <= most[0] <= 3


def test_generate_gives_up_on_one_prompt_and_keeps_the_others(tmp_path, corpus5, monkeypatch):
    out = tmp_path / "out"
    run_cli("--seed", 2, "--out", out, "transform", "--corpus", corpus5, "--variant", "original")
    rows = [json.loads(line)
            for line in (out / "variants" / "original.jsonl").read_text().splitlines()]
    dead = rows[1]
    monkeypatch.setattr(ChatCompletionsClient, "retry_delay", lambda self, attempt: 0.0)

    def script(body, hit):
        prompt = body["messages"][0]["content"]
        if dead["code"] in prompt:
            return 500, {"error": "down"}
        return 200, prompt_answer(prompt)

    with serve(script) as (url, hits):
        assert run_cli("--seed", 2, "--out", out, "generate", "--model", "m",
                       "--endpoint", url) == 0
    prompts = sent_prompts(hits)
    assert sum(dead["code"] in p for p in prompts) == ChatCompletionsClient(url).max_retries
    errors = [json.loads(line)
              for line in (out / "errors_generate.jsonl").read_text().splitlines()]
    assert [e["where"] for e in errors] == [f"{dead['id']}/original"]
    assert "unavailable after 5 attempts" in errors[0]["error"]
    saved = [json.loads(line)["example_id"]
             for line in (out / "runs.jsonl").read_text().splitlines()]
    assert sorted(saved) == sorted(r["id"] for r in rows if r is not dead)


def test_generate_sends_each_distinct_prompt_once(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, 8, seed=1111)
    rows = [json.loads(line) for line in corpus.read_text().splitlines()]
    # each duplicate next to its original, so that two workers would take both
    for i in (2, 1, 0):
        rows.insert(i + 1, {"id": f"dup{i}", "code": rows[i]["code"],
                            "docstring": f"another account {i}"})
    corpus.write_text("".join(json.dumps(row) + "\n" for row in rows))

    def script(body, hit):
        time.sleep(0.02)
        return 200, prompt_answer(body["messages"][0]["content"])

    runs = []
    for jobs in (4, 1):
        out = tmp_path / f"out{jobs}"
        assert run_cli("--seed", 17, "--out", out, "transform", "--corpus", corpus) == 0
        codes = {json.loads(line)["code"]
                 for path in (out / "variants").iterdir()
                 for line in path.read_text().splitlines()}
        with serve(script) as (url, hits):
            assert run_cli("--seed", 17, "--jobs", jobs, "--out", out, "generate",
                           "--model", "m", "--endpoint", url) == 0
        assert len(hits) == len(set(sent_prompts(hits))) == len(codes)
        assert len((out / "runs.jsonl").read_text().splitlines()) == 11 * 5
        runs.append((out / "runs.jsonl").read_bytes())
    assert runs[0] == runs[1]
