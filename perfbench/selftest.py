"""Tests of the benchmark's own parts: every checker rejects a corrupted
output, the BPE learner is deterministic, the tracer wraps every alias, and
BENCHMARK.json names the metrics run.py prints.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import csv
import json
import shutil
import tempfile
import threading
import unittest
from collections import Counter
from pathlib import Path

import run  # sets up the import path for sumprobe, corpusgen and the helpers
import bpe
import checks
import stub
from tracer import Tracer, aggregate

from sumprobe import analysis, cli, subtok, transform
from sumprobe.subtok import FallbackTokenizer, code_subwords, tokenizer_from_spec


def pipeline(d: Path, examples: int, seed: int) -> Path:
    """An echo run of the real program; returns its run directory."""
    import corpusgen

    corpus = d / "corpus.jsonl"
    corpusgen.write_corpus(corpus, examples, seed)
    out = str(d / "out")
    base = ["--seed", str(seed), "--out", out, "--jobs", "1"]
    run.run_stage([*base, "transform", "--corpus", str(corpus)])
    run.run_stage([*base, "generate", "--model", "echo", "--mock", "echo"])
    run.run_stage([*base, "score"])
    run.run_stage([*base, "analyze"])
    return d / "out"


class CheckersRejectCorruption(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = Path(tempfile.mkdtemp(dir=run.spread_dir(run.WORK)))
        cls.corpus_seed = 3
        # 400 examples from seed 3 include duplicate snippets, so some echo
        # records carry another record's reference.
        cls.out = pipeline(cls.tmp, 400, cls.corpus_seed)
        cls.corpus = checks.read_jsonl(cls.tmp / "corpus.jsonl")
        cls.rows = checks.variant_rows(cls.out)
        cls.records = checks.read_jsonl(cls.out / "runs.jsonl")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def test_unchanged_outputs_pass(self):
        self.assertEqual(checks.check_transform(self.corpus, self.out), [])
        self.assertEqual(checks.check_names(self.rows), [])
        problems, mismatches = checks.check_records(self.records, self.rows, echo=True)
        self.assertEqual(problems, [])
        self.assertGreater(len(mismatches), 0)
        self.assertEqual(checks.check_report(self.records, self.out / "report"), [])

    def echo_record(self) -> int:
        for i, rec in enumerate(self.records):
            row = self.rows[rec["variant"]][rec["example_id"]]
            if rec["generated"] == row["docstring"]:
                return i
        raise AssertionError("no echo record")

    def test_changed_bleu_is_rejected(self):
        records = copy.deepcopy(self.records)
        records[self.echo_record()]["metrics"]["bleu4"] = 99.99
        problems, _ = checks.check_records(records, self.rows)
        self.assertEqual(len(problems), 1)
        self.assertIn("echo scores", problems[0])

    def test_copy_count_off_by_one_is_rejected(self):
        records = copy.deepcopy(self.records)
        records[0]["metrics"]["p_copy_reference_matched"] += 1
        problems, _ = checks.check_records(records, self.rows)
        self.assertTrue(any("p_copy_reference counts" in p for p in problems))

    def test_missing_record_is_rejected(self):
        problems, _ = checks.check_records(self.records[1:], self.rows)
        self.assertEqual(problems, ["runs.jsonl: 1 records missing, 0 unexpected"])

    def test_wrong_bucket_is_rejected(self):
        records = copy.deepcopy(self.records)
        records[0]["metrics"]["bucket"] = "=0" if records[0]["metrics"]["bucket"] != "=0" else "(0,10]"
        problems, _ = checks.check_records(records, self.rows)
        self.assertTrue(any("bucket" in p for p in problems))

    def test_unexplained_echo_mismatch_is_rejected(self):
        records = copy.deepcopy(self.records)
        records[self.echo_record()]["generated"] = "Something nobody wrote."
        problems, _ = checks.check_records(records, self.rows, echo=True)
        self.assertTrue(any("no reference of an identical prompt" in p for p in problems))

    def test_wrong_obfuscated_name_is_rejected(self):
        rows = copy.deepcopy(self.rows)
        ex_id, row = next(iter(rows["obfuscated_names"].items()))
        name = checks.defined_name(row["code"])
        row["code"] = row["code"].replace(name, name + "x", 1)
        problems = checks.check_names(rows)
        self.assertEqual(problems, [f"obfuscated {ex_id}: name {name + 'x'!r}, expected {name!r}"])

    def test_donor_handed_out_twice_is_rejected(self):
        targets = [("a", "def load_user(x):\n    return x\n"),
                   ("b", "def save_item(y):\n    return y\n"),
                   ("c", "def scan_node(z):\n    return z\n"),
                   ("d", "def pack_item(w):\n    return w\n")]
        good = {"a": "save_item", "b": "scan_node", "c": "pack_item", "d": "load_user"}
        self.assertEqual(checks.check_donors(targets, good), [])
        # c takes save_item a second time while pack_item is still unused.
        twice = {"a": "save_item", "b": "load_user", "c": "save_item", "d": "scan_node"}
        problems = checks.check_donors(targets, twice)
        self.assertEqual(len(problems), 1)
        self.assertIn("reused while 1 fitting names were unused", problems[0])

    def test_colliding_donor_is_rejected(self):
        targets = [("a", "def load_user(save_item):\n    return save_item\n"),
                   ("b", "def save_item(y):\n    return y\n")]
        problems = checks.check_donors(targets, {"a": "save_item", "b": "load_user"})
        self.assertEqual(problems, ["adversarial a: donor 'save_item' collides with the target"])

    def test_reuse_allowed_once_no_unused_name_fits(self):
        targets = [("a", "def load_user(x):\n    return x\n"),
                   ("b", "def save_item(y):\n    return y\n")]
        self.assertEqual(checks.check_donors(targets, {"a": "save_item", "b": "load_user"}), [])
        # c's only unused name is its own, so it may reuse one.
        self.assertEqual(checks.check_donors(
            targets + [("c", "def save_item(z):\n    return z\n")],
            {"a": "save_item", "b": "load_user", "c": "load_user"}), [])

    def test_missing_variant_row_is_rejected(self):
        d = self.tmp / "missing"
        shutil.copytree(self.out / "variants", d / "variants")
        shutil.copy(self.out / "rejects.jsonl", d / "rejects.jsonl")
        path = d / "variants" / "no_function_body.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[1:]), encoding="utf-8")
        problems = checks.check_transform(self.corpus, d)
        self.assertEqual(problems, ["no_function_body: 1 accepted examples missing, 0 unexpected"])

    def test_report_count_off_is_rejected(self):
        d = self.tmp / "report"
        shutil.copytree(self.out / "report", d)
        rows = checks.read_csv(d / "buckets.csv")
        rows[0]["count"] = str(int(rows[0]["count"]) + 1)
        with (d / "buckets.csv").open("w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        problems = checks.check_report(self.records, d)
        self.assertIn("buckets.csv counts do not add up to the records", problems)

    def test_fallback_rules_on_whole_text_equal_code_subwords(self):
        tokenize = FallbackTokenizer()
        for variant in self.rows.values():
            for row in variant.values():
                self.assertEqual(checks.split_words(row["code"]),
                                 code_subwords(row["code"], tokenize))

    def test_subword_concatenation(self):
        texts = {row["docstring"] for row in self.rows["original"].values()}
        self.assertEqual(checks.check_subwords(texts, lambda t: t.split()), [])
        problems = checks.check_subwords({"a b"}, lambda t: ["a"])
        self.assertEqual(len(problems), 1)


class HttpChecks(unittest.TestCase):
    def setUp(self):
        self.rows = {v: {} for v in checks.VARIANTS}
        self.rows["original"]["e1"] = {"id": "e1", "code": "def load_user(a):\n    return a\n",
                                       "docstring": "Load the user and return it."}
        gen = stub.answer(self.rows["original"]["e1"]["code"])
        self.records = [{
            "example_id": "e1", "variant": "original", "model_id": "stub", "generated": gen,
            "metrics": {"bertscore_f1": checks.bucket_overlap_f1(
                self.rows["original"]["e1"]["docstring"], gen)},
        }]
        key = stub.code_hash(self.rows["original"]["e1"]["code"])
        self.stats = {"chat_requests": 2, "chat_retried": 1, "chat_distinct_served": 1,
                      "chat_served_digest": stub.code_hash(key)}
        self.fail = {key}

    def test_consistent_outputs_pass(self):
        self.assertEqual(checks.check_http(self.records, self.rows, self.stats, self.fail), [])

    def test_wrong_generation_and_bertscore_are_rejected(self):
        self.records[0]["generated"] += " Extra."
        self.records[0]["metrics"]["bertscore_f1"] += 1
        problems = checks.check_http(self.records, self.rows, self.stats, self.fail)
        self.assertEqual(len(problems), 2)

    def test_too_many_requests_are_rejected(self):
        self.stats["chat_requests"] = 3
        problems = checks.check_http(self.records, self.rows, self.stats, self.fail)
        self.assertEqual(len(problems), 1)
        self.assertIn("chat requests", problems[0])

    def test_stub_round_trip(self):
        server = stub.make_server(stub.Stub(0.0, 0.0))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{server.server_address[1]}"
            client = run.Stub.__new__(run.Stub)
            client.url = url
            client.call("/reset", {"fail": sorted(self.fail)})
            from sumprobe import llmgen, metrics

            chat = llmgen.ChatCompletionsClient(url + "/v1/chat/completions", backoff=0.0)
            prompt = llmgen.build_prompt(
                __import__("sumprobe.corpus", fromlist=["Example"]).Example(
                    "e1", self.rows["original"]["e1"]["code"], "ref"), []).render()
            text, _, _ = chat.complete(llmgen.GenRequest("stub", prompt))
            self.assertEqual(text, self.records[0]["generated"])
            vectors = metrics.RemoteEmbeddingProvider(url + "/v1/embeddings").embed(["a", "b", "a"])
            self.assertEqual(vectors.shape, (3, stub.EMBED_DIM))
            stats = client.call("/stats")
            self.assertEqual((stats["chat_requests"], stats["chat_retried"]), (2, 1))
            self.assertEqual((stats["embed_tokens"], stats["embed_unique_tokens"]), (3, 2))
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
            self.assertFalse(thread.is_alive())


class BpeLearner(unittest.TestCase):
    def test_learned_vocab_is_deterministic_and_loads(self):
        words = Counter("load_user load_user save_user load_item the the the".split())
        first = bpe.learn(words, 20)
        self.assertEqual(first, bpe.learn(Counter(dict(reversed(list(words.items())))), 20))
        with tempfile.TemporaryDirectory(dir=run.spread_dir(run.WORK)) as d:
            path = Path(d) / "vocab.json"
            path.write_text(json.dumps(first), encoding="utf-8")
            tokenize = tokenizer_from_spec(str(path))
            self.assertEqual(tokenize("load_user"), ["load_user"])
            self.assertEqual("".join(tokenize("load the  saved_items")), "loadthesaved_items")

    def test_merges_follow_counts(self):
        learned = bpe.learn(Counter({"abab": 3, "ab": 1}), 2)
        self.assertEqual(learned["merges"], ["a b", "ab ab"])


class TracerWrapsAliases(unittest.TestCase):
    def test_aliases_methods_and_threads(self):
        originals = (cli.donor_assignment, analysis.lex, FallbackTokenizer.__call__)
        tracer = Tracer()
        with tracer:
            self.assertIsNot(cli.donor_assignment, originals[0])
            self.assertIs(cli.donor_assignment, transform.donor_assignment)
            self.assertIsNot(analysis.lex, originals[1])
            tokenize = FallbackTokenizer()
            tokenize("loadUser")

            both_running = threading.Barrier(2, timeout=10)

            def worker():
                both_running.wait()  # two live threads, so two idents
                subtok.code_subwords("x = 1\n", tokenize)

            threads = [threading.Thread(target=worker) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        self.assertEqual((cli.donor_assignment, analysis.lex, FallbackTokenizer.__call__),
                         originals)
        spans = tracer.spans()
        self.assertEqual(len({s[2] for s in spans if s[3] == "subtok.code_subwords"}), 2)
        values = aggregate(spans)
        self.assertEqual(values["subtok.code_subwords.calls"], 2)
        self.assertEqual(values["pylex.lex.calls"], 2)
        # x, =, 1 per worker, plus the main thread's call
        self.assertEqual(values["subtok.tokenize.calls"], 7)
        self.assertLessEqual(values["subtok.code_subwords.self_s"],
                             values["subtok.code_subwords.s"])


class BenchmarkJson(unittest.TestCase):
    def test_names_match(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         run.PER_LAYER)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
