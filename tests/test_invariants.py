"""The headline invariants, end to end, on generated adversarial corpora:
all four stages with the echo mock."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumprobe.cli import RunConfig, main
from sumprobe.corpus import load_corpus, read_jsonl
from sumprobe.metrics import bleu4, split_description
from sumprobe.transform import Variant

from corpusgen import UNLEXABLE_SNIPPETS, sample_pairs

CODES = [code for code, _ in sample_pairs(4, seed=5)] + UNLEXABLE_SNIPPETS + [
    "def scale(x, k):\r\n    return x * k\r\n",  # CRLF
    "def größe(wert):\n    return wert * 2\n",  # non-ASCII identifiers
    "total = compute(1)\n",  # no def
    "def f(g):\n    return f(g)\n",  # the +1 shift of f is g
    "def add(a,  # left\n        b):\n    return a + b\n",  # comment in the parameter list
    "def half(x):\r\n    # exact\r\n    return x / 2\r\n",  # whole-line comment, CRLF
    "def keep(v):  # def other(w):\n    return v\n",  # comment holding def
    "def show():\n    return 'def f():'\n",  # string holding def f():
    "# größe, in Metern\ndef area(w, h):\n    return w * h\n",  # non-ASCII comment first
    # thousands of lines and distinct identifiers
    "def huge(v0):\n" + "".join(f"    v{i} = v{i - 1} + {i}\n" for i in range(1, 4000))
    + "    return v3999\n",
]
VARIANTS = [v.value for v in Variant]
WORDS = ["returns", "the", "parsed", "value", "of", "a", "given", "key", "Adds", "sum."]
MAX_TOKENS = RunConfig().max_tokens

words = st.lists(st.sampled_from(WORDS), min_size=1, max_size=7).map(" ".join)
# Multi-paragraph, fenced, whitespace-padded, with a line separator or a
# URL, longer than max_tokens, or any text; `words` alone may be under 3 words.
references = st.one_of(
    words,
    st.lists(st.sampled_from(WORDS), min_size=MAX_TOKENS + 1, max_size=MAX_TOKENS + 9).map(
        " ".join),
    st.tuples(words, words).map("\n\n".join),
    st.tuples(words, words).map(lambda p: f"{p[0]}:\n```\n{p[1]}\n```"),
    words.map(lambda text: f"  {text}  \n"),
    st.tuples(words, st.sampled_from(["\u2028", "\u0085"]), words).map("".join),
    words.map(lambda text: f"{text} see http://example.com"),
    st.text(max_size=40),
)
# (code, reference, id): codes repeat across lines with other references;
# no id falls back to path:lineno, and a repeated id is a line error.
lines = st.lists(
    st.tuples(st.sampled_from(CODES), references,
              st.one_of(st.none(), st.sampled_from(["a", "b", "c\u2028d", "é"]))),
    min_size=1, max_size=8,
)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(lines, st.booleans())
@example([(code, "returns the parsed value", None) for code in CODES], False)  # every code
def test_echo_invariants_on_adversarial_corpora(rows, malformed):
    with tempfile.TemporaryDirectory() as tmp:
        corpus, out = Path(tmp) / "corpus.jsonl", Path(tmp) / "out"
        text = [json.dumps({"code": code, "docstring": reference}
                           | ({} if id_ is None else {"id": id_}), ensure_ascii=False)
                for code, reference, id_ in rows]
        if malformed:
            text.insert(len(text) // 2, '{"code": "def f(): pass"')
        corpus.write_text("".join(line + "\n" for line in text), encoding="utf-8")
        common = ["--seed", "3", "--out", str(out)]

        def run_stages():
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(common + ["transform", "--corpus", str(corpus),
                                      "--max-errors", "1000"]) == 0
                assert main(common + ["generate", "--model", "m", "--mock", "echo"]) == 0
                assert main(common + ["score", "--max-errors", "1000"]) == 0
                accepted = read_jsonl(out / "variants" / "original.jsonl")
                assert main(common + ["analyze"]) == (0 if accepted else 2)
            return accepted, {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}

        accepted, tree = run_stages()
        # a rerun over the same directory changes no byte of any file
        assert run_stages()[1] == tree

        # An error row is at `<id>/<variant>`, or at `<path>:<line>` for a
        # line of the corpus that is no example.
        failed, line_errors = set(), 0
        for err in read_jsonl(out / "errors_transform.jsonl"):
            ex_id, _, variant = err["where"].rpartition("/")
            if variant in VARIANTS:
                failed.add((variant, ex_id))
            else:
                line_errors += 1
        rejects = read_jsonl(out / "rejects.jsonl")
        assert len(text) == len(accepted) + len(rejects) + line_errors
        # every description over max_tokens words is rejected as too long
        # (no long one has a URL, and no code is empty)
        too_long = {ex.id for ex in load_corpus(corpus)[0]
                    if len(ex.reference.split()) > MAX_TOKENS}
        assert {r["id"] for r in rejects if r["reason"] == "too_long"} == too_long
        examples = {(variant, ex["id"]): ex for variant in VARIANTS
                    for ex in read_jsonl(out / "variants" / f"{variant}.jsonl")}
        # each accepted example is in a variant's file or has its error row
        for ex in accepted:
            for variant in VARIANTS:
                assert ((variant, ex["id"]) in examples) != ((variant, ex["id"]) in failed)

        for rec in read_jsonl(out / "runs.jsonl"):
            reference = examples[(rec["variant"], rec["example_id"])]["docstring"]
            assert rec["generated"] == reference
            metrics = rec["metrics"]
            if metrics is None:
                continue
            assert metrics["bertscore_f1"] == 100.0
            assert metrics["p_copy_generated"] == metrics["p_copy_reference"]
            ref_words = split_description(reference)
            assert metrics["bleu4"] == bleu4(ref_words, ref_words).value
            # each copied subword is attributed to one category
            _, copied_reference, copied_generated = metrics["copy_attribution"]
            assert sum(copied_reference) == metrics["p_copy_reference_matched"]
            assert sum(copied_generated) == (metrics["p_copy_generated_matched"] or 0)
