"""Checkers for the pipeline's outputs, written apart from the program.

Each checker recomputes what the program must have produced from the
inputs and from the method's own definitions (the letter shift, the donor
rules, the fallback splitting rules, BLEU-4 and BERTScore of identical
texts), and returns a list of problems; an empty list means the output is
right. None of them imports `sumprobe`.
"""

from __future__ import annotations

import csv
import json
import keyword
import re
from collections import Counter, defaultdict
from pathlib import Path

import stub

VARIANTS = (
    "original",
    "obfuscated_names",
    "adversarial_names",
    "no_code_structure",
    "no_function_body",
)

_DEF_RE = re.compile(r"^[ \t]*def[ \t]+([^\W\d]\w*)", re.MULTILINE)
_WORD_RE = re.compile(r"[^\W\d]\w*")
# The fallback splitting rules: an acronym run, a Capitalized word, a
# lowercase run, a digit run, an underscore, or any other single
# non-space character; pieces are lowercased.
_SPLIT_RE = re.compile(r"[A-Z]+(?![a-z])|[A-Z][a-z]+|[a-z]+|[0-9]+|_|[^\sa-zA-Z0-9_]")


def read_jsonl(path: str | Path) -> list[dict]:
    text = Path(path).read_text(encoding="utf-8")
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def read_csv(path: str | Path) -> list[dict]:
    with Path(path).open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def split_words(text: str) -> list[str]:
    return [m.group().lower() for m in _SPLIT_RE.finditer(text)]


def shift(name: str) -> str:
    """a->b ... z->a and A->B ... Z->A; everything else unchanged."""
    out = []
    for ch in name:
        if "a" <= ch <= "z":
            ch = chr((ord(ch) - ord("a") + 1) % 26 + ord("a"))
        elif "A" <= ch <= "Z":
            ch = chr((ord(ch) - ord("A") + 1) % 26 + ord("A"))
        out.append(ch)
    return "".join(out)


def defined_name(code: str) -> str | None:
    match = _DEF_RE.search(code)
    return match.group(1) if match else None


def words_of(code: str) -> set[str]:
    """Every name-like word of the code that is not a keyword: a superset of
    the lexer's identifiers (it also sees words in strings and comments)."""
    return {w for w in _WORD_RE.findall(code) if not keyword.iskeyword(w)}


def bucket_label(matched: int, total: int) -> str:
    if matched == 0:
        return "=0"
    high = -(-100 * matched // (10 * total)) * 10  # ceil to the next decile
    return f"({high - 10},{high}]"


def own_filter_accepts(ex: dict, min_tokens: int = 3, max_tokens: int = 256) -> bool:
    """The documented filter rules, minus lexability (corpusgen snippets
    are lexable by construction)."""
    ref, code = ex["docstring"], ex["code"]
    if not ref.strip() or not code.strip() or "http://" in ref:
        return False
    return min_tokens <= len(ref.split()) <= max_tokens


def check_transform(corpus: list[dict], out: Path) -> list[str]:
    """Every accepted example appears in every variant file, with its
    reference untouched."""
    problems = []
    expected = {ex["id"]: ex for ex in corpus if own_filter_accepts(ex)}
    rejected = {row["id"] for row in read_jsonl(out / "rejects.jsonl")}
    if rejected & set(expected):
        problems.append(f"transform rejected {len(rejected & set(expected))} acceptable examples")
    for variant in VARIANTS:
        rows = {row["id"]: row for row in read_jsonl(out / "variants" / f"{variant}.jsonl")}
        if set(rows) != set(expected):
            problems.append(
                f"{variant}: {len(set(expected) - set(rows))} accepted examples missing, "
                f"{len(set(rows) - set(expected))} unexpected"
            )
        bad_refs = sum(1 for i, row in rows.items()
                       if i in expected and row["docstring"] != expected[i]["docstring"])
        if bad_refs:
            problems.append(f"{variant}: {bad_refs} references changed")
    return problems


def variant_rows(out: Path) -> dict[str, dict[str, dict]]:
    return {
        variant: {row["id"]: row for row in read_jsonl(out / "variants" / f"{variant}.jsonl")}
        for variant in VARIANTS
    }


def check_names(rows: dict[str, dict[str, dict]]) -> list[str]:
    """obfuscated_names carries the letter shift of the original name, and
    adversarial_names donors follow the donor rules."""
    problems = []
    original = rows["original"]
    for ex_id, row in rows["obfuscated_names"].items():
        own = defined_name(original[ex_id]["code"])
        got = defined_name(row["code"])
        if got != shift(own):
            problems.append(f"obfuscated {ex_id}: name {got!r}, expected {shift(own)!r}")
        elif re.search(rf"\b{re.escape(own)}\b", row["code"]):
            problems.append(f"obfuscated {ex_id}: original name {own!r} still present")
    problems.extend(check_donors(
        [(ex_id, original[ex_id]["code"]) for ex_id in original],
        {ex_id: defined_name(row["code"]) for ex_id, row in rows["adversarial_names"].items()},
    ))
    return problems


def check_donors(targets: list[tuple[str, str]], donors: dict[str, str]) -> list[str]:
    """Each donor differs from the target's own name and is not among its
    identifiers; no donor is used twice while the pool (one slot per
    defined name, targets taken in corpus order) still has an unused name
    that fits the target."""
    problems = []
    info = []
    for ex_id, code in targets:
        own = defined_name(code)
        if own is not None:
            info.append((ex_id, own, words_of(code)))
    unused = Counter(own for _, own, _ in info)
    for ex_id, own, idents in info:
        donor = donors.get(ex_id)
        if donor is None:
            continue  # a missing variant row is check_transform's finding
        if donor == own or donor in idents:
            problems.append(f"adversarial {ex_id}: donor {donor!r} collides with the target")
            continue
        if unused[donor] > 0:
            unused[donor] -= 1
            continue
        fitting = [n for n, k in unused.items() if k > 0 and n != own and n not in idents]
        if fitting:
            problems.append(
                f"adversarial {ex_id}: donor {donor!r} reused while {len(fitting)} "
                f"fitting names were unused"
            )
    return problems


def check_records(
    records: list[dict],
    rows: dict[str, dict[str, dict]],
    tokenizer_id: str = "fallback",
    recompute_copy: bool = True,
    echo: bool = False,
) -> tuple[list[str], list[dict]]:
    """Per-record checks. Returns (problems, echo mismatches).

    - every (variant, example) of the variant files has exactly one record;
    - copy rate: (matched, total) for the reference and the generation, and
      the bucket label, against the fallback rules applied to whole texts;
    - echo scores: wherever generated == reference, BLEU-4 and BERTScore F1
      are exactly 100 and p_copy_generated == p_copy_reference;
    - with `echo`, a generation that differs from its reference must be the
      reference of another record whose code (and so prompt) is identical.
    """
    problems = []
    mismatches = []
    expected = {(variant, ex_id) for variant in VARIANTS for ex_id in rows[variant]}
    present = {(rec["variant"], rec["example_id"]) for rec in records}
    if present != expected:
        problems.append(f"runs.jsonl: {len(expected - present)} records missing, "
                        f"{len(present - expected)} unexpected")
    refs_by_code: dict[str, set[str]] = defaultdict(set)
    for variant in VARIANTS:
        for row in rows[variant].values():
            refs_by_code[row["code"]].add(row["docstring"])
    for rec in records:
        where = f"{rec['example_id']}/{rec['variant']}"
        row = rows[rec["variant"]].get(rec["example_id"])
        m = rec.get("metrics")
        if row is None or m is None:
            problems.append(f"{where}: no variant row or no scores")
            continue
        if m["tokenizer_id"] != tokenizer_id:
            problems.append(f"{where}: scored with {m['tokenizer_id']!r}, expected {tokenizer_id!r}")
        reference, generated = row["docstring"], rec["generated"]
        if recompute_copy:
            code_set = set(split_words(row["code"]))
            want = {}
            for side, text in (("reference", reference), ("generated", generated)):
                words = split_words(text)
                want[side] = (sum(1 for w in words if w in code_set), len(words))
                got = (m[f"p_copy_{side}_matched"], m[f"p_copy_{side}_total"])
                if got != want[side]:
                    problems.append(f"{where}: p_copy_{side} counts {got}, expected {want[side]}")
            if m["bucket"] != bucket_label(*want["reference"]):
                problems.append(f"{where}: bucket {m['bucket']!r}, "
                                f"expected {bucket_label(*want['reference'])!r}")
        if generated == reference:
            if m["bleu4"] != 100.0 or m["bertscore_f1"] != 100.0:
                problems.append(f"{where}: echo scores BLEU-4 {m['bleu4']!r}, "
                                f"BERTScore F1 {m['bertscore_f1']!r}")
            if m["p_copy_generated"] != m["p_copy_reference"]:
                problems.append(f"{where}: echo copy rates differ")
        elif echo:
            mismatches.append(rec)
            if generated not in refs_by_code[row["code"]]:
                problems.append(f"{where}: echo generation is no reference of an identical prompt")
    return problems, mismatches


def check_report(records: list[dict], report: Path) -> list[str]:
    """summary.csv and buckets.csv counts add up to the records, per variant
    and in total, and each bucket count matches the stored reference copy
    counts."""
    problems = []
    per_variant = Counter(rec["variant"] for rec in records)
    summary = read_csv(report / "summary.csv")
    if sum(int(r["records"]) for r in summary) != len(records):
        problems.append("summary.csv record counts do not add up to the records")
    for r in summary:
        if int(r["records"]) != per_variant[r["variant"]]:
            problems.append(f"summary.csv: {r['variant']} has {r['records']} records, "
                            f"expected {per_variant[r['variant']]}")
    buckets = read_csv(report / "buckets.csv")
    if sum(int(r["count"]) for r in buckets) != len(records):
        problems.append("buckets.csv counts do not add up to the records")
    want = Counter(
        (rec["variant"], bucket_label(rec["metrics"]["p_copy_reference_matched"],
                                      rec["metrics"]["p_copy_reference_total"]))
        for rec in records
    )
    for r in buckets:
        if int(r["count"]) != want[(r["variant"], r["bucket"])]:
            problems.append(f"buckets.csv: {r['variant']} {r['bucket']} count {r['count']}, "
                            f"expected {want[(r['variant'], r['bucket'])]}")
    return problems


def bucket_overlap_f1(reference: str, generated: str) -> float:
    """BERTScore F1 under the stub's one-hot embeddings: greedy matching
    reduces to the share of tokens whose bucket the other side also has."""
    ref = [stub.bucket(w) for w in split_words(reference)]
    gen = [stub.bucket(w) for w in split_words(generated)]
    if not ref or not gen:
        return 0.0
    recall = sum(1 for b in ref if b in set(gen)) / len(ref)
    precision = sum(1 for b in gen if b in set(ref)) / len(gen)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall) * 100


def check_http(
    records: list[dict],
    rows: dict[str, dict[str, dict]],
    stats: dict,
    fail_hashes: set[str],
) -> list[str]:
    """Generations are the stub's answers, every distinct prompt reached the
    stub, the request count is bounded, and BERTScore is bucket overlap."""
    problems = []
    codes = set()
    for rec in records:
        row = rows[rec["variant"]][rec["example_id"]]
        codes.add(row["code"])
        where = f"{rec['example_id']}/{rec['variant']}"
        if rec["generated"] != stub.answer(row["code"]):
            problems.append(f"{where}: generation is not the stub's answer")
        want = bucket_overlap_f1(row["docstring"], rec["generated"])
        if abs(rec["metrics"]["bertscore_f1"] - want) > 1e-9:
            problems.append(f"{where}: BERTScore F1 {rec['metrics']['bertscore_f1']!r}, "
                            f"bucket overlap gives {want!r}")
    hashes = sorted(stub.code_hash(c) for c in codes)
    if stats["chat_distinct_served"] != len(hashes) or \
            stats["chat_served_digest"] != stub.code_hash("\n".join(hashes)):
        problems.append(f"stub served {stats['chat_distinct_served']} distinct prompts, "
                        f"expected {len(hashes)}")
    injected = len(fail_hashes & set(hashes))
    if stats["chat_retried"] != injected:
        problems.append(f"stub injected {stats['chat_retried']} 503s, expected {injected}")
    if not len(hashes) + injected <= stats["chat_requests"] <= len(records) + injected:
        problems.append(f"stub saw {stats['chat_requests']} chat requests for {len(records)} "
                        f"records, {len(hashes)} prompts and {injected} injected 503s")
    return problems


def check_subwords(texts: set[str], tokenize) -> list[str]:
    """Every subword sequence concatenates back to its text with the
    whitespace removed."""
    problems = []
    for text in sorted(texts):
        if "".join(tokenize(text)) != "".join(text.split()):
            problems.append(f"subwords of {text[:40]!r} do not concatenate back to it")
    return problems
