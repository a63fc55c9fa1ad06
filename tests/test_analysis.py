import csv
import random
import statistics
from fractions import Fraction

import pytest

from sumprobe.analysis import (
    ATTRIBUTION_CATEGORIES,
    BUCKET_LABELS,
    PairingMode,
    TooFewRecordsError,
    attribute_copies,
    bucket_label_from_counts,
    bucketize,
    correlate,
    _RE_PAIRINGS,
    derangement,
    emit_report,
    paired_vs_random,
    pairing_distributions,
    summarize_scores,
)
from sumprobe.corpus import EvalRecord, RunRecord
from sumprobe.metrics import DegenerateInputError, EmbeddingTable, HashedOneHotProvider, bleu4
from sumprobe.score import PairScores
from sumprobe.subtok import FallbackTokenizer, code_subwords, split_code


def record(example_id, matched, total, bleu=50.0, variant="original", model="m"):
    return RunRecord(
        example_id=example_id,
        variant=variant,
        model_id=model,
        generated=f"generated for {example_id}",
        metrics=EvalRecord(
            bleu4=bleu,
            bertscore_f1=bleu,
            p_copy_reference=matched / total,
            p_copy_reference_matched=matched,
            p_copy_reference_total=total,
            tokenizer_id="fallback",
        ),
    )


# --- buckets -----------------------------------------------------------------


def test_bucket_exact_edges_via_counts():
    assert bucket_label_from_counts(1, 10) == "(0,10]"
    assert bucket_label_from_counts(2, 10) == "(10,20]"
    assert bucket_label_from_counts(1, 3) == "(30,40]"
    assert bucket_label_from_counts(10, 10) == "(90,100]"
    assert bucket_label_from_counts(0, 7) == "=0"


def test_bucket_labels_shape():
    assert len(BUCKET_LABELS) == 11
    assert BUCKET_LABELS[0] == "=0" and BUCKET_LABELS[-1] == "(90,100]"


def test_bucketize_partitions_records():
    rng = random.Random(13)
    records = []
    for i in range(300):
        total = rng.randint(1, 40)
        matched = rng.randint(0, total)
        records.append(record(f"e{i}", matched, total))
    buckets = bucketize(records)
    assert [b.label for b in buckets] == list(BUCKET_LABELS)
    seen = [key for b in buckets for key in b.record_keys]
    assert len(seen) == len(records)
    assert len(set(seen)) == len(records)
    for b in buckets:
        for key in b.record_keys:
            rec = next(r for r in records if r.key == key)
            rate = Fraction(rec.metrics.p_copy_reference_matched,
                            rec.metrics.p_copy_reference_total)
            if b.label == "=0":
                assert rate == 0
            else:
                low, high = b.label[1:-1].split(",")
                assert Fraction(int(low), 100) < rate <= Fraction(int(high), 100)


# --- attribution ---------------------------------------------------------------


def attribution(code, reference, generated, tokenize=FallbackTokenizer()):
    """(code, reference, generated) subword counts, each keyed by category."""
    counts = attribute_copies(
        split_code(code, tokenize), tokenize(reference), tokenize(generated)
    )
    assert [len(c) for c in counts] == [len(ATTRIBUTION_CATEGORIES)] * 3
    return [dict(zip(ATTRIBUTION_CATEGORIES, c)) for c in counts]


def test_attribution_priority_function_name_first():
    _, ref, gen = attribution(
        "def from_url(url2):\n    return url2\n", "builds a url from parts", "the url value"
    )
    # "url" decomposes from both the function name and the identifier url2;
    # the function name wins the attribution
    assert ref["function_name"] >= 1
    assert gen["function_name"] >= 1


def test_attribution_absent_token_not_attributed():
    _, ref, gen = attribution(
        "def add(a):\n    return a\n", "totally unrelated words", "nothing shared here"
    )
    assert sum(ref.values()) == 0
    assert sum(gen.values()) == 0


def test_attribution_keyword_only_match():
    _, ref, gen = attribution(
        "def f(a):\n    return a\n", "will return the result", "only return here"
    )
    assert ref["keyword"] == 1
    assert gen["keyword"] == 1


def test_attribution_totals_agree_with_copy_rate():
    import random as rnd

    from sumprobe.metrics import p_copy

    from corpusgen import sample_pairs

    tokenize = FallbackTokenizer()
    rng = rnd.Random(17)
    for code, reference in sample_pairs(40, seed=23):
        generated = " ".join(rng.sample(reference.split(), len(reference.split())))
        code_counts, ref, gen = attribution(code, reference, generated, tokenize)
        sw = code_subwords(code, tokenize)
        assert sum(code_counts.values()) == len(sw)
        for text, counts in ((reference, ref), (generated, gen)):
            copied = sum(counts.values())
            rate = p_copy(sw, tokenize(text))
            assert copied == rate.matched
            assert copied <= rate.total
            assert (copied == rate.total) == (rate.value == 1.0)


def test_attribution_counts_cover_all_categories():
    code, _, gen = attribution(
        'def pack(a):\n    # note\n    return "x" + str(2)\n', "pack a value", "pack 2 x"
    )
    assert code["comment"] > 0
    assert code["operator_delimiter"] > 0
    assert gen["number"] == 1


# --- paired distributions --------------------------------------------------------


def test_derangement_has_no_fixed_points():
    for n in range(2, 40):
        perm = derangement(n, random.Random(n))
        assert sorted(perm) == list(range(n))
        assert all(perm[i] != i for i in range(n))
    with pytest.raises(TooFewRecordsError):
        derangement(1, random.Random(0))


def text_bleu(pairs):
    """BLEU-4 of (candidate, reference) texts, as score computes it."""
    return PairScores({}, EmbeddingTable(HashedOneHotProvider(8), ()), False).bleu4(pairs)


def test_paired_own_echo_is_all_100():
    """The corresponding pairs' distribution is that of the given scores,
    which are not recomputed; only the re-pairings are scored."""
    pairs = [(f"summary of item {i} works fine", f"summary of item {i} works fine") for i in range(5)]
    scored = []

    def scorer(batch):
        scored.extend(batch)
        return text_bleu(batch)

    out = pairing_distributions(pairs, [100.0] * 5, 1, scorer)
    assert out[PairingMode.REF_VS_OWN_GEN] == summarize_scores([100.0] * 5)
    assert out[PairingMode.REF_VS_OWN_GEN].median == 100.0
    assert out[PairingMode.REF_VS_OWN_GEN].mean == 100.0
    # three derangements of distinct texts: no scored pair is an echo
    assert len(scored) == 15 and all(c != r for c, r in scored)
    for pairing in _RE_PAIRINGS:
        assert out[pairing] == paired_vs_random(pairs, pairing, 1, text_bleu)
        assert out[pairing].median < 100.0
    stored = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert pairing_distributions(pairs, stored, 1, text_bleu)[PairingMode.REF_VS_OWN_GEN] == (
        summarize_scores(stored)
    )


def test_paired_random_matches_exhaustive_brute_force():
    # references built so every cross pair scores the same BLEU; the
    # expected median is then the median over all ordered cross pairs,
    # obtainable by exhaustive enumeration
    refs = [f"alpha beta gamma delta {w}" for w in ("one", "two", "three", "four", "five")]
    pairs = [(r, r) for r in refs]  # echo generations
    cross = [
        bleu4(refs[j].split(), refs[i].split()).value
        for i in range(5)
        for j in range(5)
        if i != j
    ]
    expected_median = statistics.median(cross)
    for seed in (0, 1, 2, 3):
        summary = paired_vs_random(pairs, PairingMode.REF_VS_RANDOM_GEN, seed, text_bleu)
        assert summary.median == pytest.approx(expected_median, abs=1e-9)
        assert summary.median < 100.0


def test_paired_seed_determinism():
    rng = random.Random(77)
    pairs = [
        (f"ref {i} with {rng.randint(0, 9)} words", f"gen {i} plus {rng.randint(0, 9)}")
        for i in range(12)
    ]
    a = paired_vs_random(pairs, PairingMode.REF_VS_RANDOM_GEN, 9, text_bleu)
    b = paired_vs_random(pairs, PairingMode.REF_VS_RANDOM_GEN, 9, text_bleu)
    assert a == b


def test_paired_modes_differ():
    pairs = [(f"shared prefix words {i}", f"shared prefix words {i}") for i in range(6)]
    own = summarize_scores(text_bleu([(g, r) for r, g in pairs]))
    rand = paired_vs_random(pairs, PairingMode.REF_VS_RANDOM_GEN, 2, text_bleu)
    ref_ref = paired_vs_random(pairs, PairingMode.REF_VS_REF, 2, text_bleu)
    gen_gen = paired_vs_random(pairs, PairingMode.GEN_VS_GEN, 2, text_bleu)
    assert own.median == 100.0
    assert rand.median < 100.0
    assert ref_ref == gen_gen  # echo: generations equal references


def test_paired_too_few_records():
    with pytest.raises(TooFewRecordsError):
        paired_vs_random([("a b c", "a b c")], PairingMode.REF_VS_RANDOM_GEN, 0, text_bleu)


def test_summary_invariants():
    scores = [0.0, 10.0, 35.0, 99.9, 100.0]
    summary = summarize_scores(scores)
    assert summary.count == 5
    assert sum(summary.bins) == 5
    assert min(scores) <= summary.median <= max(scores)
    assert summary.bins[-1] == 2  # 99.9 and 100 share the last bin
    assert summary.q1 <= summary.median <= summary.q3


def test_summary_counts_a_negative_score_in_the_first_bin():
    # BERTScore F1 is negative when a remote provider's similarities are:
    # sims [0.9, -1.0] give P = -0.05, R = 0.9 and F1 = -10.6
    summary = summarize_scores([-30.0, 50.0])
    assert summary.bins[0] == 1 and summary.bins[10] == 1
    assert sum(summary.bins) == 2


# --- correlations ------------------------------------------------------------


def test_correlate_same_metric_is_perfect():
    records = [record(f"e{i}", i + 1, 10, bleu=float(10 * i + 3)) for i in range(6)]
    assert correlate(records, "bleu4", "bleu4") == (1.0, 1.0)


def test_correlate_anti_ranked():
    records = []
    for i in range(5):
        rec = record(f"e{i}", 1, 10, bleu=float(i))
        rec.metrics.bertscore_f1 = float(100 - i * i)
        records.append(rec)
    p, s = correlate(records, "bleu4", "bertscore_f1")
    assert s == -1.0
    assert p < 0


def test_correlate_three_point_closed_form():
    records = []
    for i, (a, b) in enumerate([(1.0, 1.0), (2.0, 3.0), (3.0, 2.0)]):
        rec = record(f"e{i}", 1, 10, bleu=a)
        rec.metrics.bertscore_f1 = b
        records.append(rec)
    p, s = correlate(records, "bleu4", "bertscore_f1")
    assert p == pytest.approx(0.5, abs=1e-12)
    assert s == pytest.approx(0.5, abs=1e-12)


def test_correlate_skips_missing_and_requires_two():
    records = [record("e0", 1, 10)]
    records[0].metrics.bertscore_f1 = None
    with pytest.raises(DegenerateInputError):
        correlate(records, "bleu4", "bertscore_f1")


# --- report -------------------------------------------------------------------


def build_report_inputs():
    references = {}
    records = []
    rng = random.Random(5)
    for variant in ("original", "no_function_body"):
        for i in range(6):
            references[f"e{i}"] = f"fetch item {i} from the store"
            total = rng.randint(2, 9)
            matched = rng.randint(0, total)
            rec = record(f"e{i}", matched, total, bleu=float(rng.randint(0, 100)), variant=variant)
            rec.generated = f"fetch item {i} maybe"
            rec.metrics.p_copy_generated = 0.5
            rec.metrics.p_copy_generated_matched = 2
            rec.metrics.p_copy_generated_total = 4
            code = [rng.randint(0, 5) for _ in ATTRIBUTION_CATEGORIES]
            rec.metrics.copy_attribution = [code, [matched, 0, 0, 0, 0, 0, 0], [2, 0, 0, 0, 0, 0, 0]]
            records.append(rec)
    original = [r for r in records if r.variant == "original"]
    pairs = [(references[r.example_id], r.generated) for r in original]
    distributions = {
        ("m", "bleu4"): pairing_distributions(
            pairs, [r.metrics.bleu4 for r in original], 3, text_bleu
        )
    }
    return records, distributions


def test_emit_report_layout_and_determinism(tmp_path):
    records, distributions = build_report_inputs()
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    emit_report(records, distributions, out_a)
    emit_report(records, distributions, out_b)
    names_a = sorted(p.name for p in out_a.iterdir())
    names_b = sorted(p.name for p in out_b.iterdir())
    assert names_a == names_b
    for name in names_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    summary = (out_a / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("model_id,variant,records")
    assert len(summary) == 1 + 2  # two (model, variant) groups

    buckets = (out_a / "buckets.csv").read_text().splitlines()
    assert len(buckets) == 1 + 2 * len(BUCKET_LABELS)  # every bucket row present
    assert any(",0," in line or line.endswith(",0,,") for line in buckets[1:])

    with (out_a / "attribution.csv").open() as fh:
        attribution = list(csv.DictReader(fh))
    assert len(attribution) == 2 * len(ATTRIBUTION_CATEGORIES)
    for variant in ("original", "no_function_body"):
        recs = [r for r in records if r.variant == variant]
        rows = [r for r in attribution if r["variant"] == variant]
        for side, column in enumerate(("code_subwords", "copied_to_reference",
                                       "copied_to_generated")):
            assert [int(r[column]) for r in rows] == [
                sum(r.metrics.copy_attribution[side][i] for r in recs)
                for i in range(len(ATTRIBUTION_CATEGORIES))
            ]

    with (out_a / "correlations.csv").open() as fh:
        correlations = list(csv.DictReader(fh))
    assert [(r["variant"], r["metric_a"], r["metric_b"]) for r in correlations] == [
        (variant, a, b)
        for variant in ("original", "no_function_body")
        for a, b in (("p_copy_reference", "bleu4"), ("bleu4", "bertscore_f1"))
    ]
    # record() sets BERTScore F1 equal to BLEU-4
    assert all(float(r["pearson"]) == pytest.approx(1.0) for r in correlations
               if r["metric_a"] == "bleu4")
    assert all(r["pearson"] and r["spearman"] for r in correlations)

    with (out_a / "distributions.csv").open() as fh:
        dist = list(csv.DictReader(fh))
    assert [(r["model_id"], r["metric"], r["pairing"]) for r in dist] == [
        ("m", "bleu4", pairing.value) for pairing in PairingMode
    ]
    summaries = distributions[("m", "bleu4")]
    assert [float(r["mean"]) for r in dist] == [summaries[p].mean for p in PairingMode]
    assert "bleu4_paired_m.svg" in names_a

    svgs = [n for n in names_a if n.endswith(".svg")]
    assert svgs, "expected SVG histograms"
    import xml.etree.ElementTree as ET

    for name in svgs:
        text = (out_a / name).read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")
        assert any(child.tag.endswith("rect") for child in root.iter())


def test_emit_report_returns_the_files_it_wrote(tmp_path):
    records, distributions = build_report_inputs()
    written = emit_report(records, distributions, tmp_path)
    assert len(written) == len(set(written))
    assert sorted(written) == sorted(tmp_path.iterdir())


def test_emit_report_empty_bucket_rows_have_count_zero(tmp_path):
    records, distributions = build_report_inputs()
    emit_report(records, distributions, tmp_path)
    with (tmp_path / "buckets.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    counts = {(r["variant"], r["bucket"]): int(r["count"]) for r in rows}
    assert len(counts) == 2 * len(BUCKET_LABELS)
    assert sum(v for (variant, _), v in counts.items() if variant == "original") == 6
    empties = [k for k, v in counts.items() if v == 0]
    assert empties, "expected at least one empty bucket row"
