"""Aggregate analyses over scored run records: copy-rate buckets, copied
token-type attribution, corresponding-vs-random score distributions,
correlations, and the CSV/SVG report.
"""

from __future__ import annotations

import csv
import io
import random
import re
import statistics
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import RunRecord
from .errors import HarnessError
from .metrics import DegenerateInputError, Scorer, bleu_scorer, pearson, spearman
# Not used here; perfbench/selftest.py checks that the tracer wraps this alias.
from .pylex import lex  # noqa: F401
from .subtok import ATTRIBUTION_CATEGORIES, CodeSubwords
from .svgplot import grouped_bars
from .transform import VARIANT_ORDER


class TooFewRecordsError(HarnessError):
    pass


ZERO_BUCKET = "=0"
BUCKET_LABELS = (ZERO_BUCKET,) + tuple(
    f"({low},{low + 10}]" for low in range(0, 100, 10)
)


def bucket_label_from_counts(matched: int, total: int) -> str:
    """Bucket by the exact ratio matched/total (avoids float edge effects)."""
    if total <= 0:
        raise ValueError("total must be positive")
    if matched == 0:
        return ZERO_BUCKET
    for low in range(0, 100, 10):
        if low * total < 100 * matched <= (low + 10) * total:
            return f"({low},{low + 10}]"
    raise ValueError(f"copy rate {matched}/{total} outside [0, 1]")


@dataclass(frozen=True)
class Bucket:
    label: str
    record_keys: tuple[tuple[str, str, str], ...]


def bucketize(records: Sequence[RunRecord]) -> list[Bucket]:
    """Partition records into the zero bucket plus ten copy-rate deciles,
    keyed by the reference description's copy rate."""
    members: dict[str, list[tuple[str, str, str]]] = {
        label: [] for label in BUCKET_LABELS
    }
    for rec in records:
        m = rec.metrics
        if m is None or m.p_copy_reference_matched is None:
            raise ValueError(f"record {rec.key} has no reference copy counts")
        label = bucket_label_from_counts(
            m.p_copy_reference_matched, m.p_copy_reference_total
        )
        members[label].append(rec.key)
    return [Bucket(label, tuple(members[label])) for label in BUCKET_LABELS]


def attribute_copies(
    code: CodeSubwords, reference: Sequence[str], generated: Sequence[str]
) -> list[list[int]]:
    """Subword counts per ATTRIBUTION_CATEGORIES entry: the code's own
    subwords, the reference subwords found in the code, and the generated
    subwords found in the code (the EvalRecord.copy_attribution layout).

    A copied subword counts under the category split_code attributed it
    to, so each copied list sums to the p_copy match count of its text.
    """

    def copied(description: Sequence[str]) -> list[int]:
        counts = [0] * len(ATTRIBUTION_CATEGORIES)
        for sw in description:
            category = code.source.get(sw)
            if category is not None:
                counts[category] += 1
        return counts

    return [code.per_category, copied(reference), copied(generated)]


class PairingMode(str, Enum):
    REF_VS_OWN_GEN = "ref-vs-own-gen"
    REF_VS_RANDOM_GEN = "ref-vs-random-gen"
    REF_VS_REF = "ref-vs-ref"
    GEN_VS_GEN = "gen-vs-gen"


HIST_BIN_WIDTH = 5
HIST_BINS = 100 // HIST_BIN_WIDTH
_HIST_LABELS = tuple(f"{i * HIST_BIN_WIDTH}-{(i + 1) * HIST_BIN_WIDTH}" for i in range(HIST_BINS))


@dataclass(frozen=True)
class DistSummary:
    count: int
    mean: float
    median: float
    q1: float
    q3: float
    # HIST_BINS counts over [0, 100], width 5; a score below 0 counts in
    # the first bin and one of 100 or more in the last.
    bins: tuple[int, ...]


def summarize_scores(scores: Sequence[float]) -> DistSummary:
    if len(scores) < 2:
        raise TooFewRecordsError("need at least two scores to summarize")
    bins = [0] * HIST_BINS
    for s in scores:
        idx = min(max(int(s // HIST_BIN_WIDTH), 0), HIST_BINS - 1)
        bins[idx] += 1
    q1, med, q3 = statistics.quantiles(scores, n=4, method="inclusive")
    return DistSummary(
        count=len(scores),
        mean=statistics.fmean(scores),
        median=med,
        q1=q1,
        q3=q3,
        bins=tuple(bins),
    )


def derangement(n: int, rng: random.Random) -> list[int]:
    """Seeded permutation of range(n) with no fixed points."""
    if n < 2:
        raise TooFewRecordsError("derangement needs n >= 2")
    perm = list(range(n))
    rng.shuffle(perm)
    for i in range(n):
        if perm[i] == i:
            j = (i + 1) % n
            perm[i], perm[j] = perm[j], perm[i]
    return perm


def paired_vs_random(
    pairs: Sequence[tuple[str, str]],
    pairing: PairingMode,
    seed: int,
    scorer: Scorer = bleu_scorer,
) -> DistSummary:
    """Score distribution for corresponding or randomly re-paired texts.

    `pairs` holds (reference, generated) texts, one per record. Random
    pairings use a seeded derangement so no record meets itself. The
    scorer gets every (candidate, reference) pair of the pairing in one
    call, so it can batch them.
    """
    if len(pairs) < 2:
        raise TooFewRecordsError("need at least two records")
    refs = [p[0] for p in pairs]
    gens = [p[1] for p in pairs]
    if pairing is PairingMode.REF_VS_OWN_GEN:
        scored = [(g, r) for r, g in zip(refs, gens)]
    else:
        perm = derangement(len(pairs), random.Random(seed))
        if pairing is PairingMode.REF_VS_RANDOM_GEN:
            candidates, references = gens, refs
        elif pairing is PairingMode.REF_VS_REF:
            candidates, references = refs, refs
        else:
            candidates, references = gens, gens
        scored = [(candidates[perm[i]], references[i]) for i in range(len(pairs))]
    return summarize_scores(scorer(scored))


_RE_PAIRINGS = (PairingMode.REF_VS_RANDOM_GEN, PairingMode.REF_VS_REF, PairingMode.GEN_VS_GEN)
# The two pairings a paired chart shows.
_PLOTTED_PAIRINGS = (PairingMode.REF_VS_OWN_GEN, PairingMode.REF_VS_RANDOM_GEN)


def pairing_distributions(
    pairs: Sequence[tuple[str, str]],
    own_scores: Sequence[float],
    seed: int,
    scorer: Scorer,
) -> dict[PairingMode, DistSummary]:
    """One metric's four score distributions over (reference, generated)
    `pairs`: the corresponding pairs, from `own_scores` (the records'
    stored scores, not recomputed), and each seeded re-pairing."""
    out = {PairingMode.REF_VS_OWN_GEN: summarize_scores(own_scores)}
    for pairing in _RE_PAIRINGS:
        out[pairing] = paired_vs_random(pairs, pairing, seed, scorer)
    return out


def correlate(
    records: Sequence[RunRecord], metric_a: str, metric_b: str
) -> tuple[float, float]:
    """(Pearson, Spearman) over per-record score pairs; records missing
    either score are skipped."""
    xs: list[float] = []
    ys: list[float] = []
    for rec in records:
        if rec.metrics is None:
            continue
        a = getattr(rec.metrics, metric_a)
        b = getattr(rec.metrics, metric_b)
        if a is None or b is None:
            continue
        xs.append(a)
        ys.append(b)
    if len(xs) < 2:
        raise DegenerateInputError("fewer than two records with both metrics")
    return pearson(xs, ys), spearman(xs, ys)


_CORRELATED_PAIRS = (("p_copy_reference", "bleu4"), ("bleu4", "bertscore_f1"))
_MEAN_METRICS = ("bleu4", "bertscore_f1", "p_copy_reference", "p_copy_generated")

# Name and header of each CSV in the report.
_CSV_HEADERS = {
    "summary.csv": ("model_id", "variant", "records", *(f"mean_{m}" for m in _MEAN_METRICS)),
    "buckets.csv": ("model_id", "variant", "bucket", "count", "mean_bleu4", "median_bleu4"),
    "attribution.csv": ("model_id", "variant", "category", "code_subwords",
                        "copied_to_reference", "copied_to_generated"),
    "correlations.csv": ("model_id", "variant", "metric_a", "metric_b", "pearson", "spearman"),
    "distributions.csv": ("model_id", "metric", "pairing", "count", "mean", "median", "q1", "q3"),
}


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", text)


def _fnum(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def _mean_of(values: Iterable[float | None]) -> float | None:
    """Mean of the values that are not None; None if there are none."""
    present = [v for v in values if v is not None]
    return statistics.fmean(present) if present else None


def emit_report(
    records: Sequence[RunRecord],
    distributions: Mapping[tuple[str, str], Mapping[PairingMode, DistSummary]],
    out_dir: str | Path,
) -> list[Path]:
    """Write summary/bucket/attribution/correlation/distribution CSVs and
    SVG histograms. Scores nothing.

    Every record must carry its scores, copy attribution included.
    `distributions` maps (model id, metric) to the `pairing_distributions`
    that `score` computed. Output is a pure function of the arguments, so
    identical runs produce byte-identical files. Model ids whose charts
    would share a file name are refused before any file is written.
    """
    groups: dict[tuple[str, str], list[RunRecord]] = {}
    for rec in records:
        if rec.metrics is not None:
            groups.setdefault((rec.model_id, rec.variant), []).append(rec)
    group_keys = sorted(groups, key=lambda k: (k[0], VARIANT_ORDER.get(k[1], 99), k[1]))
    rows: dict[str, list[list[str]]] = {name: [] for name in _CSV_HEADERS}
    files: dict[str, str] = {}  # report file name -> its text
    owners: dict[str, tuple[str, str]] = {}

    def chart(name: str, owner: tuple[str, str], title: str, labels: Sequence[str],
              series: list) -> None:
        # `owner` is (model id, variant or metric); slugs can make two
        # owners' file names equal, and one chart would replace the other
        first = owners.setdefault(name, owner)
        if first != owner:
            raise HarnessError(f"model ids {first[0]!r} ({first[1]}) and {owner[0]!r} "
                               f"({owner[1]}) would both write report/{name}; rename one")
        files[name] = grouped_bars(title, labels, series)

    for model_id, variant in group_keys:
        recs = groups[(model_id, variant)]
        means = [_mean_of(getattr(r.metrics, metric) for r in recs) for metric in _MEAN_METRICS]
        rows["summary.csv"].append([model_id, variant, str(len(recs)), *map(_fnum, means)])

        # BLEU per reference-copy-rate bucket, and both copy-rate histograms
        by_key = {r.key: r for r in recs}
        buckets = bucketize(recs)
        medians = []
        for bucket in buckets:
            bleus = [by_key[k].metrics.bleu4 for k in bucket.record_keys]
            bleus = [b for b in bleus if b is not None]
            median = statistics.median(bleus) if bleus else None
            rows["buckets.csv"].append([model_id, variant, bucket.label, str(len(bucket.record_keys)),
                                        _fnum(_mean_of(bleus)), _fnum(median)])
            medians.append(0.0 if median is None else median)
        generated = Counter(
            bucket_label_from_counts(m.p_copy_generated_matched, m.p_copy_generated_total)
            for m in [r.metrics for r in recs]
            if m.p_copy_generated_matched is not None
        )
        slug = f"{_slug(model_id)}_{_slug(variant)}"
        chart(f"pcopy_{slug}.svg", (model_id, variant),
              f"copy-rate distribution ({model_id}, {variant})",
              BUCKET_LABELS, [("reference", [float(len(b.record_keys)) for b in buckets]),
                              ("generated", [float(generated[b]) for b in BUCKET_LABELS])])
        chart(f"bleu_buckets_{slug}.svg", (model_id, variant),
              f"median BLEU-4 per copy-rate bucket ({model_id}, {variant})",
              BUCKET_LABELS, [("median BLEU-4", medians)])

        # copied token types: each side's counts summed column by column
        sides = zip(*(r.metrics.copy_attribution for r in recs))
        totals = [map(sum, zip(*side)) for side in sides]
        for category, *counts in zip(ATTRIBUTION_CATEGORIES, *totals, strict=True):
            rows["attribution.csv"].append([model_id, variant, category, *map(str, counts)])

        # does the copy rate track BLEU-4, and BLEU-4 BERTScore?
        for metric_a, metric_b in _CORRELATED_PAIRS:
            try:
                cells = [_fnum(v) for v in correlate(recs, metric_a, metric_b)]
            except DegenerateInputError:
                cells = ["", ""]
            rows["correlations.csv"].append([model_id, variant, metric_a, metric_b, *cells])

    # corresponding vs randomly re-paired scores
    for model_id, metric_name in sorted(distributions):
        summaries = distributions[(model_id, metric_name)]
        for pairing in PairingMode:
            s = summaries[pairing]
            rows["distributions.csv"].append([model_id, metric_name, pairing.value, str(s.count),
                                              *map(_fnum, (s.mean, s.median, s.q1, s.q3))])
        chart(f"{metric_name}_paired_{_slug(model_id)}.svg", (model_id, metric_name),
              f"{metric_name}: corresponding vs random pairs ({model_id})", _HIST_LABELS,
              [(p.value, [float(b) for b in summaries[p].bins]) for p in _PLOTTED_PAIRINGS])

    for name, header in _CSV_HEADERS.items():
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows[name])
        files[name] = text.getvalue()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out_dir / name).write_text(text, encoding="utf-8", newline="")
    return [out_dir / name for name in files]
