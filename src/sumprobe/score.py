"""The score stage: BLEU-4, BERTScore and the copy rate of each run record,
and each model's corresponding vs re-paired score distributions.

`score_run` runs one function per phase: `join_examples` reads each variant
file once and pairs each record with its example; `tokenize_descriptions`
tokenizes each distinct description once, and the `EmbeddingTable` holds
the subwords of all of them; `score_records` returns each record's
`EvalRecord` from `score_record`, a function of the record, its example
and the run's shared tables (`PairScores`), and changes no record;
`score_run` sets those scores on the loaded records and saves them;
`pairing_rows` computes each model's `pairing_distributions` from them.
`score_run` writes `pairings.jsonl` and `read_pairings` reads it, so its
format is decided here alone.
"""

from __future__ import annotations

import hashlib
import json
import logging
from collections.abc import Iterable, Sequence
from dataclasses import asdict
from pathlib import Path

from . import metrics
from .analysis import (
    DistSummary,
    PairingMode,
    attribute_copies,
    bucket_label_from_counts,
    pairing_distributions,
)
from .corpus import (
    EvalRecord, Example, RunRecord, load_run, load_variant, read_jsonl, save_run, write_jsonl,
)
from .errors import HarnessError, PrerequisiteError
from .subtok import Tokenizer, split_code
from .transform import Variant, record_sort_key

log = logging.getLogger(__name__)

# Each run record with its example, or None when its variant file lacks it.
Joined = list[tuple[RunRecord, Example | None]]


def join_examples(records: Iterable[RunRecord], variants_dir: Path) -> Joined:
    """The records in run-file order, each with its example; each variant
    file the records name is read once."""
    records = sorted(records, key=record_sort_key)
    examples = {(variant, ex.id): ex for variant in sorted({rec.variant for rec in records})
                for ex in load_variant(variants_dir, variant)}
    return [(rec, examples.get((rec.variant, rec.example_id))) for rec in records]


def tokenize_descriptions(joined: Joined, tokenize: Tokenizer) -> dict[str, list[str]]:
    """Description text -> its subwords, for the reference and generation
    of each joined record. Each distinct text is tokenized once:
    references repeat across variants, and echoes equal them."""
    texts = dict.fromkeys(text for rec, ex in joined if ex is not None
                          for text in (ex.reference, rec.generated))
    return {text: tokenize(text) for text in texts}


class PairScores:
    """The run's BLEU-4 and BERTScore memos, keyed on the text pair.

    Both metrics depend only on the (reference, generation) texts, so each
    distinct pair is scored once per run, for the records and for every
    model's re-pairings. `bleu4` and `bertscore_f1` are the `Scorer`s that
    `pairing_distributions` takes. `subwords` must hold every text scored.
    """

    def __init__(
        self, subwords: dict[str, list[str]], table: metrics.EmbeddingTable, lowercase: bool
    ) -> None:
        self.subwords = subwords
        self.table = table
        self.lowercase = lowercase
        self.ngrams = metrics.NgramTable()
        self.bleus: dict[tuple[str, str], float] = {}  # (candidate, reference) texts
        # (reference, generation) texts -> BERTScore, or the error that fails it
        self.berts: dict[tuple[str, str], metrics.BertScoreResult | HarnessError] = {}

    def bleu(self, candidate: str, reference: str) -> float:
        value = self.bleus.get((candidate, reference))
        if value is None:
            ref_words = metrics.split_description(reference, self.lowercase)
            if ref_words:
                value = metrics.bleu4(
                    metrics.split_description(candidate, self.lowercase), ref_words, self.ngrams
                ).value
            else:
                # Only a re-pairing puts a generation on the reference side;
                # an empty one scores 0, as in bertscore_f1.
                value = 0.0
            self.bleus[(candidate, reference)] = value
        return value

    def add_berts(self, pairs: Iterable[tuple[str, str]]) -> None:
        """Score in one batch the (reference, generation) pairs the memo lacks."""
        missing = list(dict.fromkeys(pair for pair in pairs if pair not in self.berts))
        self.berts.update(zip(missing, self.table.bertscores(
            [(self.subwords[reference], self.subwords[generation])
             for reference, generation in missing]
        )))

    def bert(self, reference: str, generation: str) -> metrics.BertScoreResult:
        """The added pair's BERTScore, 0 where a side has no subwords (as in
        bleu), or the HarnessError that fails it."""
        result = self.berts[(reference, generation)]
        if isinstance(result, metrics.EmptySequenceError):
            return metrics.BertScoreResult(0.0, 0.0, 0.0)
        if isinstance(result, HarnessError):
            raise result
        return result

    def bleu4(self, pairs: Sequence[tuple[str, str]]) -> list[float]:
        return [self.bleu(candidate, reference) for candidate, reference in pairs]

    def bertscore_f1(self, pairs: Sequence[tuple[str, str]]) -> list[float]:
        self.add_berts([(reference, candidate) for candidate, reference in pairs])
        return [self.bert(reference, candidate).f1 for candidate, reference in pairs]


def score_record(
    rec: RunRecord,
    ex: Example,
    tokenize: Tokenizer,
    pairs: PairScores,
    code_memo: dict[str, tuple[int | None, list[str]]],
) -> EvalRecord:
    """`rec`'s scores against `ex`, or the HarnessError that fails it.
    `code_memo` is `split_code`'s memo; `pairs` holds the BERTScore of the
    record's (reference, generation) pair."""
    ref_sw, gen_sw = pairs.subwords[ex.reference], pairs.subwords[rec.generated]
    code = split_code(ex.code, tokenize, code_memo)
    code_set = code.source.keys()  # the code's distinct subwords
    ref_copy = metrics.p_copy(code_set, ref_sw)
    gen_copy = metrics.p_copy(code_set, gen_sw) if gen_sw else None
    bert = pairs.bert(ex.reference, rec.generated)
    return EvalRecord(
        bleu4=pairs.bleu(rec.generated, ex.reference),
        bertscore_precision=bert.precision,
        bertscore_recall=bert.recall,
        bertscore_f1=bert.f1,
        p_copy_reference=ref_copy.value,
        p_copy_reference_matched=ref_copy.matched,
        p_copy_reference_total=ref_copy.total,
        p_copy_generated=gen_copy and gen_copy.value,
        p_copy_generated_matched=gen_copy and gen_copy.matched,
        p_copy_generated_total=gen_copy and gen_copy.total,
        copy_attribution=attribute_copies(code, ref_sw, gen_sw),
        tokenizer_id=tokenize.tokenizer_id,
        bucket=bucket_label_from_counts(ref_copy.matched, ref_copy.total),
    )


def score_records(
    joined: Joined, tokenize: Tokenizer, pairs: PairScores
) -> tuple[list[EvalRecord | None], list[dict]]:
    """Each joined record's scores, in order, and an error row for each one
    that fails; a failed record's scores are None, not those of an earlier
    run, which may have used another tokenizer or embedding provider.
    Changes none of the records. The records' BERTScores are scored in one
    batch first, and one `split_code` memo for the call classifies and
    tokenizes each distinct code lexeme once."""
    pairs.add_berts((ex.reference, rec.generated) for rec, ex in joined if ex is not None)
    code_memo: dict[str, tuple[int | None, list[str]]] = {}
    scores: list[EvalRecord | None] = []
    errors: list[dict] = []
    for rec, ex in joined:
        try:
            if ex is None:
                raise HarnessError("example missing from variant corpus")
            scores.append(score_record(rec, ex, tokenize, pairs, code_memo))
        except HarnessError as exc:
            errors.append(
                {"stage": "score", "where": f"{rec.example_id}/{rec.variant}", "error": str(exc)}
            )
            scores.append(None)
    return scores, errors


def pairing_rows(joined: Joined, seed: int, pairs: PairScores) -> tuple[list[dict], list[dict]]:
    """pairings.jsonl rows and error rows. For each model with two or more
    original records that hold scores, in run-file order, and for each
    metric: the four `pairing_distributions`."""
    by_model: dict[str, list[tuple[str, RunRecord]]] = {}  # (reference, record)
    for rec, ex in joined:
        if rec.variant == Variant.ORIGINAL.value and rec.metrics is not None:
            by_model.setdefault(rec.model_id, []).append((ex.reference, rec))
    rows: list[dict] = []
    errors: list[dict] = []
    for model_id, originals in sorted(by_model.items()):
        if len(originals) < 2:
            continue
        texts = [(reference, rec.generated) for reference, rec in originals]
        for metric_name, scorer in (("bertscore_f1", pairs.bertscore_f1), ("bleu4", pairs.bleu4)):
            own = [getattr(rec.metrics, metric_name) for _, rec in originals]
            try:
                summaries = pairing_distributions(texts, own, seed, scorer)
            except HarnessError as exc:
                errors.append({"stage": "score", "where": f"{model_id}/{metric_name} pairings",
                               "error": str(exc)})
                continue
            rows.extend(
                {"model_id": model_id, "metric": metric_name, "pairing": pairing.value,
                 **asdict(summary)}
                for pairing, summary in summaries.items()
            )
    return rows, errors


def originals_digest(records: Iterable[RunRecord]) -> str:
    """Digest of the original-variant records' generations and stored
    scores, in run-file order: ties a pairings file to its run file."""
    h = hashlib.sha256()
    for rec in records:
        if rec.variant == Variant.ORIGINAL.value:
            m = rec.metrics
            row = [rec.model_id, rec.example_id, rec.generated,
                   m and m.bleu4, m and m.bertscore_f1]
            h.update(json.dumps(row).encode() + b"\n")
    return h.hexdigest()


def score_run(
    runs_path: Path, variants_dir: Path, pairings_path: Path, seed: int,
    tokenize: Tokenizer, provider: metrics.EmbeddingProvider, lowercase_bleu: bool,
) -> tuple[list[RunRecord], list[dict]]:
    """Score the run file at `runs_path` in place and write its pairings
    file; returns the records, each with its scores or None, and the error
    rows."""
    joined = join_examples(load_run(runs_path), variants_dir)
    subwords = tokenize_descriptions(joined, tokenize)
    table = metrics.EmbeddingTable(provider, (sw for words in subwords.values() for sw in words))
    if table.error is not None:
        # Each record that needs BERTScore reports it.
        log.warning("embedding fetch failed: %s", table.error)
    pairs = PairScores(subwords, table, lowercase_bleu)
    scores, errors = score_records(joined, tokenize, pairs)
    records = [rec for rec, _ in joined]
    for rec, rec_scores in zip(records, scores):
        rec.metrics = rec_scores
    save_run(records, runs_path)
    rows, pairing_errors = pairing_rows(joined, seed, pairs)
    header = {
        "seed": seed,
        "tokenizer_id": tokenize.tokenizer_id,
        "provider_id": provider.provider_id,
        "lowercase_bleu": lowercase_bleu,
        "records_digest": originals_digest(records),
    }
    write_jsonl(pairings_path, [header] + rows)
    return records, errors + pairing_errors


def read_pairings(
    path: Path, seed: int, tokenizer_id: str, records: Iterable[RunRecord]
) -> dict[tuple[str, str], dict[PairingMode, DistSummary]]:
    """The distributions of the pairings file at `path`, refused unless its
    header holds this seed, tokenizer and digest of `records`."""
    expected = {"seed": seed, "tokenizer_id": tokenizer_id,
                "records_digest": originals_digest(records)}
    rerun = f"rerun `sumprobe score --seed {seed}`"
    if not path.exists():
        raise PrerequisiteError(f"missing {path}; {rerun}")
    distributions: dict[tuple[str, str], dict[PairingMode, DistSummary]] = {}
    try:
        header, *rows = read_jsonl(path)
        stale = [name for name, value in expected.items() if header.get(name) != value]
        for row in rows:
            key = (row.pop("model_id"), row.pop("metric"))
            pairing = PairingMode(row.pop("pairing"))
            distributions.setdefault(key, {})[pairing] = DistSummary(
                **{**row, "bins": tuple(row["bins"])}
            )
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise PrerequisiteError(f"cannot read {path} ({exc}); {rerun}") from exc
    if stale:
        raise PrerequisiteError(
            f"{path} was written for another run (its {', '.join(stale)} differ); {rerun}"
        )
    return distributions
