"""Command-line front end: transform -> generate -> score -> analyze.

Stages hand off through files in the run directory, so each stage can be
re-run independently and a full pipeline is reproducible byte-for-byte from
(corpus, config, seed, cache):

    out/variants/<variant>.jsonl   transformed corpora
    out/rejects.jsonl              filtered-out examples with reasons
    out/errors_<stage>.jsonl       record-level errors per stage
    out/runs.jsonl                 one record per (example, variant, model)
    out/pairings.jsonl             corresponding vs re-paired score distributions
    out/cache/                     LLM response cache
    out/report/                    CSV + SVG report

Configuration comes from an INI file plus flag overrides, one SETTINGS row
per setting; only the API key is read from the environment (SUMPROBE_API_KEY).
"""

from __future__ import annotations

import argparse
import configparser
import functools
import hashlib
import json
import logging
import math
import os
import sys
from collections.abc import Callable, Iterable
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from . import llmgen, metrics
from .analysis import (
    DistSummary,
    PairingMode,
    attribute_copies,
    bucket_label_from_counts,
    emit_report,
    pairing_distributions,
)
from .corpus import (
    EvalRecord,
    Example,
    FilterReason,
    RunRecord,
    filter_corpus,
    load_corpus,
    load_run,
    save_run,
    screen_example,
    write_jsonl,
)
from .errors import HarnessError
from .metrics import HashedOneHotProvider, RemoteEmbeddingProvider
from .pylex import Category, UnlexableError
from .subtok import split_code, tokenizer_from_spec
from .transform import VARIANT_ORDER, DonorEntry, Snippet, Variant, donor_assignment

log = logging.getLogger(__name__)

API_KEY_ENV = "SUMPROBE_API_KEY"


class PrerequisiteError(HarnessError):
    """An upstream stage has not produced its artifact yet."""


@dataclass
class RunConfig:
    corpus_path: str = ""
    train_path: str = ""
    min_tokens: int = 3
    max_tokens: int = 256
    variants: list[str] = field(default_factory=lambda: [v.value for v in Variant])
    model_id: str = ""
    endpoint: str = ""
    mock: str = ""
    temperature: float = 0.0
    gen_max_tokens: int = 128
    shots: int = llmgen.DEFAULT_SHOT_COUNT
    tokenizer: str = "fallback"
    embedding_endpoint: str = ""
    embedding_dim: int = 256
    seed: int | None = None
    out_dir: str = "out"
    jobs: int = 4
    max_errors: int = 0
    lowercase_bleu: bool = False
    report_dir: str = ""

    def require_seed(self) -> int:
        if self.seed is None:
            raise HarnessError("a seed is required (--seed or [run] seed = ...)")
        return self.seed

    @property
    def out(self) -> Path:
        return Path(self.out_dir)

    @property
    def variants_dir(self) -> Path:
        return self.out / "variants"

    @property
    def runs_path(self) -> Path:
        return self.out / "runs.jsonl"

    @property
    def pairings_path(self) -> Path:
        return self.out / "pairings.jsonl"

    @property
    def cache_dir(self) -> Path:
        return self.out / "cache"

    @property
    def report(self) -> Path:
        return Path(self.report_dir) if self.report_dir else self.out / "report"


@dataclass(frozen=True)
class Setting:
    """How one `RunConfig` field is set: the INI key `section.option`,
    whose text `parse` converts, and `flag`, which the subcommands of
    `stages` take (no stages: a global flag, given before the stage)."""

    attr: str
    key: str
    parse: Callable[[str], object]
    flag: str
    stages: tuple[str, ...]
    help: str
    options: dict | None = None  # argparse options in place of type=parse


def _boolean(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


def _checked(parse: Callable[[str], object], holds: Callable, name: str) -> Callable:
    """`parse`, refusing a value for which `holds` is false. argparse names
    a refused flag value's type by the function's `__name__`."""

    def checked(text: str) -> object:
        value = parse(text)
        if not holds(value):
            raise ValueError(f"invalid {name} value: {text!r}")
        return value

    checked.__name__ = name
    return checked


_finite_float = _checked(float, math.isfinite, "finite float")
_non_negative_int = _checked(int, lambda n: n >= 0, "int >= 0")
_positive_int = _checked(int, lambda n: n >= 1, "int >= 1")


SETTINGS = (
    Setting("corpus_path", "corpus.path", str, "--corpus", ("transform",),
            "JSONL corpus with code/docstring fields"),
    Setting("train_path", "corpus.train_path", str, "--shots-corpus", ("generate",),
            "JSONL training corpus for few-shot examples"),
    Setting("min_tokens", "corpus.min_tokens", int, "--min-tokens", ("transform",),
            "min description tokens (default 3)"),
    Setting("max_tokens", "corpus.max_tokens", int, "--max-tokens", ("transform",),
            "max description tokens (default 256)"),
    Setting("variants", "run.variants", lambda s: [v.strip() for v in s.split(",") if v.strip()],
            "--variant", ("transform",), "variant name or 'all' (repeatable)",
            {"action": "append"}),
    Setting("model_id", "model.id", str, "--model", ("generate",),
            "model id recorded in run records"),
    Setting("endpoint", "model.endpoint", str, "--endpoint", ("generate",),
            "chat-completions endpoint URL"),
    Setting("mock", "model.mock", str, "--mock", ("generate",),
            "use a mock client instead of HTTP", {"choices": ("echo",)}),
    Setting("temperature", "model.temperature", _finite_float, "--temperature", ("generate",),
            "decoding temperature (default 0)"),
    Setting("gen_max_tokens", "model.max_tokens", int, "--gen-max-tokens", ("generate",),
            "max new tokens (default 128)"),
    Setting("shots", "model.shots", _non_negative_int, "--shots", ("generate",),
            "few-shot example count (default 10)"),
    Setting("tokenizer", "tokenizer.spec", str, "--tokenizer", ("score", "analyze"),
            "'fallback' or path to a vocab JSON file"),
    Setting("embedding_endpoint", "embedding.endpoint", str, "--embedding-endpoint", ("score",),
            "remote embedding service URL"),
    Setting("embedding_dim", "embedding.dim", int, "--embedding-dim", ("score",),
            "hashed one-hot dimension (default 256)"),
    Setting("seed", "run.seed", int, "--seed", (), "seed for all randomized steps (required)"),
    Setting("out_dir", "run.out", str, "--out", (), "run directory (default: out)"),
    Setting("jobs", "run.jobs", _positive_int, "--jobs", (), "parallel workers for generation"),
    Setting("max_errors", "run.max_errors", int, "--max-errors", ("transform", "score"),
            "tolerated record errors (default 0)"),
    Setting("lowercase_bleu", "report.lowercase_bleu", _boolean, "--lowercase-bleu", ("score",),
            "lowercase descriptions before BLEU tokenization",
            {"action": "store_true", "default": None}),
    Setting("report_dir", "report.dir", str, "--report", ("analyze",),
            "report directory (default: <out>/report)"),
)


def load_config(path: str | None) -> RunConfig:
    config = RunConfig()
    if not path:
        return config
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise HarnessError(f"cannot read config file {path}: {exc}") from exc
    if not read:
        raise HarnessError(f"cannot read config file {path}")
    keys = {setting.key for setting in SETTINGS}
    # Every section inherits the [DEFAULT] keys, so each is checked once.
    defaults = parser.defaults()
    unknown = [f"DEFAULT.{o}" for o in defaults if not any(k.endswith("." + o) for k in keys)]
    unknown += [f"{s}.{o}" for s in parser.sections() for o in parser.options(s)
                if o not in defaults and f"{s}.{o}" not in keys]
    if unknown:
        raise HarnessError(f"unknown config key(s) in {path}: {', '.join(unknown)}")
    for setting in SETTINGS:
        section, option = setting.key.split(".")
        if parser.has_option(section, option):
            try:
                setattr(config, setting.attr, setting.parse(parser.get(section, option)))
            except ValueError as exc:
                raise HarnessError(f"bad config value {setting.key}: {exc}") from exc
    return config


def _parse_variants(names: list[str]) -> list[Variant]:
    """The named variants, each once, in first-named order."""
    if not names or "all" in names:
        return list(Variant)
    out: dict[Variant, None] = {}
    for name in names:
        try:
            out[Variant(name)] = None
        except ValueError:
            valid = ", ".join(v.value for v in Variant)
            raise HarnessError(f"unknown variant {name!r} (expected one of: {valid})")
    return list(out)


def _record_sort_key(rec: RunRecord):
    return (rec.model_id, VARIANT_ORDER.get(rec.variant, 99), rec.variant, rec.example_id)


def cmd_transform(config: RunConfig) -> int:
    seed = config.require_seed()
    if not config.corpus_path:
        raise HarnessError("transform needs a corpus (--corpus or [corpus] path)")
    variants = _parse_variants(config.variants)
    examples, line_errors = load_corpus(config.corpus_path)
    # One pass: the filter rules, then one lex per snippet for all variants,
    # sharing one memo of lexeme categories.
    kinds: dict[str, Category] = {}
    accepted: list[tuple[Example, Snippet]] = []
    rejects: list[dict] = []
    for ex in examples:
        reason = screen_example(ex, config.min_tokens, config.max_tokens)
        if reason is None:
            try:
                accepted.append((ex, Snippet.of(ex.code, variants, kinds)))
                continue
            except UnlexableError:
                reason = FilterReason.UNLEXABLE
        rejects.append({"id": ex.id, "reason": reason.value})
    config.out.mkdir(parents=True, exist_ok=True)
    write_jsonl(config.out / "rejects.jsonl", rejects)

    errors = [
        {"stage": "transform", "where": f"{err.path}:{err.line_number}", "error": err.message}
        for err in line_errors
    ]
    donors: dict[str, str] = {}
    if Variant.ADVERSARIAL_NAMES in variants:
        donors = donor_assignment([
            DonorEntry(ex.id, snippet.name, snippet.identifiers)
            for ex, snippet in accepted if snippet.name is not None
        ], seed)
    for variant in variants:
        write_jsonl(
            config.variants_dir / f"{variant.value}.jsonl",
            _variant_rows(accepted, variant, donors, errors),
        )
    write_jsonl(config.out / "errors_transform.jsonl", errors)
    for err in errors:
        log.warning("transform error at %s: %s", err["where"], err["error"])
    print(f"transform: {len(accepted)} accepted, {len(rejects)} rejected, "
          f"{len(errors)} errors, {len(variants)} variant file(s)")
    return 0 if len(errors) <= config.max_errors else 1


def _variant_rows(
    accepted: list[tuple[Example, Snippet]],
    variant: Variant,
    donors: dict[str, str],
    errors: list[dict],
):
    """One variant file's rows; a snippet the variant fails on is an
    error row instead."""
    for ex, snippet in accepted:
        try:
            donor = None
            if variant is Variant.ADVERSARIAL_NAMES:
                donor = donors.get(ex.id)
                if donor is None:
                    raise HarnessError("no usable donor name in the corpus")
            code = snippet.text(variant, donor)
        except HarnessError as exc:
            errors.append(
                {"stage": "transform", "where": f"{ex.id}/{variant.value}", "error": str(exc)}
            )
            continue
        yield {"id": ex.id, "code": code, "docstring": ex.reference}


def _load_variant_examples(config: RunConfig, variant_value: str) -> list[Example]:
    path = config.variants_dir / f"{variant_value}.jsonl"
    if not path.exists():
        raise PrerequisiteError(
            f"missing {path}; run `sumprobe transform` first"
        )
    examples, errors = load_corpus(path)
    if errors:
        raise HarnessError(f"{path}: {len(errors)} unreadable lines")
    return examples


def _present_variants(config: RunConfig) -> list[str]:
    if not config.variants_dir.exists():
        raise PrerequisiteError(
            f"missing {config.variants_dir}; run `sumprobe transform` first"
        )
    names = [p.stem for p in config.variants_dir.glob("*.jsonl")]
    return sorted(names, key=lambda n: (VARIANT_ORDER.get(n, 99), n))


def cmd_generate(config: RunConfig) -> int:
    seed = config.require_seed()
    if not config.model_id:
        raise HarnessError("generate needs a model id (--model or [model] id)")
    shots: list[tuple[str, str]] = []
    if config.train_path:
        train_examples, _ = load_corpus(config.train_path)
        train_accepted, _ = filter_corpus(train_examples, config.min_tokens, config.max_tokens)
        shots = llmgen.select_shots(train_accepted, config.shots, seed)
    elif not config.mock:
        log.warning("no [corpus] train_path configured; prompting zero-shot")

    if config.mock:
        if config.mock != "echo":
            raise HarnessError(f"unknown mock {config.mock!r} (only 'echo')")
        # Filled as the variants are read; transform leaves references
        # untouched, so one map serves every variant.
        references: dict[str, str] = {}
        client: llmgen.CompletionClient = llmgen.EchoClient(references)
    else:
        if not config.endpoint:
            raise HarnessError(
                "generate needs an endpoint (--endpoint or [model] endpoint) "
                "unless --mock echo is used"
            )
        client = llmgen.ChatCompletionsClient(
            config.endpoint, api_key=os.environ.get(API_KEY_ENV)
        )
    # The echo mock answers by example id, which the cache key leaves out,
    # and costs nothing to recompute, so it runs uncached.
    cache = None if config.mock else llmgen.GenerationCache(config.cache_dir)

    def request(ex: Example) -> llmgen.GenRequest:
        return llmgen.GenRequest(
            model_id=config.model_id,
            prompt=llmgen.build_prompt(ex, [s for s in shots if s[0] != ex.code]).render(),
            temperature=config.temperature,
            max_tokens=config.gen_max_tokens,
            example_id=ex.id,
        )

    order: list[tuple[str, str]] = []  # (example id, variant) of each request

    def builds():
        # One variant file at a time, as the dispatcher asks for requests.
        for variant_value in _present_variants(config):
            for ex in _load_variant_examples(config, variant_value):
                if config.mock:
                    references[ex.id] = ex.reference
                order.append((ex.id, variant_value))
                yield functools.partial(request, ex)

    results = llmgen.dispatch(builds(), client, cache, config.jobs)
    new_records: list[RunRecord] = []
    errors: list[dict] = []
    for (example_id, variant_value), result in zip(order, results):
        if isinstance(result, Exception):
            where = f"{example_id}/{variant_value}"
            errors.append({"stage": "generate", "where": where, "error": str(result)})
        else:
            new_records.append(RunRecord(
                example_id=example_id,
                variant=variant_value,
                model_id=config.model_id,
                generated=result.text,
            ))

    merged: dict[tuple[str, str, str], RunRecord] = {}
    if config.runs_path.exists():
        merged = {rec.key: rec for rec in load_run(config.runs_path)}
    for rec in new_records:
        merged[rec.key] = rec
    ordered = sorted(merged.values(), key=_record_sort_key)
    save_run(ordered, config.runs_path)
    write_jsonl(config.out / "errors_generate.jsonl", errors)
    for err in errors:
        log.warning("generate error at %s: %s", err["where"], err["error"])
    print(f"generate: {len(new_records)} generations for model {config.model_id}, "
          f"{len(errors)} errors, run file {config.runs_path}")
    return 0


def cmd_score(config: RunConfig) -> int:
    seed = config.require_seed()
    if not config.runs_path.exists():
        raise PrerequisiteError(
            f"missing {config.runs_path}; run `sumprobe generate` first"
        )
    records = load_run(config.runs_path)
    tokenize = tokenizer_from_spec(config.tokenizer)
    if config.embedding_endpoint:
        provider: metrics.EmbeddingProvider = RemoteEmbeddingProvider(
            config.embedding_endpoint, api_key=os.environ.get(API_KEY_ENV)
        )
    else:
        provider = HashedOneHotProvider(config.embedding_dim)

    examples: dict[tuple[str, str], Example] = {}
    for variant_value in sorted({rec.variant for rec in records}):
        for ex in _load_variant_examples(config, variant_value):
            examples[(variant_value, ex.id)] = ex

    # Pass 1: tokenize each distinct description once (references repeat
    # across variants, and echoes equal them) and collect the distinct
    # subwords of every record that needs BERTScore, and of every original
    # record, which the re-paired BERTScore may pair with any other.
    subwords: dict[str, list[str]] = {}
    needed: dict[str, None] = {}
    record_pairs: dict[tuple[str, str], None] = {}  # (reference, generation) texts
    for rec in records:
        ex = examples.get((rec.variant, rec.example_id))
        if ex is None:
            continue
        for text in (ex.reference, rec.generated):
            if text not in subwords:
                subwords[text] = tokenize(text)
        if subwords[rec.generated]:
            record_pairs[(ex.reference, rec.generated)] = None
        if subwords[rec.generated] or rec.variant == Variant.ORIGINAL.value:
            needed.update(dict.fromkeys(subwords[ex.reference]))
            needed.update(dict.fromkeys(subwords[rec.generated]))
    table = metrics.EmbeddingTable(provider, needed)
    if table.error is not None:
        # Each record that needs BERTScore reports it below.
        log.warning("embedding fetch failed: %s", table.error)

    # Both metrics depend only on the text pair, so each distinct pair is
    # scored once per run, for the records and every model's re-pairings.
    # (reference, generation) texts -> BERTScore, or the error that fails it.
    berts: dict[tuple[str, str], metrics.BertScoreResult | HarnessError] = {}

    def score_berts(pairs: Iterable[tuple[str, str]]) -> None:
        """Add to `berts` the (reference, generation) pairs it lacks."""
        missing = list(dict.fromkeys(pair for pair in pairs if pair not in berts))
        berts.update(zip(missing, table.bertscores(
            [(subwords[reference], subwords[generation]) for reference, generation in missing]
        )))

    score_berts(record_pairs)

    ngrams = metrics.NgramTable()
    bleus: dict[tuple[str, str], float] = {}  # (candidate, reference) texts -> BLEU-4

    def bleu(candidate: str, reference: str) -> float:
        value = bleus.get((candidate, reference))
        if value is not None:
            return value
        ref_words = metrics.split_description(reference, config.lowercase_bleu)
        if ref_words:
            value = metrics.bleu4(
                metrics.split_description(candidate, config.lowercase_bleu),
                ref_words,
                ngrams,
            ).value
        else:
            # Only a re-pairing puts a generation on the reference side;
            # an empty one scores 0, as in bertscore_f1.
            value = 0.0
        bleus[(candidate, reference)] = value
        return value

    def bleu_scores(pairs: list[tuple[str, str]]) -> list[float]:
        return [bleu(candidate, reference) for candidate, reference in pairs]

    def bertscore_f1(pairs: list[tuple[str, str]]) -> list[float]:
        score_berts([(reference, candidate) for candidate, reference in pairs])
        scores = []
        for candidate, reference in pairs:
            result = berts[(reference, candidate)]
            if isinstance(result, metrics.EmptySequenceError):
                scores.append(0.0)  # an empty description, as in bleu
            elif isinstance(result, HarnessError):
                raise result
            else:
                scores.append(result.f1)
        return scores

    # Pass 2: score each record from the cached subwords and BERTScores.
    # One split_code memo for the batch classifies and tokenizes each
    # distinct code lexeme once.
    code_memo: dict[str, tuple[int | None, list[str]]] = {}
    errors: list[dict] = []
    scored: list[RunRecord] = []
    originals: dict[tuple[str, str, str], str] = {}  # key -> reference
    for rec in records:
        ex = examples.get((rec.variant, rec.example_id))
        if ex is None:
            errors.append(
                {"stage": "score", "where": f"{rec.example_id}/{rec.variant}",
                 "error": "example missing from variant corpus"}
            )
            scored.append(replace(rec, metrics=None))
            continue
        try:
            scored.append(_score_record(
                rec, ex, tokenize, subwords, code_memo, berts, bleu
            ))
        except HarnessError as exc:
            errors.append(
                {"stage": "score", "where": f"{rec.example_id}/{rec.variant}", "error": str(exc)}
            )
            # Not the scores of an earlier run, which may have used another
            # tokenizer or embedding provider.
            scored.append(replace(rec, metrics=None))
            continue
        if rec.variant == Variant.ORIGINAL.value:
            originals[rec.key] = ex.reference
    scored.sort(key=_record_sort_key)
    save_run(scored, config.runs_path)
    header = {
        "seed": seed,
        "tokenizer_id": tokenize.tokenizer_id,
        "provider_id": provider.provider_id,
        "lowercase_bleu": config.lowercase_bleu,
        "records_digest": _originals_digest(scored),
    }
    rows = _pairing_rows(
        scored, originals, seed, {"bleu4": bleu_scores, "bertscore_f1": bertscore_f1}, errors
    )
    write_jsonl(config.pairings_path, [header] + rows)
    write_jsonl(config.out / "errors_score.jsonl", errors)
    for err in errors:
        log.warning("score error at %s: %s", err["where"], err["error"])
    print(f"score: {len(scored)} records scored with tokenizer "
          f"{tokenize.tokenizer_id}, {len(errors)} errors")
    return 0 if len(errors) <= config.max_errors else 1


def _score_record(
    rec: RunRecord,
    ex: Example,
    tokenize,
    subwords: dict[str, list[str]],
    code_memo: dict[str, tuple[int | None, list[str]]],
    berts: dict[tuple[str, str], metrics.BertScoreResult | HarnessError],
    bleu: Callable[[str, str], float],
) -> RunRecord:
    """Score one record; `subwords` holds its descriptions' subwords,
    `code_memo` is the code split's memo, `berts` holds its (reference,
    generation) BERTScore if it has a generation."""
    ref_sw, gen_sw = subwords[ex.reference], subwords[rec.generated]
    code = split_code(ex.code, tokenize, code_memo)
    code_set = code.source.keys()  # the code's distinct subwords
    ref_copy = metrics.p_copy(code_set, ref_sw, tokenize.tokenizer_id)
    eval_rec = EvalRecord(
        bleu4=bleu(rec.generated, ex.reference),
        p_copy_reference=ref_copy.value,
        p_copy_reference_matched=ref_copy.matched,
        p_copy_reference_total=ref_copy.total,
        copy_attribution=attribute_copies(code, ref_sw, gen_sw),
        tokenizer_id=tokenize.tokenizer_id,
        bucket=bucket_label_from_counts(ref_copy.matched, ref_copy.total),
    )
    if gen_sw:
        gen_copy = metrics.p_copy(code_set, gen_sw, tokenize.tokenizer_id)
        eval_rec.p_copy_generated = gen_copy.value
        eval_rec.p_copy_generated_matched = gen_copy.matched
        eval_rec.p_copy_generated_total = gen_copy.total
        bert = berts[(ex.reference, rec.generated)]
        if isinstance(bert, HarnessError):
            raise bert
        eval_rec.bertscore_precision = bert.precision
        eval_rec.bertscore_recall = bert.recall
        eval_rec.bertscore_f1 = bert.f1
    else:
        eval_rec.bertscore_precision = 0.0
        eval_rec.bertscore_recall = 0.0
        eval_rec.bertscore_f1 = 0.0
    return RunRecord(
        example_id=rec.example_id,
        variant=rec.variant,
        model_id=rec.model_id,
        generated=rec.generated,
        metrics=eval_rec,
    )


def _originals_digest(records: list[RunRecord]) -> str:
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


def _pairing_rows(
    scored: list[RunRecord],
    originals: dict[tuple[str, str, str], str],
    seed: int,
    scorers: dict[str, metrics.Scorer],
    errors: list[dict],
) -> list[dict]:
    """pairings.jsonl rows: per model with two or more original records
    scored in this run (`originals`: key -> reference), in run-file order,
    and per metric, the four `pairing_distributions`."""
    by_model: dict[str, list[RunRecord]] = {}
    for rec in scored:
        if rec.key in originals:
            by_model.setdefault(rec.model_id, []).append(rec)
    rows = []
    for model_id, recs in sorted(by_model.items()):
        if len(recs) < 2:
            continue
        pairs = [(originals[rec.key], rec.generated) for rec in recs]
        for metric_name, scorer in sorted(scorers.items()):
            own = [getattr(rec.metrics, metric_name) for rec in recs]
            try:
                summaries = pairing_distributions(pairs, own, seed, scorer)
            except HarnessError as exc:
                errors.append({"stage": "score", "where": f"{model_id}/{metric_name} pairings",
                               "error": str(exc)})
                continue
            rows.extend(
                {"model_id": model_id, "metric": metric_name, "pairing": pairing.value,
                 **asdict(summary)}
                for pairing, summary in summaries.items()
            )
    return rows


def _read_pairings(
    path: Path, expected: dict
) -> dict[tuple[str, str], dict[PairingMode, DistSummary]]:
    """The distributions of a pairings file whose header holds the
    `expected` values (seed, tokenizer and records digest)."""
    rerun = f"rerun `sumprobe score --seed {expected['seed']}`"
    if not path.exists():
        raise PrerequisiteError(f"missing {path}; {rerun}")
    distributions: dict[tuple[str, str], dict[PairingMode, DistSummary]] = {}
    try:
        header, *rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
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


def cmd_analyze(config: RunConfig) -> int:
    seed = config.require_seed()
    if not config.runs_path.exists():
        raise PrerequisiteError(
            f"missing {config.runs_path}; run `sumprobe generate` and `sumprobe score` first"
        )
    records = load_run(config.runs_path)
    if not records:
        raise PrerequisiteError(
            f"{config.runs_path} is empty; run `sumprobe generate` first"
        )
    unscored = [
        rec for rec in records
        if rec.metrics is None or rec.metrics.copy_attribution is None
    ]
    if unscored:
        raise PrerequisiteError(
            f"{len(unscored)} record(s) have no scores or no copy-attribution "
            "counts; run `sumprobe score` first"
        )
    # Only the tokenizer's id is compared; analyze tokenizes nothing.
    tokenizer_id = tokenizer_from_spec(config.tokenizer).tokenizer_id
    scored_with = sorted({rec.metrics.tokenizer_id for rec in records})
    if scored_with != [tokenizer_id]:
        raise HarnessError(
            f"records were scored with tokenizer {', '.join(map(repr, scored_with))} "
            f"but analyze was given {tokenizer_id!r}; pass the tokenizer "
            "that `sumprobe score` used"
        )
    distributions = _read_pairings(config.pairings_path, {
        "seed": seed,
        "tokenizer_id": tokenizer_id,
        "records_digest": _originals_digest(records),
    })
    written = emit_report(records, distributions, config.report)
    print(f"analyze: wrote {len(written)} file(s) to {config.report}")
    return 0


# Stage -> help text. `main` runs stage s by looking up `cmd_<s>` when it
# is called, so a wrapper put on that module attribute (as
# perfbench/tracer.py does) is the function that runs.
_STAGES = {
    "transform": "filter the corpus and emit code variants",
    "generate": "elicit summaries from an LLM endpoint",
    "score": "score generations (BLEU, BERTScore, copy rate)",
    "analyze": "aggregate scored records into a report",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumprobe",
        description="Probe how much code-summarization quality depends on "
        "code/description token overlap.",
    )
    parser.add_argument("--config", help="INI config file; flags override it")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)
    stages = {name: sub.add_parser(name, help=text) for name, text in _STAGES.items()}
    for setting in SETTINGS:
        for p in [stages[name] for name in setting.stages] or [parser]:
            p.add_argument(setting.flag, help=setting.help,
                           **(setting.options or {"type": setting.parse}))
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    config = load_config(args.config)
    for setting in SETTINGS:
        value = getattr(args, setting.flag[2:].replace("-", "_"), None)
        if value is not None:
            setattr(config, setting.attr, value)
    return config


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        config = config_from_args(args)
        return globals()[f"cmd_{args.command}"](config)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
