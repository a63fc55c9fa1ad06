"""Command-line front end: transform -> generate -> score -> analyze.

This module handles arguments only: an INI file plus flag overrides, one
`RunConfig` field per setting (only the API key is read from the environment,
SUMPROBE_API_KEY), and each stage's checks, printed line and exit code.
The score stage's phases are in `score.py`. `transform` screens its corpus
and `generate` its few-shot pool with `corpus.filter_corpus`; a line of
either that cannot be read is an error row of the stage. Stages hand off through files
in the run directory, so each stage can be re-run independently and a
full pipeline is reproducible byte-for-byte from (corpus, config, seed,
cache):

    out/variants/<variant>.jsonl   transformed corpora
    out/rejects.jsonl              filtered-out examples with reasons
    out/errors_<stage>.jsonl       record-level errors per stage
    out/runs.jsonl                 one record per (example, variant, model)
    out/pairings.jsonl             corresponding vs re-paired score distributions
    out/cache/entries.log          LLM response cache, one line per entry
    out/report/                    CSV + SVG report
"""

from __future__ import annotations

import argparse
import configparser
import functools
import gc
import logging
import math
import operator
import os
import sys
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

from . import llmgen, metrics, score
from .analysis import emit_report
from .corpus import (
    Example,
    LineError,
    RunRecord,
    filter_corpus,
    load_corpus,
    load_run,
    load_variant,
    save_run,
    write_jsonl,
)
from .errors import HarnessError, PrerequisiteError
from .metrics import HashedOneHotProvider, RemoteEmbeddingProvider
from .pylex import Category
from .subtok import tokenizer_from_spec
from .transform import (
    Snippet, Variant, donor_assignment, donor_entries, record_sort_key, variant_key,
)

log = logging.getLogger(__name__)

API_KEY_ENV = "SUMPROBE_API_KEY"


@dataclass(frozen=True)
class Setting:
    """How one `RunConfig` field, `attr`, is set: the INI key
    `section.option`, whose text `parse` converts and checks, and `flag`,
    which the subcommands of `stages` take (no stages: a global flag,
    given before the stage)."""

    key: str
    parse: Callable[[str], object]
    flag: str
    stages: tuple[str, ...]
    help: str
    options: dict | None = None  # argparse options in place of type=parse
    attr: str = field(kw_only=True)


def _setting(initial, *how, **options) -> Any:
    """A `RunConfig` field that starts as `initial` (a list is copied for each
    config) and whose metadata builds its `Setting(*how)` from the field name."""
    metadata = {"setting": functools.partial(Setting, *how, options=options or None)}
    if isinstance(initial, list):
        return field(default_factory=initial.copy, metadata=metadata)
    return field(default=initial, metadata=metadata)


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
_mock = _checked(str, lambda name: name in ("", "echo"), "mock")


@dataclass
class RunConfig:
    """A run's settings: each field is one setting, read from the INI file
    and then from the flags, as the `Setting` in its metadata says."""

    corpus_path: str = _setting("", "corpus.path", str, "--corpus", ("transform",),
                                "JSONL corpus with code/docstring fields")
    train_path: str = _setting("", "corpus.train_path", str, "--shots-corpus", ("generate",),
                               "JSONL training corpus for few-shot examples")
    min_tokens: int = _setting(3, "corpus.min_tokens", _non_negative_int, "--min-tokens",
                               ("transform",), "min description tokens (default 3)")
    max_tokens: int = _setting(256, "corpus.max_tokens", _positive_int, "--max-tokens",
                               ("transform",), "max description tokens (default 256)")
    variants: list[str] = _setting(
        [v.value for v in Variant], "run.variants",
        lambda s: [v.strip() for v in s.split(",") if v.strip()],
        "--variant", ("transform",), "variant name or 'all' (repeatable)", action="append")
    model_id: str = _setting("", "model.id", str, "--model", ("generate",),
                             "model id recorded in run records")
    endpoint: str = _setting("", "model.endpoint", str, "--endpoint", ("generate",),
                             "chat-completions endpoint URL")
    mock: str = _setting("", "model.mock", _mock, "--mock", ("generate",),
                         "'echo' to answer with each reference instead of calling HTTP")
    temperature: float = _setting(0.0, "model.temperature", _finite_float, "--temperature",
                                  ("generate",), "decoding temperature (default 0)")
    gen_max_tokens: int = _setting(128, "model.max_tokens", _positive_int, "--gen-max-tokens",
                                   ("generate",), "max new tokens (default 128)")
    shots: int = _setting(llmgen.DEFAULT_SHOT_COUNT, "model.shots", _non_negative_int,
                          "--shots", ("generate",), "few-shot example count (default 10)")
    tokenizer: str = _setting("fallback", "tokenizer.spec", str, "--tokenizer",
                              ("score", "analyze"), "'fallback' or path to a vocab JSON file")
    embedding_endpoint: str = _setting("", "embedding.endpoint", str, "--embedding-endpoint",
                                       ("score",), "remote embedding service URL")
    embedding_dim: int = _setting(256, "embedding.dim", int, "--embedding-dim", ("score",),
                                  "hashed one-hot dimension (default 256)")
    seed: int | None = _setting(None, "run.seed", int, "--seed", (),
                                "seed for all randomized steps (required)")
    out_dir: str = _setting("out", "run.out", str, "--out", (), "run directory (default: out)")
    jobs: int = _setting(4, "run.jobs", _positive_int, "--jobs", (),
                         "parallel workers for generation")
    max_errors: int = _setting(0, "run.max_errors", _non_negative_int, "--max-errors",
                               ("transform", "score"), "tolerated record errors (default 0)")
    lowercase_bleu: bool = _setting(
        False, "report.lowercase_bleu", _boolean, "--lowercase-bleu", ("score",),
        "lowercase descriptions before BLEU tokenization", action="store_true", default=None)
    report_dir: str = _setting("", "report.dir", str, "--report", ("analyze",),
                               "report directory (default: <out>/report)")

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


SETTINGS = tuple(f.metadata["setting"](attr=f.name) for f in fields(RunConfig))


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


def _finish(config: RunConfig, stage: str, errors: list[dict], tolerated: float, line: str) -> int:
    """End `stage`: write its error rows to `errors_<stage>.jsonl`, log
    each, print `<stage>: <line>`, and fail if more than `tolerated`."""
    write_jsonl(config.out / f"errors_{stage}.jsonl", errors)
    for err in errors:
        log.warning("%s error at %s: %s", stage, err["where"], err["error"])
    print(f"{stage}: {line}")
    return 0 if len(errors) <= tolerated else 1


def _line_error_rows(stage: str, line_errors: list[LineError]) -> list[dict]:
    """One error row of `stage` per corpus line that could not be read."""
    return [{"stage": stage, "where": f"{err.path}:{err.line_number}", "error": err.message}
            for err in line_errors]


def cmd_transform(config: RunConfig) -> int:
    if not config.corpus_path:
        raise HarnessError("transform needs a corpus (--corpus or [corpus] path)")
    variants = _parse_variants(config.variants)
    examples, line_errors = load_corpus(config.corpus_path)
    # The filter scans each snippet it accepts once, for all variants,
    # sharing one memo of lexeme categories.
    kinds: dict[str, Category] = {}
    accepted, rejected = filter_corpus(
        examples, config.min_tokens, config.max_tokens,
        lambda code: Snippet.of(code, variants, kinds))
    write_jsonl(config.out / "rejects.jsonl",
                ({"id": ex.id, "reason": reason.value} for ex, reason in rejected))

    errors = _line_error_rows("transform", line_errors)
    donors: dict[str, str] = {}
    if Variant.ADVERSARIAL_NAMES in variants:
        donors = donor_assignment(donor_entries(accepted), config.seed)
    written = [config.variants_dir / f"{variant.value}.jsonl" for variant in variants]
    for path, variant in zip(written, variants):
        write_jsonl(path, _variant_rows(accepted, variant, donors, errors))
    # variants/ holds this run's variants only: a stale one from an earlier
    # corpus would be generated, scored and reported beside them.
    for path in config.variants_dir.glob("*.jsonl"):
        if path not in written:
            path.unlink()
    return _finish(config, "transform", errors, config.max_errors,
                   f"{len(accepted)} accepted, {len(rejected)} rejected, "
                   f"{len(errors)} errors, {len(variants)} variant file(s)")


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
            code = snippet.text(variant, donors.get(ex.id))
        except HarnessError as exc:
            errors.append(
                {"stage": "transform", "where": f"{ex.id}/{variant.value}", "error": str(exc)}
            )
            continue
        yield {"id": ex.id, "code": code, "docstring": ex.reference}


def _present_variants(config: RunConfig) -> list[str]:
    if not config.variants_dir.exists():
        raise PrerequisiteError(
            f"missing {config.variants_dir}; run `sumprobe transform` first"
        )
    return sorted((p.stem for p in config.variants_dir.glob("*.jsonl")), key=variant_key)


def cmd_generate(config: RunConfig) -> int:
    if not config.model_id:
        raise HarnessError("generate needs a model id (--model or [model] id)")
    pool: list[Example] = []
    errors: list[dict] = []
    if config.train_path:
        pool, line_errors = load_corpus(config.train_path)
        errors = _line_error_rows("generate", line_errors)
    order: list[tuple[str, str]] = []  # (example id, variant) of each request

    def requests(prompt: Callable[[Example], str]) -> Iterator[llmgen.GenRequest]:
        # One variant file at a time, as the dispatcher asks for requests.
        for variant_value in _present_variants(config):
            for ex in load_variant(config.variants_dir, variant_value):
                order.append((ex.id, variant_value))
                yield llmgen.GenRequest(
                    model_id=config.model_id,
                    prompt=prompt(ex),
                    temperature=config.temperature,
                    max_tokens=config.gen_max_tokens,
                    example_id=ex.id,
                )

    if config.mock:
        # The echo answers its prompt, the reference, and costs nothing, so
        # it runs uncached on this thread; its replies stay verbatim.
        results = llmgen.dispatch(requests(lambda ex: ex.reference), llmgen.EchoClient())
        reply = operator.attrgetter("raw_text")
    else:
        if not config.endpoint:
            raise HarnessError(
                "generate needs an endpoint (--endpoint or [model] endpoint) "
                "unless --mock echo is used"
            )
        if not config.train_path:
            log.warning("no [corpus] train_path configured; prompting zero-shot")
        accepted, _ = filter_corpus(pool, config.min_tokens, config.max_tokens)
        shots = llmgen.select_shots([ex for ex, _ in accepted], config.shots, config.seed)
        client = llmgen.ChatCompletionsClient(
            config.endpoint, api_key=os.environ.get(API_KEY_ENV)
        )
        with llmgen.GenerationCache(config.cache_dir) as cache:
            results = llmgen.dispatch(
                requests(lambda ex: llmgen.build_prompt(ex, shots).render()),
                client, cache, config.jobs,
            )
        reply = operator.attrgetter("text")
    new_records: list[RunRecord] = []
    for (example_id, variant_value), result in zip(order, results):
        if isinstance(result, Exception):
            where = f"{example_id}/{variant_value}"
            errors.append({"stage": "generate", "where": where, "error": str(result)})
        else:
            new_records.append(RunRecord(
                example_id=example_id,
                variant=variant_value,
                model_id=config.model_id,
                generated=reply(result),
            ))

    # Earlier records are kept, other models' too, only for the (example,
    # variant) pairs of the variant files just read: a record of a corpus
    # that transform has since replaced would be scored against nothing.
    merged: dict[tuple[str, str, str], RunRecord] = {}
    dropped = 0
    if config.runs_path.exists():
        requested = set(order)
        for rec in load_run(config.runs_path):
            if (rec.example_id, rec.variant) in requested:
                merged[rec.key] = rec
            else:
                dropped += 1
    for rec in new_records:
        merged[rec.key] = rec
    ordered = sorted(merged.values(), key=record_sort_key)
    save_run(ordered, config.runs_path)
    return _finish(config, "generate", errors, math.inf,
                   f"{len(new_records)} generations for model {config.model_id}, "
                   f"{len(errors)} errors, {dropped} stale records dropped, "
                   f"run file {config.runs_path}")


def cmd_score(config: RunConfig) -> int:
    if not config.runs_path.exists():
        raise PrerequisiteError(
            f"missing {config.runs_path}; run `sumprobe generate` first"
        )
    tokenize = tokenizer_from_spec(config.tokenizer)
    if config.embedding_endpoint:
        provider: metrics.EmbeddingProvider = RemoteEmbeddingProvider(
            config.embedding_endpoint, api_key=os.environ.get(API_KEY_ENV)
        )
    else:
        provider = HashedOneHotProvider(config.embedding_dim)
    records, errors = score.score_run(
        config.runs_path, config.variants_dir, config.pairings_path,
        config.seed, tokenize, provider, config.lowercase_bleu,
    )
    return _finish(config, "score", errors, config.max_errors,
                   f"{len(records)} records scored with tokenizer "
                   f"{tokenize.tokenizer_id}, {len(errors)} errors")


def cmd_analyze(config: RunConfig) -> int:
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
    distributions = score.read_pairings(config.pairings_path, config.seed, tokenizer_id, records)
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
    # A stage makes no reference cycles per record, so the cyclic GC would
    # only rescan the records it holds; the few cycles of set-up wait for
    # the next collection after the stage.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        config = config_from_args(args)
        if config.seed is None:
            raise HarnessError("a seed is required (--seed or [run] seed = ...)")
        return globals()[f"cmd_{args.command}"](config)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
