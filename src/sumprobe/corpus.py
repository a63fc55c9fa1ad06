"""Corpus loading, filtering, and run-record persistence.

Corpora are JSON Lines with CodeSearchNet-style field names: `code` holds
the source snippet, `docstring` the reference description. Run files are
JSON Lines of per-(example, variant, model) records. `filter_corpus` is
the one filter: `transform` screens the corpus with it, scanning each
accepted snippet for its variants, and `generate` the few-shot pool.

Every JSONL file is read with one module-level decoder and written with one
encoder per file: the set-up that `json.loads` and `json.dumps` repeat on
each call is done once, and each line reads and writes as they would.
"""

from __future__ import annotations

import json
import json.encoder
import os
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import HarnessError, PrerequisiteError
from .pylex import UnlexableError, lexemes

T = TypeVar("T")


class CorpusError(HarnessError):
    pass


class DuplicateRunKeyError(CorpusError):
    def __init__(self, key: tuple[str, str, str]) -> None:
        super().__init__(
            "duplicate run record for (example_id, variant, model_id) = "
            f"{key!r}"
        )
        self.key = key


class FilterReason(str, Enum):
    EMPTY = "empty"
    HAS_URL = "has_url"
    TOO_SHORT = "too_short"
    TOO_LONG = "too_long"
    UNLEXABLE = "unlexable"


@dataclass(frozen=True)
class Example:
    """One corpus entry: code snippet plus its reference description."""

    id: str
    code: str
    reference: str


@dataclass(frozen=True)
class LineError:
    """A corpus line that could not be turned into an Example."""

    path: str
    line_number: int
    message: str


@dataclass
class EvalRecord:
    """Scores for one generation; None means the score was not computed."""

    bleu4: float | None = None
    bertscore_precision: float | None = None
    bertscore_recall: float | None = None
    bertscore_f1: float | None = None
    p_copy_reference: float | None = None
    p_copy_reference_matched: int | None = None
    p_copy_reference_total: int | None = None
    p_copy_generated: float | None = None
    p_copy_generated_matched: int | None = None
    p_copy_generated_total: int | None = None
    # Subword counts per subtok.ATTRIBUTION_CATEGORIES entry: in the code,
    # copied into the reference, copied into the generation.
    copy_attribution: list[list[int]] | None = None
    tokenizer_id: str = ""
    bucket: str | None = None


@dataclass
class RunRecord:
    example_id: str
    variant: str
    model_id: str
    generated: str
    metrics: EvalRecord | None = None

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.example_id, self.variant, self.model_id)

    def to_dict(self) -> dict:
        # A shallow copy: dataclasses.asdict deep-copies every field, which
        # costs more than the JSON encoding. Key order is declaration order.
        out = dict(vars(self))
        if self.metrics is not None:
            out["metrics"] = dict(vars(self.metrics))
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "RunRecord":
        metrics = raw.get("metrics")
        return cls(
            example_id=raw["example_id"],
            variant=raw["variant"],
            model_id=raw["model_id"],
            generated=raw["generated"],
            metrics=EvalRecord(**metrics) if metrics is not None else None,
        )


def load_corpus(path: str | Path) -> tuple[list[Example], list[LineError]]:
    """Read a JSONL corpus; every line becomes an Example or a LineError.

    Lines must be JSON objects with string `code` and `docstring` fields.
    An `id` field is used when present; otherwise ids are `path:lineno`.
    Other fields are ignored. A line whose id, code or description UTF-8
    cannot encode (a lone surrogate, which a JSON `\\ud800` escape can
    put in a str) is a LineError: every later write of it would fail.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise CorpusError(f"cannot read corpus {path}: {exc}") from exc

    examples: list[Example] = []
    errors: list[LineError] = []
    seen_ids: set[str] = set()
    for lineno, raw_line in enumerate(data.split(b"\n"), start=1):
        if not raw_line.strip():
            continue

        def err(message: str) -> None:
            errors.append(LineError(str(path), lineno, message))

        try:
            line = raw_line.decode("utf-8")
        except UnicodeDecodeError as exc:
            err(f"invalid UTF-8: {exc}")
            continue
        try:
            obj = _decode_line(line)
        except json.JSONDecodeError as exc:
            err(f"malformed JSON: {exc}")
            continue
        if not isinstance(obj, dict):
            err("line is not a JSON object")
            continue
        code = obj.get("code")
        reference = obj.get("docstring")
        if not isinstance(code, str):
            err("missing or non-string field 'code'")
            continue
        if not isinstance(reference, str):
            err("missing or non-string field 'docstring'")
            continue
        ex_id = str(obj["id"]) if "id" in obj else f"{path}:{lineno}"
        # A lone surrogate is not ASCII, and `isascii` takes no scan.
        if not (code.isascii() and reference.isascii() and ex_id.isascii()):
            try:
                for text in (ex_id, code, reference):
                    text.encode("utf-8")
            except UnicodeEncodeError as exc:
                err(f"text UTF-8 cannot encode: {exc}")
                continue
        if ex_id in seen_ids:
            err(f"duplicate id {ex_id!r}")
            continue
        seen_ids.add(ex_id)
        examples.append(Example(id=ex_id, code=code, reference=reference))
    return examples, errors


def load_variant(variants_dir: str | Path, variant: str) -> list[Example]:
    """The examples of the variant file that `transform` wrote for `variant`."""
    path = Path(variants_dir) / f"{variant}.jsonl"
    if not path.exists():
        raise PrerequisiteError(f"missing {path}; run `sumprobe transform` first")
    examples, errors = load_corpus(path)
    if errors:
        raise CorpusError(f"{path}: {len(errors)} unreadable lines")
    return examples


def screen_example(
    ex: Example, min_tokens: int = 3, max_tokens: int = 256
) -> FilterReason | None:
    """The rejection rules that need no lexing: empty code or description,
    an "http://" marker in the description, or a description outside
    [min_tokens, max_tokens] whitespace tokens (bounds inclusive)."""
    if not ex.reference.strip() or not ex.code.strip():
        return FilterReason.EMPTY
    if "http://" in ex.reference:
        return FilterReason.HAS_URL
    count = len(ex.reference.split())
    if count < min_tokens:
        return FilterReason.TOO_SHORT
    if count > max_tokens:
        return FilterReason.TOO_LONG
    return None


def filter_corpus(
    examples: Iterable[Example], min_tokens: int = 3, max_tokens: int = 256,
    scan: Callable[[str], T] | None = None,
) -> tuple[list[tuple[Example, T]], list[tuple[Example, FilterReason]]]:
    """Split examples into accepted (example, `scan(example.code)`) pairs
    and rejected (example, reason) pairs, both in corpus order:
    `screen_example`'s rules, then code that `scan` refuses with
    UnlexableError. `scan` defaults to `pylex.lexemes`, looked up at each
    call."""
    scan = scan or lexemes
    accepted: list[tuple[Example, T]] = []
    rejected: list[tuple[Example, FilterReason]] = []
    for ex in examples:
        reason = screen_example(ex, min_tokens, max_tokens)
        if reason is None:
            try:
                accepted.append((ex, scan(ex.code)))
                continue
            except UnlexableError:
                reason = FilterReason.UNLEXABLE
        rejected.append((ex, reason))
    return accepted, rejected


@contextmanager
def _replacing(path: str | Path, what: str = "file") -> Iterator[IO[str]]:
    """A UTF-8 text file, written unchanged (no newline translation), that
    is a temporary file beside `path` until it is moved over `path`: a
    write that fails part-way leaves the previous file as it was. An
    OSError, or text that UTF-8 cannot encode (a lone surrogate, which a
    JSON `\\ud800` escape can put in a str), becomes the one-line
    CorpusError `cannot write <what> <path>`."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with tmp.open("w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, (OSError, UnicodeEncodeError)):
            raise CorpusError(f"cannot write {what} {path}: {exc}") from exc
        raise


_DECODER = json.JSONDecoder()


def _decode_line(line: str):
    """`json.loads(line)`, without its per-call set-up when the line is
    exactly one JSON value; any other line (surrounding whitespace, extra
    data, bad JSON) goes to `json.loads`, for its value or its error."""
    try:
        value, end = _DECODER.raw_decode(line)
        if end == len(line):
            return value
    except json.JSONDecodeError:
        pass
    return json.loads(line)


def _row_encoder() -> Callable[[object], str]:
    """`json.dumps(row, ensure_ascii=False)` as one function per file.
    `JSONEncoder.encode` builds a C encoder on every call; this builds it
    once, with the arguments that `JSONEncoder.iterencode` passes."""
    encoder = json.JSONEncoder(ensure_ascii=False)
    if json.encoder.c_make_encoder is None:
        return encoder.encode
    # Circular references are still refused: a failed row ends the file,
    # so the markers it leaves behind are never read again.
    encode = json.encoder.c_make_encoder(
        {}, encoder.default, json.encoder.encode_basestring, encoder.indent,
        encoder.key_separator, encoder.item_separator, encoder.sort_keys,
        encoder.skipkeys, encoder.allow_nan)
    return lambda row: "".join(encode(row, 0))


def write_jsonl(path: str | Path, rows: Iterable[dict], what: str = "file") -> None:
    """Write one JSON object per line, replacing `path` whole."""
    encode = _row_encoder()
    with _replacing(path, what) as fh:
        for row in rows:
            fh.write(encode(row) + "\n")


def write_text(path: str | Path, text: str) -> None:
    """Write `text` as it is, replacing `path` whole."""
    with _replacing(path) as fh:
        fh.write(text)


def read_jsonl(path: str | Path) -> list:
    """The rows that `write_jsonl` wrote to `path`, skipping blank lines;
    text that is not UTF-8, or a line that is not JSON, raises ValueError."""
    rows = []
    # Split at "\n" alone: `str.splitlines` also splits at the U+2028,
    # U+2029 and U+0085 that `write_jsonl` leaves unescaped in strings.
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").split("\n"), 1):
        if line.strip():
            try:
                rows.append(_decode_line(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
    return rows


def save_run(records: Sequence[RunRecord], path: str | Path) -> None:
    """Write run records as JSONL; duplicate keys are refused up front."""
    seen: set[tuple[str, str, str]] = set()
    for rec in records:
        if rec.key in seen:
            raise DuplicateRunKeyError(rec.key)
        seen.add(rec.key)
    write_jsonl(path, (rec.to_dict() for rec in records), "run file")


def load_run(path: str | Path) -> list[RunRecord]:
    try:
        records = [RunRecord.from_dict(row) for row in read_jsonl(path)]
    except OSError as exc:
        raise CorpusError(f"cannot read run file {path}: {exc}") from exc
    except (ValueError, KeyError, TypeError) as exc:
        raise CorpusError(f"bad run record in {path}: {exc}") from exc
    seen: set[tuple[str, str, str]] = set()
    for rec in records:
        if rec.key in seen:
            raise DuplicateRunKeyError(rec.key)
        seen.add(rec.key)
    return records
