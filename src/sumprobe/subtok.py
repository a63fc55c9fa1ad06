"""Subword tokenization for overlap metrics.

Two interchangeable tokenizers: a byte-pair encoder driven by a user-supplied
merges/vocabulary file, and a vocabulary-free fallback that splits on
underscores, camelCase and letter/digit boundaries. Overlap numbers from
different tokenizers are not comparable, so every tokenizer carries an id
that is recorded alongside the scores it produced.

Code snippets are split one lexeme at a time, in a single walk that also
records which kind of code token each subword came from; a memo shared
across the snippets of a batch classifies and tokenizes each distinct
lexeme once.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol

from .errors import HarnessError
from .pylex import Category, category, function_name_at, lex, lexemes


class VocabError(HarnessError):
    pass


@dataclass(frozen=True)
class SubwordVocab:
    """Ordered BPE merges plus the vocabulary they produce.

    `word_boundary`, when set, is prefixed to the first symbol of every
    word before merging (the usual start-of-word marker convention).
    """

    merges: tuple[tuple[str, str], ...]
    vocab: frozenset[str]
    word_boundary: str = ""
    ranks: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for left, right in self.merges:
            if left + right not in self.vocab:
                raise VocabError(
                    f"merge output {left + right!r} missing from vocabulary"
                )
        object.__setattr__(
            self, "ranks", {pair: i for i, pair in enumerate(self.merges)}
        )


def load_vocab(path: str | Path) -> SubwordVocab:
    """Load a JSON file with `merges` (["a b", ...], rank = index) and
    `vocab` (array of subword strings); optional `word_boundary`."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise VocabError(f"cannot read vocab {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise VocabError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict) or "merges" not in raw or "vocab" not in raw:
        raise VocabError(f"{path}: expected an object with 'merges' and 'vocab'")
    merges = []
    for i, entry in enumerate(raw["merges"]):
        parts = entry.split(" ") if isinstance(entry, str) else None
        if not parts or len(parts) != 2 or not all(parts):
            raise VocabError(f"{path}: merge #{i} must be a string 'left right'")
        merges.append((parts[0], parts[1]))
    vocab = raw["vocab"]
    if not isinstance(vocab, list) or not all(isinstance(v, str) for v in vocab):
        raise VocabError(f"{path}: 'vocab' must be an array of strings")
    boundary = raw.get("word_boundary", "")
    if not isinstance(boundary, str):
        raise VocabError(f"{path}: 'word_boundary' must be a string")
    return SubwordVocab(tuple(merges), frozenset(vocab), boundary)


def encode(text: str, vocab: SubwordVocab) -> list[str]:
    """Greedy lowest-rank-first BPE over each whitespace-delimited word.

    Characters outside the vocabulary simply stay single-character subwords;
    encoding never fails.
    """
    out: list[str] = []
    for word in text.split():
        symbols = list(word)
        if vocab.word_boundary:
            symbols[0] = vocab.word_boundary + symbols[0]
        while len(symbols) > 1:
            best_rank = None
            best_pair = None
            for pair in zip(symbols, symbols[1:]):
                rank = vocab.ranks.get(pair)
                if rank is not None and (best_rank is None or rank < best_rank):
                    best_rank = rank
                    best_pair = pair
            if best_pair is None:
                break
            merged: list[str] = []
            i = 0
            while i < len(symbols):
                if (
                    i + 1 < len(symbols)
                    and (symbols[i], symbols[i + 1]) == best_pair
                ):
                    merged.append(symbols[i] + symbols[i + 1])
                    i += 2
                else:
                    merged.append(symbols[i])
                    i += 1
            symbols = merged
        out.extend(symbols)
    return out


# One piece per: acronym run, Capitalized word, lowercase run, digit run,
# underscore, any other single character. Together these cover every
# non-whitespace character, so no input produces empty pieces.
_FALLBACK_RE = re.compile(r"[A-Z]+(?![a-z])|[A-Z][a-z]+|[a-z]+|[0-9]+|_|[^\sa-zA-Z0-9_]")


def fallback_split(text: str) -> list[str]:
    """Vocabulary-free splitter: whitespace, underscores (kept as tokens),
    camelCase and letter/digit boundaries; pieces are lowercase-folded."""
    return [m.group().lower() for m in _FALLBACK_RE.finditer(text)]


class Tokenizer(Protocol):
    """Anything that maps text to a subword sequence under a stable id."""

    tokenizer_id: str

    def __call__(self, text: str) -> list[str]: ...


class FallbackTokenizer:
    tokenizer_id = "fallback"

    def __call__(self, text: str) -> list[str]:
        return fallback_split(text)


class BpeTokenizer:
    """`encode` under one vocabulary, run once per distinct word: BPE
    merges within a word only, so a word's pieces never change."""

    def __init__(self, vocab: SubwordVocab, name: str = "bpe") -> None:
        self.vocab = vocab
        self.tokenizer_id = name
        self._pieces: dict[str, list[str]] = {}  # word -> encode(word)

    def __call__(self, text: str) -> list[str]:
        out: list[str] = []
        for word in text.split():
            pieces = self._pieces.get(word)
            if pieces is None:
                pieces = self._pieces[word] = encode(word, self.vocab)
            out.extend(pieces)
        return out


def tokenizer_from_spec(spec: str) -> Tokenizer:
    """`fallback`, or a path to a vocab JSON file."""
    if spec == "fallback":
        return FallbackTokenizer()
    return BpeTokenizer(load_vocab(spec), name=f"bpe:{Path(spec).name}")


ATTRIBUTION_CATEGORIES = (
    "function_name",
    "identifier",
    "keyword",
    "comment",
    "string",
    "number",
    "operator_delimiter",
)

_FUNCTION_NAME = ATTRIBUTION_CATEGORIES.index("function_name")
_CATEGORY_INDEX = {
    lexical: ATTRIBUTION_CATEGORIES.index(name)
    for lexical, name in (
        (Category.IDENTIFIER, "identifier"),
        (Category.KEYWORD, "keyword"),
        (Category.COMMENT, "comment"),
        (Category.STRING, "string"),
        (Category.NUMBER, "number"),
        (Category.OPERATOR, "operator_delimiter"),
        (Category.DELIMITER, "operator_delimiter"),
    )
}
# When a subword occurs in several kinds of code token, it is attributed to
# the first of these kinds that applies.
_SOURCE_PRIORITY = (
    "function_name",
    "identifier",
    "comment",
    "string",
    "keyword",
    "number",
    "operator_delimiter",
)
_RANK = tuple(_SOURCE_PRIORITY.index(c) for c in ATTRIBUTION_CATEGORIES)


@dataclass(frozen=True)
class CodeSubwords:
    """A snippet's subwords as the copy rate and copy attribution see them."""

    per_category: list[int]  # subword count per ATTRIBUTION_CATEGORIES entry
    source: dict[str, int]  # distinct subword -> index of its category


def split_code(
    code: str,
    tokenize: Tokenizer,
    memo: dict[str, tuple[int | None, list[str]]] | None = None,
) -> CodeSubwords:
    """Lex `code` once and tokenize each lexeme on its own.

    This is the one place that decides which lexemes yield code subwords
    (all but whitespace and newlines) and under which attribution
    category: the function name (pylex.function_name_at) and its later
    occurrences, else the lexeme's category.

    `memo` maps a lexeme to its attribution category index and its
    subwords under `tokenize` (None and no subwords for whitespace and
    newlines); pass one dict to every split of a batch and each distinct
    lexeme is classified and tokenized once. A tokenizer maps a text to
    subwords without looking at any context, so the memo changes no
    subword, count or attribution. Its lists are shared, so no caller may
    change one.
    """
    if memo is None:
        memo = {}
    per_category = [0] * len(ATTRIBUTION_CATEGORIES)
    source: dict[str, int] = {}
    found = lexemes(code)
    at = function_name_at(found)
    name = None if at is None else found[at]
    for i, lexeme in enumerate(found):
        entry = memo.get(lexeme)
        if entry is None:
            index = _CATEGORY_INDEX.get(category(lexeme))
            entry = memo[lexeme] = (index, [] if index is None else tokenize(lexeme))
        index, pieces = entry
        if index is None:  # whitespace or a newline
            continue
        if lexeme == name and i >= at:
            index = _FUNCTION_NAME
        per_category[index] += len(pieces)
        rank = _RANK[index]
        for sw in pieces:
            best = source.get(sw)
            if best is None or rank < _RANK[best]:
                source[sw] = index
    return CodeSubwords(per_category, source)


def code_subwords(code: str, tokenize: Tokenizer) -> list[str]:
    """Subword tokens of a code snippet in code order, for overlap metrics:
    those of every lexer token but whitespace and newlines."""
    return [
        sw
        for tok in lex(code)
        if tok.category in _CATEGORY_INDEX
        for sw in tokenize(tok.lexeme)
    ]
