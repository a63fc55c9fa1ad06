"""Scoring: sentence BLEU-4 (smoothing method 4), token-copy rate,
BERTScore over pluggable embeddings, and correlation statistics.

The remote embedding client is an `httpjson.JsonClient`: its requests are
sent, sorted and retried as the chat client's are, and fail with the same
`httpjson` errors. Only a reply that is JSON but not one row of finite
numbers per token (DimensionMismatchError) is particular to embeddings.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from collections.abc import Set as AbstractSet
from dataclasses import dataclass
from typing import Callable, ClassVar, Collection, Iterable, Protocol, Sequence

import numpy as np

from .errors import HarnessError
from .httpjson import JsonClient, retry_all


class DegenerateInputError(HarnessError):
    pass


class EmptyDescriptionError(HarnessError):
    pass


class EmptySequenceError(HarnessError):
    pass


class DimensionMismatchError(HarnessError):
    pass


@dataclass(frozen=True)
class BleuScore:
    value: float  # 0..100
    precisions: tuple[float, float, float, float]  # smoothed p1..p4
    brevity_penalty: float


@dataclass(frozen=True)
class PCopy:
    value: float  # 0..1
    matched: int
    total: int


@dataclass(frozen=True)
class BertScoreResult:
    precision: float  # 0..100
    recall: float
    f1: float


_SMOOTH_K = 5


# Per order n = 1..4: the set of a token list's n-grams, and their counts,
# or None when no n-gram of that order repeats (every count is then 1).
Ngrams = tuple[tuple[frozenset, Counter | None], ...]


def ngram_counts(tokens: Sequence[str]) -> Ngrams:
    """The `Ngrams` of `tokens`. Unigrams are the tokens themselves, longer
    n-grams tuples."""
    out = []
    for order in range(1, 5):
        grams = tokens if order == 1 else list(zip(*(tokens[i:] for i in range(order))))
        distinct = frozenset(grams)
        out.append((distinct, Counter(grams) if len(distinct) < len(grams) else None))
    return tuple(out)


class NgramTable:
    """Token list -> its `ngram_counts`, counted once per distinct list.

    Pass one table as `bleu4(..., ngrams=table)` to every score of a batch
    in which texts recur, as a reference does across variants. The counts
    are integers, so a table changes no score by a single bit.
    """

    def __init__(self) -> None:
        self._counts: dict[tuple[str, ...], Ngrams] = {}

    def __call__(self, tokens: Sequence[str]) -> Ngrams:
        key = tuple(tokens)
        found = self._counts.get(key)
        if found is None:
            found = self._counts[key] = ngram_counts(key)
        return found


def bleu4(
    candidate: Sequence[str],
    reference: Sequence[str],
    ngrams: Callable[[Sequence[str]], Ngrams] = ngram_counts,
) -> BleuScore:
    """Sentence BLEU-4 with smoothing method 4, on a 0-100 scale.

    Modified n-gram precisions (clipped counts) for n = 1..4; a zero-match
    order n on a candidate longer than one token is smoothed to
    ln(len(candidate)) / (2^k * 5) over that order's n-gram count, where k
    numbers the zero-match orders from 1. Brevity penalty exp(1 - r/c) when
    the candidate is shorter than the reference. No unigram match at all
    scores 0. An empty candidate scores 0. `ngrams` gives a token list's
    n-grams; an `NgramTable` counts each distinct list once. An order at
    which either side repeats no n-gram clips by counting the shared
    n-grams, which is the same integer as the sum of minimum counts.
    """
    if not reference:
        raise DegenerateInputError("reference must be non-empty")
    c, r = len(candidate), len(reference)
    if c == 0:
        return BleuScore(0.0, (0.0, 0.0, 0.0, 0.0), 0.0)
    counts: list[tuple[int, int]] = []
    for order, ((hyp, hyp_counts), (ref, ref_counts)) in enumerate(
        zip(ngrams(candidate), ngrams(reference)), start=1
    ):
        shared = hyp & ref
        if hyp_counts is None or ref_counts is None:
            # Every shared n-gram clips to a count of 1.
            clipped = len(shared)
        else:
            clipped = sum(min(hyp_counts[g], ref_counts[g]) for g in shared)
        counts.append((clipped, max(1, c - order + 1)))

    bp = 1.0 if c > r else math.exp(1 - r / c)
    if counts[0][0] == 0:
        return BleuScore(0.0, tuple(n / d for n, d in counts), bp)

    smoothed: list[float] = []
    incvnt = 1
    for clipped, total in counts:
        if clipped == 0 and c > 1:
            numerator = 1 / (2**incvnt * _SMOOTH_K / math.log(c))
            smoothed.append(numerator / total)
            incvnt += 1
        else:
            smoothed.append(clipped / total)
    s = math.fsum(0.25 * math.log(p) for p in smoothed if p > 0)
    value = bp * math.exp(s) * 100
    return BleuScore(value, tuple(smoothed), bp)


def split_description(text: str, lowercase: bool = False) -> list[str]:
    """Whitespace tokenization used for BLEU over descriptions."""
    return text.lower().split() if lowercase else text.split()


def p_copy(code_subwords: Collection[str], desc_subwords: Sequence[str]) -> PCopy:
    """Fraction of description subword tokens whose strings also occur among
    the code's subword tokens. A set of the code's subwords (or a dict's
    keys) is used as it is; any other collection is made into one."""
    if not desc_subwords:
        raise EmptyDescriptionError("description has no subword tokens")
    code_set = code_subwords if isinstance(code_subwords, AbstractSet) else set(code_subwords)
    matched = sum(1 for tok in desc_subwords if tok in code_set)
    return PCopy(matched / len(desc_subwords), matched, len(desc_subwords))


class EmbeddingProvider(Protocol):
    """Maps a token sequence to one vector per token, deterministically.

    A token's vector depends only on the token, never on its neighbours or
    on the other tokens of the request. Callers rely on this: they may ask
    for any set of distinct tokens, in any order and in any grouping, and
    reuse each vector wherever its token occurs.
    """

    provider_id: str

    def embed(self, tokens: Sequence[str]) -> np.ndarray: ...


def _stable_index(token: str, dim: int) -> int:
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % dim


class HashedOneHotProvider:
    """Deterministic test provider: token -> unit basis vector at
    sha256(token) mod dim."""

    def __init__(self, dim: int = 256) -> None:
        if dim < 1:
            raise HarnessError(f"embedding dimension must be at least 1, not {dim}")
        self.dim = dim
        self.provider_id = f"onehot-{dim}"

    def embed(self, tokens: Sequence[str]) -> np.ndarray:
        out = np.zeros((len(tokens), self.dim))
        for i, tok in enumerate(tokens):
            out[i, _stable_index(tok, self.dim)] = 1.0
        return out


@dataclass(eq=False)
class RemoteEmbeddingProvider(JsonClient):
    """Client for an HTTP embedding service: POST {"tokens": [...]} and get
    back {"vectors": [[...], ...]}, one vector per token.

    A request is retried as `httpjson.retry_all` does (3 attempts by
    default); a reply that is not one row of numbers per token raises
    DimensionMismatchError at once."""

    service: ClassVar[str] = "embedding service"

    timeout: float = 30.0
    max_retries: int = 3

    @property
    def provider_id(self) -> str:
        return f"remote:{self.url}"

    def embed(self, tokens: Sequence[str]) -> np.ndarray:
        (data,) = retry_all([lambda attempts: self.post({"tokens": list(tokens)})], self)
        if isinstance(data, Exception):
            raise data
        vectors = data.get("vectors") if isinstance(data, dict) else None
        if not isinstance(vectors, list) or len(vectors) != len(tokens):
            raise DimensionMismatchError(
                "embedding service returned a wrong-length vector list"
            )
        try:
            return np.asarray(vectors, dtype=float)
        except (TypeError, ValueError):
            raise DimensionMismatchError(
                "embedding service returned vectors that are not rows of numbers"
            ) from None


# Most tokens one `EmbeddingTable` asks its provider for in a single call.
EMBED_BATCH_TOKENS = 512
# Most pairs `EmbeddingTable.bertscores` stacks into one `bertscore` call.
# Stacks of 64 short descriptions ran slower than stacks of 16, and each
# stack is a copy of its pairs' vectors.
BERTSCORE_BATCH_PAIRS = 16


class EmbeddingTable:
    """Token -> L2-normalized vector for a fixed set of tokens, fetched
    from `provider` when the table is built: once per distinct token, in
    calls of at most EMBED_BATCH_TOKENS tokens. Lookups never call the
    provider, and a token outside the set may raise KeyError.

    Holds one matrix with a row per token, a token -> row index and the
    tokens whose vector is zero; such a token fails only the lookups that
    contain it. `error` is the first failed provider call, or None; a
    call whose vectors hold a NaN or an infinity fails with
    DimensionMismatchError. It stops the fetching, so a dead service costs
    one call's retries, and every lookup raises it.
    """

    def __init__(self, provider: EmbeddingProvider, tokens: Iterable[str]) -> None:
        distinct = list(dict.fromkeys(tokens))
        self.error: HarnessError | None = None
        self._rows: dict[str, int] = {}
        self._matrix = np.zeros((0, 0))
        self._zero: set[str] = set()
        matrix: np.ndarray | None = None
        try:
            for start in range(0, len(distinct), EMBED_BATCH_TOKENS):
                batch = distinct[start : start + EMBED_BATCH_TOKENS]
                vectors = np.asarray(provider.embed(batch), dtype=float)
                if vectors.ndim != 2 or vectors.shape[0] != len(batch):
                    raise DimensionMismatchError(
                        f"provider returned shape {vectors.shape} for {len(batch)} tokens"
                    )
                if not np.isfinite(vectors).all():
                    raise DimensionMismatchError("provider returned a NaN or infinite value")
                if matrix is None:
                    matrix = np.empty((len(distinct), vectors.shape[1]))
                elif vectors.shape[1] != matrix.shape[1]:
                    raise DimensionMismatchError(
                        f"provider returned {vectors.shape[1]}-dimensional vectors "
                        f"after {matrix.shape[1]}-dimensional ones"
                    )
                matrix[start : start + len(batch)] = vectors
        except HarnessError as exc:
            self.error = exc
            return
        if matrix is None:
            return
        # Each row's norm depends on that row alone, so normalizing the
        # whole matrix gives the bits of normalizing batch by batch.
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        nonzero = norms != 0
        np.divide(matrix, norms, out=matrix, where=nonzero)
        self._matrix = matrix
        self._rows = {tok: i for i, tok in enumerate(distinct)}
        self._zero = {distinct[i] for i in np.flatnonzero(~nonzero[:, 0])}

    def bertscores(
        self, pairs: Sequence[tuple[Sequence[str], Sequence[str]]]
    ) -> list[BertScoreResult | HarnessError]:
        """`bertscore` of each (reference, candidate) token pair, or the
        error that fails that pair.

        Pairs of one (reference length, candidate length) are stacked, at
        most BERTSCORE_BATCH_PAIRS to a `bertscore` call. A side with no
        tokens fails its pair with EmptySequenceError, a failed provider
        call (`error`) fails every other pair, and a token with a zero
        vector fails the pairs that contain it.
        """
        results: list[BertScoreResult | HarnessError | None] = [None] * len(pairs)
        shapes: dict[tuple[int, int], list[int]] = {}
        zero = self._zero
        for i, (ref, gen) in enumerate(pairs):
            if not ref or not gen:
                results[i] = EmptySequenceError("bertscore needs non-empty token sequences")
            elif self.error is not None:
                results[i] = self.error
            elif zero and not (zero.isdisjoint(ref) and zero.isdisjoint(gen)):
                results[i] = DimensionMismatchError("provider returned a zero vector")
            else:
                shapes.setdefault((len(ref), len(gen)), []).append(i)
        rows, matrix = self._rows, self._matrix
        for (n_ref, n_gen), members in shapes.items():
            # The row numbers of a whole shape, the vectors of a batch.
            ref_rows = np.array(
                [rows[tok] for i in members for tok in pairs[i][0]], dtype=np.intp
            ).reshape(len(members), n_ref)
            gen_rows = np.array(
                [rows[tok] for i in members for tok in pairs[i][1]], dtype=np.intp
            ).reshape(len(members), n_gen)
            for start in range(0, len(members), BERTSCORE_BATCH_PAIRS):
                end = start + BERTSCORE_BATCH_PAIRS
                scores = bertscore(
                    matrix.take(ref_rows[start:end], axis=0),
                    matrix.take(gen_rows[start:end], axis=0),
                )
                for i, score in zip(members[start:end], scores):
                    results[i] = score
        return results


def embed(tokens: Sequence[str], provider: EmbeddingProvider) -> np.ndarray:
    """One L2-normalized vector per token, in order, from an
    `EmbeddingTable` of the tokens."""
    table = EmbeddingTable(provider, tokens)
    if table.error is not None:
        raise table.error
    if table._zero:
        raise DimensionMismatchError("provider returned a zero vector")
    return table._matrix[[table._rows[tok] for tok in tokens]]


def bertscore(x: np.ndarray, x_hat: np.ndarray) -> list[BertScoreResult]:
    """Greedy-matching precision/recall/F1 over unit-norm token embeddings,
    for a stack of equal-shape pairs: one result per pair.

    `x` stacks the reference sequences, shape (pairs, n_ref, d); `x_hat`
    the candidates, (pairs, n_gen, d). One pair is a stack of one. Recall
    averages each reference token's best match among candidate tokens;
    precision averages each candidate token's best match among reference
    tokens (normalized by the candidate length). Reported on a 0-100
    scale. Each pair's similarities are one matrix product of the same
    shape as its own, so a pair scores the same floats in any stack.
    """
    if 0 in x.shape[1:] or 0 in x_hat.shape[1:]:
        raise EmptySequenceError("bertscore needs non-empty embedding sequences")
    sim = x @ x_hat.transpose(0, 2, 1)
    # sum / length, not .mean(): the same float64, without NumPy's
    # per-call overhead on these short vectors.
    recalls = (sim.max(axis=2).sum(axis=1) / sim.shape[1]).tolist()
    precisions = (sim.max(axis=1).sum(axis=1) / sim.shape[2]).tolist()
    out = []
    for precision, recall in zip(precisions, recalls):
        if precision + recall > 0:
            f1 = 2 * precision * recall / (precision + recall)
        else:
            f1 = 0.0
        out.append(BertScoreResult(precision * 100, recall * 100, f1 * 100))
    return out


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    if len(xs) != len(ys) or len(xs) < 2:
        raise DegenerateInputError("need two equal-length samples of size >= 2")
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    # Checked directly: a rounded mean leaves a constant sample's deviations
    # a few ulps from 0, and the quotient a number instead of undefined.
    if x.min() == x.max() or y.min() == y.max():
        raise DegenerateInputError("zero variance input")
    dx = x - x.mean()
    dy = y - y.mean()
    denom = math.sqrt(float(dx @ dx) * float(dy @ dy))
    if denom == 0:
        raise DegenerateInputError("zero variance input")
    return float(dx @ dy) / denom


def _average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks; ties share the average of their positions."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation over average-tied ranks."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise DegenerateInputError("need two equal-length samples of size >= 2")
    return pearson(_average_ranks(xs), _average_ranks(ys))


# Scores (candidate, reference) text pairs: one score per pair, in order.
Scorer = Callable[[Sequence[tuple[str, str]]], list[float]]
