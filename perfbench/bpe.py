"""Deterministic byte-pair-encoding learner for the `bpe-rescore` workload.

Learns merges from the whitespace-delimited words of a corpus, in the JSON
format `sumprobe.subtok.load_vocab` reads. Pair counts are kept up to date
incrementally: a merge touches only the words that contain its pair, and a
heap with lazy deletion yields the next most frequent pair (ties broken by
the smaller pair), so the result depends only on the corpus.
"""

from __future__ import annotations

import heapq
import json
from collections import Counter, defaultdict
from pathlib import Path


def _merge_word(symbols: tuple[str, ...], pair: tuple[str, str]) -> tuple[str, ...]:
    out: list[str] = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and (symbols[i], symbols[i + 1]) == pair:
            out.append(symbols[i] + symbols[i + 1])
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return tuple(out)


def _pairs(symbols: tuple[str, ...]) -> Counter:
    return Counter(zip(symbols, symbols[1:]))


def learn(word_counts: Counter, num_merges: int) -> dict:
    """Merges and vocabulary learned from {word: frequency}."""
    words = {w: tuple(w) for w in sorted(word_counts)}
    pair_counts: Counter = Counter()
    holders: dict[tuple[str, str], set[str]] = defaultdict(set)
    for word, symbols in words.items():
        for pair, n in _pairs(symbols).items():
            pair_counts[pair] += n * word_counts[word]
            holders[pair].add(word)
    heap = [(-count, pair) for pair, count in pair_counts.items()]
    heapq.heapify(heap)
    vocab = {ch for word in words for ch in word}
    merges: list[tuple[str, str]] = []
    while heap and len(merges) < num_merges:
        neg, pair = heapq.heappop(heap)
        if pair_counts.get(pair, 0) != -neg or -neg < 2:
            continue  # stale entry, or nothing worth merging
        merges.append(pair)
        vocab.add(pair[0] + pair[1])
        changed: set[tuple[str, str]] = set()
        for word in sorted(holders.pop(pair, ())):
            old = words[word]
            new = _merge_word(old, pair)
            if new == old:
                continue
            freq = word_counts[word]
            for p, n in _pairs(old).items():
                pair_counts[p] -= n * freq
                changed.add(p)
                if p != pair:
                    holders[p].discard(word)
            for p, n in _pairs(new).items():
                pair_counts[p] += n * freq
                holders[p].add(word)
                changed.add(p)
            words[word] = new
        pair_counts.pop(pair, None)
        for p in changed:
            count = pair_counts.get(p, 0)
            if count > 0 and p != pair:
                heapq.heappush(heap, (-count, p))
            elif count <= 0:
                pair_counts.pop(p, None)
    return {
        "merges": [f"{a} {b}" for a, b in merges],
        "vocab": sorted(vocab),
    }


def corpus_words(path: str | Path) -> Counter:
    counts: Counter = Counter()
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            obj = json.loads(line)
            counts.update(obj["code"].split())
            counts.update(obj["docstring"].split())
    return counts


def write_vocab(corpus: str | Path, out: str | Path, num_merges: int) -> None:
    Path(out).write_text(
        json.dumps(learn(corpus_words(corpus), num_merges), ensure_ascii=False),
        encoding="utf-8",
    )
