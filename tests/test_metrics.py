import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

import sumprobe.metrics
from sumprobe.httpjson import EndpointError
from sumprobe.metrics import (
    DegenerateInputError,
    DimensionMismatchError,
    EmptyDescriptionError,
    EmptySequenceError,
    EmbeddingTable,
    HashedOneHotProvider,
    NgramTable,
    RemoteEmbeddingProvider,
    _stable_index,
    bertscore,
    bleu4,
    bleu_scorer,
    embed,
    p_copy,
    pearson,
    spearman,
    split_description,
)

from httpstub import serve

ORACLE_PATH = Path(__file__).parent / "data" / "bleu_oracle.jsonl"


def oracle_cases():
    lines = ORACLE_PATH.read_text().splitlines()
    return [json.loads(line) for line in lines[1:]]


# --- BLEU ------------------------------------------------------------------


def test_bleu_identity_long():
    tokens = "returns the first matching item".split()
    assert bleu4(tokens, tokens).value == 100.0


def test_bleu_no_overlap_is_zero():
    case = next(c for c in oracle_cases() if c["kind"] == "fixed")
    got = bleu4(case["candidate"], case["reference"])
    assert got.value == case["bleu"] == 0.0


def test_bleu_matches_frozen_oracle_spot():
    for case in oracle_cases()[:50]:
        got = bleu4(case["candidate"], case["reference"]).value
        assert abs(got - case["bleu"]) <= 1e-9


def test_bleu_empty_candidate_scores_zero():
    assert bleu4([], ["a", "b"]).value == 0.0


def test_bleu_empty_reference_rejected():
    with pytest.raises(DegenerateInputError):
        bleu4(["a"], [])


def test_bleu_range_and_fields():
    rng = random.Random(3)
    vocab = ["a", "b", "c", "d"]
    for _ in range(300):
        cand = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
        ref = [rng.choice(vocab) for _ in range(rng.randint(1, 12))]
        score = bleu4(cand, ref)
        assert 0.0 <= score.value <= 100.0 + 1e-9
        assert len(score.precisions) == 4
        if cand and score.value > 0:
            expect = score.brevity_penalty * math.exp(
                0.25 * math.fsum(math.log(p) for p in score.precisions if p > 0)
            ) * 100
            assert abs(score.value - expect) <= 1e-9


def test_bleu_smoothing_kicks_in():
    # one shared bigram, no higher orders: orders 3 and 4 get smoothed
    score = bleu4("a b x y z".split(), "a b w v u".split())
    assert score.precisions[2] > 0 and score.precisions[3] > 0
    assert score.precisions[3] < score.precisions[2]
    assert 0 < score.value < 100


def test_split_description():
    assert split_description("The  cat SAT") == ["The", "cat", "SAT"]
    assert split_description("The  cat SAT", lowercase=True) == ["the", "cat", "sat"]


def test_bleu_scorer_on_text():
    assert bleu_scorer("adds two small numbers", "adds two small numbers") == 100.0


def test_bleu_with_one_ngram_table_matches_the_oracle_bit_for_bit():
    # every case twice: the second time both sides' counts come from the table
    table = NgramTable()
    for case in oracle_cases() * 2:
        plain = bleu4(case["candidate"], case["reference"])
        assert bleu4(case["candidate"], case["reference"], table) == plain
        assert plain.value == case["bleu"], (case["kind"], case["index"])


# --- p_copy ----------------------------------------------------------------


def test_p_copy_examples():
    assert p_copy(["get", "_", "value"], ["get", "value"]).value == 1.0
    assert p_copy(["alpha"], ["beta", "gamma"]).value == 0.0
    assert p_copy(["get"], ["get", "x"]).value == 0.5


def test_p_copy_counts_and_id():
    result = p_copy(["a", "b"], ["a", "a", "c"], tokenizer_id="bpe:x")
    assert (result.matched, result.total) == (2, 3)
    assert result.tokenizer_id == "bpe:x"
    assert result.value == 2 / 3


def test_p_copy_empty_description():
    with pytest.raises(EmptyDescriptionError):
        p_copy(["a"], [])


def test_p_copy_permutation_and_monotonicity():
    rng = random.Random(8)
    vocab = [f"t{i}" for i in range(12)]
    for _ in range(400):
        code = [rng.choice(vocab) for _ in range(rng.randint(0, 10))]
        desc = [rng.choice(vocab) for _ in range(rng.randint(1, 10))]
        base = p_copy(code, desc).value
        shuffled = code[:]
        rng.shuffle(shuffled)
        assert p_copy(shuffled, desc).value == base
        grown = code + [rng.choice(vocab)]
        assert p_copy(grown, desc).value >= base


# --- embeddings and BERTScore ----------------------------------------------


class ExplicitOneHot:
    """Collision-free one-hot over a fixed symbol list."""

    def __init__(self, symbols):
        self.symbols = list(symbols)
        self.provider_id = "explicit"

    def embed(self, tokens):
        out = np.zeros((len(tokens), len(self.symbols)))
        for i, tok in enumerate(tokens):
            out[i, self.symbols.index(tok)] = 1.0
        return out


def test_embed_hashed_one_hot_positions():
    provider = HashedOneHotProvider(dim=64)
    vectors = embed(["cat", "dog"], provider)
    assert vectors.shape == (2, 64)
    assert vectors[0, _stable_index("cat", 64)] == 1.0
    assert vectors[1, _stable_index("dog", 64)] == 1.0
    again = embed(["cat", "dog"], provider)
    assert np.array_equal(vectors, again)


def test_embed_empty_token_list():
    assert embed([], HashedOneHotProvider(8)).size == 0


def test_embed_normalizes_rows():
    class Doubler:
        provider_id = "doubler"

        def embed(self, tokens):
            return np.full((len(tokens), 3), 2.0)

    vectors = embed(["x", "y"], Doubler())
    assert np.allclose(np.linalg.norm(vectors, axis=1), 1.0, atol=1e-9)


def test_embed_shape_mismatch():
    class Bad:
        provider_id = "bad"

        def embed(self, tokens):
            return np.ones((1, 3))

    with pytest.raises(DimensionMismatchError):
        embed(["a", "b"], Bad())


def test_bertscore_identical_is_100():
    provider = HashedOneHotProvider(32)
    x = embed(["a", "b", "c"], provider)
    result = bertscore(x, x)
    assert result.precision == result.recall == result.f1 == 100.0


def test_bertscore_orthogonal_is_0():
    one_hot = ExplicitOneHot(["a", "b", "c", "d"])
    result = bertscore(embed(["a", "b"], one_hot), embed(["c", "d"], one_hot))
    assert result.precision == result.recall == result.f1 == 0.0


def test_bertscore_recall_is_reference_coverage():
    one_hot = ExplicitOneHot(["a", "b", "c", "d"])
    result = bertscore(embed(["a", "b", "c", "d"], one_hot), embed(["a", "b"], one_hot))
    assert result.recall == 50.0
    assert result.precision == 100.0
    assert abs(result.f1 - 2 * 50 * 100 / 150) < 1e-12


def test_bertscore_empty_rejected():
    provider = HashedOneHotProvider(8)
    with pytest.raises(EmptySequenceError):
        bertscore(embed([], provider), embed(["a"], provider))


def test_bertscore_invariant_under_shared_rotation():
    rng = np.random.default_rng(4)
    raw = rng.normal(size=(8, 8))
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    x = raw[:5] / np.linalg.norm(raw[:5], axis=1, keepdims=True)
    x_hat = raw[5:] / np.linalg.norm(raw[5:], axis=1, keepdims=True)
    before = bertscore(x, x_hat)
    after = bertscore(x @ q, x_hat @ q)
    assert abs(before.f1 - after.f1) < 1e-9


def test_remote_embedding_provider_wrong_length():
    def script(body, hit):
        return 200, {"vectors": [[1.0, 0.0]]}

    with serve(script) as (url, _):
        provider = RemoteEmbeddingProvider(url, backoff=0.0)
        with pytest.raises(DimensionMismatchError):
            provider.embed(["a", "b"])


@pytest.mark.parametrize("vectors", [5, [[1.0, 0.0], [1.0]], [["x"], ["y"]]])
def test_remote_embedding_provider_rejects_vectors_that_are_not_a_matrix(vectors):
    def script(body, hit):
        return 200, {"vectors": vectors}

    with serve(script) as (url, hits):
        provider = RemoteEmbeddingProvider(url, max_retries=3, backoff=0.0)
        with pytest.raises(DimensionMismatchError):
            provider.embed(["a", "b"])
        assert len(hits) == 1


class CountingProvider:
    """Context-free dense vectors; remembers every call's tokens."""

    provider_id = "counting"

    def __init__(self, zero=()):
        self.calls = []
        self.zero = set(zero)

    def vector(self, tok):
        if tok in self.zero:
            return [0.0] * 6
        rng = random.Random(tok)
        return [rng.gauss(0, 1) for _ in range(6)]

    def embed(self, tokens):
        self.calls.append(list(tokens))
        return np.array([self.vector(t) for t in tokens])


def test_embedding_table_fetches_each_token_once(monkeypatch):
    monkeypatch.setattr(sumprobe.metrics, "EMBED_BATCH_TOKENS", 3)
    provider = CountingProvider()
    table = EmbeddingTable(provider)
    table.fetch(["a", "b", "a", "c", "d", "e", "b"])
    assert provider.calls == [["a", "b", "c"], ["d", "e"]]
    first = table.vectors(["e", "a", "e"])
    assert provider.calls == [["a", "b", "c"], ["d", "e"]]
    table.vectors(["f", "a", "g", "f"])  # lazily fills what is missing
    assert provider.calls[2:] == [["f", "g"]]
    # each row equals the one-text embedding of its token, bit for bit
    assert np.array_equal(first, embed(["e", "a", "e"], CountingProvider()))
    for tok in "abcdefg":
        assert np.array_equal(table.vectors([tok]), embed([tok], CountingProvider()))


def test_embedding_table_zero_vector_fails_only_its_lookups():
    table = EmbeddingTable(CountingProvider(zero={"z"}))
    table.fetch(["a", "z", "b"])
    assert table.vectors(["a", "b"]).shape == (2, 6)
    with pytest.raises(DimensionMismatchError, match="zero vector"):
        table.vectors(["a", "z"])
    assert np.allclose(np.linalg.norm(table.vectors(["b", "a"]), axis=1), 1.0)


def test_embedding_table_remembers_a_failed_call():
    def script(body, hit):
        return 500, {"error": "down"}

    with serve(script) as (url, hits):
        table = EmbeddingTable(RemoteEmbeddingProvider(url, max_retries=2, backoff=0.0))
        with pytest.raises(EndpointError):
            table.fetch(["a", "b"])
        with pytest.raises(EndpointError):
            table.vectors(["a"])
        with pytest.raises(EndpointError):
            table.fetch(["c"])
        assert len(hits) == 2


def test_embedding_table_rejects_a_dimension_change():
    class Growing:
        provider_id = "growing"

        def embed(self, tokens):
            return np.ones((len(tokens), 2 + len(tokens)))

    table = EmbeddingTable(Growing())
    table.fetch(["a"])
    with pytest.raises(DimensionMismatchError, match="dimensional"):
        table.fetch(["b", "c"])


# --- correlations ----------------------------------------------------------


def test_pearson_affine_line():
    xs = [1.0, 2.0, 3.0, 4.0]
    assert abs(pearson(xs, [2 * x + 1 for x in xs]) - 1.0) < 1e-12


def test_spearman_monotone_decreasing():
    xs = [1.0, 2.0, 3.0, 5.0]
    assert abs(spearman(xs, [-(x**3) for x in xs]) + 1.0) < 1e-12


def test_spearman_three_point_half():
    assert abs(spearman([1, 2, 3], [1, 3, 2]) - 0.5) < 1e-12


def test_spearman_average_ties():
    # ranks of ys: [1.5, 1.5, 3] -- tie shares the average position
    value = spearman([1, 2, 3], [4, 4, 9])
    expect = pearson([1, 2, 3], [1.5, 1.5, 3])
    assert abs(value - expect) < 1e-12


def test_degenerate_inputs():
    with pytest.raises(DegenerateInputError):
        pearson([1.0], [2.0])
    with pytest.raises(DegenerateInputError):
        pearson([1.0, 2.0], [3.0])
    with pytest.raises(DegenerateInputError):
        pearson([1.0, 1.0], [1.0, 2.0])
    with pytest.raises(DegenerateInputError):
        spearman([1.0], [1.0])
