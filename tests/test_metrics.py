import json
import math
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sumprobe.metrics
from sumprobe.httpjson import EndpointError
from sumprobe.metrics import (
    BERTSCORE_BATCH_PAIRS,
    BertScoreResult,
    BleuScore,
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
    embed,
    p_copy,
    pearson,
    spearman,
    split_description,
)
from sumprobe.score import PairScores

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


def test_pair_scores_bleu4_on_text():
    """Score's one BLEU path on text: whitespace words, the lowercase flag,
    and 0 where the reference side has no words."""
    table = EmbeddingTable(HashedOneHotProvider(8), ())
    words = ["adds", "two", "small", "numbers"]
    assert PairScores({}, table, False).bleu4([
        ("adds two  small\tnumbers", "adds two small numbers"),
        ("adds numbers", "adds two small numbers"),
        ("Adds Two Small Numbers", "adds two small numbers"),
        ("adds numbers", " "),
        ("", "adds numbers"),
    ]) == [100.0, bleu4(["adds", "numbers"], words).value, 0.0, 0.0, 0.0]
    assert PairScores({}, table, True).bleu4([
        ("Adds Two Small Numbers", "adds two SMALL numbers"),
        ("adds Numbers", "ADDS two small numbers"),
    ]) == [100.0, bleu4(["adds", "numbers"], words).value]


def test_bleu_with_one_ngram_table_matches_the_oracle_bit_for_bit():
    # every case twice: the second time both sides' counts come from the table
    table = NgramTable()
    for case in oracle_cases() * 2:
        plain = bleu4(case["candidate"], case["reference"])
        assert bleu4(case["candidate"], case["reference"], table) == plain
        assert plain.value == case["bleu"], (case["kind"], case["index"])


def sum_min_bleu4(candidate, reference):
    """`bleu4` with every order clipped by the sum of minimum counts."""
    c, r = len(candidate), len(reference)
    if c == 0:
        return BleuScore(0.0, (0.0, 0.0, 0.0, 0.0), 0.0)
    counts = []
    for order in range(1, 5):
        hyp = Counter(tuple(candidate[i:i + order]) for i in range(c - order + 1))
        ref = Counter(tuple(reference[i:i + order]) for i in range(r - order + 1))
        clipped = sum(min(n, ref[gram]) for gram, n in hyp.items())
        counts.append((clipped, max(1, c - order + 1)))
    bp = 1.0 if c > r else math.exp(1 - r / c)
    if counts[0][0] == 0:
        return BleuScore(0.0, tuple(n / d for n, d in counts), bp)
    smoothed = []
    incvnt = 1
    for clipped, total in counts:
        if clipped == 0 and c > 1:
            smoothed.append(1 / (2**incvnt * 5 / math.log(c)) / total)
            incvnt += 1
        else:
            smoothed.append(clipped / total)
    s = math.fsum(0.25 * math.log(p) for p in smoothed if p > 0)
    return BleuScore(bp * math.exp(s) * 100, tuple(smoothed), bp)


_FEW_WORDS = st.sampled_from(["a", "b", "c"]) | st.sampled_from(["x", "y"])


@settings(max_examples=300, derandomize=True)
@given(st.lists(_FEW_WORDS, max_size=14), st.lists(_FEW_WORDS, min_size=1, max_size=14))
def test_bleu_clips_repeated_ngrams_as_the_sum_of_minimum_counts(candidate, reference):
    # on two or three words, unigrams and bigrams repeat on both sides
    expected = sum_min_bleu4(candidate, reference)
    assert bleu4(candidate, reference) == expected
    table = NgramTable()
    assert bleu4(candidate, reference, table) == expected
    assert bleu4(candidate, reference, table) == expected


# --- p_copy ----------------------------------------------------------------


def test_p_copy_examples():
    assert p_copy(["get", "_", "value"], ["get", "value"]).value == 1.0
    assert p_copy(["alpha"], ["beta", "gamma"]).value == 0.0
    assert p_copy(["get"], ["get", "x"]).value == 0.5


def test_p_copy_counts():
    result = p_copy(["a", "b"], ["a", "a", "c"])
    assert (result.matched, result.total) == (2, 3)
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
    [result] = bertscore(x[None], x[None])
    assert result.precision == result.recall == result.f1 == 100.0


def test_bertscore_orthogonal_is_0():
    one_hot = ExplicitOneHot(["a", "b", "c", "d"])
    [result] = bertscore(embed(["a", "b"], one_hot)[None], embed(["c", "d"], one_hot)[None])
    assert result.precision == result.recall == result.f1 == 0.0


def test_bertscore_recall_is_reference_coverage():
    one_hot = ExplicitOneHot(["a", "b", "c", "d"])
    [result] = bertscore(
        embed(["a", "b", "c", "d"], one_hot)[None], embed(["a", "b"], one_hot)[None]
    )
    assert result.recall == 50.0
    assert result.precision == 100.0
    assert abs(result.f1 - 2 * 50 * 100 / 150) < 1e-12


def test_bertscore_empty_rejected():
    provider = HashedOneHotProvider(8)
    with pytest.raises(EmptySequenceError):
        bertscore(np.zeros((1, 0, 8)), embed(["a"], provider)[None])
    with pytest.raises(EmptySequenceError):
        bertscore(embed(["a"], provider)[None], np.zeros((1, 0, 8)))


def test_bertscore_invariant_under_shared_rotation():
    rng = np.random.default_rng(4)
    raw = rng.normal(size=(8, 8))
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    x = raw[:5] / np.linalg.norm(raw[:5], axis=1, keepdims=True)
    x_hat = raw[5:] / np.linalg.norm(raw[5:], axis=1, keepdims=True)
    [before, after] = bertscore(np.stack([x, x @ q]), np.stack([x_hat, x_hat @ q]))
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

    def __init__(self, zero=(), dim=6):
        self.calls = []
        self.zero = set(zero)
        self.dim = dim

    def vector(self, tok):
        if tok in self.zero:
            return [0.0] * self.dim
        rng = random.Random(tok)
        return [rng.gauss(0, 1) for _ in range(self.dim)]

    def embed(self, tokens):
        self.calls.append(list(tokens))
        return np.array([self.vector(t) for t in tokens])


def test_embedding_table_fetches_each_token_once(monkeypatch):
    monkeypatch.setattr(sumprobe.metrics, "EMBED_BATCH_TOKENS", 3)
    provider = CountingProvider()
    table = EmbeddingTable(provider, ["a", "b", "a", "c", "d", "e", "b"])
    assert provider.calls == [["a", "b", "c"], ["d", "e"]]
    assert table.error is None
    # Every pair of one-token texts: a row swapped or misplaced in the table
    # changes the dot product of each pair that holds its token.
    pairs = [(["e", "a", "e"], list("abcde")), *(([x], [y]) for x in "abcde" for y in "abcde")]
    clean = CountingProvider()
    for (ref, gen), result in zip(pairs, table.bertscores(pairs), strict=True):
        # each score is that of the one-text embeddings, bit for bit
        assert result == one_pair_bertscore(embed(ref, clean), embed(gen, clean))
    assert len(provider.calls) == 2  # lookups never fetch


def test_embedding_table_zero_vector_fails_only_its_lookups():
    table = EmbeddingTable(CountingProvider(zero={"z"}), ["a", "z", "b"])
    assert table.error is None
    clean, zero, same = table.bertscores([(["a"], ["b"]), (["a"], ["z"]), (["b", "a"], ["b", "a"])])
    assert isinstance(clean, BertScoreResult)
    assert isinstance(zero, DimensionMismatchError) and "zero vector" in str(zero)
    assert same.f1 == pytest.approx(100.0)  # unit vectors


def test_embedding_table_remembers_a_failed_call(monkeypatch):
    monkeypatch.setattr(sumprobe.metrics, "EMBED_BATCH_TOKENS", 1)

    def script(body, hit):
        return 500, {"error": "down"}

    with serve(script) as (url, hits):
        table = EmbeddingTable(
            RemoteEmbeddingProvider(url, max_retries=2, backoff=0.0), ["a", "b"]
        )
        # the first call's two attempts, and no call for the second batch
        assert len(hits) == 2
        assert isinstance(table.error, EndpointError)
        [empty, failed] = table.bertscores([([], ["a"]), (["a"], ["b"])])
        assert isinstance(empty, EmptySequenceError)
        assert failed is table.error
        assert len(hits) == 2


def test_embedding_table_rejects_a_dimension_change(monkeypatch):
    monkeypatch.setattr(sumprobe.metrics, "EMBED_BATCH_TOKENS", 1)

    class Growing:
        provider_id = "growing"

        def __init__(self):
            self.calls = 0

        def embed(self, tokens):
            self.calls += 1
            return np.ones((len(tokens), 1 + self.calls))

    provider = Growing()
    table = EmbeddingTable(provider, ["a", "b", "c"])
    assert isinstance(table.error, DimensionMismatchError)
    assert "dimensional" in str(table.error)
    assert provider.calls == 2  # the failed call stopped the fetching


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_embedding_table_refuses_a_vector_that_is_not_finite(monkeypatch, bad):
    monkeypatch.setattr(sumprobe.metrics, "EMBED_BATCH_TOKENS", 2)

    class Poisoned(CountingProvider):
        def vector(self, tok):
            clean = super().vector(tok)
            return [bad, *clean[1:]] if tok == "c" else clean

    provider = Poisoned()
    table = EmbeddingTable(provider, ["a", "b", "c", "d", "e"])
    assert isinstance(table.error, DimensionMismatchError)
    assert "NaN or infinite" in str(table.error)
    assert provider.calls == [["a", "b"], ["c", "d"]]  # the failed call stopped the fetching
    [failed] = table.bertscores([(["a"], ["b"])])
    assert failed is table.error
    with pytest.raises(DimensionMismatchError):
        embed(["c"], Poisoned())


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


@pytest.mark.parametrize("n", [3, 7, 10])
@pytest.mark.parametrize("value", [0.1, 1 / 3, 0.7])
def test_pearson_refuses_any_constant_sample(value, n):
    # a rounded mean can leave a constant sample's deviations a few ulps from 0
    varied = [float(i) for i in range(n)]
    for xs, ys in (([value] * n, varied), (varied, [value] * n)):
        with pytest.raises(DegenerateInputError):
            pearson(xs, ys)


def test_degenerate_inputs():
    with pytest.raises(DegenerateInputError):
        pearson([1.0], [2.0])
    with pytest.raises(DegenerateInputError):
        pearson([1.0, 2.0], [3.0])
    with pytest.raises(DegenerateInputError):
        pearson([1.0, 1.0], [1.0, 2.0])
    with pytest.raises(DegenerateInputError):
        spearman([1.0], [1.0])


def one_pair_bertscore(x, x_hat):
    """BERTScore of one pair as one (n_ref, n_gen) similarity matrix."""
    sim = x @ x_hat.T
    recall = float(sim.max(axis=1).sum()) / sim.shape[0]
    precision = float(sim.max(axis=0).sum()) / sim.shape[1]
    if precision + recall > 0:
        f1 = 2 * precision * recall / (precision + recall)
    else:
        f1 = 0.0
    return BertScoreResult(precision * 100, recall * 100, f1 * 100)


@st.composite
def shape_groups(draw):
    """(reference, candidate) token lists of a few shapes, one of which may
    hold more pairs than one `bertscore` call stacks, in a drawn order. The
    token "z" gets a zero vector."""
    tokens = st.sampled_from("abcdefgz")
    pairs = []
    # up to 12 tokens a side: NumPy sums 8 or more numbers pairwise
    groups = st.tuples(st.integers(0, 12), st.integers(0, 12),
                       st.integers(1, 2 * BERTSCORE_BATCH_PAIRS + 3))
    for n_ref, n_gen, count in draw(st.lists(groups, min_size=1, max_size=4)):
        side = st.tuples(st.lists(tokens, min_size=n_ref, max_size=n_ref),
                         st.lists(tokens, min_size=n_gen, max_size=n_gen))
        pairs.extend(draw(st.lists(side, min_size=count, max_size=count)))
    return draw(st.permutations(pairs))


class FailingProvider:
    provider_id = "failing"

    def embed(self, tokens):
        raise EndpointError("embedding service down")


@settings(max_examples=80, derandomize=True, deadline=None)
@given(shape_groups(), st.booleans())
def test_batched_bertscore_is_the_one_pair_formula_bit_for_bit(pairs, failing):
    dim = 48
    provider = FailingProvider() if failing else CountingProvider(zero={"z"}, dim=dim)
    tokens = [tok for pair in pairs for side in pair for tok in side]
    results = EmbeddingTable(provider, tokens).bertscores(pairs)
    assert len(results) == len(pairs)
    for (ref, gen), result in zip(pairs, results):
        if not ref or not gen:
            assert isinstance(result, EmptySequenceError)
        elif failing:
            assert isinstance(result, EndpointError)
        elif "z" in ref or "z" in gen:
            assert isinstance(result, DimensionMismatchError)
        else:
            # real-valued vectors: a changed summation order would show
            clean = CountingProvider(dim=dim)
            assert result == one_pair_bertscore(embed(ref, clean), embed(gen, clean))


def test_bertscores_stack_at_most_a_batch_per_call(monkeypatch):
    calls = []

    def counting(x, x_hat):
        calls.append((x.shape, x_hat.shape))
        return bertscore(x, x_hat)

    monkeypatch.setattr(sumprobe.metrics, "bertscore", counting)
    pairs = [(["a", "b"], ["c"])] * (2 * BERTSCORE_BATCH_PAIRS + 1) + [(["a"], ["b"])]
    results = EmbeddingTable(CountingProvider(), ["a", "b", "c"]).bertscores(pairs)
    assert len(set(results[:-1])) == 1
    assert [shape for shape, _ in calls] == [
        (BERTSCORE_BATCH_PAIRS, 2, 6), (BERTSCORE_BATCH_PAIRS, 2, 6), (1, 2, 6), (1, 1, 6)
    ]
