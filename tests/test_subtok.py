import json
import random

import pytest

from sumprobe.subtok import (
    BpeTokenizer,
    FallbackTokenizer,
    SubwordVocab,
    VocabError,
    code_subwords,
    encode,
    fallback_split,
    load_vocab,
    split_code,
    tokenizer_from_spec,
)

from corpusgen import sample_pairs


def make_vocab(merges, extra_vocab=(), boundary=""):
    vocab = set(extra_vocab)
    for left, right in merges:
        vocab.update([left, right, left + right])
    return SubwordVocab(tuple(merges), frozenset(vocab), boundary)


def test_encode_extracts_example():
    vocab = make_vocab([("e", "x"), ("ex", "t"), ("r", "a"), ("ra", "c"), ("rac", "t"), ("s", "s")])
    assert encode("extracts", vocab) == ["ext", "ract", "s"]


def test_encode_underscore_separating_vocab():
    vocab = make_vocab([("f", "r"), ("fr", "o"), ("fro", "m"), ("u", "r"), ("ur", "l")])
    assert encode("from_url", vocab) == ["from", "_", "url"]


def test_encode_empty_text():
    vocab = make_vocab([("a", "b")])
    assert encode("", vocab) == []


def test_encode_unknown_characters_fall_through():
    vocab = make_vocab([("a", "b")])
    assert encode("ab&c", vocab) == ["ab", "&", "c"]


def test_empty_merges_gives_character_tokenizer():
    vocab = SubwordVocab((), frozenset("abc"))
    assert encode("cab", vocab) == ["c", "a", "b"]


def test_merge_rank_order_decides():
    # (a,b) outranks (b,c): "abc" -> ["ab", "c"], not ["a", "bc"]
    vocab = make_vocab([("a", "b"), ("b", "c")])
    assert encode("abc", vocab) == ["ab", "c"]
    vocab2 = make_vocab([("b", "c"), ("a", "b")])
    assert encode("abc", vocab2) == ["a", "bc"]


def test_merges_apply_left_to_right():
    vocab = make_vocab([("a", "a")])
    assert encode("aaa", vocab) == ["aa", "a"]


def test_word_boundary_marker():
    vocab = make_vocab([("▁a", "b")], boundary="▁")
    assert encode("ab ab", vocab) == ["▁ab", "▁ab"]


def test_encode_concat_reproduces_nonwhitespace():
    rng = random.Random(9)
    vocab = make_vocab([("t", "o"), ("to", "k"), ("e", "n"), ("1", "2")])
    for _ in range(200):
        text = " ".join(
            "".join(rng.choice("token_12 ") for _ in range(rng.randint(0, 8)))
            for _ in range(rng.randint(0, 4))
        )
        out = encode(text, vocab)
        assert "".join(out) == "".join(text.split())


def test_load_vocab_roundtrip(tmp_path):
    path = tmp_path / "vocab.json"
    path.write_text(json.dumps({"merges": ["e x", "ex t"], "vocab": ["e", "x", "t", "ex", "ext"]}))
    vocab = load_vocab(path)
    assert encode("ext", vocab) == ["ext"]


def test_load_vocab_missing_merge_output(tmp_path):
    path = tmp_path / "vocab.json"
    path.write_text(json.dumps({"merges": ["q z"], "vocab": ["q", "z"]}))
    with pytest.raises(VocabError):
        load_vocab(path)


@pytest.mark.parametrize(
    "payload",
    [
        "not json",
        json.dumps(["wrong", "shape"]),
        json.dumps({"merges": ["a"], "vocab": ["a"]}),
        json.dumps({"merges": ["a b c"], "vocab": ["ab"]}),
        json.dumps({"merges": [], "vocab": "abc"}),
    ],
)
def test_load_vocab_rejects_malformed(tmp_path, payload):
    path = tmp_path / "vocab.json"
    path.write_text(payload)
    with pytest.raises(VocabError):
        load_vocab(path)


def test_load_vocab_missing_file(tmp_path):
    with pytest.raises(VocabError):
        load_vocab(tmp_path / "nope.json")


# --- fallback splitter ----------------------------------------------------


def test_fallback_examples():
    assert fallback_split("getValue2") == ["get", "value", "2"]
    assert fallback_split("from_url") == ["from", "_", "url"]
    assert fallback_split("x") == ["x"]


def test_fallback_acronyms_and_punctuation():
    assert fallback_split("HTTPServer") == ["http", "server"]
    assert fallback_split("parse_URL.") == ["parse", "_", "url", "."]
    assert fallback_split("__init__") == ["_", "_", "init", "_", "_"]


def test_fallback_properties():
    rng = random.Random(5)
    alphabet = "aZ_09 .äQ"
    for _ in range(500):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 20)))
        tokens = fallback_split(text)
        assert all(tokens), text
        assert all(not any(c.isupper() for c in tok) for tok in tokens), text
        assert "".join(tokens) == "".join(text.lower().split())


# --- helpers --------------------------------------------------------------


def test_tokenizer_from_spec(tmp_path):
    assert isinstance(tokenizer_from_spec("fallback"), FallbackTokenizer)
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"merges": [], "vocab": []}))
    tok = tokenizer_from_spec(str(path))
    assert isinstance(tok, BpeTokenizer)
    assert tok.tokenizer_id == "bpe:v.json"


def test_code_subwords_respects_lexical_tokens():
    sw = code_subwords("def from_url(x):\n    return x\n", FallbackTokenizer())
    assert "from" in sw and "_" in sw and "url" in sw and "def" in sw
    assert " " not in sw and "\n" not in sw


def test_split_code_with_a_shared_memo_equals_split_code_without_one():
    vocab = make_vocab([("r", "e"), ("re", "t"), ("i", "n"), ("v", "a"), ("va", "l"),
                        ("s", "e"), ("se", "l"), ("sel", "f"), ("_", "v")])
    for tokenize in (FallbackTokenizer(), BpeTokenizer(vocab)):
        memo: dict[str, list[str]] = {}
        for code, _ in sample_pairs(300, seed=3):
            assert split_code(code, tokenize, memo) == split_code(code, tokenize)
        assert memo and all(memo[text] == tokenize(text) for text in memo)
