import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumprobe.pylex import Category, UnlexableError, function_name_indices, lex
from sumprobe.subtok import (
    ATTRIBUTION_CATEGORIES,
    BpeTokenizer,
    CodeSubwords,
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

from corpusgen import UNLEXABLE_SNIPPETS, sample_pairs


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


# One tokenizer for every example below, so later texts meet words whose
# pieces it has kept.
_SHARED_BPE = BpeTokenizer(make_vocab(
    [("t", "o"), ("to", "k"), ("e", "n"), ("k", "en"), ("▁t", "o"), ("▁to", "k")], boundary="▁"
))


@settings(max_examples=500, derandomize=True)
@given(st.text(alphabet="toke n▁_1\t\n\u3000\x1cé", max_size=40))
def test_bpe_tokenizer_equals_encode(text):
    assert _SHARED_BPE(text) == encode(text, _SHARED_BPE.vocab)


def test_bpe_tokenizer_encodes_each_distinct_word_once(monkeypatch):
    words = []

    def counting(text, vocab, encode=encode):
        words.append(text)
        return encode(text, vocab)

    monkeypatch.setattr("sumprobe.subtok.encode", counting)
    tokenize = BpeTokenizer(make_vocab([("a", "b")]))
    assert tokenize("ab c ab") + tokenize("c abab") == ["ab", "c", "ab", "c", "ab", "ab"]
    assert words == ["ab", "c", "abab"]


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
        memo: dict[str, tuple[int | None, list[str]]] = {}
        for code, _ in sample_pairs(300, seed=3):
            assert split_code(code, tokenize, memo) == split_code(code, tokenize)
        assert memo and all(
            pieces == (tokenize(text) if index is not None else [])
            for text, (index, pieces) in memo.items()
        )


# --- split_code against a reference built from lex ------------------------

_REF_ATTRIBUTION = {
    Category.IDENTIFIER: "identifier",
    Category.KEYWORD: "keyword",
    Category.COMMENT: "comment",
    Category.STRING: "string",
    Category.NUMBER: "number",
    Category.OPERATOR: "operator_delimiter",
    Category.DELIMITER: "operator_delimiter",
}
_REF_PRIORITY = ("function_name", "identifier", "comment", "string", "keyword",
                 "number", "operator_delimiter")


def reference_function_name_indices(tokens):
    """The function-name rule as a walk over every token: the first
    identifier whose last non-whitespace predecessor is `def`, and every
    later identifier with its lexeme."""
    name = None
    indices = set()
    after_def = False
    for i, tok in enumerate(tokens):
        if name is not None:
            if tok.category is Category.IDENTIFIER and tok.lexeme == name:
                indices.add(i)
        elif tok.category is Category.WHITESPACE:
            continue
        elif after_def and tok.category is Category.IDENTIFIER:
            name = tok.lexeme
            indices.add(i)
        else:
            after_def = tok.category is Category.KEYWORD and tok.lexeme == "def"
    return indices


def reference_split(code, tokenize):
    """(per_category, source) from lex, then the reference function-name
    rule, then a walk over every token."""
    tokens = lex(code)
    names = reference_function_name_indices(tokens)
    per_category = [0] * len(ATTRIBUTION_CATEGORIES)
    best = {}
    for i, tok in enumerate(tokens):
        if tok.category not in _REF_ATTRIBUTION:
            continue
        kind = "function_name" if i in names else _REF_ATTRIBUTION[tok.category]
        for sw in tokenize(tok.lexeme):
            per_category[ATTRIBUTION_CATEGORIES.index(kind)] += 1
            if sw not in best or _REF_PRIORITY.index(kind) < _REF_PRIORITY.index(best[sw]):
                best[sw] = kind
    return per_category, {sw: ATTRIBUTION_CATEGORIES.index(kind) for sw, kind in best.items()}


def split_outcome(split, code, tokenize):
    try:
        return split(code, tokenize)
    except UnlexableError as exc:
        return type(exc), str(exc), exc.offset


def assert_split_equals_reference(code, tokenize):
    try:
        tokens = lex(code)
    except UnlexableError:
        pass
    else:
        assert function_name_indices(tokens) == reference_function_name_indices(tokens)
    got = split_outcome(split_code, code, tokenize)
    expected = split_outcome(reference_split, code, tokenize)
    if not isinstance(got, CodeSubwords):
        assert got == expected
        return
    assert (got.per_category, got.source) == expected
    subwords = code_subwords(code, tokenize)
    assert len(subwords) == sum(got.per_category)
    assert set(subwords) == got.source.keys()


_FUNCTION_NAME_EDGES = [
    "def \ra",  # a newline after def: `a` is not the function name
    "def \na(): a",
    "def \\\nf(): f",  # a continued line keeps the def
    "def def f(): f",
    "f = 1\ndef f(x): return x.f(f)  # f",
    "def f(): pass\ndef g(): f(g)",
    "x.def_f(); def",
]


@pytest.mark.parametrize("code", _FUNCTION_NAME_EDGES + UNLEXABLE_SNIPPETS)
def test_split_code_equals_the_reference_on_edge_cases(code):
    assert_split_equals_reference(code, FallbackTokenizer())


@settings(max_examples=1000, derandomize=True)
@given(st.lists(st.sampled_from(
    ["def", " ", "\t", "\r", "\n", "\\\n", "f", "g", "f_g", "fG", "(", ")", ":", ".",
     ",", "=", "'", "#", "1", "é", "𝔘"]
), max_size=30).map("".join))
def test_split_code_equals_the_reference(code):
    assert_split_equals_reference(code, FallbackTokenizer())


def test_split_code_equals_the_reference_on_the_corpus():
    vocab = make_vocab([("r", "e"), ("re", "t"), ("d", "e"), ("de", "f"), ("_", "v")])
    for tokenize in (FallbackTokenizer(), BpeTokenizer(vocab)):
        for code, _ in sample_pairs(200, seed=13):
            assert_split_equals_reference(code, tokenize)
