import json
import json.encoder
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumprobe.corpus import (
    CorpusError,
    DuplicateRunKeyError,
    EvalRecord,
    Example,
    FilterReason,
    RunRecord,
    filter_corpus,
    load_corpus,
    load_run,
    read_jsonl,
    save_run,
    write_jsonl,
)
from sumprobe.corpus import _decode_line, _row_encoder
from sumprobe.pylex import lexemes

from corpusgen import write_corpus


def write_lines(path, lines):
    path.write_bytes(b"".join(line + b"\n" for line in lines))
    return path


def test_load_direct_field_mapping(tmp_path):
    path = write_lines(
        tmp_path / "c.jsonl",
        [json.dumps({"code": "def f(x):\n    return x", "docstring": "returns x"}).encode()],
    )
    examples, errors = load_corpus(path)
    assert errors == []
    assert examples[0].code == "def f(x):\n    return x"
    assert examples[0].reference == "returns x"
    assert examples[0].id == f"{path}:1"


def test_load_empty_file(tmp_path):
    path = write_lines(tmp_path / "c.jsonl", [])
    assert load_corpus(path) == ([], [])


def test_load_missing_docstring_is_error_record(tmp_path):
    path = write_lines(tmp_path / "c.jsonl", [json.dumps({"code": "x"}).encode()])
    examples, errors = load_corpus(path)
    assert examples == []
    assert len(errors) == 1 and "docstring" in errors[0].message


def test_every_line_becomes_example_or_error(tmp_path):
    lines = [
        json.dumps({"code": "a", "docstring": "fine one"}).encode(),
        b"not json at all",
        b"\xff\xfe broken bytes",
        json.dumps(["wrong", "shape"]).encode(),
        json.dumps({"code": 3, "docstring": "d"}).encode(),
        json.dumps({"code": "b", "docstring": "fine two"}).encode(),
    ]
    path = write_lines(tmp_path / "c.jsonl", lines)
    examples, errors = load_corpus(path)
    assert len(examples) + len(errors) == len(lines)
    assert len(examples) == 2
    assert [e.line_number for e in errors] == [2, 3, 4, 5]


def test_load_explicit_and_duplicate_ids(tmp_path):
    path = write_lines(
        tmp_path / "c.jsonl",
        [
            json.dumps({"id": "a", "code": "x", "docstring": "d", "repo": "r1"}).encode(),
            json.dumps({"id": "a", "code": "y", "docstring": "d"}).encode(),
        ],
    )
    examples, errors = load_corpus(path)
    assert [ex.id for ex in examples] == ["a"]
    assert len(errors) == 1 and "duplicate" in errors[0].message


@pytest.mark.parametrize("field", ["id", "code", "docstring"])
def test_a_lone_surrogate_in_a_field_is_a_line_error(tmp_path, field):
    """UTF-8 cannot encode a lone surrogate, which only a JSON escape can
    put in a line; every later write of the field would fail, so the line
    is refused as a line that is not JSON is."""
    row = {"id": "cut", "code": "def f(x):\n    return x\n", "docstring": "returns x"}
    row[field] += "\ud83d"
    lines = [json.dumps(row).encode(), json.dumps({"code": "a\u00e9", "docstring": "d"}).encode()]
    path = write_lines(tmp_path / "c.jsonl", lines)
    examples, errors = load_corpus(path)
    assert [ex.code for ex in examples] == ["a\u00e9"]
    assert [(e.line_number, "surrogates not allowed" in e.message) for e in errors] == [(1, True)]


def test_load_missing_file():
    with pytest.raises(CorpusError):
        load_corpus("/nonexistent/corpus.jsonl")


# --- filtering --------------------------------------------------------------


def make_example(reference, code="def f(x):\n    return x\n"):
    return Example(id="e", code=code, reference=reference)


def reject_reason(example):
    """The reason filter_corpus rejects one example for, None if kept."""
    accepted, rejected = filter_corpus([example])
    if rejected:
        assert accepted == [] and rejected[0][0] is example
        return rejected[0][1]
    assert accepted == [(example, lexemes(example.code))]
    return None


def test_filter_empty_reference():
    example = make_example("")
    assert filter_corpus([example]) == ([], [(example, FilterReason.EMPTY)])


def test_filter_url():
    assert reject_reason(make_example("see http://x.com for details")) is FilterReason.HAS_URL


def test_filter_boundaries_inclusive():
    assert reject_reason(make_example("adds two numbers")) is None
    assert reject_reason(make_example("too short")) is FilterReason.TOO_SHORT
    long_ref = " ".join(["word"] * 256)
    assert reject_reason(make_example(long_ref)) is None
    assert reject_reason(make_example(long_ref + " more")) is FilterReason.TOO_LONG


def test_filter_unlexable_code():
    example = make_example("fine description here", code="x = 'open\n")
    assert reject_reason(example) is FilterReason.UNLEXABLE


def test_filter_empty_code():
    example = make_example("fine description here", code="   \n")
    assert reject_reason(example) is FilterReason.EMPTY


def test_filter_is_idempotent(tmp_path):
    path = tmp_path / "c.jsonl"
    write_corpus(path, 80, seed=2, unlexable_every=10)
    examples, _ = load_corpus(path)
    accepted, _ = filter_corpus(examples)
    again, rejected = filter_corpus([ex for ex, _ in accepted])
    assert rejected == []
    assert again == accepted


# --- run persistence --------------------------------------------------------


def records3():
    return [
        RunRecord("e1", "original", "m", "naïve summary — ünïcode"),
        RunRecord("e1", "no_function_body", "m", "short"),
        RunRecord(
            "e2", "original", "m", "text",
            metrics=EvalRecord(bleu4=41.5, p_copy_reference=0.25,
                               p_copy_reference_matched=1, p_copy_reference_total=4,
                               tokenizer_id="fallback", bucket="(20,30]"),
        ),
    ]


def test_run_roundtrip_identity(tmp_path):
    path = tmp_path / "runs.jsonl"
    records = records3()
    save_run(records, path)
    assert load_run(path) == records


def test_run_roundtrip_is_byte_stable(tmp_path):
    path = tmp_path / "runs.jsonl"
    save_run(records3(), path)
    first = path.read_bytes()
    save_run(load_run(path), path)
    assert path.read_bytes() == first


def test_run_roundtrip_keeps_unicode_line_breaks(tmp_path):
    # `write_jsonl` leaves these unescaped, and `str.splitlines` splits at them.
    breaks = "\u2028\u2029\u0085"
    records = [
        RunRecord(f"e{breaks}1", "original", f"m{breaks}", f"one{breaks}two"),
        RunRecord("e2", "original", f"m{breaks}", "three"),
    ]
    path = tmp_path / "runs.jsonl"
    save_run(records, path)
    assert load_run(path) == records


def test_run_duplicate_key_names_the_key(tmp_path):
    records = [
        RunRecord("e1", "original", "m", "a"),
        RunRecord("e1", "original", "m", "b"),
    ]
    with pytest.raises(DuplicateRunKeyError) as exc:
        save_run(records, tmp_path / "runs.jsonl")
    assert "('e1', 'original', 'm')" in str(exc.value)


def test_run_load_missing_path(tmp_path):
    with pytest.raises(CorpusError) as exc:
        load_run(tmp_path / "missing.jsonl")
    assert "missing.jsonl" in str(exc.value)


def test_run_load_rejects_bad_line(tmp_path):
    path = tmp_path / "runs.jsonl"
    path.write_text('{"example_id": "e"}\n')
    with pytest.raises(CorpusError):
        load_run(path)


def test_sample_corpus_loads_cleanly(tmp_path):
    path = tmp_path / "sample.jsonl"
    count = write_corpus(path, 50, seed=1)
    examples, errors = load_corpus(path)
    assert count == 50 and len(examples) == 50 and errors == []
    accepted, _ = filter_corpus(examples)
    assert len(accepted) == 50


# --- the JSONL codec ----------------------------------------------------------

# Text with the line breaks that only "\n" splitting keeps, and non-ASCII.
texts = st.text(st.one_of(st.characters(), st.sampled_from("\u2028\u2029\u0085é\"\\\n")))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | texts,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(texts, inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(json_values, min_size=1, max_size=5))
def test_the_per_file_encoder_is_json_dumps(rows):
    # one encoder for all the rows, as for the rows of one file
    encode = _row_encoder()
    assert [encode(row) for row in rows] == [json.dumps(row, ensure_ascii=False) for row in rows]
    text = "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.jsonl"
        if any("\ud800" <= ch <= "\udfff" for ch in text):
            # UTF-8 cannot encode a lone surrogate: the write fails whole
            with pytest.raises(CorpusError, match="cannot write"):
                write_jsonl(path, rows)
            assert list(Path(tmp).iterdir()) == []
            return
        write_jsonl(path, rows)
        assert path.read_text(encoding="utf-8") == text
        assert repr(read_jsonl(path)) == repr(rows)


def test_a_lone_surrogate_fails_the_write_in_one_line(tmp_path):
    """A JSON reply can escape half of a surrogate pair (a reply cut inside
    an emoji); UTF-8 cannot encode it, so the write is a CorpusError, as a
    failed disk write is, and the previous file stays."""
    path = tmp_path / "runs.jsonl"
    write_jsonl(path, [{"generated": "smile"}])
    cut = json.loads('"smile \\ud83d"')
    with pytest.raises(CorpusError, match="cannot write run file .*surrogates not allowed"):
        write_jsonl(path, [{"generated": cut}], "run file")
    assert read_jsonl(path) == [{"generated": "smile"}]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["runs.jsonl"]


def test_the_encoder_without_the_c_accelerator_is_json_dumps(monkeypatch):
    row = {"naïve": [1.5, float("nan"), float("-inf"), None, "a\u2028b"], "k": {"x": True}}
    expected = json.dumps(row, ensure_ascii=False)
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    assert _row_encoder()(row) == expected


def test_the_encoder_refuses_what_json_dumps_refuses():
    circular: list = []
    circular.append(circular)
    for row in (circular, {"x": object()}):
        with pytest.raises((ValueError, TypeError)) as expected:
            json.dumps(row, ensure_ascii=False)
        with pytest.raises(type(expected.value), match=re.escape(str(expected.value))):
            _row_encoder()(row)


def decoded(decode, line):
    """The value that `decode` returns for `line`, or its error's text."""
    try:
        return "value", repr(decode(line))
    except json.JSONDecodeError as exc:
        return "error", str(exc)


whitespace = st.text(st.sampled_from(" \t\r\n"), max_size=3)
lines = st.one_of(
    json_values.map(json.dumps),
    st.tuples(whitespace, json_values.map(json.dumps), whitespace).map("".join),
    st.tuples(json_values.map(json.dumps), st.sampled_from([" 1", "x", "{}", "]", ","])).map(
        "".join),
    st.tuples(json_values.map(json.dumps), st.integers(0, 40)).map(lambda p: p[0][:p[1]]),
    st.text(max_size=20),
    st.sampled_from(["\ufeff{}", "NaN", "-Infinity", '{"a": 1,}', "[1, 2", '"\\u12"']),
)


@settings(max_examples=300, deadline=None)
@given(lines)
def test_decode_line_is_json_loads(line):
    assert decoded(_decode_line, line) == decoded(json.loads, line)
