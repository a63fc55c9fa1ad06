import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumprobe.pylex import (
    _DELIMITERS,
    _OPERATORS,
    KEYWORDS,
    Category,
    LexToken,
    NoFunctionError,
    Role,
    UnlexableError,
    UnterminatedBracketError,
    UnterminatedStringError,
    classify_roles,
    lex,
    lexemes,
    signature_span,
)

from corpusgen import UNLEXABLE_SNIPPETS, sample_pairs


def cats(stream):
    return [(t.category, t.lexeme) for t in stream]


def text(tokens):
    return "".join(t.lexeme for t in tokens)


def test_basic_def_tokens():
    got = cats(lex("def f(x):\n    return x"))
    assert got == [
        (Category.KEYWORD, "def"),
        (Category.WHITESPACE, " "),
        (Category.IDENTIFIER, "f"),
        (Category.DELIMITER, "("),
        (Category.IDENTIFIER, "x"),
        (Category.DELIMITER, ")"),
        (Category.DELIMITER, ":"),
        (Category.NEWLINE, "\n"),
        (Category.WHITESPACE, "    "),
        (Category.KEYWORD, "return"),
        (Category.WHITESPACE, " "),
        (Category.IDENTIFIER, "x"),
    ]


def test_empty_source():
    assert len(lex("")) == 0
    assert text(lex("")) == ""


def test_hash_inside_string_is_not_a_comment():
    stream = lex("x = 'a # b'  # c")
    strings = [t.lexeme for t in stream if t.category is Category.STRING]
    comments = [t.lexeme for t in stream if t.category is Category.COMMENT]
    assert strings == ["'a # b'"]
    assert comments == ["# c"]


@pytest.mark.parametrize(
    "snippet",
    [
        "def f(x):\n    return x\n",
        "x = 'a # b'  # c",
        'name = f"{value:>{width}}"\n',
        "r = rb'\\d+' + Rf'{x}'",
        'doc = """multi\nline \'quoted\' text"""\n',
        "s = 'esc\\'aped' + \"two\\\"three\"",
        "total = 0x1F + 0o17 + 0b101 + 1_000 + .5 + 5. + 1e-5 + 2.5E+3j",
        "a **= 2; b //= 3; c = a if a >= b else (lambda: b)()",
        "x = (1,\n     2)\n",
        "def größe_check(größe):\n    return größe  # umlauts\n",
        "if x:\n\tpass\n",
        "broken $ ? ` chars",
        "x = 1 \\\n    + 2\n",
        "win = 'line'\r\nnext_line = 2\r\n",
    ],
)
def test_roundtrip_and_fixpoint(snippet):
    stream = lex(snippet)
    assert text(stream) == snippet
    again = lex(text(stream))
    assert list(again) == list(stream)


def test_spans_tile_the_source_in_bytes():
    src = "def größe(x):\n    return 'ä' + x\n"
    stream = lex(src)
    encoded = src.encode("utf-8")
    offset = 0
    for tok in stream:
        assert tok.start == offset
        assert encoded[tok.start : tok.end].decode("utf-8") == tok.lexeme
        offset = tok.end
    assert offset == len(encoded)


def test_word_operators_are_keywords():
    stream = lex("a not in b or c is d and e")
    kw = [t.lexeme for t in stream if t.category is Category.KEYWORD]
    assert kw == ["not", "in", "or", "is", "and"]


@pytest.mark.parametrize(
    "src,op",
    [("a**=b", "**="), ("a//b", "//"), ("f() ->int", "->"), ("(n := 1)", ":="), ("a<=b", "<=")],
)
def test_longest_match_punctuation(src, op):
    assert op in [t.lexeme for t in lex(src)]


def test_unterminated_string_reports_offset():
    with pytest.raises(UnterminatedStringError) as exc:
        lex("x = 'open\n")
    assert exc.value.offset == 4
    with pytest.raises(UnterminatedStringError):
        lex('y = """never closed')


def test_unterminated_bracket_reports_offset():
    with pytest.raises(UnterminatedBracketError) as exc:
        lex("call(a, b\n")
    assert exc.value.offset == 4


def test_stray_closer_is_tolerated():
    stream = lex("a)]\n")
    assert text(stream) == "a)]\n"


def test_comment_at_end_of_file():
    stream = lex("x = 1  # trailing")
    assert stream[-1].category is Category.COMMENT


# --- roles ---------------------------------------------------------------


def roles_of(src):
    return [
        (rt.base.lexeme, rt.role)
        for rt in classify_roles(lex(src))
        if rt.base.category is Category.IDENTIFIER
    ]


def test_roles_def_param_and_recursion():
    assert roles_of("def dup(a): return dup") == [
        ("dup", Role.FUNCTION_NAME),
        ("a", Role.PLAIN_IDENTIFIER),
        ("dup", Role.FUNCTION_NAME),
    ]


def test_roles_plain_callee_without_def():
    assert roles_of("def f(): g()") == [
        ("f", Role.FUNCTION_NAME),
        ("g", Role.PLAIN_IDENTIFIER),
    ]


def test_roles_attribute_without_def():
    assert roles_of("x.save()") == [
        ("x", Role.PLAIN_IDENTIFIER),
        ("save", Role.PLAIN_IDENTIFIER),
    ]


def test_roles_defined_name_wins_over_attribute():
    # all later occurrences of the defined name count as the function name,
    # so renames stay consistent even at attribute positions
    assert roles_of("def f(): return self.f()") == [
        ("f", Role.FUNCTION_NAME),
        ("self", Role.PLAIN_IDENTIFIER),
        ("f", Role.FUNCTION_NAME),
    ]


def test_roles_inner_def_and_callee():
    src = "def outer(n):\n    def helper(k):\n        return k + n\n    return helper(n)"
    got = roles_of(src)
    assert ("outer", Role.FUNCTION_NAME) in got
    assert ("helper", Role.PLAIN_IDENTIFIER) in got  # the inner def site


def test_roles_signature_defaults_and_annotations():
    got = dict(roles_of("def f(a: int = g(2), *args, **kw): pass"))
    assert got["f"] == Role.FUNCTION_NAME
    assert got["int"] == Role.PLAIN_IDENTIFIER
    assert got["g"] == Role.PLAIN_IDENTIFIER


def test_roles_only_identifiers_get_roles():
    for rt in classify_roles(lex("def f(x):\n    return x + 1  # c\n")):
        if rt.base.category is Category.IDENTIFIER:
            assert rt.role is not Role.NONE
        else:
            assert rt.role is Role.NONE


# --- signature span ------------------------------------------------------


def span_text(src):
    found = lexemes(src)
    return "".join(found[signature_span(found)])


def test_signature_simple():
    assert span_text("def f(x):\n    return x") == "def f(x):"


def test_signature_multiline():
    assert span_text("def f(a,\n    b):\n    pass") == "def f(a,\n    b):"


def test_signature_excludes_decorator():
    assert span_text("@dec\ndef f():\n    pass") == "def f():"


def test_signature_skips_bracketed_colons():
    src = "def f(table={1: 2}, fn=lambda v: v) -> dict[int, str]:\n    pass"
    assert span_text(src) == src.split("\n")[0]


def test_signature_errors():
    with pytest.raises(NoFunctionError):
        signature_span(lexemes("x = 1"))
    with pytest.raises(NoFunctionError):
        signature_span(lexemes("def f(x)"))


def test_signature_uses_first_def():
    src = "def a():\n    pass\ndef b():\n    pass"
    assert span_text(src) == "def a():"


# --- properties ----------------------------------------------------------


def test_roundtrip_over_sample_corpus():
    for code, _ in sample_pairs(150, seed=11):
        assert text(lex(code)) == code


def test_unlexable_snippets_raise():
    for code in UNLEXABLE_SNIPPETS:
        with pytest.raises(UnlexableError):
            lex(code)


# Any text, and Python-like text that mixes ASCII with 2-, 3- and 4-byte
# UTF-8 characters, so both the all-ASCII and the per-lexeme byte counts run.
_PYTHONISH = st.text(alphabet=st.sampled_from(list("def x_(1):\n\t'\"#.+äßé€中😀")), max_size=80)


@settings(max_examples=300, derandomize=True)
@given(st.text(max_size=80) | _PYTHONISH)
def test_lex_never_mangles_arbitrary_text(source):
    try:
        stream = lex(source)
    except UnlexableError:
        return
    assert text(stream) == source
    assert lex(text(stream)) == stream
    data = source.encode("utf-8")
    offset = 0
    for tok in stream:
        assert tok.start == offset < tok.end
        assert data[tok.start:tok.end].decode("utf-8") == tok.lexeme
        offset = tok.end
    assert offset == len(data)


# --- reference lexer -----------------------------------------------------
# The lexer as it was before `lexemes` scanned a whole source with one
# findall: it matches one token at a time and scans each string literal by
# hand. `lex` must give the same tokens, or the same error.

_REF_PUNCT = sorted(_OPERATORS | _DELIMITERS, key=len, reverse=True)
_REF_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\f\v]+)
    | (?P<nl>\r\n|\n|\r)
    | (?P<comment>\#[^\n\r]*)
    | (?P<contline>\\(?:\r\n|\n|\r))
    | (?P<strstart>[rRbBuUfF]{1,2}(?=['"])|(?=['"]))
    | (?P<number>
          0[xX](?:_?[0-9a-fA-F])+
        | 0[oO](?:_?[0-7])+
        | 0[bB](?:_?[01])+
        | (?:[0-9](?:_?[0-9])*)?\.[0-9](?:_?[0-9])*(?:[eE][+-]?[0-9](?:_?[0-9])*)?[jJ]?
        | [0-9](?:_?[0-9])*\.(?:[0-9](?:_?[0-9])*)?(?:[eE][+-]?[0-9](?:_?[0-9])*)?[jJ]?
        | [0-9](?:_?[0-9])*(?:[eE][+-]?[0-9](?:_?[0-9])*)?[jJ]?
      )
    | (?P<ident>[^\W\d]\w*)
    | (?P<punct>"""
    + "|".join(re.escape(p) for p in _REF_PUNCT)
    + r""")
    | (?P<other>.)
    """,
    re.VERBOSE | re.DOTALL,
)
_REF_GROUP_CATEGORY = {
    "ws": Category.WHITESPACE,
    "contline": Category.WHITESPACE,
    "nl": Category.NEWLINE,
    "comment": Category.COMMENT,
    "number": Category.NUMBER,
    "other": Category.OPERATOR,
}


def _ref_byte_offset(source, cp_offset):
    return len(source[:cp_offset].encode("utf-8"))


def _ref_scan_string(source, start, after_prefix):
    """Code-point offset just past the string literal whose prefix starts
    at `start` and whose opening quote is at `after_prefix`."""
    n = len(source)
    quote = source[after_prefix]
    triple = source[after_prefix : after_prefix + 3] in ("'''", '"""')
    pos = after_prefix + (3 if triple else 1)
    closing = quote * 3 if triple else quote
    while pos < n:
        ch = source[pos]
        if ch == "\\":
            pos += 2
            continue
        if not triple and ch in "\n\r":
            break
        if source.startswith(closing, pos):
            return pos + len(closing)
        pos += 1
    raise UnterminatedStringError(
        "unterminated string literal", _ref_byte_offset(source, start)
    )


def reference_lex(source):
    tokens = []
    open_brackets = []  # code-point offsets of unclosed openers
    pos = offset = 0
    while pos < len(source):
        match = _REF_TOKEN_RE.match(source, pos)
        kind = match.lastgroup
        end = match.end()
        if kind == "strstart":
            end = _ref_scan_string(source, pos, end)
            text = source[pos:end]
            category = Category.STRING
        else:
            text = match.group()
            if kind == "ident":
                category = Category.KEYWORD if text in KEYWORDS else Category.IDENTIFIER
            elif kind == "punct":
                if text in ("(", "[", "{"):
                    open_brackets.append(pos)
                elif text in (")", "]", "}") and open_brackets:
                    open_brackets.pop()
                category = Category.OPERATOR if text in _OPERATORS else Category.DELIMITER
            else:
                category = _REF_GROUP_CATEGORY[kind]
        stop = offset + len(text.encode("utf-8"))
        tokens.append(LexToken(text, category, offset, stop))
        offset = stop
        pos = end
    if open_brackets:
        raise UnterminatedBracketError(
            "unclosed bracket", _ref_byte_offset(source, open_brackets[0])
        )
    return tuple(tokens)


def lex_outcome(lexer, source):
    """The tokens, or the error's class, message and byte offset."""
    try:
        return lexer(source)
    except UnlexableError as exc:
        return type(exc), str(exc), exc.offset


# Quotes, string prefixes, backslashes, line ends, brackets, comments,
# number parts and multi-byte characters: the pieces whose interplay
# decides where a lexeme ends.
_LEXER_EDGES = st.lists(
    st.sampled_from(
        ["'", '"', "'''", '"""', "'", '"', "\\", "\\", "\r\n", "rb", "def"]
        + list("rRbBuUfF\r\n()[]{}#0123456789.eEjJ_xX +-*=:<>é²𝔘\t$")
    ),
    max_size=40,
).map("".join)


@settings(max_examples=1500, derandomize=True)
@given(_LEXER_EDGES)
def test_lex_equals_the_reference_lexer(source):
    assert lex_outcome(lex, source) == lex_outcome(reference_lex, source)


@pytest.mark.parametrize(
    "source",
    [
        "'''never closed",  # three quotes open a triple-quoted literal
        "x = '''a'''' + ''",
        "x = '''it\\'''s''' + \"\"\"\\\"\"\"\"\"\"",  # escaped quotes in triple quotes
        "r'\\'' + rb'\\\\'",  # escapes hold in raw literals too
        "'a\\\nb'",  # an escaped line end continues a short literal
        "'a\\\r\nb'",  # ... but only its \r
        "s = '\\",
        "('open\n)",
        ")( x",
        "f(a, [b, {c: d]) + g(",
        "é = '²' + (𝔘",
    ],
)
def test_lex_equals_the_reference_lexer_on_edge_cases(source):
    assert lex_outcome(lex, source) == lex_outcome(reference_lex, source)


def test_lex_equals_the_reference_lexer_on_the_corpus():
    kinds = {}  # one memo across the corpus, as transform shares it
    for code, _ in sample_pairs(300, seed=7):
        assert lex(code) == reference_lex(code) == lex(code, kinds)
    for code in UNLEXABLE_SNIPPETS:
        assert lex_outcome(lex, code) == lex_outcome(reference_lex, code)
