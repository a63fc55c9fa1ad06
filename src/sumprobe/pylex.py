"""Lexer for Python source text with exact byte spans.

Every byte of the input belongs to exactly one token, so concatenating the
lexemes reproduces the source byte-for-byte. The lexer checks lexical
well-formedness only (strings terminated, brackets closed); it happily
tokenizes code no parser would accept, which is what the downstream code
transformations need -- their outputs are often not valid Python.

`lex` returns a plain tuple of tokens. `transform.Snippet` lexes each
snippet once and builds every variant's text from that tuple; `score`'s
`subtok.split_code` lexes the code of each record it scores. Besides the
tokens, the module marks the snippet's function name and locates the span
of the first function signature.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

from .errors import HarnessError


class Category(str, Enum):
    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    OPERATOR = "operator"
    DELIMITER = "delimiter"
    NUMBER = "number"
    STRING = "string"
    COMMENT = "comment"
    NEWLINE = "newline"
    WHITESPACE = "whitespace"


class Role(str, Enum):
    FUNCTION_NAME = "function_name"
    PLAIN_IDENTIFIER = "plain_identifier"
    NONE = "none"


class LexToken(NamedTuple):
    lexeme: str
    category: Category
    start: int  # byte offset into the UTF-8 encoding of the source
    end: int


# LexToken(*fields) without the Python-level __new__ frame: the lexer builds
# one per token.
_new_token = tuple.__new__


@dataclass(frozen=True)
class RoleToken:
    base: LexToken
    role: Role


@dataclass(frozen=True)
class SignatureSpan:
    """First `def` keyword through the colon closing its parameter list."""

    start: int  # byte offsets, like LexToken spans
    end: int
    first_token: int  # index of the `def` token
    last_token: int  # index of the closing `:` token, inclusive


class UnlexableError(HarnessError):
    """Source failed lexical analysis; `offset` is a byte position."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} at byte {offset}")
        self.offset = offset


class UnterminatedStringError(UnlexableError):
    pass


class UnterminatedBracketError(UnlexableError):
    pass


class NoFunctionError(HarnessError):
    """The token stream contains no (complete) `def` signature."""


# Python 3.10 reserved words. The word operators not/and/or/in/is are
# classified as keywords; the structure-removal transform drops keywords and
# operators alike, so nothing downstream depends on that split.
KEYWORDS = frozenset(
    """
    False None True and as assert async await break class continue def del
    elif else except finally for from global if import in is lambda nonlocal
    not or pass raise return try while with yield
    """.split()
)

_OPERATORS = {
    "+", "-", "*", "**", "/", "//", "%", "@", "<<", ">>", "&", "|", "^",
    "~", "<", ">", "<=", ">=", "==", "!=", ":=",
}
_DELIMITERS = {
    "(", ")", "[", "]", "{", "}", ",", ":", ".", ";", "=", "->",
    "+=", "-=", "*=", "/=", "//=", "%=", "@=", "&=", "|=", "^=",
    ">>=", "<<=", "**=",
}
_PUNCT = sorted(_OPERATORS | _DELIMITERS, key=len, reverse=True)

_OPENERS = frozenset("([{")
_CLOSERS = frozenset(")]}")

# Alternation order matters: strings before identifiers (so the rb in rb'..'
# is a prefix, not a name), numbers before punctuation (so .5 is a number).
_TOKEN_RE = re.compile(
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
    + "|".join(re.escape(p) for p in _PUNCT)
    + r""")
    | (?P<other>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def _byte_offset(source: str, cp_offset: int) -> int:
    head = source[:cp_offset]
    return len(head) if head.isascii() else len(head.encode("utf-8"))


def _scan_string(source: str, start: int, after_prefix: int) -> int:
    """Return the code-point offset just past a string literal.

    `start` points at the prefix (if any), `after_prefix` at the opening
    quote. Backslash escapes are honoured in raw strings too: that matches
    Python's own rule for finding the end of a raw literal.
    """
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
        "unterminated string literal", _byte_offset(source, start)
    )


# The category of each _TOKEN_RE group whose lexeme does not decide it;
# `other` is not part of Python's lexical grammar (stray $, ?, lone \, ...)
# and is kept permissively as an operator so arbitrary text round-trips.
_GROUP_CATEGORY = {
    "ws": Category.WHITESPACE,
    "contline": Category.WHITESPACE,
    "nl": Category.NEWLINE,
    "comment": Category.COMMENT,
    "number": Category.NUMBER,
    "other": Category.OPERATOR,
}
_PUNCT_CATEGORY = {
    p: Category.OPERATOR if p in _OPERATORS else Category.DELIMITER for p in _PUNCT
}


def lex(source: str) -> tuple[LexToken, ...]:
    """Tokenize `source`; concat of the lexemes reproduces it exactly."""
    tokens: list[LexToken] = []
    open_brackets: list[int] = []  # code-point offsets of unclosed openers
    ascii_source = source.isascii()  # then byte offsets are code-point offsets
    match_at = _TOKEN_RE.match
    pos = 0
    offset = 0  # byte offset of `pos`
    n = len(source)
    while pos < n:
        match = match_at(source, pos)
        kind = match.lastgroup
        end = match.end()
        if kind == "strstart":
            end = _scan_string(source, pos, end)
            text = source[pos:end]
            category = Category.STRING
        else:
            text = match.group()
            if kind == "ident":
                category = Category.KEYWORD if text in KEYWORDS else Category.IDENTIFIER
            elif kind == "punct":
                if text in _OPENERS:
                    open_brackets.append(pos)
                elif text in _CLOSERS and open_brackets:
                    open_brackets.pop()
                category = _PUNCT_CATEGORY[text]
            else:
                category = _GROUP_CATEGORY[kind]
        if ascii_source or text.isascii():
            stop = offset + end - pos
        else:
            stop = offset + len(text.encode("utf-8"))
        tokens.append(_new_token(LexToken, (text, category, offset, stop)))
        offset = stop
        pos = end
    if open_brackets:
        raise UnterminatedBracketError(
            "unclosed bracket", _byte_offset(source, open_brackets[0])
        )
    return tuple(tokens)


def function_name_indices(tokens: Sequence[LexToken]) -> set[int]:
    """Indices of the snippet's function name: the first def's name and
    every later identifier with that lexeme (call sites and attribute
    positions included, so renaming transforms touch all of them)."""
    name = None
    indices: set[int] = set()
    after_def = False
    for i, tok in enumerate(tokens):
        category = tok.category
        if name is not None:
            if category is Category.IDENTIFIER and tok.lexeme == name:
                indices.add(i)
        elif category is Category.WHITESPACE:
            continue
        elif after_def and category is Category.IDENTIFIER:
            name = tok.lexeme
            indices.add(i)
        else:
            after_def = category is Category.KEYWORD and tok.lexeme == "def"
    return indices


def classify_roles(tokens: Sequence[LexToken]) -> list[RoleToken]:
    """Assign a role to every token: the function name (see
    function_name_indices), a plain identifier, or Role.NONE for
    non-identifiers."""
    name_indices = function_name_indices(tokens)
    roles = []
    for i, tok in enumerate(tokens):
        if tok.category is not Category.IDENTIFIER:
            roles.append(RoleToken(tok, Role.NONE))
        elif i in name_indices:
            roles.append(RoleToken(tok, Role.FUNCTION_NAME))
        else:
            roles.append(RoleToken(tok, Role.PLAIN_IDENTIFIER))
    return roles


def signature_span(tokens: Sequence[LexToken]) -> SignatureSpan:
    """Span of the first def through the colon after its parameter list.

    Decorators are excluded; multi-line parameter lists are handled by
    bracket depth.
    """
    def_idx = None
    for i, tok in enumerate(tokens):
        if tok.category is Category.KEYWORD and tok.lexeme == "def":
            def_idx = i
            break
    if def_idx is None:
        raise NoFunctionError("no def in token stream")
    depth = 0
    for i in range(def_idx + 1, len(tokens)):
        lexeme = tokens[i].lexeme
        if lexeme in _OPENERS:
            depth += 1
        elif lexeme in _CLOSERS:
            depth -= 1
        elif lexeme == ":" and depth == 0:
            return SignatureSpan(
                start=tokens[def_idx].start,
                end=tokens[i].end,
                first_token=def_idx,
                last_token=i,
            )
    raise NoFunctionError("def without a closing colon")
