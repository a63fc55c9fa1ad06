"""Lexer for Python source text with exact byte spans.

Every byte of the input belongs to exactly one token, so concatenating the
lexemes reproduces the source byte-for-byte. The lexer checks lexical
well-formedness only (strings terminated, brackets closed); it happily
tokenizes code no parser would accept, which is what the downstream code
transformations need -- their outputs are often not valid Python.

Besides raw tokens, the module marks the snippet's function name and
locates the span of the first function signature.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

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


@dataclass(frozen=True)
class LexToken:
    lexeme: str
    category: Category
    start: int  # byte offset into the UTF-8 encoding of the source
    end: int


@dataclass(frozen=True)
class RoleToken:
    base: LexToken
    role: Role


@dataclass(frozen=True)
class SignatureSpan:
    """First `def` keyword through the colon closing its parameter list."""

    start: int  # byte offsets, like LexToken spans
    end: int
    first_token: int  # index of the `def` token in the stream
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


class TokenStream(Sequence[LexToken]):
    """Immutable token sequence whose lexemes tile the source text."""

    __slots__ = ("_tokens",)

    def __init__(self, tokens: Iterable[LexToken]) -> None:
        self._tokens = tuple(tokens)

    def __len__(self) -> int:
        return len(self._tokens)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._tokens[index]
        return self._tokens[index]

    def __iter__(self) -> Iterator[LexToken]:
        return iter(self._tokens)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TokenStream):
            return self._tokens == other._tokens
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._tokens)

    def __repr__(self) -> str:
        return f"TokenStream({len(self._tokens)} tokens)"

    @property
    def text(self) -> str:
        return "".join(t.lexeme for t in self._tokens)


def make_stream(parts: Iterable[tuple[str, Category]]) -> TokenStream:
    """Build a stream from (lexeme, category) pairs, recomputing byte spans."""
    tokens = []
    offset = 0
    for lexeme, category in parts:
        if not lexeme:
            continue
        nbytes = len(lexeme) if lexeme.isascii() else len(lexeme.encode("utf-8"))
        tokens.append(LexToken(lexeme, category, offset, offset + nbytes))
        offset += nbytes
    return TokenStream(tokens)


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


def lex(source: str) -> TokenStream:
    """Tokenize `source`; concat of the lexemes reproduces it exactly."""
    parts: list[tuple[str, Category]] = []
    open_brackets: list[int] = []  # code-point offsets of unclosed openers
    pos = 0
    n = len(source)
    while pos < n:
        match = _TOKEN_RE.match(source, pos)
        kind = match.lastgroup
        if kind == "strstart":
            end = _scan_string(source, pos, match.end())
            parts.append((source[pos:end], Category.STRING))
            pos = end
            continue
        text = match.group()
        if kind == "ws" or kind == "contline":
            parts.append((text, Category.WHITESPACE))
        elif kind == "nl":
            parts.append((text, Category.NEWLINE))
        elif kind == "comment":
            parts.append((text, Category.COMMENT))
        elif kind == "number":
            parts.append((text, Category.NUMBER))
        elif kind == "ident":
            category = Category.KEYWORD if text in KEYWORDS else Category.IDENTIFIER
            parts.append((text, category))
        elif kind == "punct":
            if text in _OPENERS:
                open_brackets.append(pos)
            elif text in _CLOSERS and open_brackets:
                open_brackets.pop()
            category = Category.OPERATOR if text in _OPERATORS else Category.DELIMITER
            parts.append((text, category))
        else:
            # Not part of Python's lexical grammar (stray $, ?, lone \, ...).
            # Kept permissively as an operator so arbitrary bytes round-trip.
            parts.append((text, Category.OPERATOR))
        pos = match.end()
    if open_brackets:
        raise UnterminatedBracketError(
            "unclosed bracket", _byte_offset(source, open_brackets[0])
        )
    return make_stream(parts)


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
