"""Lexer for Python source text with exact byte spans.

Every byte of the input belongs to exactly one token, so concatenating the
lexemes reproduces the source byte-for-byte. The lexer checks lexical
well-formedness only (strings terminated, brackets closed); it happily
tokenizes code no parser would accept, which is what the downstream code
transformations need -- their outputs are often not valid Python.

`lexemes` splits a source with one regex scan and `category` classifies a
lexeme from its text alone; `categories` classifies a list of lexemes
through a memo shared across a batch. That is the one path from code to
categorized lexemes: `transform.Snippet` builds every variant's text from
a snippet's lexemes and their categories, and `score`'s
`subtok.split_code` walks the lexemes of each record's code. Besides the
lexemes, the module finds the snippet's function name
(`function_name_at`) and the lexemes of the first function signature
(`signature_span`). `lex` joins lexemes and categories into tokens with
byte spans; no stage calls it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
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


@dataclass(frozen=True)
class RoleToken:
    base: LexToken
    role: Role


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
_BRACKETS = _OPENERS | _CLOSERS

_DIGITS = r"[0-9](?:_?[0-9])*"
_EXPONENT = rf"(?:[eE][+-]?{_DIGITS})?"

# One row per kind of lexeme, in match order: strings before identifiers
# (so the rb in rb'..' is a prefix, not a name), numbers before punctuation
# (so .5 is a number). A string literal ends where Python's own scanner
# ends it: three opening quotes make it triple-quoted, a backslash escapes
# the next character (in raw literals too), and only a triple-quoted
# literal spans lines. A quote that opens no such literal starts an
# `unterminated` lexeme that runs to the end of the source. `other` is not
# part of Python's lexical grammar (stray $, ?, lone \, ...); it is kept
# permissively so arbitrary text round-trips.
_RULES = (
    ("ws", r"[ \t\f\v]+"),
    ("nl", r"\r\n|\n|\r"),
    ("comment", r"#[^\n\r]*"),
    ("contline", r"\\(?:\r\n|\n|\r)"),
    (
        "string",
        r"[rRbBuUfF]{0,2}(?:"
        r"'''(?:[^\\']|\\.|'(?!''))*'''"
        r'|"""(?:[^\\"]|\\.|"(?!""))*"""'
        r"|'(?!'')(?:[^\\'\n\r]|\\.)*'"
        r'|"(?!"")(?:[^\\"\n\r]|\\.)*")',
    ),
    ("unterminated", r"[rRbBuUfF]{0,2}['\"].*"),
    (
        "number",
        r"0[xX](?:_?[0-9a-fA-F])+|0[oO](?:_?[0-7])+|0[bB](?:_?[01])+"
        rf"|(?:{_DIGITS})?\.{_DIGITS}{_EXPONENT}[jJ]?"
        rf"|{_DIGITS}\.(?:{_DIGITS})?{_EXPONENT}[jJ]?"
        rf"|{_DIGITS}{_EXPONENT}[jJ]?",
    ),
    ("ident", r"[^\W\d]\w*"),
    ("punct", "|".join(re.escape(p) for p in _PUNCT)),
    ("other", "."),
)
# No groups, so findall returns the lexemes themselves.
_LEXEME_RE = re.compile("|".join(f"(?:{p})" for _, p in _RULES), re.DOTALL)
# One named group per kind; classifies a single lexeme.
_KIND_RE = re.compile("|".join(f"(?P<{k}>{p})" for k, p in _RULES), re.DOTALL)

# The category of each kind whose lexeme does not decide it.
_KIND_CATEGORY = {
    "ws": Category.WHITESPACE,
    "contline": Category.WHITESPACE,
    "nl": Category.NEWLINE,
    "comment": Category.COMMENT,
    "string": Category.STRING,
    "number": Category.NUMBER,
    "other": Category.OPERATOR,
}
_PUNCT_CATEGORY = {
    p: Category.OPERATOR if p in _OPERATORS else Category.DELIMITER for p in _PUNCT
}


def _byte_offset(source: str, cp_offset: int) -> int:
    head = source[:cp_offset]
    return len(head) if head.isascii() else len(head.encode("utf-8"))


def category(lexeme: str) -> Category:
    """The category of one lexeme of `lexemes`, decided by its text alone."""
    kind = _KIND_RE.match(lexeme).lastgroup
    if kind == "ident":
        return Category.KEYWORD if lexeme in KEYWORDS else Category.IDENTIFIER
    if kind == "punct":
        return _PUNCT_CATEGORY[lexeme]
    return _KIND_CATEGORY[kind]


def lexemes(source: str) -> list[str]:
    """Split `source` into lexemes that concatenate back to it exactly.

    Raises UnterminatedStringError or UnterminatedBracketError, with the
    byte offset of the literal or of the first bracket left open.
    """
    found = _LEXEME_RE.findall(source)
    if found and _KIND_RE.match(found[-1]).lastgroup == "unterminated":
        raise UnterminatedStringError(
            "unterminated string literal",
            _byte_offset(source, len(source) - len(found[-1])),
        )
    if "(" in source or "[" in source or "{" in source:
        # A closer closes the innermost opener, whatever its kind; a stray
        # closer is ignored.
        depth = 0
        for n, bracket in enumerate(filter(_BRACKETS.__contains__, found)):
            if bracket in _OPENERS:
                if not depth:
                    bottom = n  # the first bracket left open, if depth stays > 0
                depth += 1
            elif depth:
                depth -= 1
        if depth:
            at = [i for i, lexeme in enumerate(found) if lexeme in _BRACKETS][bottom]
            raise UnterminatedBracketError(
                "unclosed bracket", _byte_offset(source, len("".join(found[:at])))
            )
    return found


def categories(found: Sequence[str], kinds: dict[str, Category] | None = None) -> list[Category]:
    """The category of each lexeme in `found`.

    `kinds` maps a lexeme to its category; pass one dict to every call of a
    batch and each distinct lexeme is classified once.
    """
    if kinds is None:
        kinds = {}
    for lexeme in set(found).difference(kinds):
        kinds[lexeme] = category(lexeme)
    return list(map(kinds.__getitem__, found))


def lex(source: str, kinds: dict[str, Category] | None = None) -> tuple[LexToken, ...]:
    """Tokenize `source`; concat of the lexemes reproduces it exactly.
    `kinds` is the memo of `categories`."""
    found = lexemes(source)
    if source.isascii():  # then byte offsets are code-point offsets
        sizes = map(len, found)
    else:
        sizes = (len(lexeme.encode("utf-8")) for lexeme in found)
    offsets = list(accumulate(sizes, initial=0))
    fields = zip(found, categories(found, kinds), offsets, offsets[1:])
    return tuple(map(LexToken._make, fields))


def function_name_at(lexemes: Sequence[str]) -> int | None:
    """Index of the snippet's function name among `lexemes`: the first
    identifier after a `def` keyword with only whitespace between them.

    This is the one name rule: the renaming variants and the copy
    attribution also treat every later lexeme equal to the name as the
    name (call sites and attribute positions included, so renames touch
    all of them)."""
    end = len(lexemes)
    start = 0
    while True:
        try:
            i = lexemes.index("def", start) + 1
        except ValueError:
            return None
        while i < end and category(lexemes[i]) is Category.WHITESPACE:
            i += 1
        if i < end and category(lexemes[i]) is Category.IDENTIFIER:
            return i
        start = i


def classify_roles(tokens: Sequence[LexToken]) -> list[RoleToken]:
    """Assign a role to every token: the function name (function_name_at,
    and every later token with its lexeme), a plain identifier, or
    Role.NONE for non-identifiers."""
    at = function_name_at([tok.lexeme for tok in tokens])
    name = None if at is None else tokens[at].lexeme
    roles = []
    for i, tok in enumerate(tokens):
        if tok.category is not Category.IDENTIFIER:
            roles.append(RoleToken(tok, Role.NONE))
        elif tok.lexeme == name and i >= at:
            roles.append(RoleToken(tok, Role.FUNCTION_NAME))
        else:
            roles.append(RoleToken(tok, Role.PLAIN_IDENTIFIER))
    return roles


def signature_span(lexemes: Sequence[str]) -> slice:
    """The slice of `lexemes` from the first def through the colon after
    its parameter list.

    Decorators are excluded; multi-line parameter lists are handled by
    bracket depth.
    """
    try:
        def_idx = lexemes.index("def")
    except ValueError:
        raise NoFunctionError("no def in token stream") from None
    depth = 0
    for i in range(def_idx + 1, len(lexemes)):
        lexeme = lexemes[i]
        if lexeme in _OPENERS:
            depth += 1
        elif lexeme in _CLOSERS:
            depth -= 1
        elif lexeme == ":" and depth == 0:
            return slice(def_idx, i + 1)
    raise NoFunctionError("def without a closing colon")
