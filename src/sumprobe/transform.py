"""Code variants: token-stream rewrites that hide or distort one kind of
information (function names, code structure, the whole body, comments).

All transforms consume a lexed stream and return a fresh TokenStream with
recomputed spans; the input is never mutated.
"""

from __future__ import annotations

import logging
import random
from dataclasses import replace
from enum import Enum
from typing import Sequence

from .corpus import Example
from .errors import HarnessError
from .pylex import (
    Category,
    LexToken,
    NoFunctionError,
    Role,
    TokenStream,
    UnlexableError,
    classify_roles,
    lex,
    make_stream,
    signature_span,
)

log = logging.getLogger(__name__)


class Variant(str, Enum):
    ORIGINAL = "original"
    OBFUSCATED_NAMES = "obfuscated_names"
    ADVERSARIAL_NAMES = "adversarial_names"
    NO_CODE_STRUCTURE = "no_code_structure"
    NO_FUNCTION_BODY = "no_function_body"


class DonorCollisionError(HarnessError):
    """The donor name already occurs as an identifier in the snippet."""

    def __init__(self, donor: str) -> None:
        super().__init__(f"donor name {donor!r} collides with an existing identifier")
        self.donor = donor


_SHIFT_FWD = str.maketrans(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ",
    "bcdefghijklmnopqrstuvwxyzaBCDEFGHIJKLMNOPQRSTUVWXYZA",
)
_SHIFT_REV = str.maketrans(
    "bcdefghijklmnopqrstuvwxyzaBCDEFGHIJKLMNOPQRSTUVWXYZA",
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ",
)


def shift_name(name: str) -> str:
    """a->b ... z->a, case preserved; digits, underscores etc. unchanged."""
    return name.translate(_SHIFT_FWD)


def unshift_name(name: str) -> str:
    return name.translate(_SHIFT_REV)


def strip_comments(tokens: Sequence[LexToken]) -> TokenStream:
    """Drop comments plus the whitespace that separated them from code; a
    comment alone on its line takes the line's newline with it."""
    drop: set[int] = set()
    for i, tok in enumerate(tokens):
        if tok.category is not Category.COMMENT:
            continue
        drop.add(i)
        j = i - 1
        while j >= 0 and tokens[j].category is Category.WHITESPACE:
            drop.add(j)
            j -= 1
        whole_line = j < 0 or tokens[j].category is Category.NEWLINE
        if whole_line and i + 1 < len(tokens) and tokens[i + 1].category is Category.NEWLINE:
            drop.add(i + 1)
    return make_stream(
        (t.lexeme, t.category) for i, t in enumerate(tokens) if i not in drop
    )


def _rename_function(tokens: Sequence[LexToken], rename) -> TokenStream:
    roled = classify_roles(tokens)
    if not any(rt.role is Role.FUNCTION_NAME for rt in roled):
        raise NoFunctionError("no def in token stream")
    return make_stream(
        (rename(rt.base.lexeme) if rt.role is Role.FUNCTION_NAME else rt.base.lexeme,
         rt.base.category)
        for rt in roled
    )


def obfuscate_function_names(tokens: Sequence[LexToken]) -> TokenStream:
    """Rewrite every occurrence of the defined name with the +1 letter shift."""
    return _rename_function(tokens, shift_name)


def deobfuscate_function_names(tokens: Sequence[LexToken]) -> TokenStream:
    """Inverse of obfuscate_function_names (the -1 letter shift)."""
    return _rename_function(tokens, unshift_name)


def adversarialize(tokens: Sequence[LexToken], donor_name: str) -> TokenStream:
    """Replace the defined function name (all occurrences) with donor_name."""
    if not donor_name.isidentifier():
        raise ValueError(f"donor name {donor_name!r} is not a valid identifier")
    roled = classify_roles(tokens)
    function_tokens = [rt for rt in roled if rt.role is Role.FUNCTION_NAME]
    if not function_tokens:
        raise NoFunctionError("no def in token stream")
    original = function_tokens[0].base.lexeme
    if donor_name == original:
        log.info("donor equals original name %r; snippet left unchanged", original)
        return make_stream((t.lexeme, t.category) for t in tokens)
    for rt in roled:
        if rt.role is not Role.FUNCTION_NAME and (
            rt.base.category is Category.IDENTIFIER and rt.base.lexeme == donor_name
        ):
            raise DonorCollisionError(donor_name)
    return _rename_function(tokens, lambda _: donor_name)


def remove_code_structure(tokens: Sequence[LexToken]) -> TokenStream:
    """Drop keywords, operators and delimiters; keep everything else.

    Within each line the survivors are joined by single spaces and the
    original indentation is kept, so the output still looks like the code's
    silhouette. Lines left empty keep their newline only.
    """
    keep = (Category.IDENTIFIER, Category.NUMBER, Category.STRING, Category.COMMENT)
    parts: list[tuple[str, Category]] = []
    line: list[LexToken] = []

    def flush(newline: LexToken | None) -> None:
        indent = ""
        if line and line[0].category is Category.WHITESPACE:
            indent = line[0].lexeme
        kept = [t for t in line if t.category in keep]
        if kept:
            if indent:
                parts.append((indent, Category.WHITESPACE))
            for k, tok in enumerate(kept):
                if k:
                    parts.append((" ", Category.WHITESPACE))
                parts.append((tok.lexeme, tok.category))
        if newline is not None:
            parts.append((newline.lexeme, Category.NEWLINE))
        line.clear()

    for tok in tokens:
        if tok.category is Category.NEWLINE:
            flush(tok)
        else:
            line.append(tok)
    flush(None)
    return make_stream(parts)


def remove_function_body(tokens: Sequence[LexToken]) -> TokenStream:
    """Keep exactly the first def's signature (through its colon)."""
    span = signature_span(tokens)
    return make_stream(
        (t.lexeme, t.category)
        for t in tokens[span.first_token : span.last_token + 1]
    )


def apply_variant(ex: Example, variant: Variant, donor: str | None = None) -> Example:
    """Produce the Example for one code variant; the reference is untouched.

    Original is the unmodified snippet. The four transformed variants are
    applied to comment-stripped code so the models cannot lean on prose
    hidden in comments.
    """
    if variant is Variant.ORIGINAL:
        return ex
    stream = strip_comments(lex(ex.code))
    if variant is Variant.OBFUSCATED_NAMES:
        out = obfuscate_function_names(stream)
    elif variant is Variant.ADVERSARIAL_NAMES:
        if donor is None:
            raise ValueError("adversarial_names requires a donor name")
        out = adversarialize(stream, donor)
    elif variant is Variant.NO_CODE_STRUCTURE:
        out = remove_code_structure(stream)
    elif variant is Variant.NO_FUNCTION_BODY:
        out = remove_function_body(stream)
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown variant {variant}")
    return replace(ex, code=out.text)


def defined_name(tokens: Sequence[LexToken]) -> str:
    """Lexeme of the first def's name."""
    for rt in classify_roles(tokens):
        if rt.role is Role.FUNCTION_NAME:
            return rt.base.lexeme
    raise NoFunctionError("no def in token stream")


def donor_assignment(corpus: Sequence[Example], seed: int) -> dict[str, str]:
    """Deterministically assign each eligible example a donor function name.

    Names are handed out without replacement while possible; when no unused
    name fits a target (its own name, or one already appearing in its code),
    the draw falls back to reuse and logs it. Targets for which no other
    name exists at all are simply absent from the result.
    """
    entries = []  # (id, own name, identifier lexemes)
    for ex in corpus:
        try:
            stream = lex(ex.code)
            name = defined_name(stream)
        except (UnlexableError, NoFunctionError):
            continue
        idents = {
            t.lexeme for t in stream if t.category is Category.IDENTIFIER
        }
        entries.append((ex.id, name, idents))

    rng = random.Random(seed)
    pool = [name for _, name, _ in entries]
    used = [False] * len(pool)
    assignment: dict[str, str] = {}
    for ex_id, own, idents in entries:
        def fits(name: str) -> bool:
            return name != own and name not in idents

        fresh = [k for k, name in enumerate(pool) if not used[k] and fits(name)]
        if fresh:
            k = rng.choice(fresh)
            used[k] = True
            assignment[ex_id] = pool[k]
            continue
        reusable = sorted({name for j, (_, name, _) in enumerate(entries) if fits(name)})
        if reusable:
            choice = rng.choice(reusable)
            log.info("donor pool exhausted for %s; reusing %r", ex_id, choice)
            assignment[ex_id] = choice
    return assignment

