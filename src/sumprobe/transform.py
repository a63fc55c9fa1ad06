"""Code variants: rewrites that hide or distort one kind of information
(function names, code structure, the whole body, comments).

There is one path from a snippet to its variants. `Snippet.of` splits the
snippet once into `pylex.lexemes` and their `pylex.categories`, the same
scan that `score` walks, drops its comments, and keeps what the variants
need; `Snippet.text` returns each variant's code. Every variant but
`original` is built from the comment-free lexemes, so the models cannot
lean on prose hidden in comments. `apply_variant` is the same path for
one example and one variant. `donor_entries` reads each accepted
snippet's name and identifiers, and `donor_assignment` chooses from them
the names the adversarial variant writes. `variant_key` is the one order
of variant names, for files, run records and report groups.
"""

from __future__ import annotations

import logging
import random
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

from .corpus import Example, RunRecord
from .errors import HarnessError
from .pylex import (
    KEYWORDS,
    Category,
    NoFunctionError,
    categories,
    function_name_at,
    lexemes,
    signature_span,
)

log = logging.getLogger(__name__)


class Variant(str, Enum):
    ORIGINAL = "original"
    OBFUSCATED_NAMES = "obfuscated_names"
    ADVERSARIAL_NAMES = "adversarial_names"
    NO_CODE_STRUCTURE = "no_code_structure"
    NO_FUNCTION_BODY = "no_function_body"


VARIANT_ORDER = {v.value: i for i, v in enumerate(Variant)}


def variant_key(name: str) -> tuple[int, str]:
    """The one order of variant names, for variant files, run records and
    report groups: `Variant`'s order, then any other name, by name."""
    return (VARIANT_ORDER.get(name, len(VARIANT_ORDER)), name)


def record_sort_key(rec: RunRecord):
    return (rec.model_id, *variant_key(rec.variant), rec.example_id)


class DonorCollisionError(HarnessError):
    """The donor name already occurs as an identifier in the snippet."""

    def __init__(self, donor: str) -> None:
        super().__init__(f"donor name {donor!r} collides with an existing identifier")
        self.donor = donor


class ShiftCollisionError(HarnessError):
    """The letter shift of the function name already occurs as an
    identifier in the snippet, or is a keyword."""


class InvalidDonorError(HarnessError):
    """The donor name is not a Python identifier (the lexer accepts some
    names, such as `f²`, that `str.isidentifier` rejects)."""

    def __init__(self, donor: str) -> None:
        super().__init__(f"donor name {donor!r} is not a valid identifier")
        self.donor = donor


_SHIFT_FWD = str.maketrans(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ",
    "bcdefghijklmnopqrstuvwxyzaBCDEFGHIJKLMNOPQRSTUVWXYZA",
)


def shift_name(name: str) -> str:
    """a->b ... z->a, case preserved; digits, underscores etc. unchanged."""
    return name.translate(_SHIFT_FWD)


# --- the rules ------------------------------------------------------------


def _comment_free(
    found: Sequence[str], cats: Sequence[Category]
) -> tuple[list[str], list[Category]]:
    """The lexemes, and their categories, left once comments are dropped
    with the whitespace that separated them from code; a comment alone on
    its line takes the line's newline with it."""
    drop: set[int] = set()
    for i, cat in enumerate(cats):
        if cat is not Category.COMMENT:
            continue
        drop.add(i)
        j = i - 1
        while j >= 0 and cats[j] is Category.WHITESPACE:
            drop.add(j)
            j -= 1
        whole_line = j < 0 or cats[j] is Category.NEWLINE
        if whole_line and i + 1 < len(cats) and cats[i + 1] is Category.NEWLINE:
            drop.add(i + 1)
    kept = [i for i in range(len(found)) if i not in drop]
    return [found[i] for i in kept], [cats[i] for i in kept]


def _name_segments(found: Sequence[str]) -> tuple[str | None, tuple[str, ...]]:
    """The defined function name (pylex.function_name_at), None without a
    def, and the text between it and each later occurrence."""
    at = function_name_at(found)
    if at is None:
        return None, ("".join(found),)
    name = found[at]
    segments = []
    start = 0
    for i in range(at, len(found)):
        if found[i] == name:
            segments.append("".join(found[start:i]))
            start = i + 1
    segments.append("".join(found[start:]))
    return name, tuple(segments)


def _defined(name: str | None) -> str:
    if name is None:
        raise NoFunctionError("no def in token stream")
    return name


def _adversarial_name(donor: str, name: str | None, identifiers: frozenset[str]) -> str:
    """The name the adversarial variant writes in place of `name`: the
    donor, or `name` itself when the donor is that name."""
    if not donor.isidentifier():
        raise InvalidDonorError(donor)
    if donor == _defined(name):
        log.info("donor equals original name %r; snippet left unchanged", name)
        return name
    if donor in identifiers:
        raise DonorCollisionError(donor)
    return donor


_STRUCTURE_KEPT = (Category.IDENTIFIER, Category.NUMBER, Category.STRING)


def _structure_parts(found: Sequence[str], cats: Sequence[Category]) -> list[str]:
    """The text pieces left once keywords, operators and delimiters are
    dropped; everything else is kept.

    Within each line the survivors are joined by single spaces and the
    original indentation is kept, so the output still looks like the code's
    silhouette. Lines left empty keep their newline only.
    """
    parts: list[str] = []

    def line(start: int, end: int) -> None:
        kept = [found[i] for i in range(start, end) if cats[i] in _STRUCTURE_KEPT]
        if kept:
            if cats[start] is Category.WHITESPACE:
                parts.append(found[start])  # the indentation
            parts.append(" ".join(kept))

    start = 0
    for i, cat in enumerate(cats):
        if cat is Category.NEWLINE:
            line(start, i)
            parts.append(found[i])
            start = i + 1
    line(start, len(found))
    return parts


def _signature(found: Sequence[str]) -> str:
    """Exactly the first def's signature, through its colon."""
    return "".join(found[signature_span(found)])


def _identifiers(found: Sequence[str], cats: Sequence[Category]) -> frozenset[str]:
    # Interned: the same names recur across a corpus's snippets.
    return frozenset(sys.intern(w) for w, cat in zip(found, cats) if cat is Category.IDENTIFIER)


# --- one lex per snippet --------------------------------------------------


@dataclass(slots=True)
class Snippet:
    """One snippet, lexed once and reduced to what its variants need.

    It keeps no tokens: the defined name and identifiers (the donor entry),
    the comment-stripped text split at each occurrence of the name (which
    the two renaming variants join with their new name), and the finished
    text, or the failure, of each other requested variant.
    """

    code: str
    name: str | None
    identifiers: frozenset[str]
    segments: tuple[str, ...]
    texts: dict[Variant, str] = field(default_factory=dict)
    failures: dict[Variant, str] = field(default_factory=dict)

    @classmethod
    def of(
        cls,
        code: str,
        variants: Iterable[Variant] = tuple(Variant),
        kinds: dict[str, Category] | None = None,
    ) -> "Snippet":
        """Raises UnlexableError; every other failure is kept per variant.
        `kinds` is the memo of `pylex.categories`."""
        found = lexemes(code)
        free, cats = _comment_free(found, categories(found, kinds))
        name, segments = _name_segments(free)
        snippet = cls(code, name, _identifiers(free, cats), segments)
        if Variant.NO_CODE_STRUCTURE in variants:
            snippet.texts[Variant.NO_CODE_STRUCTURE] = "".join(_structure_parts(free, cats))
        if Variant.NO_FUNCTION_BODY in variants:
            try:
                snippet.texts[Variant.NO_FUNCTION_BODY] = _signature(free)
            except NoFunctionError as exc:
                snippet.failures[Variant.NO_FUNCTION_BODY] = str(exc)
        return snippet

    def text(self, variant: Variant, donor: str | None = None) -> str:
        """The variant's code. The renaming variants rewrite every
        occurrence of the defined name: `obfuscated_names` with the +1
        letter shift, `adversarial_names` with `donor`. Raises
        NoFunctionError when the variant needs a def the snippet lacks,
        ShiftCollisionError when the shifted name is already taken,
        DonorCollisionError or InvalidDonorError for an unusable donor,
        and HarnessError for no donor."""
        if variant is Variant.ORIGINAL:
            return self.code
        if variant in self.failures:
            raise NoFunctionError(self.failures[variant])
        if variant is Variant.OBFUSCATED_NAMES:
            shifted = shift_name(_defined(self.name))
            if shifted != self.name and (shifted in self.identifiers or shifted in KEYWORDS):
                raise ShiftCollisionError(f"shifted name {shifted!r} is taken or reserved")
            return shifted.join(self.segments)
        if variant is Variant.ADVERSARIAL_NAMES:
            if donor is None:
                raise HarnessError("no usable donor name in the corpus")
            return _adversarial_name(donor, self.name, self.identifiers).join(self.segments)
        return self.texts[variant]


def apply_variant(ex: Example, variant: Variant, donor: str | None = None) -> Example:
    """Produce the Example for one code variant; the reference is untouched.

    Original is the unmodified snippet. The four transformed variants are
    applied to comment-stripped code so the models cannot lean on prose
    hidden in comments.
    """
    if variant is Variant.ORIGINAL:
        return ex
    return Example(ex.id, Snippet.of(ex.code, (variant,)).text(variant, donor), ex.reference)


# --- donor assignment -----------------------------------------------------


class DonorEntry(NamedTuple):
    """A donor-pool slot and target: an example's own defined name and the
    identifiers of its code."""

    id: str
    name: str
    identifiers: frozenset[str]


def donor_entries(accepted: Iterable[tuple[Example, Snippet]]) -> list[DonorEntry]:
    """The donor entry of each accepted (example, snippet) whose snippet
    defines a function, in order."""
    return [DonorEntry(ex.id, snippet.name, snippet.identifiers)
            for ex, snippet in accepted if snippet.name is not None]


class _UnusedSlots:
    """Fenwick tree (Fenwick 1994) over pool positions, 1 while unused."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.count = size
        self.tree = [i & -i for i in range(size + 1)]
        self.top = 1 << size.bit_length() >> 1  # highest power of 2 <= size

    def remove(self, pos: int) -> None:
        self.count -= 1
        i = pos + 1
        while i <= self.size:
            self.tree[i] -= 1
            i += i & -i

    def kth_outside(self, k: int, excluded: list[list[int]]) -> int:
        """Position of the k-th (from 0) unused slot not in any of the
        `excluded` ascending lists of unused positions."""
        pos = 0  # the answer is past the first `pos` positions
        rank = k + 1
        step = self.top
        while step:
            nxt = pos + step
            if nxt <= self.size:
                # fitting unused slots among positions pos .. nxt - 1
                fitting = self.tree[nxt] - sum(
                    bisect_left(xs, nxt) - bisect_left(xs, pos) for xs in excluded
                )
                if fitting < rank:
                    pos = nxt
                    rank -= fitting
            step >>= 1
        return pos


def donor_assignment(entries: Sequence[DonorEntry], seed: int) -> dict[str, str]:
    """Deterministically assign each target a donor function name.

    The pool holds one slot per entry's name. Names are handed out without
    replacement while possible; when no unused name fits a target (its own
    name, or one already appearing in its code), the draw falls back to
    reuse and logs it. Targets for which no other name exists at all are
    simply absent from the result.

    Each draw picks the k-th fitting slot in pool order, with k drawn by
    `rng.choice` over the number of fitting slots, so it consumes the same
    randomness as a choice from the list of fitting slots would. A Fenwick
    tree over unused slots and each name's unused positions find that slot
    in O(log n) steps; the reuse fallback skips the excluded names in the
    sorted distinct names.
    """
    rng = random.Random(seed)
    pool = [entry.name for entry in entries]
    unused = _UnusedSlots(len(pool))
    positions: dict[str, list[int]] = {}  # name -> its unused slots, ascending
    for k, name in enumerate(pool):
        positions.setdefault(name, []).append(k)
    names = sorted(positions)
    assignment: dict[str, str] = {}
    for ex_id, own, idents in entries:
        unfit = idents if own in idents else idents | {own}
        excluded = [positions[name] for name in unfit if positions.get(name)]
        count = unused.count - sum(map(len, excluded))
        if count:
            k = unused.kth_outside(rng.choice(range(count)), excluded)
            unused.remove(k)
            slots = positions[pool[k]]
            del slots[bisect_left(slots, k)]
            assignment[ex_id] = pool[k]
            continue
        skipped = sorted(bisect_left(names, name) for name in unfit if name in positions)
        count = len(names) - len(skipped)
        if count:
            k = rng.choice(range(count))
            for i in skipped:
                if i > k:
                    break
                k += 1
            log.info("donor pool exhausted for %s; reusing %r", ex_id, names[k])
            assignment[ex_id] = names[k]
    return assignment
