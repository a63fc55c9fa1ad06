import logging
import random

import pytest

from sumprobe.corpus import Example
from sumprobe.errors import HarnessError
from sumprobe.pylex import (
    Category,
    NoFunctionError,
    Role,
    UnlexableError,
    categories,
    classify_roles,
    function_name_at,
    lex,
    lexemes,
)
from sumprobe.transform import (
    DonorCollisionError,
    InvalidDonorError,
    ShiftCollisionError,
    Snippet,
    Variant,
    _comment_free,
    apply_variant,
    donor_assignment,
    donor_entries,
    shift_name,
)

from corpusgen import UNLEXABLE_SNIPPETS, sample_pairs


def ex(code, reference="does a thing with words", id="e0"):
    return Example(id=id, code=code, reference=reference)


_UNSHIFT = str.maketrans(
    "bcdefghijklmnopqrstuvwxyzaBCDEFGHIJKLMNOPQRSTUVWXYZA",
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ",
)


def unshift_name(name):
    """Inverse of shift_name (the -1 letter shift)."""
    return name.translate(_UNSHIFT)


def obfuscated(code):
    return Snippet.of(code).text(Variant.OBFUSCATED_NAMES)


def adversarial(code, donor):
    return Snippet.of(code).text(Variant.ADVERSARIAL_NAMES, donor)


def no_structure(code):
    return Snippet.of(code).text(Variant.NO_CODE_STRUCTURE)


def no_body(code):
    return Snippet.of(code).text(Variant.NO_FUNCTION_BODY)


# --- comment stripping ----------------------------------------------------


def stripped(code):
    """The comment-free text Snippet splits at the defined name, which the
    renaming variants join; these snippets define none, so it is whole."""
    (segment,) = Snippet.of(code, ()).segments
    return segment


def test_strip_trailing_comment_takes_its_gap():
    assert stripped("x=1  # note") == "x=1"
    assert no_structure("x=1  # note") == "x 1"


def test_strip_whole_line_comment_takes_newline():
    assert stripped("# only comment\nx=1") == "x=1"
    assert no_structure("# only comment\nx=1") == "x 1"


def test_strip_indented_comment_line():
    assert stripped("x=1\n    # c\ny=2") == "x=1\ny=2"
    assert no_structure("x=1\n    # c\ny=2") == "x 1\ny 2"


def test_strip_keeps_comment_free_input_identical():
    src = "def f(x):\n    return x\n"
    assert adversarial(src, "f") == src
    found = lexemes(src)
    assert _comment_free(found, categories(found)) == (found, categories(found))


def test_strip_keeps_blank_lines():
    assert stripped("x=1\n\n# gone\ny=2\n") == "x=1\n\ny=2\n"
    assert no_structure("x=1\n\n# gone\ny=2\n") == "x 1\n\ny 2\n"


def test_strip_does_not_touch_hash_in_string():
    src = "x = 'a # b'\n"
    assert stripped(src) == src
    assert no_structure(src) == "x 'a # b'\n"


# --- obfuscation ----------------------------------------------------------


def test_shift_examples():
    assert shift_name("from_url") == "gspn_vsm"
    assert shift_name("z9_A") == "a9_B"
    assert unshift_name(shift_name("compute_total_2")) == "compute_total_2"


def test_obfuscate_renames_all_occurrences():
    assert obfuscated("def f(): return f()") == "def g(): return g()"


def test_obfuscate_leaves_other_identifiers():
    src = "def add(a, b):\n    return adder(a) + b\n"
    assert obfuscated(src) == "def bee(a, b):\n    return adder(a) + b\n"


def test_obfuscate_requires_def():
    with pytest.raises(NoFunctionError):
        obfuscated("x = 1")


def test_obfuscate_is_inverted_by_reverse_shift():
    for code, _ in sample_pairs(60, seed=3):
        found = lexemes(code)
        free, _ = _comment_free(found, categories(found))
        at = function_name_at(free)
        names = {i for i in range(at, len(free)) if free[i] == free[at]}
        relexed = lex(obfuscated(code))
        back = [unshift_name(t.lexeme) if i in names else t.lexeme for i, t in enumerate(relexed)]
        assert "".join(back) == "".join(free)


@pytest.mark.parametrize(
    "src, shifted",
    [
        ("def f(g):\n    return f(g)\n", "g"),  # would merge with the parameter
        ("def hm(x):\n    return hm(x - 1)\n", "in"),  # would become a keyword
    ],
)
def test_obfuscate_refuses_a_taken_shifted_name(src, shifted):
    with pytest.raises(ShiftCollisionError, match=f"'{shifted}' is taken"):
        obfuscated(src)


def test_obfuscate_does_not_touch_strings():
    src = "def log(x):\n    # log everything\n    return 'log: ' + x\n"
    assert obfuscated(src) == "def mph(x):\n    return 'log: ' + x\n"


# --- adversarial ----------------------------------------------------------


def test_adversarialize_replaces_name():
    assert adversarial("def add(a,b): return a+b", "save_file") == "def save_file(a,b): return a+b"


def test_adversarialize_collision():
    with pytest.raises(DonorCollisionError):
        adversarial("def add(a, total): return total", "total")


def test_adversarialize_same_name_is_identity():
    src = "def add(a): return a"
    assert adversarial(src, "add") == src


def test_adversarialize_rejects_bad_identifier():
    with pytest.raises(InvalidDonorError):
        adversarial("def f(): pass", "not an identifier")
    # the lexer takes f² for an identifier; Python does not
    assert [t.category for t in lex("f²")] == [Category.IDENTIFIER]
    with pytest.raises(InvalidDonorError):
        adversarial("def f(): pass", "f²")


def test_adversarialize_preserves_every_other_token():
    src = "def fetch_user(uid):\n    return DB.fetch_user_row(uid)\n"
    out = lex(adversarial(src, "save_config"))
    roles = classify_roles(lex(src))
    assert len(out) == len(roles)
    for rt, new in zip(roles, out):
        if rt.role is Role.FUNCTION_NAME:
            assert new.lexeme == "save_config"
        else:
            assert new.lexeme == rt.base.lexeme
            assert new.category == rt.base.category


# --- donor selection ------------------------------------------------------


def built_entries(corpus):
    """The donor entries of the examples that lex, from the snippets that
    transform builds."""
    snippets = []
    for e in corpus:
        try:
            snippets.append((e, Snippet.of(e.code)))
        except UnlexableError:
            pass
    return donor_entries(snippets)


def two_example_corpus():
    return [
        ex("def load_user(a):\n    return a\n", id="a"),
        ex("def save_item(b):\n    return b\n", id="b"),
    ]


def test_two_example_corpus_swaps_names():
    corpus = two_example_corpus()
    assert donor_assignment(built_entries(corpus), seed=1) == {"a": "save_item", "b": "load_user"}


def test_donor_assignment_deterministic():
    corpus = [ex(f"def name_{i}(x):\n    return x\n", id=f"e{i}") for i in range(8)]
    first = donor_assignment(built_entries(corpus), seed=42)
    second = donor_assignment(built_entries(corpus), seed=42)
    assert first == second
    assert set(first) == {e.id for e in corpus}
    assert all(first[e.id] != f"name_{i}" for i, e in enumerate(corpus))


def test_all_names_identical_has_no_donor():
    corpus = [ex("def same(x):\n    return x\n", id=f"e{i}") for i in range(3)]
    assert donor_assignment(built_entries(corpus), seed=0) == {}


def test_assignment_avoids_in_snippet_collisions():
    corpus = [
        ex("def alpha(x):\n    return beta(x)\n", id="a"),
        ex("def beta(x):\n    return x\n", id="b"),
        ex("def gamma(x):\n    return x\n", id="c"),
    ]
    assignment = donor_assignment(built_entries(corpus), seed=5)
    # alpha's code already mentions beta, so beta can never be its donor
    assert assignment["a"] == "gamma"


def lexed_entries(corpus):
    """(id, own name, identifier lexemes) of each example that lexes and
    defines a function, read from its full token stream and roles."""
    entries = []
    for ex in corpus:
        try:
            stream = lex(ex.code)
            name = next(rt.base.lexeme for rt in classify_roles(stream)
                        if rt.role is Role.FUNCTION_NAME)
        except (UnlexableError, StopIteration):
            continue
        idents = {
            t.lexeme for t in stream if t.category is Category.IDENTIFIER
        }
        entries.append((ex.id, name, idents))
    return entries


def quadratic_donor_assignment(entries, seed):
    """Reference for donor_assignment: it lists the fitting unused slots
    for every target, in O(n) each, and draws from that list."""
    rng = random.Random(seed)
    pool = [name for _, name, _ in entries]
    used = [False] * len(pool)
    assignment = {}
    for ex_id, own, idents in entries:
        def fits(name):
            return name != own and name not in idents

        fresh = [k for k, name in enumerate(pool) if not used[k] and fits(name)]
        if fresh:
            k = rng.choice(fresh)
            used[k] = True
            assignment[ex_id] = pool[k]
            continue
        reusable = sorted({name for j, (_, name, _) in enumerate(entries) if fits(name)})
        if reusable:
            assignment[ex_id] = rng.choice(reusable)
    return assignment


def crowded_corpus(n, names, seed):
    """Snippets sharing a few names, each calling a random subset of them;
    one in five calls every name."""
    rng = random.Random(seed)
    corpus = []
    for i in range(n):
        called = names if i % 5 == 0 else rng.sample(names, rng.randint(0, len(names) - 1))
        body = " + ".join(f"{name}(x)" for name in called) or "x"
        corpus.append(ex(f"def {rng.choice(names)}(x):\n    return {body}\n", id=f"c{i}"))
    return corpus


def edge_corpora():
    yield two_example_corpus()
    yield [ex(f"def name_{i}(x):\n    return x\n", id=f"e{i}") for i in range(8)]
    yield [ex("def same(x):\n    return x\n", id=f"e{i}") for i in range(3)]
    yield [
        ex("def alpha(x):\n    return beta(x)\n", id="a"),
        ex("def beta(x):\n    return x\n", id="b"),
        ex("def gamma(x):\n    return x\n", id="c"),
    ]
    yield [ex(code, id=f"u{i}") for i, code in enumerate(
        UNLEXABLE_SNIPPETS + ["x = 1\n", "def (x):\n    pass\n", "def f(x):\n    return g(x)\n",
                              "def g(y):\n    return f(y)\n", "# def h(z):\ndef h(z): pass\n"]
    )]
    yield []


def test_donor_assignment_matches_the_quadratic_oracle(caplog):
    corpora = [(corpus, 9) for corpus in edge_corpora()]
    for seed in (3, 4, 5):
        corpora.append((crowded_corpus(300, ["load", "save", "scan"], seed), seed))
        corpora.append((crowded_corpus(200, [f"name_{i}" for i in range(12)], seed), seed))
    with caplog.at_level(logging.INFO, logger="sumprobe.transform"):
        for corpus, seed in corpora:
            built = built_entries(corpus)
            expected = lexed_entries(corpus)
            assert [(e.id, e.name, set(e.identifiers)) for e in built] == expected
            assert donor_assignment(built, seed) == quadratic_donor_assignment(expected, seed)
    # the crowded corpora reach the reuse fallback, and leave targets
    # without any donor
    assert "donor pool exhausted" in caplog.text
    crowded = crowded_corpus(300, ["load", "save", "scan"], 3)
    assert len(donor_assignment(built_entries(crowded), 3)) < len(crowded)


def test_donor_assignment_matches_the_oracle_on_generated_corpora():
    for seed in (3, 4, 5):
        corpus = [ex(code, id=f"s{i}") for i, (code, _) in enumerate(sample_pairs(2000, seed))]
        built = built_entries(corpus)
        expected = lexed_entries(corpus)
        assert [(e.id, e.name, set(e.identifiers)) for e in built] == expected
        for n in (1000, 2000):
            got = donor_assignment(built[:n], seed)
            assert got == quadratic_donor_assignment(expected[:n], seed)


# --- structure removal ----------------------------------------------------


def test_remove_structure_spec_examples():
    assert no_structure("if not x:\n    return x + 1") == "x\n    x 1"
    assert no_structure("y = f(a)") == "y f a"
    assert no_structure("a b\n    c d") == "a b\n    c d"


def test_remove_structure_keeps_strings_and_numbers():
    assert no_structure("x = 'lit'  # note\ny = 0x10\n") == "x 'lit'\ny 0x10\n"


def test_remove_structure_empty_line_keeps_newline():
    assert no_structure("try:\n    pass\n") == "\n\n"


def test_remove_structure_relex_has_no_structure():
    for code, _ in sample_pairs(60, seed=4):
        out = no_structure(code)
        for tok in lex(out):
            assert tok.category not in (
                Category.KEYWORD,
                Category.OPERATOR,
                Category.DELIMITER,
            ), (code, out, tok)


# --- body removal ---------------------------------------------------------


def test_remove_body_examples():
    assert no_body("def f(x):\n    return x") == "def f(x):"
    assert no_body("def f(a,\n    b):\n    pass") == "def f(a,\n    b):"
    assert no_body("def f(x):") == "def f(x):"


def test_remove_body_strips_comments_inside_the_signature():
    src = "def f(a,  # first\n      b):  # done\n    pass"
    assert no_body(src) == "def f(a,\n      b):"


def test_remove_body_requires_def():
    with pytest.raises(NoFunctionError):
        no_body("x = 1")


# --- apply_variant --------------------------------------------------------


def test_apply_original_is_identity():
    example = ex("def f(x):  # keep me\n    return x\n")
    assert apply_variant(example, Variant.ORIGINAL) is example


def test_apply_never_touches_reference():
    example = ex("def f(x):\n    # c\n    return x\n", reference="the reference text")
    for variant in Variant:
        donor = "other_name" if variant is Variant.ADVERSARIAL_NAMES else None
        out = apply_variant(example, variant, donor)
        assert out.reference == example.reference
        assert out.id == example.id


def test_apply_strips_comments_before_transforming():
    example = ex("def f(x):\n    # secret hint\n    return x\n")
    out = apply_variant(example, Variant.NO_CODE_STRUCTURE)
    assert "secret" not in out.code
    out = apply_variant(example, Variant.OBFUSCATED_NAMES)
    assert "# secret hint" not in out.code


def test_apply_no_function_body():
    example = ex("def f(x):\n    return x\n")
    out = apply_variant(example, Variant.NO_FUNCTION_BODY)
    assert out.code == "def f(x):"


def test_apply_adversarial_needs_donor():
    with pytest.raises(HarnessError, match="no usable donor name"):
        apply_variant(ex("def f(x):\n    return x\n"), Variant.ADVERSARIAL_NAMES)
