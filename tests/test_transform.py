import pytest

from sumprobe.corpus import Example
from sumprobe.pylex import Category, NoFunctionError, Role, classify_roles, lex
from sumprobe.transform import (
    DonorCollisionError,
    Variant,
    adversarialize,
    apply_variant,
    deobfuscate_function_names,
    donor_assignment,
    obfuscate_function_names,
    remove_code_structure,
    remove_function_body,
    shift_name,
    strip_comments,
    unshift_name,
)

from corpusgen import sample_pairs


def ex(code, reference="does a thing with words", id="e0"):
    return Example(id=id, code=code, reference=reference)


# --- strip_comments -------------------------------------------------------


def test_strip_trailing_comment_takes_its_gap():
    assert strip_comments(lex("x=1  # note")).text == "x=1"


def test_strip_whole_line_comment_takes_newline():
    assert strip_comments(lex("# only comment\nx=1")).text == "x=1"


def test_strip_indented_comment_line():
    assert strip_comments(lex("x=1\n    # c\ny=2")).text == "x=1\ny=2"


def test_strip_keeps_comment_free_input_identical():
    src = "def f(x):\n    return x\n"
    assert list(strip_comments(lex(src))) == list(lex(src))


def test_strip_keeps_blank_lines():
    assert strip_comments(lex("x=1\n\n# gone\ny=2\n")).text == "x=1\n\ny=2\n"


def test_strip_does_not_touch_hash_in_string():
    src = "x = 'a # b'\n"
    assert strip_comments(lex(src)).text == src


# --- obfuscation ----------------------------------------------------------


def test_shift_examples():
    assert shift_name("from_url") == "gspn_vsm"
    assert shift_name("z9_A") == "a9_B"
    assert unshift_name(shift_name("compute_total_2")) == "compute_total_2"


def test_obfuscate_renames_all_occurrences():
    out = obfuscate_function_names(lex("def f(): return f()"))
    assert out.text == "def g(): return g()"


def test_obfuscate_leaves_other_identifiers():
    src = "def add(a, b):\n    return adder(a) + b\n"
    out = obfuscate_function_names(lex(src)).text
    assert out == "def bee(a, b):\n    return adder(a) + b\n"


def test_obfuscate_requires_def():
    with pytest.raises(NoFunctionError):
        obfuscate_function_names(lex("x = 1"))


def test_obfuscate_is_inverted_by_reverse_shift():
    for code, _ in sample_pairs(60, seed=3):
        stream = lex(code)
        assert deobfuscate_function_names(obfuscate_function_names(stream)).text == code


def test_obfuscate_does_not_touch_strings_or_comments():
    src = "def log(x):\n    # log everything\n    return 'log: ' + x\n"
    out = obfuscate_function_names(lex(src)).text
    assert "# log everything" in out
    assert "'log: '" in out
    assert "def mph(" in out


# --- adversarial ----------------------------------------------------------


def test_adversarialize_replaces_name():
    out = adversarialize(lex("def add(a,b): return a+b"), "save_file")
    assert out.text == "def save_file(a,b): return a+b"


def test_adversarialize_collision():
    with pytest.raises(DonorCollisionError):
        adversarialize(lex("def add(a, total): return total"), "total")


def test_adversarialize_same_name_is_identity():
    src = "def add(a): return a"
    assert adversarialize(lex(src), "add").text == src


def test_adversarialize_rejects_bad_identifier():
    with pytest.raises(ValueError):
        adversarialize(lex("def f(): pass"), "not an identifier")


def test_adversarialize_preserves_every_other_token():
    src = "def fetch_user(uid):\n    return DB.fetch_user_row(uid)\n"
    stream = lex(src)
    out = adversarialize(stream, "save_config")
    roles = classify_roles(stream)
    assert len(out) == len(stream)
    for rt, new in zip(roles, out):
        if rt.role is Role.FUNCTION_NAME:
            assert new.lexeme == "save_config"
        else:
            assert new.lexeme == rt.base.lexeme
            assert new.category == rt.base.category


# --- donor selection ------------------------------------------------------


def two_example_corpus():
    return [
        ex("def load_user(a):\n    return a\n", id="a"),
        ex("def save_item(b):\n    return b\n", id="b"),
    ]


def test_two_example_corpus_swaps_names():
    corpus = two_example_corpus()
    assert donor_assignment(corpus, seed=1) == {"a": "save_item", "b": "load_user"}


def test_donor_assignment_deterministic():
    corpus = [ex(f"def name_{i}(x):\n    return x\n", id=f"e{i}") for i in range(8)]
    first = donor_assignment(corpus, seed=42)
    second = donor_assignment(corpus, seed=42)
    assert first == second
    assert set(first) == {e.id for e in corpus}
    assert all(first[e.id] != f"name_{i}" for i, e in enumerate(corpus))


def test_all_names_identical_has_no_donor():
    corpus = [ex("def same(x):\n    return x\n", id=f"e{i}") for i in range(3)]
    assert donor_assignment(corpus, seed=0) == {}


def test_assignment_avoids_in_snippet_collisions():
    corpus = [
        ex("def alpha(x):\n    return beta(x)\n", id="a"),
        ex("def beta(x):\n    return x\n", id="b"),
        ex("def gamma(x):\n    return x\n", id="c"),
    ]
    assignment = donor_assignment(corpus, seed=5)
    # alpha's code already mentions beta, so beta can never be its donor
    assert assignment["a"] == "gamma"


# --- structure removal ----------------------------------------------------


def test_remove_structure_spec_examples():
    assert remove_code_structure(lex("if not x:\n    return x + 1")).text == "x\n    x 1"
    assert remove_code_structure(lex("y = f(a)")).text == "y f a"
    assert remove_code_structure(lex("a b\n    c d")).text == "a b\n    c d"


def test_remove_structure_keeps_strings_comments_numbers():
    out = remove_code_structure(lex("x = 'lit'  # note\ny = 0x10\n")).text
    assert out == "x 'lit' # note\ny 0x10\n"


def test_remove_structure_empty_line_keeps_newline():
    assert remove_code_structure(lex("try:\n    pass\n")).text == "\n\n"


def test_remove_structure_relex_has_no_structure():
    for code, _ in sample_pairs(60, seed=4):
        out = remove_code_structure(lex(code))
        for tok in lex(out.text):
            assert tok.category not in (
                Category.KEYWORD,
                Category.OPERATOR,
                Category.DELIMITER,
            ), (code, out.text, tok)


# --- body removal ---------------------------------------------------------


def test_remove_body_examples():
    assert remove_function_body(lex("def f(x):\n    return x")).text == "def f(x):"
    assert (
        remove_function_body(lex("def f(a,\n    b):\n    pass")).text
        == "def f(a,\n    b):"
    )
    assert remove_function_body(lex("def f(x):")).text == "def f(x):"


def test_remove_body_requires_def():
    with pytest.raises(NoFunctionError):
        remove_function_body(lex("x = 1"))


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
    with pytest.raises(ValueError):
        apply_variant(ex("def f(x):\n    return x\n"), Variant.ADVERSARIAL_NAMES)
