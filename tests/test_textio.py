"""Tests for parsing and canonical serialization."""

import random

import pytest

from aspalgebra.core import Alphabet, Interpretation, Literal, Program, Rule
from aspalgebra.errors import (
    NotBijectiveError,
    ParseError,
    ReservedAtomError,
    UndeclaredAtomError,
)
from aspalgebra.textio import (
    parse_interpretation,
    parse_literals,
    parse_permutation,
    parse_program,
    serialize_interpretation,
    serialize_permutation,
    serialize_program,
)


def test_parse_simple_program():
    p = parse_program("a :- b, not c.\nb.\n")
    assert p.alphabet == Alphabet(("a", "b", "c"))
    assert p.rules == frozenset(
        {Rule("a", frozenset({"b"}), frozenset({"c"})), Rule.fact("b")}
    )


def test_parse_with_directive_and_comments():
    text = """
    % facts first
    #alphabet a, b, c, d.
    a.  % trailing comment
    b :- a.
    """
    p = parse_program(text)
    assert p.alphabet == Alphabet(("a", "b", "c", "d"))
    assert len(p) == 2


def test_parse_accepts_arrow_variant():
    p = parse_program("a ← b, not c.")
    assert p.rules == frozenset({Rule("a", frozenset({"b"}), frozenset({"c"}))})


def test_parse_empty_program_with_directive():
    p = parse_program("#alphabet a, b.")
    assert p.alphabet == Alphabet(("a", "b"))
    assert len(p) == 0


def test_parse_empty_alphabet_directive():
    p = parse_program("#alphabet.")
    assert p.alphabet == Alphabet(())
    assert len(p) == 0


def test_parse_multiple_directives_union():
    p = parse_program("#alphabet a.\n#alphabet b.\na :- b.")
    assert p.alphabet == Alphabet(("a", "b"))


def test_undeclared_atom_is_an_error():
    with pytest.raises(UndeclaredAtomError) as info:
        parse_program("#alphabet a.\na :- b.")
    assert "b" in str(info.value)


def test_reserved_atoms_rejected_with_position():
    with pytest.raises(ReservedAtomError) as info:
        parse_program("a :- t.")
    assert info.value.line == 1
    with pytest.raises(ReservedAtomError):
        parse_program("f.")


def test_parse_error_positions():
    with pytest.raises(ParseError) as info:
        parse_program("a :- b\nc.")
    assert info.value.line == 2
    with pytest.raises(ParseError) as info:
        parse_program("a :- , b.")
    assert info.value.line == 1
    with pytest.raises(ParseError):
        parse_program("a :- not not b.")
    with pytest.raises(ParseError):
        parse_program("a :- not.")
    with pytest.raises(ParseError):
        parse_program("a ? b.")


def test_parse_error_reports_origin():
    with pytest.raises(ParseError) as info:
        parse_program("a :-", origin="bad.lp")
    assert "bad.lp" in str(info.value)


def test_serialize_is_canonical():
    p = parse_program("b :- a.\na.\nb :- not c, a.")
    assert serialize_program(p) == (
        "#alphabet a, b, c.\n" "a.\n" "b :- a.\n" "b :- a, not c.\n"
    )


def test_serialize_empty_program():
    assert serialize_program(Program(Alphabet(("a",)))) == "#alphabet a.\n"
    assert serialize_program(Program(Alphabet(()))) == "#alphabet.\n"


def test_round_trip_preserves_program():
    p = parse_program("#alphabet a, b, c, d.\na :- b, not c.\nd.")
    assert parse_program(serialize_program(p)) == p


def test_round_trip_random_programs():
    rng = random.Random(20240814)
    atoms = ("a", "b", "c", "d")
    alphabet = Alphabet(atoms)
    for _ in range(300):
        rules = set()
        for _ in range(rng.randint(0, 5)):
            pos, neg = set(), set()
            for _ in range(rng.randint(0, 3)):
                (neg if rng.random() < 0.5 else pos).add(rng.choice(atoms))
            rules.add(Rule(rng.choice(atoms), frozenset(pos), frozenset(neg)))
        p = Program(alphabet, frozenset(rules))
        text = serialize_program(p)
        assert parse_program(text) == p
        assert serialize_program(parse_program(text)) == text


def test_parse_interpretation():
    alpha = Alphabet(("a", "b", "c"))
    assert parse_interpretation("b, a", alpha) == Interpretation(
        alpha, frozenset({"a", "b"})
    )
    assert parse_interpretation("", alpha) == Interpretation(alpha, frozenset())
    with pytest.raises(UndeclaredAtomError):
        parse_interpretation("z", alpha)
    with pytest.raises(ReservedAtomError):
        parse_interpretation("t", alpha)


def test_serialize_interpretation():
    alpha = Alphabet(("a", "b", "c"))
    assert serialize_interpretation(Interpretation(alpha, frozenset({"c", "a"}))) == "a, c"
    assert serialize_interpretation(Interpretation(alpha, frozenset())) == ""


def test_parse_literals():
    alpha = Alphabet(("a", "b", "c"))
    lits = parse_literals("a, not c", alpha)
    assert lits == frozenset({Literal("a"), Literal("c", True)})
    assert parse_literals("", alpha) == frozenset()
    with pytest.raises(ParseError):
        parse_literals("not", alpha)
    with pytest.raises(UndeclaredAtomError):
        parse_literals("not z", alpha)


@pytest.mark.parametrize("text", ["a,,b", "a,", ", a", " , "])
def test_atom_and_literal_lists_reject_empty_entries(text):
    alpha = Alphabet(("a", "b"))
    with pytest.raises(ParseError, match="empty entry in atom list"):
        parse_interpretation(text, alpha)
    with pytest.raises(ParseError, match="empty entry in literal list"):
        parse_literals(text, alpha)


def test_lists_without_alphabet_range_over_their_atoms():
    assert parse_interpretation("b, a") == Interpretation(
        Alphabet(("a", "b")), frozenset({"a", "b"})
    )
    assert parse_interpretation(" ") == Interpretation(Alphabet(()), frozenset())
    assert parse_literals("a, not\tc") == frozenset({Literal("a"), Literal("c", True)})


def test_not_is_no_atom_in_lists():
    alpha = Alphabet(("a", "b"))
    with pytest.raises(ParseError, match="invalid atom name 'not'"):
        parse_interpretation("not", alpha)
    with pytest.raises(ParseError, match="invalid literal 'not not'"):
        parse_literals("not not", alpha)
    with pytest.raises(ParseError, match="invalid atom name 'not' in permutation"):
        parse_permutation("(a not)")


def test_parse_permutation_cycles():
    assert parse_permutation("(a b)(c)") == {"a": "b", "b": "a", "c": "c"}
    assert parse_permutation("(a b c)") == {"a": "b", "b": "c", "c": "a"}
    assert parse_permutation("") == {}
    with pytest.raises(NotBijectiveError):
        parse_permutation("(a b)(b c)")
    with pytest.raises(ParseError):
        parse_permutation("(a b) junk")
    with pytest.raises(ReservedAtomError):
        parse_permutation("(a t)")


def test_permutation_round_trip():
    alpha = Alphabet(("a", "b", "c", "d"))
    mapping = {"a": "b", "b": "a", "c": "d", "d": "c"}
    text = serialize_permutation(mapping, alpha)
    assert parse_permutation(text) == mapping
    assert serialize_permutation({}, alpha) == "(a)(b)(c)(d)"
