"""Tests for the basic syntactic types."""

import pytest

from aspalgebra.core import (
    Alphabet,
    Interpretation,
    Literal,
    Program,
    Rule,
    check_atom_name,
    permutation_program,
    unit_program,
)
from aspalgebra.errors import (
    AlphabetMismatchError,
    NotBijectiveError,
    NotHornError,
    ReservedAtomError,
)

A3 = Alphabet(("a", "b", "c"))


def test_alphabet_normalizes_and_orders():
    alpha = Alphabet(("c", "a", "b", "a"))
    assert alpha.atoms == ("a", "b", "c")
    assert "b" in alpha
    assert "z" not in alpha
    assert len(alpha) == 3
    assert str(alpha) == "{a, b, c}"
    assert list(alpha) == ["a", "b", "c"]


def test_alphabet_union():
    assert Alphabet(("a",)).union(Alphabet(("b",))) == Alphabet(("a", "b"))


def test_alphabet_rejects_bad_names():
    with pytest.raises(ValueError):
        Alphabet(("A",))
    with pytest.raises(ValueError):
        Alphabet(("1a",))
    with pytest.raises(ReservedAtomError):
        Alphabet(("t",))
    with pytest.raises(ReservedAtomError):
        Alphabet(("a", "f"))


def test_alphabet_rejects_the_not_keyword():
    with pytest.raises(ValueError):
        Alphabet(("not",))
    check_atom_name("nota")


def test_check_atom_name_accepts_word_shapes():
    for name in ("a", "p1", "aliceBob", "x_y_2"):
        check_atom_name(name)


def test_literal_complement_and_order():
    lit = Literal("a")
    neg = lit.complement()
    assert neg == Literal("a", True)
    assert neg.complement() == lit
    assert str(lit) == "a"
    assert str(neg) == "not a"


def test_rule_basics():
    fact = Rule.fact("a")
    assert fact.is_fact
    assert fact.size == 0
    assert str(fact) == "a."

    rule = Rule("a", frozenset({"b"}), frozenset({"c"}))
    assert not rule.is_fact
    assert rule.size == 2
    assert rule.atoms() == frozenset({"a", "b", "c"})
    assert str(rule) == "a :- b, not c."


def test_rule_parts_and_hornified():
    rule = Rule("a", frozenset({"b"}), frozenset({"c", "d"}))
    assert rule.positive_part() == Rule("a", frozenset({"b"}))
    assert rule.negative_part() == Rule("a", frozenset(), frozenset({"c", "d"}))
    assert rule.hornified() == Rule("a", frozenset({"b", "c", "d"}))


def test_rule_sort_key_orders_by_head_then_bodies():
    rules = [
        Rule("b", frozenset({"a"})),
        Rule("a", frozenset({"b"}), frozenset({"c"})),
        Rule("a", frozenset({"b"})),
        Rule.fact("a"),
    ]
    ordered = sorted(rules, key=lambda r: r.sort_key())
    assert [str(r) for r in ordered] == [
        "a.",
        "a :- b.",
        "a :- b, not c.",
        "b :- a.",
    ]


def test_program_validates_alphabet():
    with pytest.raises(AlphabetMismatchError):
        Program(Alphabet(("a",)), frozenset({Rule("a", frozenset({"b"}))}))


def test_program_accessors():
    p = Program(
        A3,
        frozenset(
            {
                Rule.fact("a"),
                Rule("b", frozenset({"a"})),
                Rule("b", frozenset(), frozenset({"c"})),
            }
        ),
    )
    assert len(p) == 3
    assert p.heads() == frozenset({"a", "b"})
    assert p.fact_atoms() == frozenset({"a"})
    assert p.facts().rules == frozenset({Rule.fact("a")})
    assert p.proper().rules == p.rules - {Rule.fact("a")}
    assert p.facts() | p.proper() == p
    # key is (head, pos body, neg body): an empty positive body sorts first
    assert [str(r) for r in p.sorted_rules()] == ["a.", "b :- not c.", "b :- a."]
    assert set(p.rules_by_head()["b"]) == {
        Rule("b", frozenset({"a"})),
        Rule("b", frozenset(), frozenset({"c"})),
    }


def test_program_parts():
    p = Program(A3, frozenset({Rule("a", frozenset({"b"}), frozenset({"c"}))}))
    assert p.positive_part().rules == frozenset({Rule("a", frozenset({"b"}))})
    assert p.negative_part().rules == frozenset(
        {Rule("a", frozenset(), frozenset({"c"}))}
    )
    assert p.hornified().rules == frozenset({Rule("a", frozenset({"b", "c"}))})


def test_classification():
    horn = Program(A3, frozenset({Rule("a", frozenset({"b", "c"}))}))
    krom = Program(A3, frozenset({Rule.fact("a"), Rule("b", frozenset({"c"}))}))
    negative = Program(A3, frozenset({Rule("a", frozenset(), frozenset({"b"}))}))
    mixed = Program(A3, frozenset({Rule("a", frozenset({"b"}), frozenset({"c"}))}))

    assert horn.is_horn and not horn.is_krom_horn and not horn.is_negative
    assert krom.is_krom_horn and krom.is_horn
    assert negative.is_negative and not negative.is_horn
    assert not mixed.is_horn and not mixed.is_negative

    flags = krom.classify()
    assert flags.horn and flags.krom_horn
    # facts count as both Horn and negative
    facts = Program(A3, frozenset({Rule.fact("a")}))
    assert facts.is_horn and facts.is_negative and facts.is_krom_horn


def test_minimalistic_classification():
    p = Program(A3, frozenset({Rule("a", frozenset({"b"}))}))
    assert p.is_minimalistic
    q = Program(
        A3,
        frozenset({Rule("a", frozenset({"b"})), Rule("a", frozenset({"c"}))}),
    )
    assert not q.is_minimalistic


def test_union_requires_same_alphabet():
    p = Program(A3, frozenset({Rule.fact("a")}))
    q = Program(Alphabet(("a", "b")), frozenset({Rule.fact("b")}))
    with pytest.raises(AlphabetMismatchError):
        p.union(q)
    assert (p | Program(A3, frozenset({Rule.fact("b")}))).fact_atoms() == frozenset(
        {"a", "b"}
    )


def test_with_alphabet_rehomes():
    p = Program(Alphabet(("a",)), frozenset({Rule.fact("a")}))
    q = p.with_alphabet(A3)
    assert q.alphabet == A3
    assert q.rules == p.rules


def test_rename_maps_every_atom_and_keeps_the_alphabet():
    p = Program(
        A3,
        frozenset({Rule.fact("a"), Rule("b", frozenset({"a"}), frozenset({"c"}))}),
    )
    renamed = p.rename({"a": "b", "b": "a"})  # c is a fixed point
    assert renamed.alphabet == A3
    assert renamed.rules == frozenset(
        {Rule.fact("b"), Rule("a", frozenset({"b"}), frozenset({"c"}))}
    )


def test_dual_swaps_heads_and_bodies():
    p = Program(
        A3,
        frozenset({Rule.fact("a"), Rule("a", frozenset({"b", "c"}))}),
    )
    assert p.dual().rules == frozenset(
        {Rule.fact("a"), Rule("b", frozenset({"a"})), Rule("c", frozenset({"a"}))}
    )


def test_dual_requires_horn():
    p = Program(A3, frozenset({Rule("a", frozenset(), frozenset({"b"}))}))
    with pytest.raises(NotHornError):
        p.dual()


def test_interpretation_behaves_like_a_set():
    i = Interpretation(A3, frozenset({"b", "a"}))
    assert "a" in i and "c" not in i
    assert len(i) == 2
    assert list(i) == ["a", "b"]
    assert str(i) == "{a, b}"
    assert i.complement() == Interpretation(A3, frozenset({"c"}))


def test_interpretation_to_and_from_program():
    i = Interpretation(A3, frozenset({"a", "c"}))
    p = i.to_program()
    assert p.rules == frozenset({Rule.fact("a"), Rule.fact("c")})
    assert Interpretation.from_fact_program(p) == i
    proper = Program(A3, frozenset({Rule("a", frozenset({"b"}))}))
    with pytest.raises(ValueError):
        Interpretation.from_fact_program(proper)


def test_interpretation_validates_atoms():
    with pytest.raises(AlphabetMismatchError):
        Interpretation(Alphabet(("a",)), frozenset({"b"}))


def test_unit_program():
    u = unit_program(A3)
    assert u.rules == frozenset(
        {Rule(a, frozenset({a})) for a in ("a", "b", "c")}
    )
    assert u.is_krom_horn


def test_permutation_program():
    p = permutation_program(A3, {"a": "b", "b": "a"})
    assert p.rules == frozenset(
        {
            Rule("b", frozenset({"a"})),
            Rule("a", frozenset({"b"})),
            Rule("c", frozenset({"c"})),
        }
    )
    assert p.dual() == permutation_program(A3, {"b": "a", "a": "b"})


def test_permutation_program_rejects_bad_mappings():
    with pytest.raises(NotBijectiveError):
        permutation_program(A3, {"a": "b", "b": "b"})
    with pytest.raises(AlphabetMismatchError):
        permutation_program(A3, {"a": "z"})
