"""Tests for the syntactic operators: worked examples and small laws.

The golden values come from hand-computed compositions and negations of
small programs; several of them double as counterexamples showing which
identities fail (non-associativity, non-distributivity from the left,
non-idempotence of cup).
"""

import random

import pytest

from aspalgebra.compose import (
    compose,
    compose_oracle,
    cup,
    kleene_plus,
    kleene_star,
    negate_program,
    omega,
    ominus,
    oplus,
    or_transform,
    power,
    tf_transform,
)
from aspalgebra.core import (
    Alphabet,
    Interpretation,
    Literal,
    Program,
    Rule,
    TruthConst,
    unit_program,
)
from aspalgebra.errors import AlphabetMismatchError
from aspalgebra.semantics import all_interpretations, tp_direct
from aspalgebra.textio import parse_program, serialize_program

A2 = Alphabet(("a", "b"))
A3 = Alphabet(("a", "b", "c"))
A4 = Alphabet(("a", "b", "c", "d"))

R_BODY_CHOICE = parse_program(
    "#alphabet a, b, c, d.\nb :- not c, not d.\nb :- c, d."
)
R_NEGATED_HEAD = parse_program("#alphabet a, b, c, d.\na :- not b.")


def test_tf_makes_truth_values_explicit():
    assert serialize_program(tf_transform(R_BODY_CHOICE)) == (
        "#alphabet a, b, c, d.\n"
        "a :- f.\n"
        "b :- c, d.\n"
        "b :- not c, not d.\n"
        "c :- f.\n"
        "d :- f.\n"
    )


def test_tf_rewrites_facts_to_true():
    p = parse_program("#alphabet a, b.\na.")
    assert serialize_program(tf_transform(p)) == (
        "#alphabet a, b.\na :- t.\nb :- f.\n"
    )


def test_or_transform_groups_bodies_per_head():
    grouped = or_transform(tf_transform(R_BODY_CHOICE))
    by_head = {rule.head: rule.bodies for rule in grouped.rules}
    assert set(by_head) == {"a", "b", "c", "d"}
    assert by_head["a"] == (frozenset({TruthConst.FALSE}),)
    assert by_head["b"] == (
        frozenset({Literal("c"), Literal("d")}),
        frozenset({Literal("c", True), Literal("d", True)}),
    )


def test_negation_of_body_choice_program():
    assert serialize_program(negate_program(R_BODY_CHOICE)) == (
        "#alphabet a, b, c, d.\n"
        "a.\n"
        "b :- c, not c.\n"
        "b :- c, not d.\n"
        "b :- d, not c.\n"
        "b :- d, not d.\n"
        "c.\n"
        "d.\n"
    )


def test_composition_resolves_negated_atom():
    assert serialize_program(compose(R_NEGATED_HEAD, R_BODY_CHOICE)) == (
        "#alphabet a, b, c, d.\n"
        "a :- c, not c.\n"
        "a :- c, not d.\n"
        "a :- d, not c.\n"
        "a :- d, not d.\n"
    )


def test_negation_of_empty_program_is_all_facts():
    assert negate_program(Program(A3)) == Program.of_facts(A3, A3.atoms)


def test_negation_of_unit_and_double_negation():
    u = unit_program(A2)
    nu = negate_program(u)
    assert serialize_program(nu) == "#alphabet a, b.\na :- not a.\nb :- not b.\n"
    assert compose(nu, nu) == u
    assert negate_program(nu) == u


def test_negation_of_interpretation_is_complement():
    i = Interpretation(A3, frozenset({"b"}))
    assert negate_program(i.to_program()) == i.complement().to_program()


def test_negation_of_remover():
    i = Interpretation(A3, frozenset({"b"}))
    assert serialize_program(negate_program(ominus(i))) == (
        "#alphabet a, b, c.\na :- not a.\nc :- not c.\n"
    )


def test_composition_is_not_associative():
    single = parse_program("#alphabet a, b, c, d, e, g.\na :- b, c.")
    middle = parse_program("#alphabet a, b, c, d, e, g.\nb :- b.\nc :- b, c.")
    right = parse_program("#alphabet a, b, c, d, e, g.\nb :- d.\nb :- e.\nc :- g.")

    left_first = compose(compose(single, middle), right)
    right_first = compose(single, compose(middle, right))
    assert serialize_program(left_first) == (
        "#alphabet a, b, c, d, e, g.\na :- d, g.\na :- e, g.\n"
    )
    assert serialize_program(right_first) == (
        "#alphabet a, b, c, d, e, g.\na :- d, e, g.\na :- d, g.\na :- e, g.\n"
    )
    assert left_first != right_first


def test_composition_does_not_distribute_from_the_left():
    p = parse_program("#alphabet a, b, c.\na :- b, c.")
    facts_b = parse_program("#alphabet a, b, c.\nb.")
    facts_c = parse_program("#alphabet a, b, c.\nc.")
    together = compose(p, facts_b | facts_c)
    split = compose(p, facts_b) | compose(p, facts_c)
    assert together == parse_program("#alphabet a, b, c.\na.")
    assert split == Program(A3)


def test_composition_distributes_from_the_right():
    rng = random.Random(3)
    for _ in range(50):
        p, r, q = (_random_program(rng, A3) for _ in range(3))
        assert compose(p | r, q) == compose(p, q) | compose(r, q)


def test_unit_is_neutral():
    rng = random.Random(4)
    u = unit_program(A3)
    for _ in range(50):
        p = _random_program(rng, A3)
        assert compose(p, u) == p
        assert compose(u, p) == p


def test_facts_pass_through_composition():
    p = parse_program("#alphabet a, b.\na.\nb :- a.")
    r = Program(A2)
    assert Rule.fact("a") in compose(p, r).rules


def test_requires_matching_alphabets():
    p = Program(A2, frozenset({Rule.fact("a")}))
    q = Program(A3, frozenset({Rule.fact("a")}))
    with pytest.raises(AlphabetMismatchError):
        compose(p, q)
    with pytest.raises(AlphabetMismatchError):
        cup(p, q)


def test_negative_program_composition():
    n = parse_program("#alphabet a, b, c.\na :- not b.")
    r = parse_program("#alphabet a, b, c.\nb :- b, c.")
    assert serialize_program(compose(n, r)) == (
        "#alphabet a, b, c.\na :- not b.\na :- not c.\n"
    )


def test_negative_program_drops_negated_atoms():
    n = parse_program("#alphabet a, b, c.\na :- not b, not c.")
    keep_ab = parse_program("#alphabet a, b, c.\na :- a.\nb :- b.")
    assert serialize_program(compose(n, keep_ab)) == (
        "#alphabet a, b, c.\na :- not b.\n"
    )


def test_cup_merges_bodies_of_shared_heads():
    p = parse_program("#alphabet a, b, c.\na :- b.\na :- c.")
    merged = cup(p, p)
    assert serialize_program(merged) == (
        "#alphabet a, b, c.\na :- b.\na :- b, c.\na :- c.\n"
    )
    assert merged != p  # cup is not idempotent


def test_cup_drops_unmatched_heads():
    p = parse_program("#alphabet a, b.\na :- b.")
    q = parse_program("#alphabet a, b.\nb :- a.")
    assert cup(p, q) == Program(A2)


def test_cup_is_commutative_associative_with_unit():
    rng = random.Random(5)
    facts_all = Program.of_facts(A3, A3.atoms)
    for _ in range(50):
        p, r, q = (_random_program(rng, A3) for _ in range(3))
        assert cup(p, r) == cup(r, p)
        assert cup(cup(p, r), q) == cup(p, cup(r, q))
        assert cup(p, facts_all) == p


def test_cup_does_not_factor_composition_with_shared_literals():
    first = parse_program("#alphabet a, b, c, d, e, g.\na :- b.")
    second = parse_program("#alphabet a, b, c, d, e, g.\na :- b, c.")
    right = parse_program("#alphabet a, b, c, d, e, g.\nb :- d.\nb :- e.\nc :- g.")
    factored = compose(cup(first, second), right)
    expanded = cup(compose(first, right), compose(second, right))
    assert serialize_program(factored) == (
        "#alphabet a, b, c, d, e, g.\na :- d, g.\na :- e, g.\n"
    )
    assert serialize_program(expanded) == (
        "#alphabet a, b, c, d, e, g.\na :- d, e, g.\na :- d, g.\na :- e, g.\n"
    )


def test_negation_does_not_shift_out_of_composition():
    p = parse_program("#alphabet a, b, c.\na :- b, not c.")
    r = parse_program("#alphabet a, b, c.\nc :- c.")
    shifted = compose(negate_program(p), r)
    direct = negate_program(compose(p, r))
    assert direct == Program.of_facts(A3, A3.atoms)
    assert serialize_program(shifted) == (
        "#alphabet a, b, c.\na.\na :- c.\nb.\nc.\n"
    )


def test_negation_equals_unit_negation_composition():
    rng = random.Random(6)
    nu = negate_program(unit_program(A3))
    for _ in range(50):
        p = _random_program(rng, A3)
        assert negate_program(p) == compose(nu, p)


def test_remover_strips_body_atoms():
    h = parse_program("#alphabet a, b, c.\na :- b, c.")
    i = Interpretation(A3, frozenset({"c"}))
    assert serialize_program(compose(h, ominus(i))) == "#alphabet a, b, c.\na :- b.\n"
    assert serialize_program(ominus(i)) == (
        "#alphabet a, b, c.\na :- a.\nb :- b.\nc.\n"
    )


def test_remover_restores_its_interpretation():
    i = Interpretation(A3, frozenset({"a", "c"}))
    assert compose(ominus(i), i.to_program()) == i.to_program()


def test_extender_adds_literals_to_bodies():
    ext = oplus(frozenset({Literal("c", True)}), A3)
    assert serialize_program(ext) == (
        "#alphabet a, b, c.\n"
        "a :- a, not c.\n"
        "b :- b, not c.\n"
        "c :- c, not c.\n"
    )
    h = parse_program("#alphabet a, b, c.\na :- b.")
    assert serialize_program(compose(h, ext)) == (
        "#alphabet a, b, c.\na :- b, not c.\n"
    )


def test_extender_keeps_facts():
    ext = oplus(frozenset({Literal("b")}), A2)
    p = parse_program("#alphabet a, b.\na.\nb :- a.")
    assert compose(p, ext) == parse_program("#alphabet a, b.\na.\nb :- a, b.")


def test_power_star_plus_omega():
    p = parse_program("#alphabet a, b, c.\nb :- a.\nc :- b.")
    assert power(p, 0) == unit_program(A3)
    assert power(p, 1) == p
    assert power(p, 2) == compose(p, p)
    assert serialize_program(power(p, 2)) == "#alphabet a, b, c.\nc :- a.\n"
    star = kleene_star(p)
    assert star == unit_program(A3) | p | power(p, 2)
    assert kleene_plus(p) == compose(star, p)
    with pytest.raises(ValueError):
        power(p, -1)


def test_omega_of_fact_program_is_its_interpretation():
    i = Interpretation(A3, frozenset({"a", "b"}))
    assert omega(i.to_program()) == i


def test_omega_reaches_derived_facts():
    p = parse_program("#alphabet a, b, c.\na.\nb :- a.\nc :- b.")
    assert omega(p) == Interpretation(A3, frozenset({"a", "b", "c"}))


def test_star_of_facts_is_unit_plus_facts():
    i = Interpretation(A3, frozenset({"b"}))
    facts = i.to_program()
    assert kleene_star(facts) == unit_program(A3) | facts
    assert kleene_plus(facts) == facts


def test_compose_matches_subset_oracle():
    rng = random.Random(7)
    for _ in range(120):
        p = _random_program(rng, A3)
        r = _random_program(rng, A3)
        assert compose(p, r) == compose_oracle(p, r)


def test_negation_complements_one_step_consequences():
    # an oracle outside the tf/or pipeline: `not P` derives exactly the
    # atoms that P does not derive, on every interpretation
    rng = random.Random(8)
    for _ in range(500):
        alphabet = rng.choice((A2, A3, A4))
        p = _random_program(rng, alphabet, max_rules=5, max_body=3)
        negated = negate_program(p)
        for i in all_interpretations(alphabet):
            assert tp_direct(negated, i) == tp_direct(p, i).complement()


def _random_program(rng, alphabet, max_rules=4, max_body=2):
    rules = set()
    for _ in range(rng.randint(0, max_rules)):
        pos, neg = set(), set()
        for _ in range(rng.randint(0, max_body)):
            (neg if rng.random() < 0.5 else pos).add(rng.choice(alphabet.atoms))
        rules.add(Rule(rng.choice(alphabet.atoms), frozenset(pos), frozenset(neg)))
    return Program(alphabet, frozenset(rules))
