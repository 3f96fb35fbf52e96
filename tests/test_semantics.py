"""Tests for models, reducts, least models, answer sets and equivalences."""

import random

import pytest

from aspalgebra import semantics
from aspalgebra.compose import compose, cup, ominus, omega
from aspalgebra.core import Alphabet, Interpretation, Program, Rule, unit_program
from aspalgebra.errors import AlphabetTooLargeError, InternalMismatchError, NotHornError
from aspalgebra.semantics import (
    all_interpretations,
    answer_sets,
    entails,
    entails_program,
    equivalent,
    flp_reduct,
    flp_reduct_algebraic,
    gl_reduct,
    gl_reduct_algebraic,
    is_answer_set,
    is_model,
    is_supported_model,
    least_model,
    left_reduct,
    restrict,
    right_reduct,
    se_models,
    strongly_equivalent,
    subsumption_equivalent,
    tp,
    tp_direct,
    ue_models,
    uniformly_equivalent,
)
from aspalgebra.textio import parse_program, serialize_program

A2 = Alphabet(("a", "b"))
A3 = Alphabet(("a", "b", "c"))


def interp(alphabet, *atoms):
    return Interpretation(alphabet, frozenset(atoms))


def test_entailment():
    rule = Rule("a", frozenset({"b"}), frozenset({"c"}))
    assert entails(interp(A3, "a", "b"), rule)  # head true
    assert entails(interp(A3), rule)  # body not satisfied
    assert entails(interp(A3, "b", "c"), rule)  # blocked by not c
    assert not entails(interp(A3, "b"), rule)
    p = Program(A3, frozenset({rule}))
    assert entails_program(interp(A3, "b", "a"), p)
    assert not entails_program(interp(A3, "b"), p)


def test_one_step_consequences():
    p = parse_program("#alphabet a, b, c.\na.\nb :- a.\nc :- b, not a.")
    assert tp_direct(p, interp(A3)) == interp(A3, "a")
    assert tp_direct(p, interp(A3, "a")) == interp(A3, "a", "b")
    assert tp_direct(p, interp(A3, "b")) == interp(A3, "a", "c")
    for i in all_interpretations(A3):
        assert tp(p, i) == tp_direct(p, i)


def test_models_and_supported_models():
    p = parse_program("#alphabet a, b.\na.\nb :- a.")
    assert is_model(p, interp(A2, "a", "b"))
    assert not is_model(p, interp(A2, "a"))
    assert is_supported_model(p, interp(A2, "a", "b"))

    # a model that is not supported: nothing derives b
    q = parse_program("#alphabet a, b.\na.")
    assert is_model(q, interp(A2, "a", "b"))
    assert not is_supported_model(q, interp(A2, "a", "b"))
    assert is_supported_model(q, interp(A2, "a"))

    # self-justification is enough for supportedness, not for stability
    loop = parse_program("#alphabet a, b.\na.\nb :- b.")
    assert is_supported_model(loop, interp(A2, "a", "b"))
    assert not is_answer_set(loop, interp(A2, "a", "b"))


def test_least_model_of_horn_program():
    h = parse_program("#alphabet a, b, c.\na.\nb :- a.\nc :- b, c.")
    assert least_model(h) == interp(A3, "a", "b")
    assert least_model(Program(A3)) == interp(A3)


def test_least_model_requires_horn():
    p = parse_program("#alphabet a, b.\na :- not b.")
    with pytest.raises(NotHornError):
        least_model(p)


def test_omega_agrees_with_least_model():
    rng = random.Random(8)
    for _ in range(100):
        rules = set()
        for _ in range(rng.randint(0, 5)):
            body = frozenset(
                rng.choice(A3.atoms) for _ in range(rng.randint(0, 2))
            )
            rules.add(Rule(rng.choice(A3.atoms), body))
        h = Program(A3, frozenset(rules))
        assert omega(h) == least_model(h)


def test_reducts():
    p = parse_program("#alphabet a, b, c.\na.\nb :- a, not c.\nc :- b.")
    i = interp(A3, "a", "b")
    assert left_reduct(p, i) == parse_program(
        "#alphabet a, b, c.\na.\nb :- a, not c."
    )
    assert right_reduct(p, i) == parse_program(
        "#alphabet a, b, c.\na.\nb :- a, not c.\nc :- b."
    )
    assert flp_reduct(p, i) == right_reduct(p, i)
    assert gl_reduct(p, i) == parse_program("#alphabet a, b, c.\na.\nb :- a.\nc :- b.")
    assert restrict(p, i) == parse_program("#alphabet a, b, c.\na.\nb :- a, not c.")
    # the left and right reducts commute, so either order restricts
    rng = random.Random(12)
    for q in [p] + [_random_program(rng, A3) for _ in range(30)]:
        for j in all_interpretations(A3):
            assert restrict(q, j) == right_reduct(left_reduct(q, j), j)


def test_right_reduct_checks_negative_part_too():
    p = parse_program("#alphabet a, b.\na :- not b.")
    assert right_reduct(p, interp(A2, "b")) == Program(A2)
    assert right_reduct(p, interp(A2)) == p


def test_gl_reduct_golden():
    p = parse_program("#alphabet a, b.\na :- not b.\nb :- not a.")
    assert gl_reduct(p, interp(A2, "a")) == parse_program("#alphabet a, b.\na.")
    assert gl_reduct(p, interp(A2)) == parse_program("#alphabet a, b.\na.\nb.")


def test_algebraic_reducts_match_direct_definitions():
    rng = random.Random(9)
    for _ in range(150):
        p = _random_program(rng, A3)
        for i in all_interpretations(A3):
            assert gl_reduct_algebraic(p, i) == gl_reduct(p, i)
            assert flp_reduct_algebraic(p, i) == right_reduct(p, i)


def test_hornified_composition_is_not_the_right_reduct():
    # Composing the hornified negative parts with the co-restricted unit
    # yields the hornified right reduct, which differs once negation occurs.
    p = parse_program("#alphabet a, b, c.\na :- not c.")
    i = interp(A3)
    co_unit = right_reduct(unit_program(A3), i.complement())
    hornified = compose(p.hornified(), co_unit)
    assert hornified == parse_program("#alphabet a, b, c.\na :- c.")
    assert right_reduct(p, i) == p
    assert hornified != right_reduct(p, i)


def test_reduct_union_and_cup_distribution():
    rng = random.Random(10)
    for _ in range(60):
        p = _random_program(rng, A3)
        r = _random_program(rng, A3)
        for i in all_interpretations(A3):
            assert gl_reduct(p | r, i) == gl_reduct(p, i) | gl_reduct(r, i)
            assert gl_reduct(cup(p, r), i) == cup(gl_reduct(p, i), gl_reduct(r, i))
            assert right_reduct(p | r, i) == right_reduct(p, i) | right_reduct(r, i)
            assert left_reduct(cup(p, r), i) == cup(
                left_reduct(p, i), left_reduct(r, i)
            )


def test_answer_sets_of_choice_program():
    p = parse_program("#alphabet a, b.\na :- not b.\nb :- not a.")
    assert answer_sets(p) == (interp(A2, "a"), interp(A2, "b"))
    assert is_answer_set(p, interp(A2, "a"))
    assert not is_answer_set(p, interp(A2, "a", "b"))


def test_answer_sets_of_odd_loop_is_empty():
    p = parse_program("#alphabet a.\na :- not a.")
    assert answer_sets(p) == ()


def test_answer_sets_of_horn_program_is_least_model():
    h = parse_program("#alphabet a, b, c.\na.\nb :- a.")
    assert answer_sets(h) == (least_model(h),)


def test_answer_sets_canonical_order():
    p = parse_program("#alphabet a, b.\na :- not b.\nb :- not a.\na :- b.")
    # candidates are enumerated subsets in canonical order
    results = answer_sets(p)
    assert results == (interp(A2, "a"),)


def test_answer_set_enumeration_bound():
    atoms = tuple(f"a{i}" for i in range(5))
    p = Program(Alphabet(atoms))
    with pytest.raises(AlphabetTooLargeError):
        answer_sets(p, max_atoms=4)
    assert answer_sets(p, max_atoms=5) == (Interpretation(Alphabet(atoms), frozenset()),)


# Every entry that enumerates interpretations, called with a cap one below
# the three-atom alphabet of its operands.
CAPPED_ENUMERATIONS = {
    "all_interpretations": lambda p, q, n: all_interpretations(p.alphabet, n),
    "answer_sets": lambda p, q, n: answer_sets(p, n),
    "subsumption_equivalent": subsumption_equivalent,
    "uniformly_equivalent": uniformly_equivalent,
    "se_models": lambda p, q, n: se_models(p, n),
    "strongly_equivalent": strongly_equivalent,
}


@pytest.mark.parametrize("name", CAPPED_ENUMERATIONS)
def test_enumerations_refuse_past_the_cap_at_the_call(name):
    # the call itself refuses: all_interpretations's iterator is never
    # advanced here, so a check made on the first next() would not raise
    p = parse_program("#alphabet a, b, c.\na :- not b.")
    q = parse_program("#alphabet a, b, c.\nb :- not a.")
    with pytest.raises(AlphabetTooLargeError, match="capped at 2"):
        CAPPED_ENUMERATIONS[name](p, q, 2)
    CAPPED_ENUMERATIONS[name](p, q, 3)


def test_all_interpretations_canonical_order():
    listed = [str(i) for i in all_interpretations(A2)]
    assert listed == ["{}", "{a}", "{a, b}", "{b}"]


def test_ordinary_equivalence():
    left = parse_program("#alphabet a, b.\na.")
    right = parse_program("#alphabet a, b.\na :- not b.")
    assert equivalent(left, right)  # both have the single answer set {a}
    assert not equivalent(left, parse_program("#alphabet a, b.\nb."))


def test_subsumption_equivalence():
    left = parse_program("#alphabet a, b.\na.")
    right = parse_program("#alphabet a, b.\na.\na :- a.")
    report = subsumption_equivalent(left, right)
    assert report.equivalent and report.context is None
    assert equivalent(left, right)
    # the context is the facts of the first interpretation, in canonical
    # order, on which the one-step consequences differ
    report = subsumption_equivalent(left, parse_program("#alphabet a, b.\na :- a."))
    assert not report.equivalent
    assert report.context == Program(A2)
    report = subsumption_equivalent(left, parse_program("#alphabet a, b.\na.\nb :- b."))
    assert not report.equivalent
    assert report.context == parse_program("#alphabet a, b.\na.\nb.")
    assert report.left_answer_sets == report.right_answer_sets == ()


def test_uniform_equivalence_distinguishes_fact_contexts():
    left = parse_program("#alphabet a, b.\na.")
    right = parse_program("#alphabet a, b.\na :- not b.")
    report = uniformly_equivalent(left, right)
    assert not report.equivalent
    assert report.context == parse_program("#alphabet a, b.\nb.")
    assert report.left_answer_sets == (interp(A2, "a", "b"),)
    assert report.right_answer_sets == (interp(A2, "b"),)


def test_uniform_equivalence_positive():
    left = parse_program("#alphabet a, b.\na.")
    right = parse_program("#alphabet a, b.\na.\na :- b.")
    report = uniformly_equivalent(left, right)
    assert report.equivalent and report.context is None


def _fact_context_verdict(left, right):
    """Uniform equivalence by its definition: every fact context agrees."""
    return all(
        answer_sets(left | j.to_program()) == answer_sets(right | j.to_program())
        for j in all_interpretations(left.alphabet)
    )


def test_uniform_equivalence_agrees_with_every_fact_context():
    rng = random.Random(13)
    negatives = 0
    for _ in range(2000):
        alphabet = Alphabet(tuple("abcd"[: rng.randint(1, 4)]))
        left = _random_program(rng, alphabet)
        right = _random_program(rng, alphabet)
        if rng.random() < 0.5:  # share rules, so that many pairs agree
            right = left | right
        report = uniformly_equivalent(left, right)
        assert report.equivalent == _fact_context_verdict(left, right)
        if report.equivalent:
            assert report.context is None
            continue
        negatives += 1
        assert not report.context.proper().rules  # a set of facts
        assert report.left_answer_sets == answer_sets(left | report.context)
        assert report.right_answer_sets == answer_sets(right | report.context)
        assert report.left_answer_sets != report.right_answer_sets
    assert 200 < negatives < 1800


def test_ue_models_match_the_definition():
    rng = random.Random(14)
    for _ in range(300):
        p = _random_program(rng, A3)
        se = se_models(p)
        maximal = {
            (x, y)
            for x, y in se
            if x == y or not any(x < x2 < y for x2, y2 in se if y2 == y)
        }
        assert ue_models(p) == maximal
    # {a :- not b. a :- b.} and {a.} differ in SE-models at ({}, {a, b}),
    # which is not maximal below {a, b}: their UE-models agree
    split = parse_program("#alphabet a, b.\na :- not b.\na :- b.")
    fact = parse_program("#alphabet a, b.\na.")
    assert se_models(split) != se_models(fact)
    assert ue_models(split) == ue_models(fact)


def test_positive_uniform_verdict_checks_only_the_empty_context(monkeypatch):
    # a fact-context loop would compute 2 * 2^10 answer-set enumerations here;
    # the UE route computes the two operands' own answer sets and no more
    alphabet = Alphabet(tuple(f"a{k}" for k in range(10)))
    rng = random.Random(15)
    program = Program(alphabet)
    while len(program.rules) < 20:
        program = program | _random_program(rng, alphabet, max_rules=1)
    calls = []
    counted = semantics.answer_sets
    monkeypatch.setattr(
        semantics, "answer_sets", lambda *a: calls.append(a) or counted(*a)
    )
    assert uniformly_equivalent(program, Program(alphabet, program.rules)).equivalent
    assert [p for p, _ in calls] == [program, program]


def test_se_models():
    p = parse_program("#alphabet a.\na :- not a.")
    q = parse_program("#alphabet a.\na.")
    assert se_models(p) == frozenset({(frozenset(), frozenset({"a"})),
                                      (frozenset({"a"}), frozenset({"a"}))})
    assert se_models(q) == frozenset({(frozenset({"a"}), frozenset({"a"}))})


def test_strong_equivalence_positive():
    left = parse_program("#alphabet a, b.\na.\nb :- a.")
    right = parse_program("#alphabet a, b.\na.\nb.")
    report = strongly_equivalent(left, right)
    assert report.equivalent


def test_strong_equivalence_fact_witness():
    left = parse_program("#alphabet a, b.\na.")
    right = parse_program("#alphabet a, b.\na :- not b.")
    report = strongly_equivalent(left, right)
    assert not report.equivalent
    assert serialize_program(report.context) == "#alphabet a, b.\nb.\n"
    assert report.left_answer_sets != report.right_answer_sets


def test_strong_equivalence_chain_witness():
    # classical models agree, so the witness needs a non-fact context
    left = parse_program("#alphabet a, b.\nb.\nb :- b.")
    right = parse_program("#alphabet a, b.\nb :- not b.")
    report = strongly_equivalent(left, right)
    assert not report.equivalent
    assert report.context is not None
    assert report.context.proper().rules
    assert answer_sets(left | report.context) != answer_sets(right | report.context)


def test_strong_equivalence_prefers_classical_difference():
    # The SE-models differ at (X, Y) = ({}, {a}) and, classically, at
    # ({b}, {b}).  The empty context built from ({}, {a}) separates the
    # programs too, but the classical difference is reported first.
    left = parse_program("#alphabet a, b.\na :- not a, not b.")
    right = parse_program("#alphabet a, b.\na.")
    assert (frozenset(), frozenset({"a"})) in se_models(left) ^ se_models(right)
    report = strongly_equivalent(left, right)
    assert serialize_program(report.context) == "#alphabet a, b.\nb.\n"
    assert report.left_answer_sets == (interp(A2, "b"),)
    assert report.right_answer_sets == (interp(A2, "a", "b"),)


def _mismatch_operands(monkeypatch, models_name, decide):
    # equal programs given different models: no context can separate them,
    # and the error carries both operands as parseable program text
    program = parse_program("#alphabet a, b.\na :- not b.\nb :- a.")
    models = getattr(semantics, models_name)(program)
    answers = iter([models, models - {(frozenset("ab"), frozenset("ab"))}])
    monkeypatch.setattr(semantics, models_name, lambda p, max_atoms: next(answers))
    with pytest.raises(InternalMismatchError) as caught:
        decide(program, program)
    head, operands = str(caught.value).split("\nleft:\n")
    left_text, right_text = operands.split("right:\n")
    assert parse_program(left_text) == program
    assert parse_program(right_text) == program
    return head


def test_internal_mismatch_message_holds_both_operands(monkeypatch):
    head = _mismatch_operands(monkeypatch, "se_models", strongly_equivalent)
    assert head == "SE-models differ but no distinguishing context was found for"


def test_uniform_internal_mismatch_message_holds_both_operands(monkeypatch):
    head = _mismatch_operands(monkeypatch, "ue_models", uniformly_equivalent)
    assert head == "UE-models differ but no distinguishing context was found for"


def test_library_path_does_not_compose():
    # the composition routes are checked once, by the laws; the semantic
    # operations themselves never call compose
    p = parse_program("#alphabet a, b, c.\na :- not b.\nb :- not a.\nc :- a.")
    q = parse_program("#alphabet a, b, c.\na :- not b.\nb :- not a.\nc :- a, c.")
    compose.cache_clear()
    answer_sets(p)
    for left, right in ((p, p), (p, q)):
        uniformly_equivalent(left, right)
        strongly_equivalent(left, right)
        subsumption_equivalent(left, right)
    assert not strongly_equivalent(p, q).equivalent
    info = compose.cache_info()
    assert (info.hits, info.misses) == (0, 0)


def test_uniform_but_not_strong_direction_never_reverses():
    rng = random.Random(11)
    for _ in range(40):
        p = _random_program(rng, A2)
        r = _random_program(rng, A2)
        strong = se_models(p) == se_models(r)
        uni = uniformly_equivalent(p, r).equivalent
        ordinary = equivalent(p, r)
        if strong:
            assert uni
        if uni:
            assert ordinary
        if subsumption_equivalent(p, r).equivalent:
            assert ordinary


def _random_program(rng, alphabet, max_rules=4, max_body=2):
    rules = set()
    for _ in range(rng.randint(0, max_rules)):
        pos, neg = set(), set()
        for _ in range(rng.randint(0, max_body)):
            (neg if rng.random() < 0.5 else pos).add(rng.choice(alphabet.atoms))
        rules.add(Rule(rng.choice(alphabet.atoms), frozenset(pos), frozenset(neg)))
    return Program(alphabet, frozenset(rules))
