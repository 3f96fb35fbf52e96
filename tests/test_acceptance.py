"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines; the
criteria cover worked-example goldens, the law registry, oracle agreement for
every operator bridge, the equivalence hierarchy, and text round-trips.
"""

import time
from dataclasses import replace

from aspalgebra import (
    GeneratorConfig,
    Interpretation,
    Literal,
    NON_LAW,
    REFUTED,
    REGISTRY,
    Rule,
    all_interpretations,
    answer_sets,
    compose,
    compose_oracle,
    cup,
    equivalent,
    flp_reduct_algebraic,
    generate_interpretation,
    generate_program,
    gl_reduct,
    gl_reduct_algebraic,
    kleene_star,
    negate_program,
    omega,
    ominus,
    oplus,
    or_transform,
    parse_program,
    right_reduct,
    run_laws,
    serialize_program,
    strongly_equivalent,
    subsumption_equivalent,
    tf_transform,
    tp_direct,
    uniformly_equivalent,
)
from aspalgebra.core import TruthConst


def _verdict(number, ok, description):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {description}"
    print(line)
    assert ok, line


def _iterated_least_model(horn):
    """Independent least-model oracle: bare fixpoint iteration from the empty set."""
    assert horn.is_horn
    atoms = frozenset()
    while True:
        derived = frozenset(r.head for r in horn.rules if r.pos_body <= atoms)
        if derived == atoms:
            return Interpretation(horn.alphabet, atoms)
        atoms = derived


def _definitional_reduct(program, interp):
    """Independent reduct oracle: drop blocked rules, strip negative bodies."""
    return type(program)(
        program.alphabet,
        frozenset(
            Rule(r.head, r.pos_body)
            for r in program.rules
            if not r.neg_body & interp.atoms
        ),
    )


def test_criterion_1_worked_example_goldens():
    started = time.perf_counter()
    body_choice = parse_program(
        "#alphabet a, b, c, d.\nb :- not c, not d.\nb :- c, d."
    )
    negated_head = parse_program("#alphabet a, b, c, d.\na :- not b.")
    goldens = []

    goldens.append(
        serialize_program(negate_program(body_choice))
        == "#alphabet a, b, c, d.\n"
        "a.\n"
        "b :- c, not c.\n"
        "b :- c, not d.\n"
        "b :- d, not c.\n"
        "b :- d, not d.\n"
        "c.\n"
        "d.\n"
    )
    goldens.append(
        serialize_program(compose(negated_head, body_choice))
        == "#alphabet a, b, c, d.\n"
        "a :- c, not c.\n"
        "a :- c, not d.\n"
        "a :- d, not c.\n"
        "a :- d, not d.\n"
    )

    grouped = {r.head: r.bodies for r in or_transform(tf_transform(body_choice)).rules}
    goldens.append(grouped["a"] == (frozenset({TruthConst.FALSE}),))
    goldens.append(
        grouped["b"]
        == (
            frozenset({Literal("c"), Literal("d")}),
            frozenset({Literal("c", True), Literal("d", True)}),
        )
    )

    single = parse_program("#alphabet a, b, c, d, e, g.\na :- b, c.")
    middle = parse_program("#alphabet a, b, c, d, e, g.\nb :- b.\nc :- b, c.")
    chain = parse_program("#alphabet a, b, c, d, e, g.\nb :- d.\nb :- e.\nc :- g.")
    left_first = compose(compose(single, middle), chain)
    right_first = compose(single, compose(middle, chain))
    goldens.append(
        serialize_program(left_first)
        == "#alphabet a, b, c, d, e, g.\na :- d, g.\na :- e, g.\n"
    )
    goldens.append(
        serialize_program(right_first)
        == "#alphabet a, b, c, d, e, g.\na :- d, e, g.\na :- d, g.\na :- e, g.\n"
    )
    goldens.append(left_first != right_first)

    two_bodies = parse_program("#alphabet a, b, c.\na :- b.\na :- c.")
    goldens.append(
        serialize_program(cup(two_bodies, two_bodies))
        == "#alphabet a, b, c.\na :- b.\na :- b, c.\na :- c.\n"
    )
    goldens.append(cup(two_bodies, two_bodies) != two_bodies)

    conj = parse_program("#alphabet a, b, c.\na :- b, c.")
    fact_b = parse_program("#alphabet a, b, c.\nb.")
    fact_c = parse_program("#alphabet a, b, c.\nc.")
    goldens.append(
        compose(conj, fact_b | fact_c) == parse_program("#alphabet a, b, c.\na.")
    )
    goldens.append(len(compose(conj, fact_b) | compose(conj, fact_c)) == 0)

    first = parse_program("#alphabet a, b, c, d, e, g.\na :- b.")
    second = parse_program("#alphabet a, b, c, d, e, g.\na :- b, c.")
    goldens.append(
        serialize_program(compose(cup(first, second), chain))
        == "#alphabet a, b, c, d, e, g.\na :- d, g.\na :- e, g.\n"
    )
    goldens.append(
        serialize_program(cup(compose(first, chain), compose(second, chain)))
        == "#alphabet a, b, c, d, e, g.\na :- d, e, g.\na :- d, g.\na :- e, g.\n"
    )

    conj_alphabet = conj.alphabet
    only_c = Interpretation(conj_alphabet, frozenset({"c"}))
    goldens.append(
        serialize_program(compose(conj, ominus(only_c)))
        == "#alphabet a, b, c.\na :- b.\n"
    )
    goldens.append(
        serialize_program(ominus(only_c)) == "#alphabet a, b, c.\na :- a.\nb :- b.\nc.\n"
    )
    extender = oplus(frozenset({Literal("c", True)}), conj_alphabet)
    goldens.append(
        serialize_program(extender)
        == "#alphabet a, b, c.\na :- a, not c.\nb :- b, not c.\nc :- c, not c.\n"
    )
    goldens.append(
        serialize_program(
            compose(parse_program("#alphabet a, b, c.\na :- b."), extender)
        )
        == "#alphabet a, b, c.\na :- b, not c.\n"
    )

    negative = parse_program("#alphabet a, b, c.\na :- not b, not c.")
    keep_ab = parse_program("#alphabet a, b, c.\na :- a.\nb :- b.")
    goldens.append(
        serialize_program(compose(negative, keep_ab))
        == "#alphabet a, b, c.\na :- not b.\n"
    )

    guard = parse_program("#alphabet a, b, c.\na :- not b.")
    long_body = parse_program("#alphabet a, b, c.\nb :- b, c.")
    goldens.append(
        serialize_program(compose(guard, long_body))
        == "#alphabet a, b, c.\na :- not b.\na :- not c.\n"
    )

    elapsed = time.perf_counter() - started
    ok = all(goldens) and elapsed < 1.0
    _verdict(
        1,
        ok,
        f"{len(goldens)} worked-example goldens exact in {elapsed:.2f}s (< 1s)",
    )


def test_criterion_2_law_suite():
    config = GeneratorConfig(alphabet_size=3, max_rules=5, max_body=3, seed=314159)
    started = time.perf_counter()
    results = run_laws(config, trials=1000, exhaustive=True)
    elapsed = time.perf_counter() - started
    unexpected = [r.law_id for r in results if not r.as_expected]
    refuted_non_laws = all(
        r.verdict == REFUTED and r.witness is not None
        for r in results
        if r.expected_verdict == NON_LAW
    )
    ok = (
        len(results) == len(REGISTRY)
        and not unexpected
        and refuted_non_laws
        and elapsed < 60.0
    )
    _verdict(
        2,
        ok,
        f"{len(results)} laws as expected on 1000 trials + exhaustive pass "
        f"in {elapsed:.1f}s (< 60s); unexpected: {unexpected or 'none'}",
    )


def test_criterion_3_composition_matches_oracle():
    config = GeneratorConfig(alphabet_size=3, max_rules=4, max_body=2)
    mismatches = 0
    for i in range(500):
        left = generate_program(replace(config, seed=2 * i))
        right = generate_program(replace(config, seed=2 * i + 1))
        if compose(left, right) != compose_oracle(left, right):
            mismatches += 1
    _verdict(3, mismatches == 0, f"compose vs oracle on 500 pairs: {mismatches} mismatches")


def test_criterion_4_consequence_operator_bridge():
    config = GeneratorConfig(alphabet_size=4, max_rules=5, max_body=3)
    mismatches = 0
    for i in range(200):
        program = generate_program(replace(config, seed=i))
        for interp in all_interpretations(program.alphabet):
            composed = compose(program, interp.to_program())
            via_compose = Interpretation(program.alphabet, composed.fact_atoms())
            if via_compose != tp_direct(program, interp):
                mismatches += 1
    _verdict(
        4,
        mismatches == 0,
        f"one-step operator vs composition on 200 programs x 16 models: "
        f"{mismatches} mismatches",
    )


def test_criterion_5_omega_is_the_least_model():
    config = GeneratorConfig(
        alphabet_size=5, max_rules=5, max_body=3, negative_literal_probability=0.0
    )
    mismatches = 0
    for i in range(500):
        horn = generate_program(replace(config, seed=i))
        if omega(horn) != _iterated_least_model(horn):
            mismatches += 1
    _verdict(
        5,
        mismatches == 0,
        f"omega vs fixpoint iteration on 500 Horn programs: {mismatches} mismatches",
    )


def test_criterion_6_answer_set_characterization():
    config = GeneratorConfig(alphabet_size=5, max_rules=5, max_body=3)
    mismatches = 0
    for i in range(500):
        program = generate_program(replace(config, seed=i))
        for interp in all_interpretations(program.alphabet):
            reduct = gl_reduct(program, interp)
            via_omega = omega(reduct) == interp
            definitional = (
                _iterated_least_model(_definitional_reduct(program, interp)) == interp
            )
            if via_omega != definitional:
                mismatches += 1

    choice = parse_program("#alphabet a, b.\na :- not b.\nb :- not a.")
    choice_sets = tuple(sorted(m.atoms) for m in answer_sets(choice))
    fixed_ok = choice_sets == (["a"], ["b"]) and answer_sets(
        parse_program("#alphabet a.\na :- not a.")
    ) == ()
    _verdict(
        6,
        mismatches == 0 and fixed_ok,
        f"omega-reduct test vs definitional on 500 programs x 32 models: "
        f"{mismatches} mismatches; fixed examples {'ok' if fixed_ok else 'WRONG'}",
    )


def test_criterion_7_equivalence_hierarchy():
    config = GeneratorConfig(alphabet_size=3, max_rules=5, max_body=3)
    violations = 0
    route_splits = 0
    positives = 0
    pairs = []
    for i in range(300):
        pairs.append(
            (
                generate_program(replace(config, seed=2 * i)),
                generate_program(replace(config, seed=2 * i + 1)),
            )
        )
    # known-equivalent pairs so the implications are exercised non-vacuously
    fact = parse_program("#alphabet a, b, c.\na.")
    pairs.append((fact, parse_program("#alphabet a, b, c.\na.\na :- b.")))
    pairs.append((fact, fact))
    choice = parse_program("#alphabet a, b, c.\na :- not b.\nb :- not a.")
    pairs.append((choice, choice | parse_program("#alphabet a, b, c.\na :- a, b.")))

    for left, right in pairs:
        strong = strongly_equivalent(left, right).equivalent
        uniform = uniformly_equivalent(left, right).equivalent
        ordinary = equivalent(left, right)
        subsumed = subsumption_equivalent(left, right).equivalent
        positives += strong
        if strong and not uniform:
            violations += 1
        if uniform and not ordinary:
            violations += 1
        if subsumed and not ordinary:
            violations += 1
        for j in all_interpretations(left.alphabet):
            context = j.to_program()
            star_context = kleene_star(context)
            for program in (left, right):
                if answer_sets(compose(star_context, program)) != answer_sets(
                    program | context
                ):
                    route_splits += 1
    ok = violations == 0 and route_splits == 0 and positives >= 3
    _verdict(
        7,
        ok,
        f"hierarchy on {len(pairs)} pairs: {violations} violations; uniform "
        f"star-route vs union-route: {route_splits} splits; "
        f"{positives} strongly equivalent pairs",
    )


def test_criterion_8_reduct_algebra():
    config = GeneratorConfig(alphabet_size=4, max_rules=5, max_body=3)
    mismatches = 0
    for i in range(500):
        program = generate_program(replace(config, seed=2 * i))
        interp = generate_interpretation(replace(config, seed=2 * i + 1))
        if gl_reduct_algebraic(program, interp) != gl_reduct(program, interp):
            mismatches += 1
        if flp_reduct_algebraic(program, interp) != right_reduct(program, interp):
            mismatches += 1
    _verdict(
        8,
        mismatches == 0,
        f"algebraic vs direct reducts on 500 program/model pairs: "
        f"{mismatches} mismatches",
    )


def test_criterion_9_text_round_trip():
    mismatches = 0
    for i in range(1000):
        config = GeneratorConfig(
            alphabet_size=(i % 6) + 1,
            max_rules=i % 7,
            max_body=i % 5,
            seed=i,
        )
        program = generate_program(config)
        text = serialize_program(program)
        reparsed = parse_program(text)
        if reparsed != program or serialize_program(reparsed) != text:
            mismatches += 1
    _verdict(
        9,
        mismatches == 0,
        f"parse/serialize round-trip on 1000 programs: {mismatches} mismatches",
    )
