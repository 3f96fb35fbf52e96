"""Tests for the seeded law-checking engine."""

import ast
import math
import multiprocessing
import random
from dataclasses import replace
from pathlib import Path

import pytest

from aspalgebra import lawcheck
from aspalgebra.compose import compose
from aspalgebra.core import Alphabet, Interpretation, Program, Rule
from aspalgebra.lawcheck import (
    HOLDS,
    LAW,
    NON_LAW,
    REFUTED,
    REGISTRY,
    GeneratorConfig,
    Law,
    generate_interpretation,
    generate_program,
    get_law,
    replay_witness,
    run_law,
    run_laws,
    serialize_witness,
    _exhaustive_plan,
    _exhaustive_pools,
)

CFG = GeneratorConfig(alphabet_size=3, max_rules=4, max_body=2, seed=99)

EXPECTED_NON_LAWS = {
    "compose-associates",
    "compose-left-distributes-union",
    "cup-idempotent",
    "cup-factors-composition-unconditionally",
    "negation-shifts-left",
}


def test_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(alphabet_size=0)
    with pytest.raises(ValueError):
        GeneratorConfig(alphabet_size=7)
    with pytest.raises(ValueError):
        GeneratorConfig(max_rules=-1)
    with pytest.raises(ValueError):
        GeneratorConfig(negative_literal_probability=1.5)


def test_generator_is_deterministic():
    assert generate_program(CFG) == generate_program(CFG)
    assert generate_interpretation(CFG) == generate_interpretation(CFG)
    assert generate_program(CFG) != generate_program(replace(CFG, seed=100))


def test_generator_respects_bounds():
    empty = generate_program(replace(CFG, max_rules=0))
    assert len(empty) == 0
    horn = generate_program(replace(CFG, negative_literal_probability=0.0, seed=17))
    assert horn.is_horn
    for seed in range(30):
        p = generate_program(replace(CFG, seed=seed))
        assert len(p) <= CFG.max_rules
        assert all(r.size <= CFG.max_body for r in p.rules)
        assert p.alphabet.atoms == ("a", "b", "c")


def test_registry_shape():
    ids = [law.law_id for law in REGISTRY]
    assert len(ids) == len(set(ids))
    non_laws = {law.law_id for law in REGISTRY if law.expected == NON_LAW}
    assert non_laws == EXPECTED_NON_LAWS
    for law in REGISTRY:
        if law.expected == NON_LAW:
            assert law.fixed_witnesses, law.law_id
    assert len(REGISTRY) > 50


def test_get_law():
    assert get_law("cup-commutes").slots == ("program", "program")
    with pytest.raises(KeyError):
        get_law("no-such-law")


def test_all_laws_behave_as_expected_on_samples():
    results = run_laws(CFG, trials=40)
    assert len(results) == len(REGISTRY)
    for result in results:
        assert result.as_expected, result.law_id
        if result.expected_verdict == LAW:
            assert result.verdict == HOLDS
            assert result.witness is None
        else:
            assert result.verdict == REFUTED
            assert result.witness is not None


def test_run_laws_is_deterministic():
    first = run_laws(CFG, trials=25)
    second = run_laws(CFG, trials=25)
    assert first == second


def test_run_laws_matches_in_process_run_law():
    assert run_laws(CFG, trials=25) == [run_law(law, CFG, 25) for law in REGISTRY]
    assert multiprocessing.active_children() == []


def test_omega_disagreement_refutes_least_model_law(monkeypatch):
    # omega against fixpoint iteration is checked by the law, not inside
    # least_model: a wrong omega is a refutation with a replayable witness
    law = get_law("least-model-is-least")
    monkeypatch.setattr(
        lawcheck, "omega", lambda h: Interpretation(h.alphabet, frozenset(h.alphabet))
    )
    result = run_law(law, CFG, trials=50)
    assert result.verdict == REFUTED
    assert not result.as_expected
    assert replay_witness(law, result.witness) is False
    monkeypatch.undo()
    assert replay_witness(law, result.witness) is True


def test_non_law_witnesses_replay():
    for law_id in EXPECTED_NON_LAWS:
        law = get_law(law_id)
        result = run_law(law, CFG, trials=0)
        assert result.verdict == REFUTED
        assert replay_witness(law, result.witness) is False


def test_witness_serialization_round_trip():
    law = get_law("compose-associates")
    witness = law.fixed_witnesses[0]
    texts = serialize_witness(law, witness)
    assert all(text.startswith("#alphabet") for text in texts)
    assert replay_witness(law, texts) is False


@pytest.mark.parametrize("kind", sorted(lawcheck._SLOTS))
def test_slot_witness_text_reads_back_alone(kind):
    # the text of one operand is enough to rebuild it: no other slot's
    # alphabet is needed, so replay parses each text on its own
    slot = lawcheck._SLOTS[kind]
    rng = random.Random(kind)
    for _ in range(25):
        operand = slot.sample(rng, CFG)
        assert slot.parse(slot.text(operand)) == operand


def test_shrink_never_grows_a_witness():
    law = get_law("compose-associates")
    result = run_law(law, CFG, trials=0)
    assert result.witness is not None
    original = serialize_witness(law, law.fixed_witnesses[0])
    assert sum(len(text.splitlines()) for text in result.witness) <= sum(
        len(text.splitlines()) for text in original
    )


def test_exhaustive_pools_cover_the_two_atom_universe():
    pools = _exhaustive_pools()
    assert len(pools["program"]) == 254  # empty + 22 rules + C(22, 2) pairs
    assert len(pools["rule"]) == 22
    assert len(pools["interp"]) == 4
    assert all(p.is_horn for p in pools["horn"])
    assert all(p.is_krom_horn for p in pools["krom"])
    assert all(p.is_negative for p in pools["negative"])
    assert all(len(p) <= 1 for p in pools["single"])


def test_exhaustive_tier_runs_for_small_laws():
    law = get_law("compose-right-unit")
    result = run_law(law, CFG, trials=0, exhaustive=True)
    assert result.verdict == HOLDS
    assert result.trials == 254


def test_exhaustive_tier_skipped_for_non_laws():
    law = get_law("cup-idempotent")
    result = run_law(law, CFG, trials=0, exhaustive=True)
    assert result.verdict == REFUTED
    assert result.trials == 1  # only the stored witness ran


def test_unexpected_refutation_is_reported_not_raised():
    bogus = Law(
        "bogus-compose-commutes",
        LAW,
        ("program", "program"),
        lambda p, r: compose(p, r) == compose(r, p),
    )
    result = run_law(bogus, CFG, trials=200)
    assert result.verdict == REFUTED
    assert not result.as_expected
    assert result.witness is not None
    assert replay_witness(bogus, result.witness) is False


def test_shrink_lets_check_errors_through():
    # rule removal keeps a program operand a program, so an error the check
    # raises while shrinking is a fault of the check and must not be hidden
    def check(p):
        if not p.rules:
            raise ValueError("empty program")
        return False

    witness = (Program(Alphabet(("a",)), frozenset({Rule.fact("a")})),)
    law = Law(
        "raises-on-empty", NON_LAW, ("program",), check, fixed_witnesses=(witness,)
    )
    with pytest.raises(ValueError, match="empty program"):
        run_law(law, CFG, trials=0)


def test_registry_order_matches_the_benchmark():
    # bench/checks.py pins the registry order the benchmark reports against
    checks = Path(__file__).resolve().parents[1] / "bench" / "checks.py"
    tree = ast.parse(checks.read_text(encoding="utf-8"))
    (law_ids,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["LAW_IDS"]
    ]
    assert [(law.law_id, law.expected) for law in REGISTRY] == list(law_ids)


#: Exhaustive-tier trials of each law, as `aspalgebra laws --trials 0
#: --exhaustive --json` reports them.
EXHAUSTIVE_TRIALS = {
    "compose-right-unit": 254,
    "compose-left-unit": 254,
    "compose-left-zero-empty": 254,
    "compose-right-distributes-union": 134366,
    "compose-preserves-facts": 64516,
    "compose-facts-proper-split": 64516,
    "interpretation-left-zero": 1016,
    "krom-left-distributes-union": 128524,
    "krom-associates": 128524,
    "krom-simplified-composition": 5588,
    "horn-simplified-composition": 9398,
    "negative-composition-hornified": 9398,
    "negation-as-unit-composition": 254,
    "double-negation-unit": 1,
    "cup-commutes": 64516,
    "cup-associates": 134366,
    "cup-unit-alphabet": 254,
    "cup-zero-empty": 254,
    "cup-distributes-union-right": 134366,
    "cup-distributes-union-left": 134366,
    "cup-factors-composition-on-disjoint-bodies": 122936,
    "rule-splits-into-parts": 22,
    "body-split-composition": 64516,
    "permutation-renames": 508,
    "permutation-dual-inverts": 2,
    "fact-separation": 254,
    "union-of-facts-as-star": 1016,
    "interpretation-star": 4,
    "tp-is-composition": 1016,
    "model-iff-prefixpoint": 1016,
    "supported-iff-composition-commutes": 1016,
    "horn-gl-reduct-identity": 148,
    "left-reduct-via-unit": 1016,
    "horn-right-reduct-via-unit": 148,
    "negative-gl-reduct-via-composition": 148,
    "negative-right-reduct-via-ominus": 148,
    "negative-drops-negated-atoms": 148,
    "gl-reduct-distributes-union": 23368,
    "gl-reduct-distributes-cup": 23368,
    "left-reduct-distributes-union": 23368,
    "left-reduct-distributes-cup": 23368,
    "right-reduct-distributes-union": 23368,
    "right-reduct-distributes-cup": 23368,
    "horn-left-reduct-shifts": 5476,
    "horn-right-reduct-shifts": 5476,
    "interpretation-reducts": 16,
    "ominus-removes-body-atoms": 148,
    "ominus-restores-facts": 4,
    "oplus-extends-bodies": 407,
    "oplus-ominus-collapse": 4,
    "oplus-absorbs-interpretation": 4,
    "answer-set-iff-minimal-model-of-right-reduct": 1016,
    "least-model-is-least": 37,
    "horn-answer-sets-least-model": 37,
    "gl-reduct-algebraic-agrees": 1016,
    "flp-reduct-algebraic-agrees": 1016,
    "context-extension-routes-agree": 254,
    "se-agreement-implies-context-agreement": 12167,
    "equivalence-hierarchy": 529,
}


def test_exhaustive_plan_trial_counts():
    counts = {
        law.law_id: math.prod(len(pool) for pool in _exhaustive_plan(law))
        for law in REGISTRY
        if law.expected == LAW
    }
    assert counts == EXHAUSTIVE_TRIALS
