"""Tests for the seeded law-checking engine."""

import multiprocessing
from dataclasses import replace

import pytest

from aspalgebra import lawcheck
from aspalgebra.compose import compose
from aspalgebra.core import Interpretation
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
