"""Seeded law checking.

A registry of algebraic identities, each tagged with its expected verdict:
`law` entries must hold on every sampled instance, `non-law` entries ship a
stored counterexample that must refute them.  The engine runs a seeded
random tier (reproducible: every trial's inputs derive from the master seed,
the law id and the trial index) and an optional bounded-exhaustive tier over
the two-atom universe of programs with at most two rules of at most two body
literals.

For multi-operand laws the full exhaustive product can be infeasible; slots
over which the identity decomposes rule-by-rule are marked `reducible` and
fall back to the single-rule sub-universe when the product exceeds the
budget.  Refutations are greedily shrunk (rule removal) and serialized so
they can be replayed.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import cache, partial
from itertools import combinations, product
from typing import Callable, Iterable

from .compose import (
    compose,
    compose_oracle,
    cup,
    kleene_plus,
    kleene_star,
    negate_program,
    omega,
    ominus,
    oplus,
)
from .core import (
    Alphabet,
    Interpretation,
    Literal,
    Program,
    Rule,
    permutation_program,
    unit_program,
)
from .semantics import (
    all_interpretations,
    answer_sets,
    entails_program,
    equivalent,
    flp_reduct_algebraic,
    gl_reduct,
    gl_reduct_algebraic,
    is_answer_set,
    least_model,
    left_reduct,
    right_reduct,
    se_models,
    subsumption_equivalent,
    tp_direct,
    uniformly_equivalent,
)
from .textio import (
    parse_literals,
    parse_permutation,
    parse_program,
    serialize_permutation,
    serialize_program,
)

LAW = "law"
NON_LAW = "non-law"
HOLDS = "holds-on-sample"
REFUTED = "refuted"

#: Weighted-trial budget for one law's exhaustive tier.
EXHAUSTIVE_BUDGET = 200_000


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters of the random program generator; fully seed-deterministic."""

    alphabet_size: int = 3
    max_rules: int = 5
    max_body: int = 3
    negative_literal_probability: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.alphabet_size <= 6:
            raise ValueError("alphabet_size must be between 1 and 6")
        if self.max_rules < 0 or self.max_body < 0:
            raise ValueError("max_rules and max_body must be non-negative")
        if not 0.0 <= self.negative_literal_probability <= 1.0:
            raise ValueError("negative_literal_probability must be in [0, 1]")


def alphabet_for(config: GeneratorConfig) -> Alphabet:
    # "f" is skipped: it names a truth constant and cannot be an atom
    return Alphabet(tuple("abcdeg"[: config.alphabet_size]))


def _random_rule(
    rng: random.Random, atoms: tuple[str, ...], max_body: int, neg_p: float
) -> Rule:
    head = rng.choice(atoms)
    pos: set[str] = set()
    neg: set[str] = set()
    for _ in range(rng.randint(0, max_body)):
        atom = rng.choice(atoms)
        (neg if rng.random() < neg_p else pos).add(atom)
    return Rule(head, frozenset(pos), frozenset(neg))


def _random_program(rng: random.Random, config: GeneratorConfig) -> Program:
    alphabet = alphabet_for(config)
    rules = frozenset(
        _random_rule(
            rng, alphabet.atoms, config.max_body, config.negative_literal_probability
        )
        for _ in range(rng.randint(0, config.max_rules))
    )
    return Program(alphabet, rules)


def generate_program(config: GeneratorConfig) -> Program:
    """The random program determined by the configuration (and its seed)."""
    return _random_program(random.Random(config.seed), config)


def generate_interpretation(config: GeneratorConfig) -> Interpretation:
    rng = random.Random(config.seed)
    alphabet = alphabet_for(config)
    return Interpretation(
        alphabet, frozenset(a for a in alphabet if rng.random() < 0.5)
    )


def _derive_seed(master: int, *parts: object) -> int:
    payload = ":".join([str(master), *map(str, parts)]).encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


def _sample_slot(kind: str, config: GeneratorConfig, seed: int):
    rng = random.Random(seed)
    alphabet = alphabet_for(config)
    atoms = alphabet.atoms
    if kind == "program":
        return _random_program(rng, config)
    if kind == "horn":
        return _random_program(rng, replace(config, negative_literal_probability=0.0))
    if kind == "krom":
        rules = frozenset(
            Rule(
                rng.choice(atoms),
                frozenset({rng.choice(atoms)} if rng.random() < 0.75 else set()),
            )
            for _ in range(rng.randint(0, config.max_rules))
        )
        return Program(alphabet, rules)
    if kind == "negative":
        rules = frozenset(
            Rule(
                rng.choice(atoms),
                frozenset(),
                frozenset(rng.choice(atoms) for _ in range(rng.randint(0, config.max_body))),
            )
            for _ in range(rng.randint(0, config.max_rules))
        )
        return Program(alphabet, rules)
    if kind == "rule":
        return Program(
            alphabet,
            frozenset(
                {
                    _random_rule(
                        rng, atoms, config.max_body, config.negative_literal_probability
                    )
                }
            ),
        )
    if kind == "interp":
        return Interpretation(
            alphabet, frozenset(a for a in atoms if rng.random() < 0.5)
        )
    if kind == "literals":
        picked: set[Literal] = set()
        for _ in range(rng.randint(0, config.max_body)):
            picked.add(
                Literal(
                    rng.choice(atoms),
                    rng.random() < config.negative_literal_probability,
                )
            )
        return frozenset(picked)
    if kind == "perm":
        images = list(atoms)
        rng.shuffle(images)
        return dict(zip(atoms, images))
    if kind == "alphabet":
        return alphabet
    raise ValueError(f"unknown slot kind {kind!r}")


# -- the exhaustive two-atom universe -----------------------------------------


@cache
def _exhaustive_pools() -> dict[str, tuple]:
    alphabet = Alphabet(("a", "b"))
    atoms = alphabet.atoms
    subsets = [frozenset(c) for k in range(3) for c in combinations(atoms, k)]
    bodies = [
        (pos, neg)
        for pos in subsets
        for neg in subsets
        if len(pos) + len(neg) <= 2
    ]
    rules = tuple(Rule(h, pos, neg) for h in atoms for pos, neg in bodies)
    programs = tuple(
        Program(alphabet, frozenset(chosen))
        for k in range(3)
        for chosen in combinations(rules, k)
    )
    interps = tuple(Interpretation(alphabet, s) for s in subsets)
    literal_sets = tuple(
        frozenset(ls)
        for k in range(3)
        for ls in combinations(
            [Literal(a, n) for a in atoms for n in (False, True)], k
        )
    )
    return {
        "alphabet": (alphabet,),
        "program": programs,
        "single": tuple(p for p in programs if len(p) <= 1),
        "horn": tuple(p for p in programs if p.is_horn),
        "krom": tuple(p for p in programs if p.is_krom_horn),
        "negative": tuple(p for p in programs if p.is_negative),
        "rule": tuple(p for p in programs if len(p) == 1),
        "interp": interps,
        "literals": literal_sets,
        "perm": ({"a": "a", "b": "b"}, {"a": "b", "b": "a"}),
    }


# -- registry types ------------------------------------------------------------


@dataclass(frozen=True)
class Law:
    """One identity with its expected verdict and sampling shape."""

    law_id: str
    expected: str
    slots: tuple[str, ...]
    check: Callable[..., bool]
    reducible: tuple[int, ...] = ()
    cost_weight: int = 1
    fixed_witnesses: tuple[tuple, ...] = ()
    note: str = ""


@dataclass(frozen=True)
class LawResult:
    """Outcome of checking one law."""

    law_id: str
    expected_verdict: str
    verdict: str
    trials: int
    witness: tuple[str, ...] | None = None

    @property
    def as_expected(self) -> bool:
        return (self.expected_verdict == LAW) == (self.verdict == HOLDS)


# -- helpers used by the checks ------------------------------------------------


def _sing(program: Program, rule: Rule) -> Program:
    return Program(program.alphabet, frozenset({rule}))


def _empty(program: Program) -> Program:
    return Program(program.alphabet)


def _restricted_unit(alphabet: Alphabet, interp: Interpretation) -> Program:
    return right_reduct(unit_program(alphabet), interp)


def _alphabet_facts(alphabet: Alphabet) -> Program:
    return Program.of_facts(alphabet, alphabet.atoms)


# -- law checks ----------------------------------------------------------------


def _chk_right_unit(p: Program) -> bool:
    return compose(p, unit_program(p.alphabet)) == p


def _chk_left_unit(p: Program) -> bool:
    return compose(unit_program(p.alphabet), p) == p


def _chk_left_zero(p: Program) -> bool:
    return compose(_empty(p), p) == _empty(p)


def _chk_right_dist(p: Program, r: Program, q: Program) -> bool:
    return compose(p | r, q) == compose(p, q) | compose(r, q)


def _chk_preserves_facts(p: Program, r: Program) -> bool:
    return p.facts().rules <= compose(p, r).rules


def _chk_facts_proper_split(p: Program, r: Program) -> bool:
    return compose(p, r) == p.facts() | compose(p.proper(), r)


def _chk_interp_left_zero(i: Interpretation, p: Program) -> bool:
    facts = i.to_program()
    return compose(facts, p) == facts


def _chk_krom_left_dist(k: Program, p: Program, r: Program) -> bool:
    return compose(k, p | r) == compose(k, p) | compose(k, r)


def _chk_krom_assoc(k: Program, p: Program, r: Program) -> bool:
    return compose(k, compose(p, r)) == compose(compose(k, p), r)


def _chk_krom_formula(k: Program, r: Program) -> bool:
    by_head = r.rules_by_head()
    out = {rule for rule in k.rules if rule.is_fact}
    for rule in k.rules:
        if rule.is_fact:
            continue
        (body_atom,) = tuple(rule.pos_body)
        for s in by_head.get(body_atom, ()):
            out.add(Rule(rule.head, s.pos_body, s.neg_body))
    return Program(k.alphabet, frozenset(out)) == compose(k, r)


def _chk_horn_oracle(h: Program, r: Program) -> bool:
    return compose_oracle(h, r) == compose(h, r)


def _chk_negative_hornified(n: Program, r: Program) -> bool:
    return compose(n, r) == compose(n.hornified(), negate_program(r))


def _chk_negation_unit_comp(p: Program) -> bool:
    nu = negate_program(unit_program(p.alphabet))
    return negate_program(p) == compose(nu, p)


def _chk_negation_shift(p: Program, r: Program) -> bool:
    return negate_program(compose(p, r)) == compose(negate_program(p), r)


def _chk_double_negation_unit(alphabet: Alphabet) -> bool:
    u = unit_program(alphabet)
    nu = negate_program(u)
    return compose(nu, nu) == u and negate_program(nu) == u


def _chk_cup_commutes(p: Program, r: Program) -> bool:
    return cup(p, r) == cup(r, p)


def _chk_cup_assoc(p: Program, r: Program, q: Program) -> bool:
    return cup(cup(p, r), q) == cup(p, cup(r, q))


def _chk_cup_unit(p: Program) -> bool:
    facts = _alphabet_facts(p.alphabet)
    return cup(p, facts) == p and cup(facts, p) == p


def _chk_cup_zero(p: Program) -> bool:
    return cup(p, _empty(p)) == _empty(p) and cup(_empty(p), p) == _empty(p)


def _chk_cup_dist_right(p: Program, r: Program, q: Program) -> bool:
    return cup(p | r, q) == cup(p, q) | cup(r, q)


def _chk_cup_dist_left(p: Program, r: Program, q: Program) -> bool:
    return cup(q, p | r) == cup(q, p) | cup(q, r)


def _chk_cup_conditional_factor(r1: Program, r2: Program, q: Program) -> bool:
    (rule1,) = tuple(r1.rules)
    (rule2,) = tuple(r2.rules)
    if rule1.body_literals() & rule2.body_literals():
        return True  # precondition: bodies share a literal, nothing claimed
    return compose(cup(r1, r2), q) == cup(compose(r1, q), compose(r2, q))


def _chk_rule_parts(rp: Program) -> bool:
    (rule,) = tuple(rp.rules)
    return cup(_sing(rp, rule.positive_part()), _sing(rp, rule.negative_part())) == rp


def _chk_body_split(p: Program, r: Program) -> bool:
    not_r = negate_program(r)
    acc: set[Rule] = set()
    for rule in p.rules:
        piece = cup(
            compose(_sing(p, rule.positive_part()), r),
            compose(_sing(p, rule.negative_part().hornified()), not_r),
        )
        acc |= piece.rules
    return Program(p.alphabet, frozenset(acc)) == compose(p, r)


def _chk_perm_renames(perm: dict[str, str], p: Program) -> bool:
    pp = permutation_program(p.alphabet, perm)
    return compose(compose(pp, p), pp.dual()) == p.rename(perm)


def _chk_perm_dual_unit(alphabet: Alphabet, perm: dict[str, str]) -> bool:
    pp = permutation_program(alphabet, perm)
    return compose(pp, pp.dual()) == unit_program(alphabet)


def _chk_fact_separation(p: Program) -> bool:
    return compose(kleene_star(p.facts()), p.proper()) == p


def _chk_union_facts_star(p: Program, i: Interpretation) -> bool:
    return p | i.to_program() == compose(kleene_star(i.to_program()), p)


def _chk_interp_star(i: Interpretation) -> bool:
    facts = i.to_program()
    return (
        kleene_star(facts) == unit_program(i.alphabet) | facts
        and kleene_plus(facts) == facts
        and omega(facts) == i
    )


def _chk_tp_composition(p: Program, i: Interpretation) -> bool:
    composed = compose(p, i.to_program())
    return (
        composed == composed.facts()
        and composed.fact_atoms() == tp_direct(p, i).atoms
    )


def _chk_model_prefixpoint(p: Program, i: Interpretation) -> bool:
    holds = entails_program(i, p)
    return holds == (compose(p, i.to_program()).fact_atoms() <= i.atoms)


def _chk_supported_commutes(p: Program, i: Interpretation) -> bool:
    facts = i.to_program()
    composed = compose(p, facts)
    return (composed == facts) == (composed == compose(facts, p))


def _chk_horn_gl_identity(h: Program, i: Interpretation) -> bool:
    return gl_reduct(h, i) == h


def _chk_left_reduct_unit(p: Program, i: Interpretation) -> bool:
    return left_reduct(p, i) == compose(_restricted_unit(p.alphabet, i), p)


def _chk_horn_right_reduct_unit(h: Program, i: Interpretation) -> bool:
    return right_reduct(h, i) == compose(h, _restricted_unit(h.alphabet, i))


def _chk_negative_gl_comp(n: Program, i: Interpretation) -> bool:
    return gl_reduct(n, i) == compose(n, i.to_program())


def _chk_negative_right_reduct_ominus(n: Program, i: Interpretation) -> bool:
    return right_reduct(n, i) == compose(n, ominus(i))


def _chk_negative_drops_negated(n: Program, i: Interpretation) -> bool:
    target = compose(n, _restricted_unit(n.alphabet, i.complement()))
    expected = Program(
        n.alphabet,
        frozenset(Rule(r.head, r.pos_body, r.neg_body - i.atoms) for r in n.rules),
    )
    return target == expected


def _chk_gl_union(p: Program, r: Program, i: Interpretation) -> bool:
    return gl_reduct(p | r, i) == gl_reduct(p, i) | gl_reduct(r, i)


def _chk_gl_cup(p: Program, r: Program, i: Interpretation) -> bool:
    return gl_reduct(cup(p, r), i) == cup(gl_reduct(p, i), gl_reduct(r, i))


def _chk_left_union(p: Program, r: Program, i: Interpretation) -> bool:
    return left_reduct(p | r, i) == left_reduct(p, i) | left_reduct(r, i)


def _chk_left_cup(p: Program, r: Program, i: Interpretation) -> bool:
    return left_reduct(cup(p, r), i) == cup(left_reduct(p, i), left_reduct(r, i))


def _chk_right_union(p: Program, r: Program, i: Interpretation) -> bool:
    return right_reduct(p | r, i) == right_reduct(p, i) | right_reduct(r, i)


def _chk_right_cup(p: Program, r: Program, i: Interpretation) -> bool:
    return right_reduct(cup(p, r), i) == cup(right_reduct(p, i), right_reduct(r, i))


def _chk_horn_left_shift(h: Program, g: Program, i: Interpretation) -> bool:
    return left_reduct(compose(h, g), i) == compose(left_reduct(h, i), g)


def _chk_horn_right_shift(h: Program, g: Program, i: Interpretation) -> bool:
    return right_reduct(compose(h, g), i) == compose(h, right_reduct(g, i))


def _chk_interp_reducts(i: Interpretation, j: Interpretation) -> bool:
    facts = i.to_program()
    inter = Program.of_facts(i.alphabet, i.atoms & j.atoms)
    return left_reduct(facts, j) == inter and right_reduct(facts, j) == facts


def _chk_ominus_removes(h: Program, i: Interpretation) -> bool:
    expected = Program(
        h.alphabet, frozenset(Rule(r.head, r.pos_body - i.atoms) for r in h.rules)
    )
    return compose(h, ominus(i)) == expected


def _chk_ominus_restores(i: Interpretation) -> bool:
    facts = i.to_program()
    return compose(ominus(i), facts) == facts


def _chk_oplus_extends(h: Program, lits: frozenset[Literal]) -> bool:
    ext = oplus(lits, h.alphabet)
    pos_extra = frozenset(l.atom for l in lits if not l.negated)
    neg_extra = frozenset(l.atom for l in lits if l.negated)
    expected = {r for r in h.rules if r.is_fact}
    expected |= {
        Rule(r.head, r.pos_body | pos_extra, neg_extra)
        for r in h.rules
        if not r.is_fact
    }
    return compose(h, ext) == Program(h.alphabet, frozenset(expected))


def _chk_oplus_ominus_collapse(i: Interpretation) -> bool:
    plus = oplus(frozenset(Literal(a) for a in i.atoms), i.alphabet)
    return compose(plus, ominus(i)) == ominus(i)


def _chk_oplus_absorbs(i: Interpretation) -> bool:
    plus = oplus(frozenset(Literal(a) for a in i.atoms), i.alphabet)
    facts = i.to_program()
    return compose(plus, facts) == facts


def _chk_as_minimal_model(p: Program, i: Interpretation) -> bool:
    reduct = right_reduct(p, i)
    minimal = entails_program(i, reduct)
    if minimal:
        members = sorted(i.atoms)
        for size in range(len(members)):
            for chosen in combinations(members, size):
                x = Interpretation(p.alphabet, frozenset(chosen))
                if entails_program(x, reduct):
                    minimal = False
                    break
            if not minimal:
                break
    return is_answer_set(p, i) == minimal


def _chk_lm_least(h: Program) -> bool:
    # omega, the paper's route, must reach the fixpoint iteration's model
    lm = least_model(h)
    if omega(h) != lm or not entails_program(lm, h):
        return False
    return all(
        lm.atoms <= x.atoms
        for x in all_interpretations(h.alphabet)
        if entails_program(x, h)
    )


def _chk_horn_answer_sets(h: Program) -> bool:
    return answer_sets(h) == (least_model(h),)


def _chk_gl_algebraic(p: Program, i: Interpretation) -> bool:
    return gl_reduct_algebraic(p, i) == gl_reduct(p, i)


def _chk_flp_algebraic(p: Program, i: Interpretation) -> bool:
    return flp_reduct_algebraic(p, i) == right_reduct(p, i)


def _chk_context_routes(p: Program) -> bool:
    for j in all_interpretations(p.alphabet):
        context = j.to_program()
        via_star = answer_sets(compose(kleene_star(context), p))
        via_union = answer_sets(p | context)
        if via_star != via_union:
            return False
    return True


def _chk_se_context_agreement(p: Program, r: Program, q: Program) -> bool:
    if se_models(p) != se_models(r):
        return True  # precondition: only SE-agreeing pairs say anything
    return answer_sets(p | q) == answer_sets(r | q)


def _chk_hierarchy(p: Program, r: Program) -> bool:
    strong = se_models(p) == se_models(r)
    uniform = uniformly_equivalent(p, r).equivalent
    ordinary = equivalent(p, r)
    subsuming = subsumption_equivalent(p, r).equivalent
    return (
        (not strong or uniform)
        and (not uniform or ordinary)
        and (not subsuming or ordinary)
    )


# -- non-law checks -------------------------------------------------------------


def _chk_assoc(p: Program, r: Program, q: Program) -> bool:
    return compose(p, compose(r, q)) == compose(compose(p, r), q)


def _chk_left_dist(p: Program, r: Program, q: Program) -> bool:
    return compose(p, r | q) == compose(p, r) | compose(p, q)


def _chk_cup_idempotent(p: Program) -> bool:
    return cup(p, p) == p


def _chk_cup_factor_unconditional(r1: Program, r2: Program, q: Program) -> bool:
    return compose(cup(r1, r2), q) == cup(compose(r1, q), compose(r2, q))


# -- registry -------------------------------------------------------------------


def _p(alphabet: Alphabet, *rules: Rule) -> Program:
    return Program(alphabet, frozenset(rules))


def _build_registry() -> tuple[Law, ...]:
    a3 = Alphabet(("a", "b", "c"))
    a6 = Alphabet(("a", "b", "c", "d", "e", "g"))
    chain_ctx = _p(
        a6,
        Rule("b", frozenset({"d"})),
        Rule("b", frozenset({"e"})),
        Rule("c", frozenset({"g"})),
    )
    witness_assoc = (
        _p(a6, Rule("a", frozenset({"b", "c"}))),
        _p(a6, Rule("b", frozenset({"b"})), Rule("c", frozenset({"b", "c"}))),
        chain_ctx,
    )
    witness_left_dist = (
        _p(a3, Rule("a", frozenset({"b", "c"}))),
        _p(a3, Rule.fact("b")),
        _p(a3, Rule.fact("c")),
    )
    witness_cup_idem = (
        _p(a3, Rule("a", frozenset({"b"})), Rule("a", frozenset({"c"}))),
    )
    witness_cup_factor = (
        _p(a6, Rule("a", frozenset({"b"}))),
        _p(a6, Rule("a", frozenset({"b", "c"}))),
        chain_ctx,
    )
    witness_negation_shift = (
        _p(a3, Rule("a", frozenset({"b"}), frozenset({"c"}))),
        _p(a3, Rule("c", frozenset({"c"}))),
    )

    laws = [
        Law("compose-right-unit", LAW, ("program",), _chk_right_unit),
        Law("compose-left-unit", LAW, ("program",), _chk_left_unit),
        Law("compose-left-zero-empty", LAW, ("program",), _chk_left_zero),
        Law(
            "compose-right-distributes-union",
            LAW,
            ("program", "program", "program"),
            _chk_right_dist,
            reducible=(0, 1),
            note="composition splits over the rules of its left operand",
        ),
        Law(
            "compose-preserves-facts",
            LAW,
            ("program", "program"),
            _chk_preserves_facts,
        ),
        Law(
            "compose-facts-proper-split",
            LAW,
            ("program", "program"),
            _chk_facts_proper_split,
        ),
        Law(
            "interpretation-left-zero",
            LAW,
            ("interp", "program"),
            _chk_interp_left_zero,
        ),
        Law(
            "krom-left-distributes-union",
            LAW,
            ("krom", "program", "program"),
            _chk_krom_left_dist,
            reducible=(1, 2),
            note="with a Krom-Horn left factor, union on the right splits",
        ),
        Law(
            "krom-associates",
            LAW,
            ("krom", "program", "program"),
            _chk_krom_assoc,
            reducible=(1,),
            note="single-rule middles suffice: the distribution laws lift them",
        ),
        Law("krom-simplified-composition", LAW, ("krom", "program"), _chk_krom_formula),
        Law(
            "horn-simplified-composition",
            LAW,
            ("horn", "program"),
            _chk_horn_oracle,
            cost_weight=5,
        ),
        Law(
            "negative-composition-hornified",
            LAW,
            ("negative", "program"),
            _chk_negative_hornified,
        ),
        Law("negation-as-unit-composition", LAW, ("program",), _chk_negation_unit_comp),
        Law("double-negation-unit", LAW, ("alphabet",), _chk_double_negation_unit),
        Law("cup-commutes", LAW, ("program", "program"), _chk_cup_commutes),
        Law(
            "cup-associates",
            LAW,
            ("program", "program", "program"),
            _chk_cup_assoc,
            reducible=(0, 1, 2),
            note="cup is defined pairwise on rules, so single rules suffice",
        ),
        Law("cup-unit-alphabet", LAW, ("program",), _chk_cup_unit),
        Law("cup-zero-empty", LAW, ("program",), _chk_cup_zero),
        Law(
            "cup-distributes-union-right",
            LAW,
            ("program", "program", "program"),
            _chk_cup_dist_right,
            reducible=(0, 1),
        ),
        Law(
            "cup-distributes-union-left",
            LAW,
            ("program", "program", "program"),
            _chk_cup_dist_left,
            reducible=(0, 1),
        ),
        Law(
            "cup-factors-composition-on-disjoint-bodies",
            LAW,
            ("rule", "rule", "program"),
            _chk_cup_conditional_factor,
        ),
        Law("rule-splits-into-parts", LAW, ("rule",), _chk_rule_parts),
        Law(
            "body-split-composition",
            LAW,
            ("program", "program"),
            _chk_body_split,
            cost_weight=2,
        ),
        Law("permutation-renames", LAW, ("perm", "program"), _chk_perm_renames),
        Law(
            "permutation-dual-inverts",
            LAW,
            ("alphabet", "perm"),
            _chk_perm_dual_unit,
        ),
        Law("fact-separation", LAW, ("program",), _chk_fact_separation, cost_weight=3),
        Law(
            "union-of-facts-as-star",
            LAW,
            ("program", "interp"),
            _chk_union_facts_star,
        ),
        Law("interpretation-star", LAW, ("interp",), _chk_interp_star),
        Law("tp-is-composition", LAW, ("program", "interp"), _chk_tp_composition),
        Law(
            "model-iff-prefixpoint",
            LAW,
            ("program", "interp"),
            _chk_model_prefixpoint,
        ),
        Law(
            "supported-iff-composition-commutes",
            LAW,
            ("program", "interp"),
            _chk_supported_commutes,
        ),
        Law("horn-gl-reduct-identity", LAW, ("horn", "interp"), _chk_horn_gl_identity),
        Law("left-reduct-via-unit", LAW, ("program", "interp"), _chk_left_reduct_unit),
        Law(
            "horn-right-reduct-via-unit",
            LAW,
            ("horn", "interp"),
            _chk_horn_right_reduct_unit,
        ),
        Law(
            "negative-gl-reduct-via-composition",
            LAW,
            ("negative", "interp"),
            _chk_negative_gl_comp,
        ),
        Law(
            "negative-right-reduct-via-ominus",
            LAW,
            ("negative", "interp"),
            _chk_negative_right_reduct_ominus,
            note="composition with the remover keeps literals intact",
        ),
        Law(
            "negative-drops-negated-atoms",
            LAW,
            ("negative", "interp"),
            _chk_negative_drops_negated,
        ),
        Law(
            "gl-reduct-distributes-union",
            LAW,
            ("program", "program", "interp"),
            _chk_gl_union,
            reducible=(0, 1),
        ),
        Law(
            "gl-reduct-distributes-cup",
            LAW,
            ("program", "program", "interp"),
            _chk_gl_cup,
            reducible=(0, 1),
        ),
        Law(
            "left-reduct-distributes-union",
            LAW,
            ("program", "program", "interp"),
            _chk_left_union,
            reducible=(0, 1),
        ),
        Law(
            "left-reduct-distributes-cup",
            LAW,
            ("program", "program", "interp"),
            _chk_left_cup,
            reducible=(0, 1),
        ),
        Law(
            "right-reduct-distributes-union",
            LAW,
            ("program", "program", "interp"),
            _chk_right_union,
            reducible=(0, 1),
        ),
        Law(
            "right-reduct-distributes-cup",
            LAW,
            ("program", "program", "interp"),
            _chk_right_cup,
            reducible=(0, 1),
        ),
        Law(
            "horn-left-reduct-shifts",
            LAW,
            ("horn", "horn", "interp"),
            _chk_horn_left_shift,
        ),
        Law(
            "horn-right-reduct-shifts",
            LAW,
            ("horn", "horn", "interp"),
            _chk_horn_right_shift,
        ),
        Law("interpretation-reducts", LAW, ("interp", "interp"), _chk_interp_reducts),
        Law("ominus-removes-body-atoms", LAW, ("horn", "interp"), _chk_ominus_removes),
        Law("ominus-restores-facts", LAW, ("interp",), _chk_ominus_restores),
        Law("oplus-extends-bodies", LAW, ("horn", "literals"), _chk_oplus_extends),
        Law("oplus-ominus-collapse", LAW, ("interp",), _chk_oplus_ominus_collapse),
        Law("oplus-absorbs-interpretation", LAW, ("interp",), _chk_oplus_absorbs),
        Law(
            "answer-set-iff-minimal-model-of-right-reduct",
            LAW,
            ("program", "interp"),
            _chk_as_minimal_model,
            cost_weight=10,
        ),
        Law("least-model-is-least", LAW, ("horn",), _chk_lm_least, cost_weight=5),
        Law("horn-answer-sets-least-model", LAW, ("horn",), _chk_horn_answer_sets, cost_weight=5),
        Law(
            "gl-reduct-algebraic-agrees",
            LAW,
            ("program", "interp"),
            _chk_gl_algebraic,
        ),
        Law(
            "flp-reduct-algebraic-agrees",
            LAW,
            ("program", "interp"),
            _chk_flp_algebraic,
        ),
        Law(
            "context-extension-routes-agree",
            LAW,
            ("program",),
            _chk_context_routes,
            cost_weight=30,
        ),
        Law(
            "se-agreement-implies-context-agreement",
            LAW,
            ("program", "program", "program"),
            _chk_se_context_agreement,
            reducible=(0, 1, 2),
            cost_weight=100,
        ),
        Law(
            "equivalence-hierarchy",
            LAW,
            ("program", "program"),
            _chk_hierarchy,
            reducible=(0, 1),
            cost_weight=300,
        ),
        Law(
            "compose-associates",
            NON_LAW,
            ("program", "program", "program"),
            _chk_assoc,
            fixed_witnesses=(witness_assoc,),
        ),
        Law(
            "compose-left-distributes-union",
            NON_LAW,
            ("program", "program", "program"),
            _chk_left_dist,
            fixed_witnesses=(witness_left_dist,),
        ),
        Law(
            "cup-idempotent",
            NON_LAW,
            ("program",),
            _chk_cup_idempotent,
            fixed_witnesses=(witness_cup_idem,),
        ),
        Law(
            "cup-factors-composition-unconditionally",
            NON_LAW,
            ("rule", "rule", "program"),
            _chk_cup_factor_unconditional,
            fixed_witnesses=(witness_cup_factor,),
        ),
        Law(
            "negation-shifts-left",
            NON_LAW,
            ("program", "program"),
            _chk_negation_shift,
            fixed_witnesses=(witness_negation_shift,),
            note="negation merges equal bodies before the product, so "
            "composing the negation afterwards produces extra cross-terms",
        ),
    ]
    return tuple(laws)


REGISTRY: tuple[Law, ...] = _build_registry()


def get_law(law_id: str) -> Law:
    for law in REGISTRY:
        if law.law_id == law_id:
            return law
    raise KeyError(law_id)


# -- witness handling ------------------------------------------------------------


def _shrink(law: Law, operands: tuple) -> tuple:
    """Greedy rule removal on program operands, keeping the refutation."""
    current = list(operands)
    changed = True
    while changed:
        changed = False
        for idx, operand in enumerate(current):
            if not isinstance(operand, Program):
                continue
            for rule in operand.sorted_rules():
                trial = list(current)
                trial[idx] = Program(
                    operand.alphabet, operand.rules - {rule}
                )
                try:
                    still_refuted = not law.check(*trial)
                except Exception:
                    continue  # slot constraint broken (e.g. a rule slot)
                if still_refuted:
                    current = trial
                    changed = True
                    break
            if changed:
                break
    return tuple(current)


def serialize_witness(law: Law, operands: tuple) -> tuple[str, ...]:
    out = []
    for kind, operand in zip(law.slots, operands):
        if kind == "interp":
            out.append(serialize_program(operand.to_program()))
        elif kind == "literals":
            out.append(
                ", ".join(
                    str(l)
                    for l in sorted(operand, key=lambda x: (x.negated, x.atom))
                )
            )
        elif kind == "perm":
            out.append(_perm_text(operand) if operand else "")
        elif kind == "alphabet":
            out.append(serialize_program(Program(operand)))
        else:
            out.append(serialize_program(operand))
    return tuple(out)


def _perm_text(perm: dict[str, str]) -> str:
    alphabet = Alphabet(tuple(set(perm) | set(perm.values())))
    return serialize_permutation(perm, alphabet)


def replay_witness(law: Law, witness: tuple[str, ...]) -> bool:
    """Re-parse a serialized witness and re-run the law on it."""
    programs = [
        parse_program(text)
        for kind, text in zip(law.slots, witness)
        if kind not in ("literals", "perm")
    ]
    alphabet = programs[0].alphabet if programs else Alphabet()
    operands = []
    for kind, text in zip(law.slots, witness):
        if kind == "interp":
            parsed = parse_program(text)
            operands.append(Interpretation(parsed.alphabet, parsed.fact_atoms()))
        elif kind == "literals":
            operands.append(parse_literals(text, alphabet))
        elif kind == "perm":
            operands.append(parse_permutation(text))
        elif kind == "alphabet":
            operands.append(parse_program(text).alphabet)
        else:
            operands.append(parse_program(text))
    return law.check(*operands)


# -- the engine -------------------------------------------------------------------


def _exhaustive_plan(law: Law) -> list[tuple]:
    pools = _exhaustive_pools()
    chosen = [pools[kind] for kind in law.slots]
    estimate = law.cost_weight
    for pool in chosen:
        estimate *= len(pool)
    for slot in law.reducible:
        if estimate <= EXHAUSTIVE_BUDGET:
            break
        if law.slots[slot] == "program":
            estimate //= len(chosen[slot])
            chosen[slot] = pools["single"]
            estimate *= len(chosen[slot])
    return chosen


def _run_exhaustive(law: Law) -> tuple[tuple | None, int]:
    pools = _exhaustive_plan(law)
    count = 0
    for operands in product(*pools):
        count += 1
        if not law.check(*operands):
            return operands, count
    return None, count


def run_law(
    law: Law,
    config: GeneratorConfig,
    trials: int,
    exhaustive: bool = False,
) -> LawResult:
    """Check one law: stored witnesses, then random trials, then optionally
    the bounded-exhaustive tier (laws only; non-laws are already refuted)."""
    executed = 0
    refuting: tuple | None = None
    for witness in law.fixed_witnesses:
        executed += 1
        if refuting is None and not law.check(*witness):
            refuting = witness
    for trial in range(trials):
        if refuting is not None:
            break
        operands = tuple(
            _sample_slot(
                kind, config, _derive_seed(config.seed, law.law_id, trial, slot)
            )
            for slot, kind in enumerate(law.slots)
        )
        executed += 1
        if not law.check(*operands):
            refuting = operands
    if exhaustive and refuting is None and law.expected == LAW:
        refuting, count = _run_exhaustive(law)
        executed += count
    if refuting is None:
        return LawResult(law.law_id, law.expected, HOLDS, executed)
    witness = serialize_witness(law, _shrink(law, refuting))
    return LawResult(law.law_id, law.expected, REFUTED, executed, witness)


def run_laws(
    config: GeneratorConfig,
    trials: int = 200,
    laws: Iterable[Law] | None = None,
    exhaustive: bool = False,
) -> list[LawResult]:
    """Check every registered law; deterministic for a given configuration.

    Laws are checked in worker processes, one per CPU.  Results come back in
    the order of `laws` (registry order by default) and equal those of
    calling `run_law` on each law in turn, since every trial's inputs derive
    from the seed, the law id and the trial index alone.  The laws must
    therefore be picklable, as every registry law is (its check is a
    module-level function); call `run_law` directly for an ad-hoc law such as
    one built around a lambda.  Workers are started with `spawn`, so a script
    that calls `run_laws` needs the usual `if __name__ == "__main__":` guard.
    """
    selected = REGISTRY if laws is None else tuple(laws)
    check = partial(run_law, config=config, trials=trials, exhaustive=exhaustive)
    # spawn, not fork: forking a caller that runs threads can deadlock workers
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(mp_context=spawn) as pool:
        return list(pool.map(check, selected))
