"""Seeded law checking.

A registry of algebraic identities, each tagged with its expected verdict:
`law` entries must hold on every sampled instance, `non-law` entries ship a
stored counterexample that must refute them.  Each entry is declared once, by
the `_law` decorator on its check (a non-law that is a law's identity on a
wider class registers that law's check again), and `REGISTRY` keeps
declaration order.
The engine runs a seeded random tier (reproducible: every trial's inputs
derive from the master seed, the law id and the trial index) and an optional
bounded-exhaustive tier over the two-atom universe of programs with at most
two rules of at most two body literals.

For multi-operand laws the full exhaustive product can be infeasible.  A law
names in `single_rule` the program slots over which its identity decomposes
rule by rule; the exhaustive tier draws those slots from the single-rule
programs only.  How each slot kind is sampled, written as witness text, read
back and shrunk is kept in one table, `_SLOTS`.  Refutations are greedily
shrunk (rule removal) and serialized so they can be replayed.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import cache, partial
from itertools import combinations, product
from typing import Any, Callable

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
    literal_key,
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


def _random_interp(rng: random.Random, config: GeneratorConfig) -> Interpretation:
    alphabet = alphabet_for(config)
    return Interpretation(
        alphabet, frozenset(a for a in alphabet.atoms if rng.random() < 0.5)
    )


def generate_program(config: GeneratorConfig) -> Program:
    """The random program determined by the configuration (and its seed)."""
    return _random_program(random.Random(config.seed), config)


def generate_interpretation(config: GeneratorConfig) -> Interpretation:
    return _random_interp(random.Random(config.seed), config)


def _derive_seed(master: int, *parts: object) -> int:
    payload = ":".join([str(master), *map(str, parts)]).encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


# -- slot kinds ------------------------------------------------------------------


def _random_horn(rng: random.Random, config: GeneratorConfig) -> Program:
    return _random_program(rng, replace(config, negative_literal_probability=0.0))


def _random_krom(rng: random.Random, config: GeneratorConfig) -> Program:
    alphabet = alphabet_for(config)
    atoms = alphabet.atoms
    rules = frozenset(
        Rule(
            rng.choice(atoms),
            frozenset({rng.choice(atoms)} if rng.random() < 0.75 else set()),
        )
        for _ in range(rng.randint(0, config.max_rules))
    )
    return Program(alphabet, rules)


def _random_negative(rng: random.Random, config: GeneratorConfig) -> Program:
    alphabet = alphabet_for(config)
    atoms = alphabet.atoms
    rules = frozenset(
        Rule(
            rng.choice(atoms),
            frozenset(),
            frozenset(rng.choice(atoms) for _ in range(rng.randint(0, config.max_body))),
        )
        for _ in range(rng.randint(0, config.max_rules))
    )
    return Program(alphabet, rules)


def _random_single_rule(rng: random.Random, config: GeneratorConfig) -> Program:
    alphabet = alphabet_for(config)
    rule = _random_rule(
        rng, alphabet.atoms, config.max_body, config.negative_literal_probability
    )
    return Program(alphabet, frozenset({rule}))


def _random_literals(rng: random.Random, config: GeneratorConfig) -> frozenset[Literal]:
    atoms = alphabet_for(config).atoms
    picked: set[Literal] = set()
    for _ in range(rng.randint(0, config.max_body)):
        picked.add(
            Literal(
                rng.choice(atoms),
                rng.random() < config.negative_literal_probability,
            )
        )
    return frozenset(picked)


def _random_perm(rng: random.Random, config: GeneratorConfig) -> dict[str, str]:
    atoms = alphabet_for(config).atoms
    images = list(atoms)
    rng.shuffle(images)
    return dict(zip(atoms, images))


# Library functions are reached through module globals, never stored in the
# table, so that rebinding a module attribute (as a tracer does) takes effect.


def _program_text(program: Program) -> str:
    return serialize_program(program)


def _read_program(text: str) -> Program:
    return parse_program(text)


def _read_interp(text: str) -> Interpretation:
    return Interpretation.from_fact_program(parse_program(text))


def _literals_text(literals: frozenset[Literal]) -> str:
    return ", ".join(str(l) for l in sorted(literals, key=literal_key))


def _perm_text(perm: dict[str, str]) -> str:
    if not perm:
        return ""
    alphabet = Alphabet(tuple(set(perm) | set(perm.values())))
    return serialize_permutation(perm, alphabet)


@dataclass(frozen=True)
class _Slot:
    """One slot kind: how an operand is drawn, written as witness text and
    read back from that text alone (programs, interpretations and alphabets
    carry `#alphabet`, permutations their fixed points; a literal list needs
    no alphabet, since `oplus` checks its atoms against the Horn operand)."""

    sample: Callable[[random.Random, GeneratorConfig], Any]
    #: removing a rule keeps the operand in its kind, so witnesses shrink
    shrinks: bool = False
    text: Callable[[Any], str] = _program_text
    parse: Callable[[str], Any] = _read_program


_SLOTS: dict[str, _Slot] = {
    "program": _Slot(_random_program, shrinks=True),
    "horn": _Slot(_random_horn, shrinks=True),
    "krom": _Slot(_random_krom, shrinks=True),
    "negative": _Slot(_random_negative, shrinks=True),
    "rule": _Slot(_random_single_rule),
    "interp": _Slot(
        _random_interp,
        text=lambda i: serialize_program(i.to_program()),
        parse=_read_interp,
    ),
    "literals": _Slot(
        _random_literals,
        text=_literals_text,
        parse=lambda text: parse_literals(text),
    ),
    "perm": _Slot(
        _random_perm,
        text=_perm_text,
        parse=lambda text: parse_permutation(text),
    ),
    "alphabet": _Slot(
        lambda rng, config: alphabet_for(config),
        text=lambda alphabet: serialize_program(Program(alphabet)),
        parse=lambda text: parse_program(text).alphabet,
    ),
}


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
    """One identity: its id, expected verdict, slot kinds and check.

    `single_rule` names the program slots that the exhaustive tier draws from
    the single-rule programs instead of the whole two-atom universe, for
    identities that decompose rule by rule over those slots.
    `fixed_witnesses` are stored operand tuples checked before any sampling;
    every expected non-law has one that refutes it.
    """

    law_id: str
    expected: str
    slots: tuple[str, ...]
    check: Callable[..., bool]
    single_rule: tuple[int, ...] = ()
    fixed_witnesses: tuple[tuple, ...] = ()


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


_declared: list[Law] = []


def _law(
    law_id: str,
    *slots: str,
    expected: str = LAW,
    single_rule: tuple[int, ...] = (),
    witness: tuple | None = None,
) -> Callable[[Callable[..., bool]], Callable[..., bool]]:
    """Register the decorated check as law `law_id` over `slots`.

    The check itself is returned, so that it stays a module-level function
    the `run_laws` worker pool can pickle by name.
    """

    def declare(check: Callable[..., bool]) -> Callable[..., bool]:
        witnesses = () if witness is None else (witness,)
        _declared.append(Law(law_id, expected, slots, check, single_rule, witnesses))
        return check

    return declare


# -- helpers used by the checks ------------------------------------------------


def _sing(program: Program, rule: Rule) -> Program:
    return Program(program.alphabet, frozenset({rule}))


def _empty(program: Program) -> Program:
    return Program(program.alphabet)


def _restricted_unit(alphabet: Alphabet, interp: Interpretation) -> Program:
    return right_reduct(unit_program(alphabet), interp)


def _alphabet_facts(alphabet: Alphabet) -> Program:
    return Program.of_facts(alphabet, alphabet.atoms)


def _p(alphabet: Alphabet, *rules: Rule) -> Program:
    return Program(alphabet, frozenset(rules))


# -- law checks, in registry order ---------------------------------------------


@_law("compose-right-unit", "program")
def _chk_right_unit(p: Program) -> bool:
    return compose(p, unit_program(p.alphabet)) == p


@_law("compose-left-unit", "program")
def _chk_left_unit(p: Program) -> bool:
    return compose(unit_program(p.alphabet), p) == p


@_law("compose-left-zero-empty", "program")
def _chk_left_zero(p: Program) -> bool:
    return compose(_empty(p), p) == _empty(p)


@_law(
    "compose-right-distributes-union",
    "program",
    "program",
    "program",
    single_rule=(0, 1),
)
def _chk_right_dist(p: Program, r: Program, q: Program) -> bool:
    """Composition splits over the rules of its left operand."""
    return compose(p | r, q) == compose(p, q) | compose(r, q)


@_law("compose-preserves-facts", "program", "program")
def _chk_preserves_facts(p: Program, r: Program) -> bool:
    return p.facts().rules <= compose(p, r).rules


@_law("compose-facts-proper-split", "program", "program")
def _chk_facts_proper_split(p: Program, r: Program) -> bool:
    return compose(p, r) == p.facts() | compose(p.proper(), r)


@_law("interpretation-left-zero", "interp", "program")
def _chk_interp_left_zero(i: Interpretation, p: Program) -> bool:
    facts = i.to_program()
    return compose(facts, p) == facts


@_law("krom-left-distributes-union", "krom", "program", "program", single_rule=(1,))
def _chk_krom_left_dist(k: Program, p: Program, r: Program) -> bool:
    """`k . (p u r) = k . p u k . r`: a law for Krom-Horn `k`, and the
    non-law `compose-left-distributes-union` for any `k`."""
    return compose(k, p | r) == compose(k, p) | compose(k, r)


@_law("krom-associates", "krom", "program", "program", single_rule=(1,))
def _chk_krom_assoc(k: Program, p: Program, r: Program) -> bool:
    """`k . (p . r) = (k . p) . r`: a law for Krom-Horn `k` (single-rule
    middles suffice: the distribution laws lift them), and the non-law
    `compose-associates` for any `k`."""
    return compose(k, compose(p, r)) == compose(compose(k, p), r)


@_law("krom-simplified-composition", "krom", "program")
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


@_law("horn-simplified-composition", "horn", "program")
def _chk_horn_oracle(h: Program, r: Program) -> bool:
    return compose_oracle(h, r) == compose(h, r)


@_law("negative-composition-hornified", "negative", "program")
def _chk_negative_hornified(n: Program, r: Program) -> bool:
    return compose(n, r) == compose(n.hornified(), negate_program(r))


@_law("negation-as-unit-composition", "program")
def _chk_negation_unit_comp(p: Program) -> bool:
    nu = negate_program(unit_program(p.alphabet))
    return negate_program(p) == compose(nu, p)


@_law("double-negation-unit", "alphabet")
def _chk_double_negation_unit(alphabet: Alphabet) -> bool:
    u = unit_program(alphabet)
    nu = negate_program(u)
    return compose(nu, nu) == u and negate_program(nu) == u


@_law("cup-commutes", "program", "program")
def _chk_cup_commutes(p: Program, r: Program) -> bool:
    return cup(p, r) == cup(r, p)


@_law("cup-associates", "program", "program", "program", single_rule=(0, 1))
def _chk_cup_assoc(p: Program, r: Program, q: Program) -> bool:
    """Cup is defined pairwise on rules, so single rules suffice."""
    return cup(cup(p, r), q) == cup(p, cup(r, q))


@_law("cup-unit-alphabet", "program")
def _chk_cup_unit(p: Program) -> bool:
    facts = _alphabet_facts(p.alphabet)
    return cup(p, facts) == p and cup(facts, p) == p


@_law("cup-zero-empty", "program")
def _chk_cup_zero(p: Program) -> bool:
    return cup(p, _empty(p)) == _empty(p) and cup(_empty(p), p) == _empty(p)


@_law("cup-distributes-union-right", "program", "program", "program", single_rule=(0, 1))
def _chk_cup_dist_right(p: Program, r: Program, q: Program) -> bool:
    return cup(p | r, q) == cup(p, q) | cup(r, q)


@_law("cup-distributes-union-left", "program", "program", "program", single_rule=(0, 1))
def _chk_cup_dist_left(p: Program, r: Program, q: Program) -> bool:
    return cup(q, p | r) == cup(q, p) | cup(q, r)


@_law("cup-factors-composition-on-disjoint-bodies", "rule", "rule", "program")
def _chk_cup_conditional_factor(r1: Program, r2: Program, q: Program) -> bool:
    (rule1,) = tuple(r1.rules)
    (rule2,) = tuple(r2.rules)
    if rule1.body_literals() & rule2.body_literals():
        return True  # precondition: bodies share a literal, nothing claimed
    return compose(cup(r1, r2), q) == cup(compose(r1, q), compose(r2, q))


@_law("rule-splits-into-parts", "rule")
def _chk_rule_parts(rp: Program) -> bool:
    (rule,) = tuple(rp.rules)
    return cup(_sing(rp, rule.positive_part()), _sing(rp, rule.negative_part())) == rp


@_law("body-split-composition", "program", "program")
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


@_law("permutation-renames", "perm", "program")
def _chk_perm_renames(perm: dict[str, str], p: Program) -> bool:
    pp = permutation_program(p.alphabet, perm)
    return compose(compose(pp, p), pp.dual()) == p.rename(perm)


@_law("permutation-dual-inverts", "alphabet", "perm")
def _chk_perm_dual_unit(alphabet: Alphabet, perm: dict[str, str]) -> bool:
    pp = permutation_program(alphabet, perm)
    return compose(pp, pp.dual()) == unit_program(alphabet)


@_law("fact-separation", "program")
def _chk_fact_separation(p: Program) -> bool:
    return compose(kleene_star(p.facts()), p.proper()) == p


@_law("union-of-facts-as-star", "program", "interp")
def _chk_union_facts_star(p: Program, i: Interpretation) -> bool:
    return p | i.to_program() == compose(kleene_star(i.to_program()), p)


@_law("interpretation-star", "interp")
def _chk_interp_star(i: Interpretation) -> bool:
    facts = i.to_program()
    return (
        kleene_star(facts) == unit_program(i.alphabet) | facts
        and kleene_plus(facts) == facts
        and omega(facts) == i
    )


@_law("tp-is-composition", "program", "interp")
def _chk_tp_composition(p: Program, i: Interpretation) -> bool:
    composed = compose(p, i.to_program())
    return (
        composed == composed.facts()
        and composed.fact_atoms() == tp_direct(p, i).atoms
    )


@_law("model-iff-prefixpoint", "program", "interp")
def _chk_model_prefixpoint(p: Program, i: Interpretation) -> bool:
    holds = entails_program(i, p)
    return holds == (compose(p, i.to_program()).fact_atoms() <= i.atoms)


@_law("supported-iff-composition-commutes", "program", "interp")
def _chk_supported_commutes(p: Program, i: Interpretation) -> bool:
    facts = i.to_program()
    composed = compose(p, facts)
    return (composed == facts) == (composed == compose(facts, p))


@_law("horn-gl-reduct-identity", "horn", "interp")
def _chk_horn_gl_identity(h: Program, i: Interpretation) -> bool:
    return gl_reduct(h, i) == h


@_law("left-reduct-via-unit", "program", "interp")
def _chk_left_reduct_unit(p: Program, i: Interpretation) -> bool:
    return left_reduct(p, i) == compose(_restricted_unit(p.alphabet, i), p)


@_law("horn-right-reduct-via-unit", "horn", "interp")
def _chk_horn_right_reduct_unit(h: Program, i: Interpretation) -> bool:
    return right_reduct(h, i) == compose(h, _restricted_unit(h.alphabet, i))


@_law("negative-gl-reduct-via-composition", "negative", "interp")
def _chk_negative_gl_comp(n: Program, i: Interpretation) -> bool:
    return gl_reduct(n, i) == compose(n, i.to_program())


@_law("negative-right-reduct-via-ominus", "negative", "interp")
def _chk_negative_right_reduct_ominus(n: Program, i: Interpretation) -> bool:
    """Composition with the remover keeps literals intact."""
    return right_reduct(n, i) == compose(n, ominus(i))


@_law("negative-drops-negated-atoms", "negative", "interp")
def _chk_negative_drops_negated(n: Program, i: Interpretation) -> bool:
    target = compose(n, _restricted_unit(n.alphabet, i.complement()))
    expected = Program(
        n.alphabet,
        frozenset(Rule(r.head, r.pos_body, r.neg_body - i.atoms) for r in n.rules),
    )
    return target == expected


@_law("gl-reduct-distributes-union", "program", "program", "interp", single_rule=(0,))
def _chk_gl_union(p: Program, r: Program, i: Interpretation) -> bool:
    return gl_reduct(p | r, i) == gl_reduct(p, i) | gl_reduct(r, i)


@_law("gl-reduct-distributes-cup", "program", "program", "interp", single_rule=(0,))
def _chk_gl_cup(p: Program, r: Program, i: Interpretation) -> bool:
    return gl_reduct(cup(p, r), i) == cup(gl_reduct(p, i), gl_reduct(r, i))


@_law("left-reduct-distributes-union", "program", "program", "interp", single_rule=(0,))
def _chk_left_union(p: Program, r: Program, i: Interpretation) -> bool:
    return left_reduct(p | r, i) == left_reduct(p, i) | left_reduct(r, i)


@_law("left-reduct-distributes-cup", "program", "program", "interp", single_rule=(0,))
def _chk_left_cup(p: Program, r: Program, i: Interpretation) -> bool:
    return left_reduct(cup(p, r), i) == cup(left_reduct(p, i), left_reduct(r, i))


@_law("right-reduct-distributes-union", "program", "program", "interp", single_rule=(0,))
def _chk_right_union(p: Program, r: Program, i: Interpretation) -> bool:
    return right_reduct(p | r, i) == right_reduct(p, i) | right_reduct(r, i)


@_law("right-reduct-distributes-cup", "program", "program", "interp", single_rule=(0,))
def _chk_right_cup(p: Program, r: Program, i: Interpretation) -> bool:
    return right_reduct(cup(p, r), i) == cup(right_reduct(p, i), right_reduct(r, i))


@_law("horn-left-reduct-shifts", "horn", "horn", "interp")
def _chk_horn_left_shift(h: Program, g: Program, i: Interpretation) -> bool:
    return left_reduct(compose(h, g), i) == compose(left_reduct(h, i), g)


@_law("horn-right-reduct-shifts", "horn", "horn", "interp")
def _chk_horn_right_shift(h: Program, g: Program, i: Interpretation) -> bool:
    return right_reduct(compose(h, g), i) == compose(h, right_reduct(g, i))


@_law("interpretation-reducts", "interp", "interp")
def _chk_interp_reducts(i: Interpretation, j: Interpretation) -> bool:
    facts = i.to_program()
    inter = Program.of_facts(i.alphabet, i.atoms & j.atoms)
    return left_reduct(facts, j) == inter and right_reduct(facts, j) == facts


@_law("ominus-removes-body-atoms", "horn", "interp")
def _chk_ominus_removes(h: Program, i: Interpretation) -> bool:
    expected = Program(
        h.alphabet, frozenset(Rule(r.head, r.pos_body - i.atoms) for r in h.rules)
    )
    return compose(h, ominus(i)) == expected


@_law("ominus-restores-facts", "interp")
def _chk_ominus_restores(i: Interpretation) -> bool:
    facts = i.to_program()
    return compose(ominus(i), facts) == facts


@_law("oplus-extends-bodies", "horn", "literals")
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


@_law("oplus-ominus-collapse", "interp")
def _chk_oplus_ominus_collapse(i: Interpretation) -> bool:
    plus = oplus(frozenset(Literal(a) for a in i.atoms), i.alphabet)
    return compose(plus, ominus(i)) == ominus(i)


@_law("oplus-absorbs-interpretation", "interp")
def _chk_oplus_absorbs(i: Interpretation) -> bool:
    plus = oplus(frozenset(Literal(a) for a in i.atoms), i.alphabet)
    facts = i.to_program()
    return compose(plus, facts) == facts


@_law("answer-set-iff-minimal-model-of-right-reduct", "program", "interp")
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


@_law("least-model-is-least", "horn")
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


@_law("horn-answer-sets-least-model", "horn")
def _chk_horn_answer_sets(h: Program) -> bool:
    return answer_sets(h) == (least_model(h),)


@_law("gl-reduct-algebraic-agrees", "program", "interp")
def _chk_gl_algebraic(p: Program, i: Interpretation) -> bool:
    return gl_reduct_algebraic(p, i) == gl_reduct(p, i)


@_law("flp-reduct-algebraic-agrees", "program", "interp")
def _chk_flp_algebraic(p: Program, i: Interpretation) -> bool:
    return flp_reduct_algebraic(p, i) == right_reduct(p, i)


@_law("context-extension-routes-agree", "program")
def _chk_context_routes(p: Program) -> bool:
    for j in all_interpretations(p.alphabet):
        context = j.to_program()
        via_star = answer_sets(compose(kleene_star(context), p))
        via_union = answer_sets(p | context)
        if via_star != via_union:
            return False
    return True


@_law(
    "se-agreement-implies-context-agreement",
    "program",
    "program",
    "program",
    single_rule=(0, 1, 2),
)
def _chk_se_context_agreement(p: Program, r: Program, q: Program) -> bool:
    if se_models(p) != se_models(r):
        return True  # precondition: only SE-agreeing pairs say anything
    return answer_sets(p | q) == answer_sets(r | q)


@_law("equivalence-hierarchy", "program", "program", single_rule=(0, 1))
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


# -- non-law checks, each with its stored counterexample --------------------------

_A3 = Alphabet(("a", "b", "c"))
_A6 = Alphabet(("a", "b", "c", "d", "e", "g"))
_CHAIN_CONTEXT = _p(
    _A6,
    Rule("b", frozenset({"d"})),
    Rule("b", frozenset({"e"})),
    Rule("c", frozenset({"g"})),
)

_ASSOC_WITNESS = (
    _p(_A6, Rule("a", frozenset({"b", "c"}))),
    _p(_A6, Rule("b", frozenset({"b"})), Rule("c", frozenset({"b", "c"}))),
    _CHAIN_CONTEXT,
)


_law(
    "compose-associates",
    "program",
    "program",
    "program",
    expected=NON_LAW,
    witness=_ASSOC_WITNESS,
)(_chk_krom_assoc)


_LEFT_DIST_WITNESS = (
    _p(_A3, Rule("a", frozenset({"b", "c"}))),
    _p(_A3, Rule.fact("b")),
    _p(_A3, Rule.fact("c")),
)


_law(
    "compose-left-distributes-union",
    "program",
    "program",
    "program",
    expected=NON_LAW,
    witness=_LEFT_DIST_WITNESS,
)(_chk_krom_left_dist)


_CUP_IDEMPOTENT_WITNESS = (
    _p(_A3, Rule("a", frozenset({"b"})), Rule("a", frozenset({"c"}))),
)


@_law("cup-idempotent", "program", expected=NON_LAW, witness=_CUP_IDEMPOTENT_WITNESS)
def _chk_cup_idempotent(p: Program) -> bool:
    return cup(p, p) == p


_CUP_FACTOR_WITNESS = (
    _p(_A6, Rule("a", frozenset({"b"}))),
    _p(_A6, Rule("a", frozenset({"b", "c"}))),
    _CHAIN_CONTEXT,
)


@_law(
    "cup-factors-composition-unconditionally",
    "rule",
    "rule",
    "program",
    expected=NON_LAW,
    witness=_CUP_FACTOR_WITNESS,
)
def _chk_cup_factor_unconditional(r1: Program, r2: Program, q: Program) -> bool:
    return compose(cup(r1, r2), q) == cup(compose(r1, q), compose(r2, q))


_NEGATION_SHIFT_WITNESS = (
    _p(_A3, Rule("a", frozenset({"b"}), frozenset({"c"}))),
    _p(_A3, Rule("c", frozenset({"c"}))),
)


@_law(
    "negation-shifts-left",
    "program",
    "program",
    expected=NON_LAW,
    witness=_NEGATION_SHIFT_WITNESS,
)
def _chk_negation_shift(p: Program, r: Program) -> bool:
    """Negation merges equal bodies before the product, so composing the
    negation afterwards produces extra cross-terms."""
    return negate_program(compose(p, r)) == compose(negate_program(p), r)


REGISTRY: tuple[Law, ...] = tuple(_declared)


def get_law(law_id: str) -> Law:
    for law in REGISTRY:
        if law.law_id == law_id:
            return law
    raise KeyError(law_id)


# -- witness handling ------------------------------------------------------------


def _shrink(law: Law, operands: tuple) -> tuple:
    """Greedy rule removal on the operands whose kind survives it, keeping
    the refutation."""
    current = list(operands)
    changed = True
    while changed:
        changed = False
        for idx, kind in enumerate(law.slots):
            if not _SLOTS[kind].shrinks:
                continue
            operand = current[idx]
            for rule in operand.sorted_rules():
                trial = list(current)
                trial[idx] = Program(operand.alphabet, operand.rules - {rule})
                if not law.check(*trial):
                    current = trial
                    changed = True
                    break
            if changed:
                break
    return tuple(current)


def serialize_witness(law: Law, operands: tuple) -> tuple[str, ...]:
    return tuple(
        _SLOTS[kind].text(operand) for kind, operand in zip(law.slots, operands)
    )


def replay_witness(law: Law, witness: tuple[str, ...]) -> bool:
    """Re-parse a serialized witness and re-run the law on it."""
    return law.check(
        *(_SLOTS[kind].parse(text) for kind, text in zip(law.slots, witness))
    )


# -- the engine -------------------------------------------------------------------


def _exhaustive_plan(law: Law) -> list[tuple]:
    pools = _exhaustive_pools()
    return [
        pools["single" if slot in law.single_rule else kind]
        for slot, kind in enumerate(law.slots)
    ]


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
            _SLOTS[kind].sample(
                random.Random(_derive_seed(config.seed, law.law_id, trial, slot)),
                config,
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
    exhaustive: bool = False,
) -> list[LawResult]:
    """Check every registered law; deterministic for a given configuration.

    Laws are checked in worker processes, one per CPU.  Results come back in
    registry order and equal those of calling `run_law` on each law in turn,
    since every trial's inputs derive from the seed, the law id and the trial
    index alone.  Workers are started with `spawn`, so a script that calls
    `run_laws` needs the usual `if __name__ == "__main__":` guard.
    """
    check = partial(run_law, config=config, trials=trials, exhaustive=exhaustive)
    # spawn, not fork: forking a caller that runs threads can deadlock workers
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(mp_context=spawn) as pool:
        return list(pool.map(check, REGISTRY))
