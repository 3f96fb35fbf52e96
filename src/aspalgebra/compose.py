"""Program transformations.

Sequential composition and the operators around it: negation, the cup
product that merges bodies of rules with equal heads, body-editing programs,
and Kleene iteration.

Negation follows the paper: the truth-constant completion (tf) gives every
atom a rule, the or-form groups each head's bodies, and each or-rule is
negated pointwise, resolving the truth constants as each rule is built.
Constants occur only in the output of `tf_transform` and `or_transform`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from typing import Iterable

from .core import (
    Alphabet,
    ExtProgram,
    ExtRule,
    Interpretation,
    Literal,
    OrProgram,
    OrRule,
    Program,
    Rule,
    TruthConst,
    require_same_alphabet,
    unit_program,
)
from .errors import AlphabetMismatchError


def tf_transform(program: Program) -> ExtProgram:
    """Complete a program so every atom heads at least one non-fact rule.

    Proper rules are kept, each fact `a` becomes `a :- t`, and every atom
    that heads no rule at all gets `a :- f`.  `serialize_program` lays the
    result out for display only: it does not parse back, since the truth
    constants `t` and `f` are reserved atom names.
    """
    heads = program.heads()
    rules: set[ExtRule] = set()
    for rule in program.rules:
        if rule.is_fact:
            rules.add(ExtRule(rule.head, frozenset({TruthConst.TRUE})))
        else:
            rules.add(ExtRule(rule.head, rule.body_literals()))
    for atom in program.alphabet:
        if atom not in heads:
            rules.add(ExtRule(atom, frozenset({TruthConst.FALSE})))
    return ExtProgram(program.alphabet, frozenset(rules))


def or_transform(ext_program: ExtProgram) -> OrProgram:
    """Group the rules of each head into a single rule with disjunctive body.

    Heads and bodies come in the canonical order of `sorted_rules`, so the
    result is deterministic.
    """
    grouped: dict[str, list[frozenset]] = {}
    for rule in ext_program.sorted_rules():
        grouped.setdefault(rule.head, []).append(rule.body)
    return OrProgram(
        ext_program.alphabet,
        tuple(OrRule(head, tuple(bodies)) for head, bodies in grouped.items()),
    )


@lru_cache(maxsize=8192)
def _negate_cached(program: Program) -> Program:
    """Negate each or-rule of the tf completion pointwise.

    Every choice of one literal per disjunct yields the rule whose body is
    the complement of the choice.  A chosen `t` complements to `f`, so the
    rule is dropped; a chosen `f` complements to `t` and leaves the body.
    """
    rules: set[Rule] = set()
    for or_rule in or_transform(tf_transform(program)).rules:
        for choice in product(*or_rule.bodies):
            if TruthConst.TRUE in choice:
                continue
            literals = [lit for lit in choice if lit is not TruthConst.FALSE]
            pos = frozenset(lit.atom for lit in literals if lit.negated)
            neg = frozenset(lit.atom for lit in literals if not lit.negated)
            rules.add(Rule(or_rule.head, pos, neg))
    return Program(program.alphabet, frozenset(rules))


def negate_program(program: Program) -> Program:
    """`not P`: the pointwise negation of the or-form of the tf completion."""
    return _negate_cached(program)


@lru_cache(maxsize=8192)
def compose(left: Program, right: Program) -> Program:
    """Sequential composition `left . right`.

    Each rule of `left` resolves every positive body atom against one rule of
    `right` with that head, and every negative body atom against one rule of
    `negate_program(right)` with that head; the chosen bodies are unioned.
    Rules that cannot cover some body atom contribute nothing; facts pass
    through unchanged.  Results are memoized per operand pair.
    """
    require_same_alphabet(left, right)
    by_head = right.rules_by_head()
    neg_by_head: dict[str, list[Rule]] | None = None
    out: set[Rule] = set()
    for rule in left.rules:
        pools: list[list[Rule]] = []
        feasible = True
        for atom in rule.pos_body:
            pool = by_head.get(atom)
            if not pool:
                feasible = False
                break
            pools.append(pool)
        if feasible and rule.neg_body:
            if neg_by_head is None:
                neg_by_head = negate_program(right).rules_by_head()
            for atom in rule.neg_body:
                pool = neg_by_head.get(atom)
                if not pool:
                    feasible = False
                    break
                pools.append(pool)
        if not feasible:
            continue
        for picked in product(*pools):
            pos: set[str] = set()
            neg: set[str] = set()
            for chosen in picked:
                pos |= chosen.pos_body
                neg |= chosen.neg_body
            out.add(Rule(rule.head, frozenset(pos), frozenset(neg)))
    return Program(left.alphabet, frozenset(out))


def compose_oracle(left: Program, right: Program) -> Program:
    """Composition by literal subset enumeration, as a cross-check oracle.

    For each rule, enumerate all k-subsets of `right` (k = positive body
    size) and of `negate_program(right)` (k = negative body size) and keep
    those whose head sets match the bodies exactly.  Deliberately brute
    force; `compose` must agree with it.
    """
    require_same_alphabet(left, right)
    right_rules = right.sorted_rules()
    neg_rules = negate_program(right).sorted_rules() if any(
        r.neg_body for r in left.rules
    ) else []
    out: set[Rule] = set()
    for rule in left.rules:
        for chosen_s in combinations(right_rules, len(rule.pos_body)):
            if frozenset(s.head for s in chosen_s) != rule.pos_body:
                continue
            for chosen_n in combinations(neg_rules, len(rule.neg_body)):
                if frozenset(n.head for n in chosen_n) != rule.neg_body:
                    continue
                pos: set[str] = set()
                neg: set[str] = set()
                for s in chosen_s + chosen_n:
                    pos |= s.pos_body
                    neg |= s.neg_body
                out.add(Rule(rule.head, frozenset(pos), frozenset(neg)))
    return Program(left.alphabet, frozenset(out))


def cup(left: Program, right: Program) -> Program:
    """Merge the bodies of every pair of rules with equal heads."""
    require_same_alphabet(left, right)
    by_head = right.rules_by_head()
    out: set[Rule] = set()
    for rule in left.rules:
        for other in by_head.get(rule.head, ()):
            out.add(
                Rule(
                    rule.head,
                    rule.pos_body | other.pos_body,
                    rule.neg_body | other.neg_body,
                )
            )
    return Program(left.alphabet, frozenset(out))


def ominus(interpretation: Interpretation) -> Program:
    """The body-atom remover: `a :- a` outside I plus the facts of I.

    Composing a Horn program with it on the right deletes the atoms of I
    from every rule body.
    """
    alphabet = interpretation.alphabet
    rules = {Rule(a, frozenset({a})) for a in alphabet if a not in interpretation}
    rules |= {Rule.fact(a) for a in interpretation.atoms}
    return Program(alphabet, frozenset(rules))


def oplus(body: Iterable[Literal], alphabet: Alphabet) -> Program:
    """The body extender: `a :- {a} u body` for every atom of the alphabet.

    Composing a Horn program with it on the right appends `body` to every
    proper rule.  The definition is applied verbatim: for an atom `x` with
    `not x` in `body` the never-firing rule `x :- x, not x` is still emitted.
    """
    literals = frozenset(body)
    for lit in literals:
        if lit.atom not in alphabet:
            raise AlphabetMismatchError(
                f"literal '{lit}' is not over the alphabet {alphabet}"
            )
    pos_extra = frozenset(l.atom for l in literals if not l.negated)
    neg_extra = frozenset(l.atom for l in literals if l.negated)
    return Program(
        alphabet,
        frozenset(Rule(a, pos_extra | {a}, neg_extra) for a in alphabet),
    )


def power(program: Program, exponent: int) -> Program:
    """Left-associated composition power; the zeroth power is the unit."""
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    acc = unit_program(program.alphabet)
    for _ in range(exponent):
        acc = compose(acc, program)
    return acc


@lru_cache(maxsize=8192)
def kleene_star(program: Program) -> Program:
    """Union of all composition powers.

    The powers of a program form an eventually periodic sequence, so the
    union is taken over the powers seen until the first repeat.  Results are
    memoized per program.
    """
    seen: set[Program] = set()
    rules: set[Rule] = set()
    current = unit_program(program.alphabet)
    while current not in seen:
        seen.add(current)
        rules |= current.rules
        current = compose(current, program)
    return Program(program.alphabet, frozenset(rules))


def kleene_plus(program: Program) -> Program:
    """`star(p) . p`, the union of all positive powers."""
    return compose(kleene_star(program), program)


def omega(program: Program) -> Interpretation:
    """The facts reachable by iterated composition: `plus(p) . {}`.

    Composition with the empty program keeps exactly the rules that need no
    positive support and whose negative body can be discharged, so the result
    is always a fact program; it is returned as an interpretation.  For Horn
    programs it coincides with the facts of `kleene_plus(program)`.
    """
    empty = Program(program.alphabet)
    result = compose(kleene_plus(program), empty)
    return Interpretation.from_fact_program(result)
