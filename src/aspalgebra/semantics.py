"""Model-theoretic side of the algebra.

Entailment, the one-step consequence operator, the four reducts (left,
right/FLP, Gelfond-Lifschitz, and the restriction), least models of Horn
programs, answer sets, and the equivalence notions up to strong equivalence.

Each operation has one direct implementation, and the library itself only
uses that one: the one-step operator `tp_direct`, least models by fixpoint
iteration, the reducts by their definitions, and the equivalences through
answer sets of `P u context` and SE-models.  The algebraic routes of the
paper (`tp` as composition with an interpretation, `omega`, the algebraic
GL/FLP reducts, `star(J) . P` as a fact context) stay public and return
their own result; that they agree with the direct routes is stated once, as
laws in `lawcheck`'s registry (see the README for the law ids).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterator

from .compose import compose, cup, ominus
from .core import (
    Alphabet,
    Interpretation,
    Program,
    Rule,
    require_same_alphabet,
)
from .errors import (
    AlphabetTooLargeError,
    InternalMismatchError,
    NotHornError,
)
from .textio import serialize_program

#: Default cap on alphabet size for operations enumerating all interpretations.
DEFAULT_MAX_ATOMS = 20


def entails(interpretation: Interpretation, rule: Rule) -> bool:
    """Classical satisfaction: body satisfied implies head in the model."""
    atoms = interpretation.atoms
    return (
        rule.head in atoms
        or not rule.pos_body <= atoms
        or bool(rule.neg_body & atoms)
    )


def entails_body(interpretation: Interpretation, rule: Rule) -> bool:
    atoms = interpretation.atoms
    return rule.pos_body <= atoms and not rule.neg_body & atoms


def entails_program(interpretation: Interpretation, program: Program) -> bool:
    require_same_alphabet(interpretation, program)
    return all(entails(interpretation, r) for r in program.rules)


def tp_direct(program: Program, interpretation: Interpretation) -> Interpretation:
    """Heads of the rules whose bodies the interpretation satisfies."""
    require_same_alphabet(program, interpretation)
    return Interpretation(
        program.alphabet,
        frozenset(
            r.head for r in program.rules if entails_body(interpretation, r)
        ),
    )


def tp(program: Program, interpretation: Interpretation) -> Interpretation:
    """One-step consequences via composition: the facts of `P . I`.

    Equal to `tp_direct` by the law `tp-is-composition`; the library itself
    uses `tp_direct`.
    """
    composed = compose(program, interpretation.to_program())
    return Interpretation(program.alphabet, composed.fact_atoms())


# -- reducts ----------------------------------------------------------------


def left_reduct(program: Program, interpretation: Interpretation) -> Program:
    """Keep the rules whose head the interpretation satisfies."""
    require_same_alphabet(program, interpretation)
    return Program(
        program.alphabet,
        frozenset(r for r in program.rules if r.head in interpretation),
    )


def right_reduct(program: Program, interpretation: Interpretation) -> Program:
    """Keep the rules whose body the interpretation satisfies (the FLP reduct)."""
    require_same_alphabet(program, interpretation)
    return Program(
        program.alphabet,
        frozenset(r for r in program.rules if entails_body(interpretation, r)),
    )


flp_reduct = right_reduct


def gl_reduct(program: Program, interpretation: Interpretation) -> Program:
    """Gelfond-Lifschitz reduct: drop rules blocked by the interpretation,
    strip the negative literals from the rest."""
    require_same_alphabet(program, interpretation)
    return Program(
        program.alphabet,
        frozenset(
            r.positive_part()
            for r in program.rules
            if not r.neg_body & interpretation.atoms
        ),
    )


def restrict(program: Program, interpretation: Interpretation) -> Program:
    """Rules whose head and body are both over the interpretation: the left
    reduct of the right reduct (the two reducts commute)."""
    return left_reduct(right_reduct(program, interpretation), interpretation)


def _singleton(program: Program, rule: Rule) -> Program:
    return Program(program.alphabet, frozenset({rule}))


def _unit_on(alphabet: Alphabet, atoms: frozenset[str]) -> Program:
    return Program(alphabet, frozenset(Rule(a, frozenset({a})) for a in atoms))


def gl_reduct_algebraic(program: Program, interpretation: Interpretation) -> Program:
    """GL reduct through the algebra: union over rules of
    `{positive part} cup ({negative part} . I)`.

    Equal to `gl_reduct` by the law `gl-reduct-algebraic-agrees`.
    """
    require_same_alphabet(program, interpretation)
    facts = interpretation.to_program()
    rules: set[Rule] = set()
    for rule in program.rules:
        piece = cup(
            _singleton(program, rule.positive_part()),
            compose(_singleton(program, rule.negative_part()), facts),
        )
        rules |= piece.rules
    return Program(program.alphabet, frozenset(rules))


def flp_reduct_algebraic(program: Program, interpretation: Interpretation) -> Program:
    """FLP reduct through the algebra: union over rules of
    `({positive part} . 1_I) cup ({negative part} . I^-)`.

    `1_I` keeps a positive part exactly when its body holds in I, and
    composing a negative part with the remover `I^-` keeps it, literals
    intact, exactly when none of its atoms lies in I.  Equal to
    `right_reduct` by the law `flp-reduct-algebraic-agrees`.
    """
    require_same_alphabet(program, interpretation)
    unit_i = _unit_on(program.alphabet, interpretation.atoms)
    remover = ominus(interpretation)
    rules: set[Rule] = set()
    for rule in program.rules:
        piece = cup(
            compose(_singleton(program, rule.positive_part()), unit_i),
            compose(_singleton(program, rule.negative_part()), remover),
        )
        rules |= piece.rules
    return Program(program.alphabet, frozenset(rules))


# -- models and fixpoints -----------------------------------------------------


def is_model(program: Program, interpretation: Interpretation) -> bool:
    """True when the interpretation is a prefixpoint of the consequence
    operator (laws `model-iff-prefixpoint`, `tp-is-composition`)."""
    return tp_direct(program, interpretation).atoms <= interpretation.atoms


def is_supported_model(program: Program, interpretation: Interpretation) -> bool:
    """True when the interpretation is a fixpoint of the consequence operator."""
    return tp_direct(program, interpretation) == interpretation


@lru_cache(maxsize=8192)
def least_model(horn: Program) -> Interpretation:
    """Least model of a Horn program, by iterating `tp_direct` from the
    empty interpretation to its fixpoint.

    Memoized in a bounded cache; errors are not cached, so a non-Horn program
    raises on every call.  That `omega` gives the same interpretation is
    checked by the law `least-model-is-least`.
    """
    if not horn.is_horn:
        raise NotHornError("least models are defined for Horn programs only")
    current = Interpretation(horn.alphabet)
    while True:
        step = tp_direct(horn, current)
        if step == current:
            return current
        current = step


def all_interpretations(
    alphabet: Alphabet, max_atoms: int = DEFAULT_MAX_ATOMS
) -> Iterator[Interpretation]:
    """Every subset of the alphabet, in canonical (sorted-tuple) order.  An
    alphabet of more than `max_atoms` atoms raises AlphabetTooLargeError at
    the call, before an iterator is returned."""
    if len(alphabet) > max_atoms:
        raise AlphabetTooLargeError(len(alphabet), max_atoms)
    atoms = alphabet.atoms

    def rec(prefix: list[str], start: int) -> Iterator[Interpretation]:
        yield Interpretation(alphabet, frozenset(prefix))
        for idx in range(start, len(atoms)):
            prefix.append(atoms[idx])
            yield from rec(prefix, idx + 1)
            prefix.pop()

    return rec([], 0)


def is_answer_set(program: Program, interpretation: Interpretation) -> bool:
    """True when the interpretation is the least model of its GL reduct."""
    reduct = gl_reduct(program, interpretation)
    return least_model(reduct) == interpretation


def answer_sets(
    program: Program, max_atoms: int = DEFAULT_MAX_ATOMS
) -> tuple[Interpretation, ...]:
    """All answer sets, in the canonical interpretation order."""
    candidates = all_interpretations(program.alphabet, max_atoms)
    return tuple(i for i in candidates if is_answer_set(program, i))


# -- equivalences -------------------------------------------------------------


@dataclass(frozen=True)
class EquivalenceReport:
    """Verdict of an equivalence check, with a distinguishing context if any.

    For a negative verdict, `context` is a program such that the two operands
    joined with it have different answer sets, and the two answer-set tuples
    are recorded.  Subsumption reports carry only the facts of an
    interpretation on which the one-step consequences differ; ordinary
    equivalence reports carry no context.
    """

    equivalent: bool
    context: Program | None = None
    left_answer_sets: tuple[Interpretation, ...] = ()
    right_answer_sets: tuple[Interpretation, ...] = ()


def equivalent(
    left: Program, right: Program, max_atoms: int = DEFAULT_MAX_ATOMS
) -> bool:
    """Ordinary equivalence: the same answer sets."""
    require_same_alphabet(left, right)
    return answer_sets(left, max_atoms) == answer_sets(right, max_atoms)


def subsumption_equivalent(
    left: Program, right: Program, max_atoms: int = DEFAULT_MAX_ATOMS
) -> EquivalenceReport:
    """Equal one-step consequences on every interpretation: `P . I = R . I`
    for every I, decided with `tp_direct` (law `tp-is-composition`).

    A negative verdict carries the facts of the first interpretation, in
    canonical order, on which the consequences differ.
    """
    require_same_alphabet(left, right)
    for i in all_interpretations(left.alphabet, max_atoms):
        if tp_direct(left, i) != tp_direct(right, i):
            return EquivalenceReport(False, i.to_program())
    return EquivalenceReport(True)


def _distinguishing_report(
    left: Program, right: Program, context: Program, max_atoms: int
) -> EquivalenceReport | None:
    left_as = answer_sets(left.union(context), max_atoms)
    right_as = answer_sets(right.union(context), max_atoms)
    if left_as != right_as:
        return EquivalenceReport(False, context, left_as, right_as)
    return None


def uniformly_equivalent(
    left: Program, right: Program, max_atoms: int = DEFAULT_MAX_ATOMS
) -> EquivalenceReport:
    """Same answer sets under every fact context.

    Each context J is applied as `P u J`; a negative verdict carries the
    first separating J in canonical order.  The paper's route `star(J) . P`
    gives the same answer sets by the law `context-extension-routes-agree`.
    """
    require_same_alphabet(left, right)
    for j in all_interpretations(left.alphabet, max_atoms):
        report = _distinguishing_report(left, right, j.to_program(), max_atoms)
        if report is not None:
            return report
    return EquivalenceReport(True)


SEModel = tuple[frozenset[str], frozenset[str]]


def se_models(program: Program, max_atoms: int = DEFAULT_MAX_ATOMS) -> frozenset[SEModel]:
    """All pairs (X, Y) with X <= Y, Y a model, and X a model of the GL reduct."""
    out: set[SEModel] = set()
    for y in all_interpretations(program.alphabet, max_atoms):
        if not entails_program(y, program):
            continue
        reduct = gl_reduct(program, y)
        y_atoms = sorted(y.atoms)
        for size in range(len(y_atoms) + 1):
            for picked in combinations(y_atoms, size):
                x = Interpretation(program.alphabet, frozenset(picked))
                if entails_program(x, reduct):
                    out.add((x.atoms, y.atoms))
    return frozenset(out)


def strongly_equivalent(
    left: Program, right: Program, max_atoms: int = DEFAULT_MAX_ATOMS
) -> EquivalenceReport:
    """Same answer sets under every program context.

    Decided by comparing the sets of SE-models (the law
    `se-agreement-implies-context-agreement` checks the positive direction
    on sampled contexts).  A negative verdict carries a concrete verified
    distinguishing context: facts where possible, otherwise a chain context
    built from a differing SE-model.  Finding none is a library bug and
    raises InternalMismatchError, whose message holds both operands as
    program text.
    """
    require_same_alphabet(left, right)
    alphabet = left.alphabet
    se_left = se_models(left, max_atoms)
    se_right = se_models(right, max_atoms)
    if se_left == se_right:
        return EquivalenceReport(True)

    # A differing pair (X, Y) yields a context from X as facts plus a clique
    # of chain rules over Y - X.  Pairs with X = Y come first: they are the
    # classical models of one program only, and their context is the facts
    # of Y.
    differing = sorted(
        se_left ^ se_right, key=lambda p: (p[0] != p[1], sorted(p[1]), sorted(p[0]))
    )
    for x_atoms, y_atoms in differing:
        gap = sorted(y_atoms - x_atoms)
        rules = {Rule.fact(a) for a in x_atoms}
        rules |= {
            Rule(a, frozenset({b})) for a in gap for b in gap if a != b
        }
        context = Program(alphabet, frozenset(rules))
        report = _distinguishing_report(left, right, context, max_atoms)
        if report is not None:
            return report
    raise InternalMismatchError(
        "SE-models differ but no distinguishing context was found for\n"
        f"left:\n{serialize_program(left)}right:\n{serialize_program(right)}"
    )
