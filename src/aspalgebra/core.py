"""Core syntax of propositional answer set programs.

Atoms, literals, rules, programs and interpretations over a fixed finite
alphabet, together with the purely structural operators (facts/proper split,
positive and negative parts, hornification, duals, classification) that the
transformation and semantics layers build on.

Programs are immutable values.  A rule is a triple (head, positive body,
negative body) with bodies kept as sets, and two programs are equal exactly
when their alphabets and rule sets are.  Nothing here ever simplifies a rule:
`a :- a` and `a :- c, not c` are legitimate, distinct syntactic objects, and
a body may mention the same atom positively and negatively at once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Mapping, Union

from .errors import (
    AlphabetMismatchError,
    NotBijectiveError,
    NotHornError,
    ReservedAtomError,
)

#: The one rule for atom names; the keyword `not` is never an atom.
ATOM_PATTERN = re.compile(r"(?!not\Z)[a-z][a-zA-Z0-9_]*\Z")

#: Names reserved for the truth constants used inside the negation pipeline.
RESERVED_ATOMS = frozenset({"t", "f"})


def check_atom_name(name: str) -> str:
    """Validate a single atom name and return it unchanged."""
    if not isinstance(name, str) or not ATOM_PATTERN.match(name):
        raise ValueError(f"invalid atom name {name!r}")
    if name in RESERVED_ATOMS:
        raise ReservedAtomError(f"atom name {name!r} is reserved for a truth constant")
    return name


@dataclass(frozen=True)
class Alphabet:
    """Finite, duplicate-free, sorted set of atom names a program may use."""

    atoms: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted({check_atom_name(a) for a in self.atoms}))
        object.__setattr__(self, "atoms", ordered)
        object.__setattr__(self, "_atom_set", frozenset(ordered))

    @property
    def atom_set(self) -> frozenset[str]:
        return self._atom_set  # type: ignore[attr-defined]

    def __contains__(self, atom: object) -> bool:
        return atom in self.atom_set

    def __iter__(self) -> Iterator[str]:
        return iter(self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)

    def union(self, other: "Alphabet") -> "Alphabet":
        return Alphabet(self.atoms + other.atoms)

    def __str__(self) -> str:
        return "{" + ", ".join(self.atoms) + "}"


@dataclass(frozen=True)
class Literal:
    """An atom or its default negation (`a` / `not a`)."""

    atom: str
    negated: bool = False

    def complement(self) -> "Literal":
        return Literal(self.atom, not self.negated)

    def __str__(self) -> str:
        return f"not {self.atom}" if self.negated else self.atom


def literal_key(lit: Literal) -> tuple[bool, str]:
    """Canonical order: positive literals first, then alphabetical."""
    return (lit.negated, lit.atom)


class TruthConst(Enum):
    """Truth constants; they appear only in the negation pipeline."""

    TRUE = "t"
    FALSE = "f"

    def __str__(self) -> str:
        return self.value


#: What may appear in the body of an extended rule.
ExtLiteral = Union[Literal, TruthConst]


def ext_literal_key(lit: ExtLiteral) -> tuple:
    if isinstance(lit, TruthConst):
        return (0, lit.value, "")
    return (1, lit.negated, lit.atom)


@dataclass(frozen=True)
class Rule:
    """A normal rule `head :- pos_body, not neg_body` with set-valued bodies."""

    head: str
    pos_body: frozenset[str] = frozenset()
    neg_body: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "pos_body", frozenset(self.pos_body))
        object.__setattr__(self, "neg_body", frozenset(self.neg_body))

    @classmethod
    def fact(cls, atom: str) -> "Rule":
        return cls(atom)

    @property
    def is_fact(self) -> bool:
        return not self.pos_body and not self.neg_body

    @property
    def size(self) -> int:
        """Number of body literals (an atom may count twice, once per sign)."""
        return len(self.pos_body) + len(self.neg_body)

    def atoms(self) -> frozenset[str]:
        return self.pos_body | self.neg_body | {self.head}

    def body_literals(self) -> frozenset[Literal]:
        return frozenset(
            {Literal(a) for a in self.pos_body}
            | {Literal(a, True) for a in self.neg_body}
        )

    def positive_part(self) -> "Rule":
        """`head :- pos_body`, the rule with its negative literals dropped."""
        return Rule(self.head, self.pos_body)

    def negative_part(self) -> "Rule":
        """`head :- not neg_body`, the rule with its positive literals dropped."""
        return Rule(self.head, frozenset(), self.neg_body)

    def hornified(self) -> "Rule":
        """The rule with every body literal made positive (sets may collapse)."""
        return Rule(self.head, self.pos_body | self.neg_body)

    def sort_key(self) -> tuple:
        return (self.head, tuple(sorted(self.pos_body)), tuple(sorted(self.neg_body)))

    def __str__(self) -> str:
        if self.is_fact:
            return f"{self.head}."
        body = [*sorted(self.pos_body)] + [f"not {a}" for a in sorted(self.neg_body)]
        return f"{self.head} :- {', '.join(body)}."


@dataclass(frozen=True)
class Classification:
    """Syntactic class flags of a program."""

    horn: bool
    negative: bool
    krom_horn: bool
    minimalistic: bool


@dataclass(frozen=True)
class Program:
    """An immutable set of rules over a fixed alphabet."""

    alphabet: Alphabet
    rules: frozenset[Rule] = frozenset()

    def __post_init__(self) -> None:
        rules = frozenset(self.rules)
        object.__setattr__(self, "rules", rules)
        atom_set = self.alphabet.atom_set
        for rule in rules:
            if (
                rule.head not in atom_set
                or not rule.pos_body <= atom_set
                or not rule.neg_body <= atom_set
            ):
                raise AlphabetMismatchError(
                    f"rule '{rule}' uses atoms outside the alphabet {self.alphabet}"
                )

    @classmethod
    def of_facts(cls, alphabet: Alphabet, atoms: Iterable[str]) -> "Program":
        return cls(alphabet, frozenset(Rule.fact(a) for a in atoms))

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.sorted_rules())

    def __str__(self) -> str:
        return "{" + "  ".join(str(r) for r in self.sorted_rules()) + "}"

    def sorted_rules(self) -> list[Rule]:
        return sorted(self.rules, key=Rule.sort_key)

    def rules_by_head(self) -> dict[str, list[Rule]]:
        grouped: dict[str, list[Rule]] = {}
        for rule in self.rules:
            grouped.setdefault(rule.head, []).append(rule)
        return grouped

    # -- structural pieces ------------------------------------------------

    def heads(self) -> frozenset[str]:
        return frozenset(r.head for r in self.rules)

    def body_literals(self) -> frozenset[Literal]:
        out: set[Literal] = set()
        for rule in self.rules:
            out |= rule.body_literals()
        return frozenset(out)

    def facts(self) -> "Program":
        return Program(self.alphabet, frozenset(r for r in self.rules if r.is_fact))

    def fact_atoms(self) -> frozenset[str]:
        return frozenset(r.head for r in self.rules if r.is_fact)

    def proper(self) -> "Program":
        return Program(self.alphabet, frozenset(r for r in self.rules if not r.is_fact))

    def positive_part(self) -> "Program":
        return Program(self.alphabet, frozenset(r.positive_part() for r in self.rules))

    def negative_part(self) -> "Program":
        return Program(self.alphabet, frozenset(r.negative_part() for r in self.rules))

    def hornified(self) -> "Program":
        return Program(self.alphabet, frozenset(r.hornified() for r in self.rules))

    # -- classification ----------------------------------------------------

    @property
    def is_horn(self) -> bool:
        return all(not r.neg_body for r in self.rules)

    @property
    def is_negative(self) -> bool:
        return all(not r.pos_body for r in self.rules)

    @property
    def is_krom_horn(self) -> bool:
        return all(not r.neg_body and len(r.pos_body) <= 1 for r in self.rules)

    @property
    def is_minimalistic(self) -> bool:
        return len(self.heads()) == len(self.rules)

    def classify(self) -> Classification:
        return Classification(
            horn=self.is_horn,
            negative=self.is_negative,
            krom_horn=self.is_krom_horn,
            minimalistic=self.is_minimalistic,
        )

    # -- combination -------------------------------------------------------

    def union(self, other: "Program") -> "Program":
        require_same_alphabet(self, other)
        return Program(self.alphabet, self.rules | other.rules)

    def __or__(self, other: "Program") -> "Program":
        return self.union(other)

    def with_alphabet(self, alphabet: Alphabet) -> "Program":
        """The same rules re-homed to a (usually larger) alphabet."""
        return Program(alphabet, self.rules)

    def rename(self, mapping: Mapping[str, str]) -> "Program":
        """Every atom `a` replaced by `mapping.get(a, a)`, over the same
        alphabet; for a permutation pi this is `pi . P . pi^d`."""

        def image(atoms: frozenset[str]) -> frozenset[str]:
            return frozenset(mapping.get(a, a) for a in atoms)

        return Program(
            self.alphabet,
            frozenset(
                Rule(mapping.get(r.head, r.head), image(r.pos_body), image(r.neg_body))
                for r in self.rules
            ),
        )

    def dual(self) -> "Program":
        """Swap heads and bodies of the proper rules; facts stay facts.

        Defined for Horn programs only.  A proper rule with several body atoms
        yields one rule per body atom.
        """
        if not self.is_horn:
            raise NotHornError("dual is defined for Horn programs only")
        out = set(r for r in self.rules if r.is_fact)
        for rule in self.rules:
            if not rule.is_fact:
                for atom in rule.pos_body:
                    out.add(Rule(atom, frozenset({rule.head})))
        return Program(self.alphabet, frozenset(out))


@dataclass(frozen=True)
class Interpretation:
    """A set of atoms over an alphabet, identified with its fact program."""

    alphabet: Alphabet
    atoms: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        atoms = frozenset(self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not atoms <= self.alphabet.atom_set:
            extra = ", ".join(sorted(atoms - self.alphabet.atom_set))
            raise AlphabetMismatchError(
                f"atoms {{{extra}}} are not in the alphabet {self.alphabet}"
            )

    def __contains__(self, atom: object) -> bool:
        return atom in self.atoms

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self.atoms))

    def __str__(self) -> str:
        return "{" + ", ".join(sorted(self.atoms)) + "}"

    def complement(self) -> "Interpretation":
        return Interpretation(self.alphabet, self.alphabet.atom_set - self.atoms)

    def to_program(self) -> Program:
        return Program.of_facts(self.alphabet, self.atoms)

    @classmethod
    def from_fact_program(cls, program: Program) -> "Interpretation":
        if program.rules != frozenset(r for r in program.rules if r.is_fact):
            raise ValueError("program has proper rules; not an interpretation")
        return cls(program.alphabet, program.fact_atoms())


@dataclass(frozen=True)
class ExtRule:
    """A rule whose body may also contain the truth constants t/f."""

    head: str
    body: frozenset  # frozenset[ExtLiteral]

    def __post_init__(self) -> None:
        object.__setattr__(self, "body", frozenset(self.body))

    def sort_key(self) -> tuple:
        return (self.head, tuple(sorted(map(ext_literal_key, self.body))))

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        parts = ", ".join(str(l) for l in sorted(self.body, key=ext_literal_key))
        return f"{self.head} :- {parts}."


@dataclass(frozen=True)
class ExtProgram:
    """A set of extended rules; the output format of the tf completion."""

    alphabet: Alphabet
    rules: frozenset[ExtRule] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", frozenset(self.rules))

    def sorted_rules(self) -> list[ExtRule]:
        return sorted(self.rules, key=ExtRule.sort_key)

    def __str__(self) -> str:
        return "{" + "  ".join(str(r) for r in self.sorted_rules()) + "}"


@dataclass(frozen=True)
class OrRule:
    """One head with a disjunction of bodies, each a set of extended literals."""

    head: str
    bodies: tuple  # tuple[frozenset[ExtLiteral], ...]


@dataclass(frozen=True)
class OrProgram:
    """One or-rule per head atom, in head order: the output of `or_transform`."""

    alphabet: Alphabet
    rules: tuple  # tuple[OrRule, ...]


def require_same_alphabet(left, right) -> None:
    """Raise AlphabetMismatchError unless the two operands share an alphabet."""
    if left.alphabet != right.alphabet:
        raise AlphabetMismatchError(
            f"operands have different alphabets {left.alphabet} and {right.alphabet}"
        )


def unit_program(alphabet: Alphabet) -> Program:
    """The neutral element of composition: `a :- a` for every atom."""
    return Program(alphabet, frozenset(Rule(a, frozenset({a})) for a in alphabet))


def permutation_program(alphabet: Alphabet, mapping: Mapping[str, str]) -> Program:
    """The Krom-Horn program `pi(a) :- a` for a permutation pi of the alphabet.

    Atoms missing from `mapping` are taken as fixed points.
    """
    for atom in {*mapping, *mapping.values()}:
        if atom not in alphabet:
            raise AlphabetMismatchError(
                f"permutation mentions {atom!r}, not in the alphabet {alphabet}"
            )
    complete = {a: mapping.get(a, a) for a in alphabet}
    if sorted(complete.values()) != list(alphabet.atoms):
        raise NotBijectiveError(
            f"mapping {mapping!r} is not a permutation of the alphabet {alphabet}"
        )
    return Program(
        alphabet, frozenset(Rule(img, frozenset({src})) for src, img in complete.items())
    )
