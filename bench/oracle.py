"""Independent oracle for the benchmark's correctness checks.

Written from the definitions alone and sharing no code with `aspalgebra`:

* a program is a list of rules `(head, pos, neg)` over bit masks of a sorted
  alphabet, read from the `.lp` text by a parser of its own;
* M is an answer set of P when M is the least model of the Gelfond-Lifschitz
  reduct P^M, found by guessing every M and checking with a plain fixpoint;
* (X, Y) is an SE-model of P when X <= Y, Y is a classical model of P and X
  is a model of P^Y; P and Q are strongly equivalent iff their SE-models
  are equal;
* P and Q are uniformly equivalent iff P u J and Q u J have the same answer
  sets for every set J of facts.

Run `python3 bench/oracle.py` to check it on hand-worked cases.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass

_NAME = re.compile(r"[a-z][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class Program:
    atoms: tuple[str, ...]
    # (head bit, positive body mask, negative body mask)
    rules: tuple[tuple[int, int, int], ...]

    @property
    def size(self) -> int:
        return len(self.atoms)

    def mask(self, names) -> int:
        index = {a: i for i, a in enumerate(self.atoms)}
        out = 0
        for name in names:
            out |= 1 << index[name]
        return out

    def names(self, mask: int) -> tuple[str, ...]:
        return tuple(a for i, a in enumerate(self.atoms) if mask >> i & 1)

    def union(self, other: "Program") -> "Program":
        if other.atoms != self.atoms:
            raise ValueError("programs over different alphabets")
        return Program(self.atoms, tuple(sorted(set(self.rules) | set(other.rules))))


def _atom(name: str) -> str:
    if not _NAME.match(name) or name in ("t", "f"):
        raise ValueError(f"bad atom name {name!r}")
    return name


def parse(text: str) -> Program:
    """Parse the `.lp` syntax: an `#alphabet a, b.` line and rules
    `h :- b, not c.`, one per line, `%` comments.  Without a directive the
    alphabet is the set of atoms that occur."""
    declared: list[str] | None = None
    raw: list[tuple[str, list[str], list[str]]] = []
    for line in text.splitlines():
        line = line.split("%", 1)[0].strip()
        if not line:
            continue
        if not line.endswith("."):
            raise ValueError(f"line does not end with '.': {line!r}")
        line = line[:-1].strip()
        if line.startswith("#alphabet"):
            rest = line[len("#alphabet"):].strip()
            declared = [_atom(a.strip()) for a in rest.split(",")] if rest else []
            continue
        head, sep, body = line.partition(":-")
        pos: list[str] = []
        neg: list[str] = []
        if sep:
            for literal in body.split(","):
                literal = literal.strip()
                if literal.startswith("not "):
                    neg.append(_atom(literal[4:].strip()))
                else:
                    pos.append(_atom(literal))
        raw.append((_atom(head.strip()), pos, neg))
    used = {a for h, p, n in raw for a in (h, *p, *n)}
    if declared is None:
        declared = sorted(used)
    elif not used <= set(declared):
        raise ValueError(f"undeclared atoms {sorted(used - set(declared))}")
    atoms = tuple(sorted(set(declared)))
    index = {a: i for i, a in enumerate(atoms)}

    def bits(names: list[str]) -> int:
        out = 0
        for name in names:
            out |= 1 << index[name]
        return out

    rules = tuple(sorted({(1 << index[h], bits(p), bits(n)) for h, p, n in raw}))
    return Program(atoms, rules)


def facts(atoms: tuple[str, ...], mask: int) -> Program:
    return Program(atoms, tuple((1 << i, 0, 0) for i in range(len(atoms)) if mask >> i & 1))


def least_model(horn: list[tuple[int, int]]) -> int:
    """Least model of positive rules `(head, pos)` by plain iteration."""
    model = 0
    while True:
        step = model
        for head, pos in horn:
            if pos & ~model == 0:
                step |= head
        if step == model:
            return model
        model = step


def reduct(program: Program, mask: int) -> list[tuple[int, int]]:
    return [(h, p) for h, p, n in program.rules if n & mask == 0]


def is_model(program: Program, mask: int) -> bool:
    return all(
        h & mask or p & ~mask or n & mask for h, p, n in program.rules
    )


def answer_set_masks(program: Program, within: int = 0) -> list[int]:
    """Answer sets as masks; only candidates containing `within` are tried
    (a fact-context optimisation: every answer set contains the facts)."""
    full = (1 << program.size) - 1
    free = full & ~within
    out = []
    sub = free
    while True:
        mask = sub | within
        if least_model(reduct(program, mask)) == mask:
            out.append(mask)
        if sub == 0:
            break
        sub = (sub - 1) & free
    return out


def answer_sets(program: Program, within: int = 0) -> list[tuple[str, ...]]:
    """Answer sets as sorted atom tuples, in lexicographic order."""
    return sorted(program.names(m) for m in answer_set_masks(program, within))


def se_models(program: Program) -> frozenset[tuple[int, int]]:
    out = set()
    for y in range(1 << program.size):
        if not is_model(program, y):
            continue
        horn = reduct(program, y)
        x = y
        while True:
            if all(h & x or p & ~x for h, p in horn):
                out.add((x, y))
            if x == 0:
                break
            x = (x - 1) & y
    return frozenset(out)


def strongly_equivalent(left: Program, right: Program) -> bool:
    return se_models(left) == se_models(right)


def fact_context_answer_sets(program: Program, mask: int) -> list[tuple[str, ...]]:
    return answer_sets(program.union(facts(program.atoms, mask)), within=mask)


def uniform_separators(left: Program, right: Program) -> list[int]:
    """Every fact context (as a mask) under which the two programs differ."""
    return [
        j
        for j in range(1 << left.size)
        if fact_context_answer_sets(left, j) != fact_context_answer_sets(right, j)
    ]


def _expect(holds: bool, what: str) -> None:
    if not holds:
        raise AssertionError(f"oracle self-check failed: {what}")


def self_check() -> None:
    """Hand-worked cases; raises AssertionError on a wrong oracle."""
    choice = parse("a :- not b.\nb :- not a.\n")
    _expect(answer_sets(choice) == [("a",), ("b",)], "choice has {a}, {b}")
    odd = parse("a :- not a.\n")
    _expect(answer_sets(odd) == [], "a :- not a. has none")
    fact = parse("#alphabet a, b.\na.\n")
    guarded = parse("#alphabet a, b.\na :- not b.\n")
    _expect(answer_sets(fact) == answer_sets(guarded) == [("a",)], "both give {a}")
    _expect(not strongly_equivalent(fact, guarded), "a. vs a :- not b. not SE")
    b_fact = facts(fact.atoms, fact.mask(["b"]))
    _expect(answer_sets(fact.union(b_fact)) == [("a", "b")], "a. b. gives {a, b}")
    _expect(answer_sets(guarded.union(b_fact)) == [("b",)], "a :- not b. b. gives {b}")
    _expect(uniform_separators(fact, guarded) == [fact.mask(["b"])], "b splits them")
    # SE-models of `a :- not b.` over {a, b} (a = 1, b = 2): Y is {a}, {b}
    # or {a, b}, and X must contain a only when Y = {a}.
    _expect(
        se_models(guarded) == {(1, 1), (0, 2), (2, 2), (0, 3), (1, 3), (2, 3), (3, 3)},
        "SE-models of a :- not b.",
    )
    # {a :- not b. a :- b.} is uniformly but not strongly equivalent to {a.};
    # the context {b :- a.} separates them.
    split = parse("#alphabet a, b.\na :- not b.\na :- b.\n")
    _expect(uniform_separators(split, fact) == [], "split is UE to a.")
    _expect(not strongly_equivalent(split, fact), "split is not SE to a.")
    cycle = parse("#alphabet a, b.\nb :- a.\n")
    _expect(answer_sets(split.union(cycle)) == [], "split u {b :- a.} has none")
    _expect(answer_sets(fact.union(cycle)) == [("a", "b")], "a. b :- a. gives {a, b}")


if __name__ == "__main__":
    self_check()
    print("oracle: all hand-worked cases hold", file=sys.stderr)
