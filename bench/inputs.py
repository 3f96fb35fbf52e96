"""Seeded input programs for the benchmark workloads.

Every generator takes a `random.Random` and returns program text in the
`.lp` syntax the CLI reads.  Each program is a fixed template over atoms
0..n-1; the seed draws the atom names and the order of the rules in the
file (and, for `even_loops`, the bodies of the derived atoms).  The names
keep the template's order, so the alphabet order the CLI enumerates in,
and with it the work done, is the same for every seed; only the text
differs.  Run time then depends on the code under test, not on the draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Rule:
    head: str
    pos: tuple[str, ...] = ()
    neg: tuple[str, ...] = ()

    def text(self) -> str:
        body = list(self.pos) + [f"not {a}" for a in self.neg]
        return f"{self.head} :- {', '.join(body)}." if body else f"{self.head}."


def program_text(atoms: list[str], rules: list[Rule]) -> str:
    lines = ["#alphabet " + ", ".join(sorted(atoms)) + "."]
    lines.extend(rule.text() for rule in rules)
    return "\n".join(lines) + "\n"


def _atoms(rng: random.Random, n: int) -> list[str]:
    """n distinct seeded atom names, in sorted order."""
    return [f"p{k}" for k in sorted(rng.sample(range(100, 1000), n))]


def _render(rng: random.Random, names: list[str], rules: list[Rule]) -> str:
    """Program text of a template whose atoms are the indices of `names`,
    with the rules in a seeded order."""
    out = [
        Rule(names[r.head], tuple(names[a] for a in r.pos), tuple(names[a] for a in r.neg))
        for r in rules
    ]
    rng.shuffle(out)
    return program_text(names, out)


# -- answer-sets family ----------------------------------------------------------


def even_loops(rng: random.Random, loops: int, derived: int) -> tuple[str, int]:
    """`loops` independent even loops `x :- not y. y :- not x.` plus
    `derived` atoms defined by positive rules over earlier atoms.

    Only the loop atoms occur negatively and the rest is stratified above
    them, so the program has exactly 2**loops answer sets.
    """
    n = 2 * loops + derived
    rules = []
    for j in range(loops):
        x, y = 2 * j, 2 * j + 1
        rules += [Rule(x, (), (y,)), Rule(y, (), (x,))]
    for d in range(2 * loops, n):
        for _ in range(2):
            body = rng.sample(range(d), rng.randint(1, 2))
            rules.append(Rule(d, tuple(body)))
    return _render(rng, _atoms(rng, n), rules), 2**loops


def horn_heavy(rng: random.Random, n: int, negative: int) -> str:
    """A long positive part (a ring of `i+1 :- i` links and two-atom joins)
    under `negative` rules `i :- not j`, so that few distinct reducts exist
    but each is a large Horn program whose omega iteration is long."""
    rules = [Rule((i + 1) % n, (i,)) for i in range(n)]
    rules += [Rule((i + 5) % n, (i, (i + 2) % n)) for i in range(0, n, 3)]
    rules += [Rule((2 * j + 1) % n, (), (2 * j,)) for j in range(negative)]
    return _render(rng, _atoms(rng, n), rules)


def wide_negative(rng: random.Random, n: int) -> str:
    """`i+1 :- not i` for every atom: every atom occurs negatively and every
    subset of the alphabet gives its own reduct, 2**n distinct ones."""
    rules = [Rule((i + 1) % n, (), (i,)) for i in range(n)]
    return _render(rng, _atoms(rng, n), rules)


# -- equivalence pairs -----------------------------------------------------------


def _equiv_base(n: int) -> list[Rule]:
    """An even loop 0/1 feeding a small positive and negative tail."""
    rules = [
        Rule(0, (), (1,)),
        Rule(1, (), (0,)),
        Rule(2, (0,)),
        Rule(3, (2,), (4,)),
        Rule(4, (1,)),
        Rule(2, (4,)),
    ]
    if n >= 8:
        rules += [Rule(5, (3,)), Rule(3, (5,))]
    return rules


def equiv_pairs(rng: random.Random) -> list[tuple[str, str, str]]:
    """(name, left, right) program texts; each pair shares one renaming."""
    base8, base7 = _equiv_base(8), _equiv_base(7)
    pairs = {
        # strongly equivalent by construction: two subsumed rules, a
        # rule with a contradictory body and a tautology
        "se8": (
            base8,
            base8 + [Rule(2, (0, 3)), Rule(4, (1,), (2,)), Rule(3, (3,), (3,)), Rule(6, (6,))],
        ),
        # {a :- not b. a :- b.} against {a.}: uniformly but not strongly
        # equivalent, the classic separating pair
        "ue7": (base7 + [Rule(5, (), (6,)), Rule(5, (6,))], base7 + [Rule(5)]),
        # the same answer sets, but some fact context separates them
        "ne7": (base7, [r for r in base7 if r != Rule(4, (1,))] + [Rule(4, (1,), (3,))]),
    }
    out = []
    for name, (left, right) in pairs.items():
        names = _atoms(rng, 8 if name.endswith("8") else 7)
        out.append((name, _render(rng, names, left), _render(rng, names, right)))
    return out
