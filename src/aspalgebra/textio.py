"""Concrete syntax: parsing and canonical serialization.

The format is line-oriented: an optional `#alphabet a, b.` directive, then
rules `head :- lit, ..., lit.` with `not` for default negation, `%` comments,
and `←` accepted as a synonym for `:-`.  Serialization is canonical (sorted
directive, rules sorted by head then positive then negative body, positive
literals first), so parse and serialize round-trip bit-exactly.

When a directive is present every atom used must be declared; without one,
the alphabet is inferred from the atoms that occur.  A directive with an
empty atom list (`#alphabet.`) is accepted for the vacuous alphabet, which
programs may carry internally.
"""

from __future__ import annotations

import re
from typing import Iterator, NamedTuple

from .core import (
    ATOM_PATTERN,
    Alphabet,
    ExtProgram,
    Interpretation,
    Literal,
    Program,
    RESERVED_ATOMS,
    Rule,
)
from .errors import (
    NotBijectiveError,
    ParseError,
    ReservedAtomError,
    UndeclaredAtomError,
)


class _Token(NamedTuple):
    kind: str
    value: str
    line: int
    column: int


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>%[^\n]*)
      | (?P<directive>\#alphabet\b)
      | (?P<arrow>:-|←)
      | (?P<comma>,)
      | (?P<dot>\.)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


def _tokenize(text: str, origin: str | None) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", line, col, origin
            )
        kind = match.lastgroup or ""
        value = match.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = match.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str, origin: str | None) -> None:
        self.tokens = _tokenize(text, origin)
        self.origin = origin
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def fail(self, message: str, token: _Token) -> ParseError:
        return ParseError(message, token.line, token.column, self.origin)

    def expect(self, kind: str, what: str) -> _Token:
        token = self.advance()
        if token.kind != kind:
            shown = repr(token.value) if token.value else "end of input"
            raise self.fail(f"expected {what}, found {shown}", token)
        return token

    def atom(self, what: str = "an atom") -> _Token:
        token = self.expect("name", what)
        if token.value in RESERVED_ATOMS:
            raise ReservedAtomError(
                f"atom name {token.value!r} is reserved for a truth constant",
                token.line,
                token.column,
                self.origin,
            )
        if not ATOM_PATTERN.match(token.value):
            raise self.fail(f"expected {what}, found {token.value!r}", token)
        return token

    def parse(self) -> Program:
        declared: set[str] | None = None
        rules: list[Rule] = []
        first_use: dict[str, _Token] = {}

        def note(token: _Token) -> str:
            first_use.setdefault(token.value, token)
            return token.value

        while self.peek().kind != "eof":
            if self.peek().kind == "directive":
                self.advance()
                if declared is None:
                    declared = set()
                while self.peek().kind != "dot":
                    declared.add(self.atom("an atom in #alphabet").value)
                    if self.peek().kind == "comma":
                        self.advance()
                    else:
                        break
                self.expect("dot", "'.'")
                continue
            head = note(self.atom("a rule head"))
            pos_body: set[str] = set()
            neg_body: set[str] = set()
            token = self.advance()
            if token.kind == "arrow":
                while True:
                    negated = False
                    nxt = self.peek()
                    if nxt.kind == "name" and nxt.value == "not":
                        self.advance()
                        negated = True
                    atom_token = self.atom(
                        "an atom after 'not'" if negated else "a body atom"
                    )
                    (neg_body if negated else pos_body).add(note(atom_token))
                    sep = self.advance()
                    if sep.kind == "comma":
                        continue
                    if sep.kind == "dot":
                        break
                    raise self.fail(
                        f"expected ',' or '.', found {sep.value!r}", sep
                    )
            elif token.kind != "dot":
                shown = repr(token.value) if token.value else "end of input"
                raise self.fail(f"expected ':-' or '.', found {shown}", token)
            rules.append(Rule(head, frozenset(pos_body), frozenset(neg_body)))

        used = set(first_use)
        if declared is not None:
            for atom_name in sorted(used - declared):
                token = first_use[atom_name]
                raise UndeclaredAtomError(
                    f"atom {atom_name!r} is not declared in the #alphabet directive",
                    token.line,
                    token.column,
                    self.origin,
                )
            alphabet = Alphabet(tuple(declared))
        else:
            alphabet = Alphabet(tuple(used))
        return Program(alphabet, frozenset(rules))


def parse_program(text: str, origin: str | None = None) -> Program:
    """Parse program text into a Program; errors carry line and column."""
    return _Parser(text, origin).parse()


def serialize_program(program: Program | ExtProgram) -> str:
    """Canonical text form; `parse_program` inverts it bit-exactly for a
    `Program` (an `ExtProgram` is laid out the same way, for display)."""
    atoms = program.alphabet.atoms
    directive = "#alphabet " + ", ".join(atoms) + "." if atoms else "#alphabet."
    lines = [directive]
    lines.extend(str(rule) for rule in program.sorted_rules())
    return "\n".join(lines) + "\n"


def _entries(text: str, what: str) -> Iterator[str]:
    """The stripped entries of a comma-separated `what`, in order.  A blank
    text has none; an empty entry anywhere else is an error."""
    if not text.strip():
        return
    for chunk in text.split(","):
        entry = chunk.strip()
        if not entry:
            raise ParseError(f"empty entry in {what}")
        yield entry


def _check_name(name: str, invalid: str, alphabet: Alphabet | None = None) -> str:
    """Reject a reserved name, a name that is no atom (with the message
    `invalid`) and, given an alphabet, a name outside it."""
    if name in RESERVED_ATOMS:
        raise ReservedAtomError(f"atom name {name!r} is reserved for a truth constant")
    if not ATOM_PATTERN.match(name):
        raise ParseError(invalid)
    if alphabet is not None and name not in alphabet:
        raise UndeclaredAtomError(f"atom {name!r} is not in the alphabet {alphabet}")
    return name


def parse_interpretation(text: str, alphabet: Alphabet | None = None) -> Interpretation:
    """Parse a comma-separated atom list (possibly empty) over the alphabet,
    or, without one, over the atoms the list names."""
    atoms = frozenset(
        _check_name(name, f"invalid atom name {name!r}", alphabet)
        for name in _entries(text, "atom list")
    )
    if alphabet is None:
        alphabet = Alphabet(tuple(atoms))
    return Interpretation(alphabet, atoms)


def serialize_interpretation(interpretation: Interpretation) -> str:
    return ", ".join(sorted(interpretation.atoms))


def parse_literals(text: str, alphabet: Alphabet | None = None) -> frozenset[Literal]:
    """Parse a comma-separated list of literals like `a, not c` (possibly
    empty) over the alphabet, or, without one, over the atoms it names."""
    literals: set[Literal] = set()
    for entry in _entries(text, "literal list"):
        negated = entry.startswith(("not ", "not\t"))
        item = entry[3:].strip() if negated else entry
        _check_name(item, f"invalid literal {entry!r}", alphabet)
        literals.add(Literal(item, negated))
    return frozenset(literals)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_permutation(text: str) -> dict[str, str]:
    """Parse cycle notation like `(a b)(c)` into an atom mapping."""
    rest = _CYCLE_RE.sub("", text).strip()
    if rest:
        raise ParseError(f"unexpected text {rest!r} in permutation")
    mapping: dict[str, str] = {}
    seen: set[str] = set()
    for group in _CYCLE_RE.finditer(text):
        members = group.group(1).replace(",", " ").split()
        for name in members:
            _check_name(name, f"invalid atom name {name!r} in permutation")
            if name in seen:
                raise NotBijectiveError(
                    f"atom {name!r} appears twice in the permutation"
                )
            seen.add(name)
        for src, dst in zip(members, members[1:] + members[:1]):
            mapping[src] = dst
    return mapping


def serialize_permutation(mapping: dict[str, str], alphabet: Alphabet) -> str:
    """Render a permutation back to cycle notation, fixed points included."""
    complete = {a: mapping.get(a, a) for a in alphabet}
    cycles = []
    remaining = set(complete)
    for start in alphabet:
        if start not in remaining:
            continue
        cycle = [start]
        remaining.discard(start)
        nxt = complete[start]
        while nxt != start:
            cycle.append(nxt)
            remaining.discard(nxt)
            nxt = complete[nxt]
        cycles.append("(" + " ".join(cycle) + ")")
    return "".join(cycles)
