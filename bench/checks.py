"""Correctness checks of the CLI outputs against the independent oracle.

Each check takes the inputs, the exit code and the standard output of one CLI
call and returns a list of problems, empty when the output is right.
`selftest.py` shows that every check fails on corrupted outputs.
"""

from __future__ import annotations

import json

import oracle

#: The law registry in order, with each law's expected verdict.
LAW_IDS = (
    ("compose-right-unit", "law"),
    ("compose-left-unit", "law"),
    ("compose-left-zero-empty", "law"),
    ("compose-right-distributes-union", "law"),
    ("compose-preserves-facts", "law"),
    ("compose-facts-proper-split", "law"),
    ("interpretation-left-zero", "law"),
    ("krom-left-distributes-union", "law"),
    ("krom-associates", "law"),
    ("krom-simplified-composition", "law"),
    ("horn-simplified-composition", "law"),
    ("negative-composition-hornified", "law"),
    ("negation-as-unit-composition", "law"),
    ("double-negation-unit", "law"),
    ("cup-commutes", "law"),
    ("cup-associates", "law"),
    ("cup-unit-alphabet", "law"),
    ("cup-zero-empty", "law"),
    ("cup-distributes-union-right", "law"),
    ("cup-distributes-union-left", "law"),
    ("cup-factors-composition-on-disjoint-bodies", "law"),
    ("rule-splits-into-parts", "law"),
    ("body-split-composition", "law"),
    ("permutation-renames", "law"),
    ("permutation-dual-inverts", "law"),
    ("fact-separation", "law"),
    ("union-of-facts-as-star", "law"),
    ("interpretation-star", "law"),
    ("tp-is-composition", "law"),
    ("model-iff-prefixpoint", "law"),
    ("supported-iff-composition-commutes", "law"),
    ("horn-gl-reduct-identity", "law"),
    ("left-reduct-via-unit", "law"),
    ("horn-right-reduct-via-unit", "law"),
    ("negative-gl-reduct-via-composition", "law"),
    ("negative-right-reduct-via-ominus", "law"),
    ("negative-drops-negated-atoms", "law"),
    ("gl-reduct-distributes-union", "law"),
    ("gl-reduct-distributes-cup", "law"),
    ("left-reduct-distributes-union", "law"),
    ("left-reduct-distributes-cup", "law"),
    ("right-reduct-distributes-union", "law"),
    ("right-reduct-distributes-cup", "law"),
    ("horn-left-reduct-shifts", "law"),
    ("horn-right-reduct-shifts", "law"),
    ("interpretation-reducts", "law"),
    ("ominus-removes-body-atoms", "law"),
    ("ominus-restores-facts", "law"),
    ("oplus-extends-bodies", "law"),
    ("oplus-ominus-collapse", "law"),
    ("oplus-absorbs-interpretation", "law"),
    ("answer-set-iff-minimal-model-of-right-reduct", "law"),
    ("least-model-is-least", "law"),
    ("horn-answer-sets-least-model", "law"),
    ("gl-reduct-algebraic-agrees", "law"),
    ("flp-reduct-algebraic-agrees", "law"),
    ("context-extension-routes-agree", "law"),
    ("se-agreement-implies-context-agreement", "law"),
    ("equivalence-hierarchy", "law"),
    ("compose-associates", "non-law"),
    ("compose-left-distributes-union", "non-law"),
    ("cup-idempotent", "non-law"),
    ("cup-factors-composition-unconditionally", "non-law"),
    ("negation-shifts-left", "non-law"),
)

HOLDS = "holds-on-sample"
REFUTED = "refuted"


def _parse_interps(text: str) -> list[tuple[str, ...]]:
    """`{a, b}; {}` or `(none)` as sorted atom tuples."""
    text = text.strip()
    if text == "(none)":
        return []
    out = []
    for item in text.split(";"):
        item = item.strip()
        if not (item.startswith("{") and item.endswith("}")):
            raise ValueError(f"not an interpretation: {item!r}")
        inner = item[1:-1].strip()
        out.append(tuple(sorted(a.strip() for a in inner.split(","))) if inner else ())
    return out


def check_answer_sets(
    program: str, code: int, stdout: str, expected_count: int | None = None
) -> list[str]:
    """The printed answer sets, one per line, equal the oracle's list."""
    if code != 0:
        return [f"exit code {code}, expected 0"]
    printed = [
        tuple(a.strip() for a in line.split(",")) if line.strip() else ()
        for line in stdout.splitlines()
    ]
    truth = oracle.answer_sets(oracle.parse(program))
    problems = []
    if printed != truth:
        problems.append(f"answer sets {printed} but the oracle gives {truth}")
    if expected_count is not None and len(truth) != expected_count:
        problems.append(f"oracle finds {len(truth)} answer sets, built to have {expected_count}")
    return problems


def _check_separator(
    left: oracle.Program,
    right: oracle.Program,
    context: oracle.Program,
    reported: tuple[list, list],
) -> list[str]:
    truth = (
        oracle.answer_sets(left.union(context)),
        oracle.answer_sets(right.union(context)),
    )
    problems = []
    if truth[0] == truth[1]:
        problems.append("the reported context does not separate the programs")
    if [sorted(map(tuple, side)) for side in reported] != [sorted(side) for side in truth]:
        problems.append(f"reported answer sets {reported} under the context, oracle {truth}")
    return problems


def _verdict_code(equivalent: bool, code: int) -> list[str]:
    expected = 0 if equivalent else 1
    return [] if code == expected else [f"exit code {code} for verdict {equivalent}"]


def check_strong(left_text: str, right_text: str, code: int, stdout: str) -> list[str]:
    """Text output of `equiv --mode strong`: the verdict equals the oracle's
    SE-model comparison and a distinguishing context separates the pair."""
    left, right = oracle.parse(left_text), oracle.parse(right_text)
    truth = oracle.strongly_equivalent(left, right)
    lines = stdout.splitlines()
    if not lines or lines[0] not in ("equivalent", "not equivalent"):
        return [f"no verdict in {stdout[:80]!r}"]
    verdict = lines[0] == "equivalent"
    problems = _verdict_code(verdict, code)
    if verdict != truth:
        return problems + [f"verdict {verdict}, oracle says {truth}"]
    if verdict:
        return problems + ([f"unexpected text {lines[1:]}"] if lines[1:] else [])
    try:
        start = lines.index("distinguishing context:")
        left_line = next(i for i, l in enumerate(lines) if l.startswith("left answer sets:"))
        context = oracle.parse("\n".join(lines[start + 1 : left_line]))
        reported = (
            _parse_interps(lines[left_line].split(":", 1)[1]),
            _parse_interps(lines[left_line + 1].split(":", 1)[1]),
        )
        if not lines[left_line + 1].startswith("right answer sets:"):
            raise ValueError("no right answer sets")
    except (ValueError, StopIteration, IndexError) as exc:
        return problems + [f"unreadable distinguishing context: {exc}"]
    if context.atoms != left.atoms:
        return problems + [f"context alphabet {context.atoms} differs from {left.atoms}"]
    return problems + _check_separator(left, right, context, reported)


def check_uniform(left_text: str, right_text: str, code: int, stdout: str) -> list[str]:
    """JSON output of `equiv --mode uniform`: the verdict equals the oracle's
    comparison over all fact contexts, and a reported context is a set of
    facts that separates the pair."""
    left, right = oracle.parse(left_text), oracle.parse(right_text)
    truth = not oracle.uniform_separators(left, right)
    try:
        report = json.loads(stdout)
        verdict = report["equivalent"]
        context_text = report["context"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable JSON report: {exc}"]
    problems = _verdict_code(verdict, code)
    if report.get("mode") != "uniform":
        problems.append(f"mode {report.get('mode')!r}")
    if verdict != truth:
        return problems + [f"verdict {verdict}, oracle says {truth}"]
    if verdict:
        if context_text is not None:
            problems.append("equivalent, yet a context is reported")
        return problems
    if context_text is None:
        return problems + ["no distinguishing context"]
    context = oracle.parse(context_text)
    if context.atoms != left.atoms or any(p or n for _, p, n in context.rules):
        return problems + ["the context is not a set of facts over the alphabet"]
    reported = (report["left_answer_sets"], report["right_answer_sets"])
    return problems + _check_separator(left, right, context, reported)


def replay(law_id: str, witness: list[str]) -> bool:
    """The law's verdict on a serialized witness, by the `replay_witness` of
    the package under test (`src/` must be on the path)."""
    from aspalgebra import get_law, replay_witness

    return replay_witness(get_law(law_id), tuple(witness))


def check_laws(code: int, stdout: str) -> list[str]:
    """`laws --json`: the registry ids in order, every verdict the expected
    one, and every refuted non-law's witness refutes it again on replay."""
    try:
        results = json.loads(stdout)
        ids = [(r["law_id"], r["expected"]) for r in results]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable JSON: {exc}"]
    problems = [] if code == 0 else [f"exit code {code}, expected 0"]
    if tuple(ids) != LAW_IDS:
        problems.append("law ids or expected verdicts differ from the registry")
    for r in results:
        want = HOLDS if r["expected"] == "law" else REFUTED
        if r["verdict"] != want or r["as_expected"] is not True:
            problems.append(f"{r['law_id']}: verdict {r['verdict']}")
        elif not isinstance(r["trials"], int) or r["trials"] < 1:
            problems.append(f"{r['law_id']}: {r['trials']!r} trials")
        elif want == REFUTED:
            if not r["witness"]:
                problems.append(f"{r['law_id']}: refuted without a witness")
            elif replay(r["law_id"], r["witness"]):
                problems.append(f"{r['law_id']}: the witness does not refute it")
        elif r["witness"] is not None:
            problems.append(f"{r['law_id']}: holds, yet carries a witness")
    return problems
