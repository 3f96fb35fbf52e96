"""Command-line front end.

Every operation of the library is exposed over `.lp` files with canonical,
byte-deterministic output: programs one rule per line in sorted order behind
an alphabet directive, interpretations as one comma-separated line.

Exit codes: 0 success (and `equiv` verdict "equivalent"), 1 a negative
`equiv` or `laws` verdict, 2 usage, parse or alphabet errors (an option the
command does not read is a usage error), 3 enumeration bound violations, 4
an internal error (two routes that must agree did not: a library bug, not an
input error).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Iterable, Sequence

from .compose import (
    compose,
    cup,
    kleene_star,
    negate_program,
    omega,
    ominus,
    oplus,
    tf_transform,
)
from .core import Alphabet, ExtProgram, Interpretation, Program
from .errors import AlphabetTooLargeError, AspAlgebraError, InternalMismatchError
from .lawcheck import GeneratorConfig, run_laws
from .semantics import (
    DEFAULT_MAX_ATOMS,
    EquivalenceReport,
    answer_sets,
    gl_reduct,
    least_model,
    left_reduct,
    right_reduct,
    strongly_equivalent,
    subsumption_equivalent,
    tp_direct,
    uniformly_equivalent,
)
from .textio import (
    parse_interpretation,
    parse_literals,
    parse_permutation,
    parse_program,
    serialize_interpretation,
    serialize_program,
)


def _load_programs(
    args: argparse.Namespace, paths: Sequence[str] = (), extra_atoms: Iterable[str] = ()
) -> tuple[Alphabet, list[Program]]:
    """Parse the input files and re-home everything to the session alphabet:
    the union of all declared alphabets, `--alphabet`, and option atoms."""
    programs = [
        parse_program(Path(path).read_text(encoding="utf-8"), origin=path)
        for path in paths
    ]
    atoms = set(extra_atoms) | parse_interpretation(args.alphabet).atoms
    for program in programs:
        atoms |= program.alphabet.atom_set
    session = Alphabet(tuple(atoms))
    if len({program.alphabet for program in programs}) > 1:
        print(
            f"note: input alphabets differ; using their union {session}",
            file=sys.stderr,
        )
    return session, [
        program if program.alphabet == session else program.with_alphabet(session)
        for program in programs
    ]


def _print_program(program: Program | ExtProgram) -> int:
    sys.stdout.write(serialize_program(program))
    return 0


def _print_interpretation(interpretation: Interpretation) -> int:
    print(serialize_interpretation(interpretation))
    return 0


# -- program transformation commands -------------------------------------------


def _cmd_compose(args: argparse.Namespace) -> int:
    _, (left, right) = _load_programs(args, [args.left, args.right])
    return _print_program(compose(left, right))


def _cmd_cup(args: argparse.Namespace) -> int:
    _, (left, right) = _load_programs(args, [args.left, args.right])
    return _print_program(cup(left, right))


def _cmd_not(args: argparse.Namespace) -> int:
    _, (program,) = _load_programs(args, [args.program])
    return _print_program(negate_program(program))


def _cmd_tf(args: argparse.Namespace) -> int:
    _, (program,) = _load_programs(args, [args.program])
    return _print_program(tf_transform(program))


def _cmd_dual(args: argparse.Namespace) -> int:
    _, (program,) = _load_programs(args, [args.program])
    return _print_program(program.dual())


def _cmd_reduct(args: argparse.Namespace) -> int:
    atoms = parse_interpretation(args.interp).atoms
    session, (program,) = _load_programs(args, [args.program], atoms)
    fn = {
        "gl": gl_reduct,
        "left": left_reduct,
        "right": right_reduct,
        "flp": right_reduct,
    }[args.kind]
    return _print_program(fn(program, Interpretation(session, atoms)))


def _cmd_star(args: argparse.Namespace) -> int:
    _, (program,) = _load_programs(args, [args.program])
    return _print_program(kleene_star(program))


def _cmd_rename(args: argparse.Namespace) -> int:
    mapping = parse_permutation(args.perm)
    _, (program,) = _load_programs(
        args, [args.program], list(mapping) + list(mapping.values())
    )
    return _print_program(program.rename(mapping))


def _cmd_ominus(args: argparse.Namespace) -> int:
    atoms = parse_interpretation(args.interp).atoms
    session, _ = _load_programs(args, extra_atoms=atoms)
    return _print_program(ominus(Interpretation(session, atoms)))


def _cmd_oplus(args: argparse.Namespace) -> int:
    literals = parse_literals(args.literals)
    session, _ = _load_programs(args, extra_atoms=(lit.atom for lit in literals))
    return _print_program(oplus(literals, session))


# -- semantic commands -----------------------------------------------------------


def _cmd_tp(args: argparse.Namespace) -> int:
    atoms = parse_interpretation(args.interp).atoms
    session, (program,) = _load_programs(args, [args.program], atoms)
    return _print_interpretation(tp_direct(program, Interpretation(session, atoms)))


def _cmd_lm(args: argparse.Namespace) -> int:
    _, (program,) = _load_programs(args, [args.program])
    return _print_interpretation(least_model(program))


def _cmd_omega(args: argparse.Namespace) -> int:
    _, (program,) = _load_programs(args, [args.program])
    return _print_interpretation(omega(program))


def _cmd_answer_sets(args: argparse.Namespace) -> int:
    _, (program,) = _load_programs(args, [args.program])
    for interp in answer_sets(program, args.max_atoms):
        print(serialize_interpretation(interp))
    return 0


def _interp_list(models: Sequence[Interpretation]) -> str:
    return "; ".join(str(m) for m in models) if models else "(none)"


def _equiv_report(args: argparse.Namespace, left: Program, right: Program) -> EquivalenceReport:
    if args.mode == "as":
        left_as = answer_sets(left, args.max_atoms)
        right_as = answer_sets(right, args.max_atoms)
        if left_as == right_as:
            return EquivalenceReport(True)
        return EquivalenceReport(False, None, left_as, right_as)
    if args.mode == "subsumption":
        return subsumption_equivalent(left, right, args.max_atoms)
    if args.mode == "uniform":
        return uniformly_equivalent(left, right, args.max_atoms)
    return strongly_equivalent(left, right, args.max_atoms)


def _cmd_equiv(args: argparse.Namespace) -> int:
    _, (left, right) = _load_programs(args, [args.left, args.right])
    report = _equiv_report(args, left, right)
    if args.json:
        payload = {
            "mode": args.mode,
            "equivalent": report.equivalent,
            "context": serialize_program(report.context)
            if report.context is not None
            else None,
            "left_answer_sets": [sorted(m.atoms) for m in report.left_answer_sets],
            "right_answer_sets": [sorted(m.atoms) for m in report.right_answer_sets],
        }
        print(json.dumps(payload, sort_keys=True))
    elif report.equivalent:
        print("equivalent")
    else:
        print("not equivalent")
        if report.context is not None:
            print("distinguishing context:")
            sys.stdout.write(serialize_program(report.context))
        if report.left_answer_sets or report.right_answer_sets:
            print(f"left answer sets: {_interp_list(report.left_answer_sets)}")
            print(f"right answer sets: {_interp_list(report.right_answer_sets)}")
    return 0 if report.equivalent else 1


def _cmd_laws(args: argparse.Namespace) -> int:
    config = GeneratorConfig(
        alphabet_size=args.atoms,
        max_rules=args.max_rules,
        max_body=args.max_body,
        seed=args.seed,
    )
    results = run_laws(config, trials=args.trials, exhaustive=args.exhaustive)
    if args.json:
        payload = [
            {
                "law_id": r.law_id,
                "expected": r.expected_verdict,
                "verdict": r.verdict,
                "trials": r.trials,
                "as_expected": r.as_expected,
                "witness": list(r.witness) if r.witness else None,
            }
            for r in results
        ]
        print(json.dumps(payload, sort_keys=True))
    else:
        for r in results:
            flag = "ok" if r.as_expected else "UNEXPECTED"
            print(
                f"{r.law_id}: {r.verdict} after {r.trials} trials "
                f"(expected {r.expected_verdict}) {flag}"
            )
            if r.witness and not r.as_expected:
                for slot_text in r.witness:
                    print("  witness:")
                    for line in slot_text.splitlines():
                        print(f"    {line}")
        bad = sum(1 for r in results if not r.as_expected)
        print(
            f"{len(results)} laws checked, "
            + ("all verdicts as expected" if not bad else f"{bad} UNEXPECTED")
        )
    return 0 if all(r.as_expected for r in results) else 1


# -- parser ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aspalgebra",
        description="Sequential composition algebra for propositional programs.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    # Each command declares only the options it reads, so an option given to
    # a command that would ignore it is a usage error (exit 2).  All commands
    # but `laws` build a session alphabet, so `add` gives them `--alphabet`.
    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument(
            "--alphabet",
            default="",
            metavar="ATOMS",
            help="comma-separated atoms added to the session alphabet",
        )
        return p

    def add_max_atoms(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--max-atoms",
            type=int,
            default=DEFAULT_MAX_ATOMS,
            metavar="N",
            help="largest alphabet allowed in interpretation enumeration",
        )

    p = add("compose", _cmd_compose, "sequential composition of two programs")
    p.add_argument("left")
    p.add_argument("right")

    p = add("cup", _cmd_cup, "pairwise body union of rules sharing a head")
    p.add_argument("left")
    p.add_argument("right")

    p = add("not", _cmd_not, "negation of a program")
    p.add_argument("program")

    p = add("tf", _cmd_tf, "truth-constant normal form (display only)")
    p.add_argument("program")

    p = add("dual", _cmd_dual, "dual of a Horn program")
    p.add_argument("program")

    p = add("reduct", _cmd_reduct, "reduct of a program relative to atoms")
    p.add_argument("--kind", choices=("gl", "left", "right", "flp"), default="gl")
    p.add_argument("-i", "--interp", required=True, metavar="ATOMS")
    p.add_argument("program")

    p = add("tp", _cmd_tp, "one-step consequences of an interpretation")
    p.add_argument("-i", "--interp", required=True, metavar="ATOMS")
    p.add_argument("program")

    p = add("lm", _cmd_lm, "least model of a Horn program")
    p.add_argument("program")

    p = add("star", _cmd_star, "Kleene star (union of composition powers)")
    p.add_argument("program")

    p = add("omega", _cmd_omega, "omega iteration as an interpretation")
    p.add_argument("program")

    p = add("answer-sets", _cmd_answer_sets, "all answer sets, one per line")
    add_max_atoms(p)
    p.add_argument("program")

    p = add("equiv", _cmd_equiv, "equivalence verdict with witness")
    add_max_atoms(p)
    p.add_argument("--json", action="store_true", help="the verdict as one JSON object")
    p.add_argument(
        "--mode", choices=("as", "subsumption", "uniform", "strong"), default="as"
    )
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("laws", help="run the algebraic law suite")
    p.set_defaults(func=_cmd_laws)
    p.add_argument("--json", action="store_true", help="the results as one JSON list")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--atoms", type=int, default=3)
    p.add_argument("--max-rules", type=int, default=5)
    p.add_argument("--max-body", type=int, default=3)
    p.add_argument("--exhaustive", action="store_true")

    p = add("ominus", _cmd_ominus, "atom remover program for an interpretation")
    p.add_argument("-i", "--interp", required=True, metavar="ATOMS")

    p = add("oplus", _cmd_oplus, "body extender program for literals")
    p.add_argument("-l", "--literals", required=True, metavar="LITERALS")

    p = add("rename", _cmd_rename, "apply a permutation of atoms")
    p.add_argument("--perm", required=True, metavar="CYCLES")
    p.add_argument("program")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return 2
    try:
        return args.func(args)
    except AlphabetTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalMismatchError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except (AspAlgebraError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
