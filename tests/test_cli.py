"""End-to-end tests for the command line interface."""

import json
import shlex
from pathlib import Path

import pytest

from aspalgebra import cli, semantics
from aspalgebra.cli import main
from aspalgebra.errors import InternalMismatchError
from aspalgebra.textio import parse_program, serialize_program

CHOICE = "#alphabet a, b.\na :- not b.\nb :- not a.\n"
FACT_A = "#alphabet a, b.\na.\n"
GUARDED_A = "#alphabet a, b.\na :- not b.\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_compose(tmp_path, capsys):
    left = write(tmp_path, "left.lp", "#alphabet a, b, c.\na :- b.\n")
    right = write(tmp_path, "right.lp", "#alphabet a, b, c.\nb :- c.\n")
    code, out, err = run(capsys, "compose", left, right)
    assert code == 0
    assert out == "#alphabet a, b, c.\na :- c.\n"
    assert err == ""


def test_cup_and_alphabet_union_notice(tmp_path, capsys):
    left = write(tmp_path, "left.lp", "#alphabet a, b, c.\na :- b.\n")
    right = write(tmp_path, "right.lp", "#alphabet a, c.\na :- c.\n")
    code, out, err = run(capsys, "cup", left, right)
    assert code == 0
    assert out == "#alphabet a, b, c.\na :- b, c.\n"
    assert "note: input alphabets differ; using their union {a, b, c}" in err


def test_not_of_empty_program_is_all_facts(tmp_path, capsys):
    empty = write(tmp_path, "empty.lp", "#alphabet a, b.\n")
    code, out, _ = run(capsys, "not", empty)
    assert code == 0
    assert out == "#alphabet a, b.\na.\nb.\n"


def test_tf_exposes_truth_atoms(tmp_path, capsys):
    program = write(tmp_path, "p.lp", "#alphabet a, b, c.\na :- b.\n")
    code, out, _ = run(capsys, "tf", program)
    assert code == 0
    assert out == "#alphabet a, b, c.\na :- b.\nb :- f.\nc :- f.\n"


def test_reduct_and_tp(tmp_path, capsys):
    program = write(tmp_path, "p.lp", "#alphabet a, b.\na.\nb :- a, not b.\n")
    code, out, _ = run(capsys, "reduct", "--kind", "gl", "-i", "a", program)
    assert code == 0
    assert out == "#alphabet a, b.\na.\nb :- a.\n"
    code, out, _ = run(capsys, "tp", "-i", "a", program)
    assert code == 0
    assert out == "a, b\n"


def test_lm_rejects_non_horn(tmp_path, capsys):
    choice = write(tmp_path, "choice.lp", CHOICE)
    code, _, err = run(capsys, "lm", choice)
    assert code == 2
    assert err.startswith("error:")
    assert "Horn" in err


def test_answer_sets_one_per_line(tmp_path, capsys):
    choice = write(tmp_path, "choice.lp", CHOICE)
    code, out, _ = run(capsys, "answer-sets", choice)
    assert code == 0
    assert out == "a\nb\n"


def test_equiv_positive(tmp_path, capsys):
    left = write(tmp_path, "left.lp", FACT_A)
    right = write(tmp_path, "right.lp", "#alphabet a, b.\na.\na :- b.\n")
    for mode in ("as", "uniform", "strong"):
        code, out, _ = run(capsys, "equiv", "--mode", mode, left, right)
        assert code == 0, mode
        assert out == "equivalent\n"


def test_equiv_strong_negative_shows_context(tmp_path, capsys):
    left = write(tmp_path, "left.lp", FACT_A)
    right = write(tmp_path, "right.lp", GUARDED_A)
    code, out, _ = run(capsys, "equiv", "--mode", "strong", left, right)
    assert code == 1
    assert out == (
        "not equivalent\n"
        "distinguishing context:\n"
        "#alphabet a, b.\n"
        "b.\n"
        "left answer sets: {a, b}\n"
        "right answer sets: {b}\n"
    )


def test_equiv_json_payload(tmp_path, capsys):
    left = write(tmp_path, "left.lp", FACT_A)
    right = write(tmp_path, "right.lp", GUARDED_A)
    code, out, _ = run(capsys, "equiv", "--mode", "strong", "--json", left, right)
    assert code == 1
    payload = json.loads(out)
    assert payload == {
        "mode": "strong",
        "equivalent": False,
        "context": "#alphabet a, b.\nb.\n",
        "left_answer_sets": [["a", "b"]],
        "right_answer_sets": [["b"]],
    }
    code, out, _ = run(capsys, "equiv", "--mode", "as", "--json", left, right)
    assert code == 0
    assert json.loads(out)["equivalent"] is True


def test_equiv_subsumption(tmp_path, capsys):
    left = write(tmp_path, "left.lp", "#alphabet a.\na.\n")
    right = write(tmp_path, "right.lp", "#alphabet a.\na :- a.\n")
    code, out, _ = run(capsys, "equiv", "--mode", "subsumption", left, right)
    assert code == 1
    assert out.startswith("not equivalent\ndistinguishing context:\n")


def test_laws_text_and_json(capsys):
    code, out, _ = run(capsys, "laws", "--trials", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "64 laws checked, all verdicts as expected"
    assert "compose-right-unit: holds-on-sample after 2 trials (expected law) ok" in lines
    code, out, _ = run(capsys, "laws", "--trials", "2", "--json")
    assert code == 0
    records = json.loads(out)
    assert len(records) == 64
    assert all(record["as_expected"] for record in records)
    sample = next(r for r in records if r["law_id"] == "cup-idempotent")
    assert sample["verdict"] == "refuted"
    assert sample["expected"] == "non-law"


def test_rename(tmp_path, capsys):
    program = write(tmp_path, "p.lp", "#alphabet a, b, c.\na :- b.\n")
    code, out, _ = run(capsys, "rename", "--perm", "(a b)", program)
    assert code == 0
    assert out == "#alphabet a, b, c.\nb :- a.\n"


def test_ominus_and_oplus(capsys):
    code, out, _ = run(capsys, "ominus", "-i", "a", "--alphabet", "a, b")
    assert code == 0
    assert out == "#alphabet a, b.\na.\nb :- b.\n"
    code, out, _ = run(capsys, "oplus", "-l", "not b", "--alphabet", "a, b")
    assert code == 0
    assert out == "#alphabet a, b.\na :- a, not b.\nb :- b, not b.\n"


def test_ominus_and_oplus_reject_empty_entries(capsys):
    code, out, err = run(capsys, "ominus", "-i", "a,,b", "--alphabet", "a,b")
    assert (code, out) == (2, "")
    assert "empty entry in atom list" in err
    code, out, err = run(capsys, "oplus", "-l", "a,,b", "--alphabet", "a,b")
    assert (code, out) == (2, "")
    assert "empty entry in literal list" in err


def test_star_and_omega(tmp_path, capsys):
    chain = write(tmp_path, "chain.lp", "#alphabet a, b.\na.\nb :- a.\n")
    code, out, _ = run(capsys, "omega", chain)
    assert code == 0
    assert out == "a, b\n"
    code, out, _ = run(capsys, "star", chain)
    assert code == 0
    assert out.startswith("#alphabet a, b.\na.\n")


def test_parse_error_exit_code(tmp_path, capsys):
    bad = write(tmp_path, "bad.lp", "#alphabet a.\na :- , b.\n")
    code, _, err = run(capsys, "dual", bad)
    assert code == 2
    assert err.startswith("error:")


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "compose", "missing.lp", "also-missing.lp")
    assert code == 2
    assert err.startswith("error:")


def test_enumeration_cap_exit_code(tmp_path, capsys):
    choice = write(tmp_path, "choice.lp", CHOICE)
    code, _, err = run(capsys, "answer-sets", "--max-atoms", "1", choice)
    assert code == 3
    assert "enumeration is capped at 1" in err


def test_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    # a route disagreement is a library bug: its own exit code, not exit 2
    def disagree(args):
        raise InternalMismatchError("two routes disagree")

    monkeypatch.setattr(cli, "_cmd_answer_sets", disagree)
    choice = write(tmp_path, "choice.lp", CHOICE)
    code, out, err = run(capsys, "answer-sets", choice)
    assert code == 4
    assert out == ""
    assert err == "internal error: two routes disagree\n"


def test_uniform_route_mismatch_exit_code(tmp_path, capsys, monkeypatch):
    # UE-models that differ, for one program against itself: no fact context
    # separates, so the library reports its own bug with both operands
    fact = write(tmp_path, "fact.lp", FACT_A)
    answers = iter([frozenset(), frozenset({(frozenset("a"), frozenset("a"))})])
    monkeypatch.setattr(semantics, "ue_models", lambda p, max_atoms: next(answers))
    code, out, err = run(capsys, "equiv", "--mode", "uniform", fact, fact)
    assert (code, out) == (4, "")
    assert err == (
        "internal error: UE-models differ but no distinguishing context was "
        f"found for\nleft:\n{FACT_A}right:\n{FACT_A}\n"
    )


def test_no_subcommand_prints_help(capsys):
    code, _, err = run(capsys)
    assert code == 2
    assert "COMMAND" in err


def test_output_is_deterministic(tmp_path, capsys):
    choice = write(tmp_path, "choice.lp", CHOICE)
    first = run(capsys, "answer-sets", choice)
    second = run(capsys, "answer-sets", choice)
    assert first == second


def test_not_is_no_atom_on_the_command_line(tmp_path, capsys):
    program = write(tmp_path, "p.lp", "#alphabet a, b.\na.\nb :- a, not b.\n")
    for argv in (
        ("ominus", "-i", "not", "--alphabet", "a,b"),
        ("reduct", "-i", "not", program),
        ("tp", "-i", "not", program),
        ("compose", "--alphabet", "not", program, program),
        ("rename", "--perm", "(a not)", program),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:")


def test_alphabet_flag_rejects_empty_entries(capsys):
    for flag in ("a,,b", "a,", " , "):
        code, out, err = run(capsys, "ominus", "-i", "a", "--alphabet", flag)
        assert (code, out) == (2, ""), flag
        assert "empty entry in atom list" in err


def test_oplus_reads_not_before_a_tab_as_negation(capsys):
    spaced = run(capsys, "oplus", "-l", "not a")
    tabbed = run(capsys, "oplus", "-l", "not\ta")
    assert tabbed == spaced
    assert spaced[:2] == (0, "#alphabet a.\na :- a, not a.\n")


# Every program-printing command of this module, plus inputs that once
# printed programs the parser could not read back, as (argv, {p}, {q}).
# `tf` is left out: its truth constants make its output display-only.
ABC_RULE = "#alphabet a, b, c.\na :- b.\n"
PROGRAM_COMMANDS = [
    (("compose", "{p}", "{q}"), ABC_RULE, "#alphabet a, b, c.\nb :- c.\n"),
    (("cup", "{p}", "{q}"), ABC_RULE, "#alphabet a, c.\na :- c.\n"),
    (("not", "{p}"), "#alphabet a, b.\n", ""),
    (("not", "{p}"), CHOICE, ""),
    (("dual", "{p}"), "#alphabet a, b, c.\na.\nb :- a, c.\n", ""),
    (("reduct", "--kind", "gl", "-i", "a", "{p}"), "a.\nb :- a, not b.\n", ""),
    (("reduct", "--kind", "left", "-i", "a", "{p}"), CHOICE, ""),
    (("reduct", "--kind", "right", "-i", "b", "{p}"), CHOICE, ""),
    (("reduct", "--kind", "flp", "-i", "", "{p}"), CHOICE, ""),
    (("reduct", "-i", "not", "{p}"), CHOICE, ""),
    (("star", "{p}"), "#alphabet a, b.\na.\nb :- a.\n", ""),
    (("rename", "--perm", "(a b)", "{p}"), ABC_RULE, ""),
    (("compose", "--alphabet", "not", "{p}", "{p}"), FACT_A, ""),
    (("ominus", "-i", "a", "--alphabet", "a, b"), "", ""),
    (("ominus", "-i", "not", "--alphabet", "a,b"), "", ""),
    (("oplus", "-l", "not b", "--alphabet", "a, b"), "", ""),
    (("oplus", "-l", "not\ta"), "", ""),
    (("oplus", "-l", "not not"), "", ""),
]


@pytest.mark.parametrize("argv, p, q", PROGRAM_COMMANDS)
def test_printed_programs_parse_back(tmp_path, capsys, argv, p, q):
    paths = {"p": write(tmp_path, "p.lp", p), "q": write(tmp_path, "q.lp", q)}
    code, out, _ = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code in (0, 2)
    assert (code == 0) == bool(out)
    if out:
        assert serialize_program(parse_program(out)) == out


# Each command with the arguments it needs and the shared options it reads.
# Parsing fails before any file is opened, so the paths need not exist.
COMMAND_OPTIONS = {
    "compose": (("p.lp", "q.lp"), {"--alphabet"}),
    "cup": (("p.lp", "q.lp"), {"--alphabet"}),
    "not": (("p.lp",), {"--alphabet"}),
    "tf": (("p.lp",), {"--alphabet"}),
    "dual": (("p.lp",), {"--alphabet"}),
    "reduct": (("-i", "a", "p.lp"), {"--alphabet"}),
    "tp": (("-i", "a", "p.lp"), {"--alphabet"}),
    "lm": (("p.lp",), {"--alphabet"}),
    "star": (("p.lp",), {"--alphabet"}),
    "omega": (("p.lp",), {"--alphabet"}),
    "answer-sets": (("p.lp",), {"--alphabet", "--max-atoms"}),
    "equiv": (("p.lp", "q.lp"), {"--alphabet", "--max-atoms", "--json"}),
    "laws": (("--trials", "1"), {"--json"}),
    "ominus": (("-i", "a"), {"--alphabet"}),
    "oplus": (("-l", "a"), {"--alphabet"}),
    "rename": (("--perm", "(a b)", "p.lp"), {"--alphabet"}),
}
SHARED_OPTIONS = {"--alphabet": ("not",), "--max-atoms": ("0",), "--json": ()}
# `equiv` reads every shared option, so it is given another command's option.
UNREAD_OPTIONS = [
    (command, (option, *SHARED_OPTIONS[option]))
    for command, (_, reads) in COMMAND_OPTIONS.items()
    for option in SHARED_OPTIONS
    if option not in reads
] + [("equiv", ("--seed", "1"))]


def _subcommands():
    (action,) = cli._build_parser()._subparsers._group_actions
    return set(action.choices)


def test_option_tables_cover_every_subcommand():
    assert set(COMMAND_OPTIONS) == _subcommands()
    assert {command for command, _ in UNREAD_OPTIONS} == _subcommands()
    assert sum(len(reads) for _, reads in COMMAND_OPTIONS.values()) == 19


@pytest.mark.parametrize(
    "command, option", UNREAD_OPTIONS, ids=[c + o[0] for c, o in UNREAD_OPTIONS]
)
def test_option_a_command_does_not_read_is_a_usage_error(capsys, command, option):
    args, _ = COMMAND_OPTIONS[command]
    with pytest.raises(SystemExit) as caught:
        main([command, *option, *args])
    captured = capsys.readouterr()
    assert caught.value.code == 2
    assert captured.out == ""
    # the command's own usage line, and the option alone: never the
    # positional its value displaced
    assert captured.err.startswith(f"usage: aspalgebra {command} ")
    assert captured.err.endswith(
        f"aspalgebra {command}: error: unrecognized arguments: {option[0]}\n"
    )


@pytest.mark.parametrize("command", COMMAND_OPTIONS)
def test_each_command_accepts_the_options_it_reads(command):
    args, reads = COMMAND_OPTIONS[command]
    argv = [command, *args]
    for option in sorted(reads):
        argv += [option, *SHARED_OPTIONS[option]]
    assert cli._build_parser().parse_args(argv).command == command


def test_read_options_still_act(tmp_path, capsys):
    # --alphabet widens the session alphabet past --max-atoms: exit 3
    choice = write(tmp_path, "choice.lp", CHOICE)
    argv = ("answer-sets", "--alphabet", "c", "--max-atoms", "2", choice)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert "alphabet has 3 atoms; enumeration is capped at 2" in err
    code, out, _ = run(capsys, "equiv", "--json", "--max-atoms", "2", choice, choice)
    assert code == 0
    assert json.loads(out)["equivalent"] is True


def _readme_command_lines():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("aspalgebra ")]


README_COMMAND_LINES = _readme_command_lines()


def test_readme_shows_every_subcommand():
    shown = {shlex.split(line, comments=True)[1] for line in README_COMMAND_LINES}
    assert shown == _subcommands()


@pytest.mark.parametrize(
    "line", README_COMMAND_LINES, ids=[line.split()[1] for line in README_COMMAND_LINES]
)
def test_readme_command_lines_parse(line):
    argv = shlex.split(line, comments=True)[1:]
    assert cli._build_parser().parse_args(argv).command == argv[0]
