"""Show that every output check of the benchmark fails on corrupted output.

    python3 bench/selftest.py

Run from the root of a checkout.  It takes real CLI outputs on small seeded
inputs, checks that each passes, then corrupts each in several ways and
checks that every corruption is reported.  Exits 1 if a check passes a
corrupted output or fails a correct one.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(1, "src")

import checks  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402

ENV = dict(os.environ, PYTHONPATH="src")
WORK = BENCH / "out" / "selftest"


def cli(*argv: str) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "aspalgebra.cli", *argv],
        env=ENV, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout


def write(name: str, text: str) -> str:
    path = WORK / name
    path.write_text(text)
    return str(path)


def main() -> int:
    WORK.mkdir(parents=True, exist_ok=True)
    rng = random.Random(7)
    bad = []

    def expect(label: str, problems: list[str], should_fail: bool) -> None:
        if bool(problems) != should_fail:
            bad.append(f"{label}: {'passed' if should_fail else problems}")

    # answer sets: three even loops over ten atoms, eight answer sets
    program, count = inputs.even_loops(rng, loops=3, derived=4)
    code, out = cli("answer-sets", write("loops.lp", program))
    lines = out.splitlines()
    expect("answer-sets as printed", checks.check_answer_sets(program, code, out, count), False)
    corruptions = {
        "one answer set dropped": "\n".join(lines[1:]) + "\n",
        "one answer set twice": "\n".join(lines + lines[:1]) + "\n",
        "an atom added": "\n".join([lines[0] + ", zz"] + lines[1:]) + "\n",
        "two answer sets swapped": "\n".join([lines[1], lines[0]] + lines[2:]) + "\n",
        "nothing printed": "",
    }
    for label, text in corruptions.items():
        expect(f"answer-sets, {label}", checks.check_answer_sets(program, code, text, count), True)
    expect("answer-sets, exit code 2", checks.check_answer_sets(program, 2, out, count), True)

    # equivalence: the three pairs of the equiv workload
    for name, left, right in inputs.equiv_pairs(rng):
        files = (write(f"{name}.l.lp", left), write(f"{name}.r.lp", right))
        code, out = cli("equiv", "--mode", "strong", *files)
        expect(f"strong {name}", checks.check_strong(left, right, code, out), False)
        flipped = "not equivalent\n" if out.startswith("equivalent") else "equivalent\n"
        expect(f"strong {name}, verdict flipped", checks.check_strong(left, right, 1 - code, flipped), True)
        expect(f"strong {name}, exit code flipped", checks.check_strong(left, right, 1 - code, out), True)
        if code == 1:
            lines = out.splitlines()
            ctx = lines.index("distinguishing context:")
            no_context = lines[: ctx + 2] + [l for l in lines if "answer sets:" in l]
            expect(f"strong {name}, context emptied", checks.check_strong(left, right, code, "\n".join(no_context)), True)
            swapped = [l.replace("left answer", "RIGHT").replace("right answer", "left answer").replace("RIGHT", "right answer") for l in lines]
            swapped = [l for l in swapped if not l.startswith("right")] + [l for l in swapped if l.startswith("right")]
            expect(f"strong {name}, answer sets swapped", checks.check_strong(left, right, code, "\n".join(swapped)), True)

        code, out = cli("equiv", "--mode", "uniform", "--json", *files)
        expect(f"uniform {name}", checks.check_uniform(left, right, code, out), False)
        report = json.loads(out)
        flipped = dict(report, equivalent=not report["equivalent"])
        expect(f"uniform {name}, verdict flipped", checks.check_uniform(left, right, 1 - code, json.dumps(flipped)), True)
        if not report["equivalent"]:
            empty = dict(report, context="#alphabet " + ", ".join(oracle.parse(left).atoms) + ".\n")
            expect(f"uniform {name}, empty context", checks.check_uniform(left, right, code, json.dumps(empty)), True)
            sides = dict(report, left_answer_sets=report["right_answer_sets"], right_answer_sets=report["left_answer_sets"])
            expect(f"uniform {name}, answer sets swapped", checks.check_uniform(left, right, code, json.dumps(sides)), True)
            atoms = oracle.parse(left).atoms
            rule = dict(report, context=f"#alphabet {', '.join(atoms)}.\n{atoms[0]} :- {atoms[1]}.\n")
            expect(f"uniform {name}, context not facts", checks.check_uniform(left, right, code, json.dumps(rule)), True)

    # laws: a short run has the same verdicts as the criterion-2 run
    code, out = cli("laws", "--json", "--trials", "3", "--seed", "314159")
    results = json.loads(out)
    expect("laws as printed", checks.check_laws(code, out), False)
    refuted = next(i for i, r in enumerate(results) if r["verdict"] == checks.REFUTED)
    held = next(i for i, r in enumerate(results) if r["verdict"] == checks.HOLDS)

    def edited(index: int, **fields) -> str:
        rows = [dict(r) for r in results]
        rows[index].update(fields)
        return json.dumps(rows)

    laws_corruptions = {
        "two laws swapped": json.dumps([results[1], results[0]] + results[2:]),
        "one law missing": json.dumps(results[:-1]),
        "a law refuted": edited(held, verdict=checks.REFUTED, as_expected=False),
        "a non-law holding": edited(refuted, verdict=checks.HOLDS, as_expected=False, witness=None),
        "a witness dropped": edited(refuted, witness=None),
        "a witness emptied of rules": edited(
            refuted, witness=[w.splitlines()[0] + "\n" for w in results[refuted]["witness"]]
        ),
        "a witness on a holding law": edited(held, witness=["x"]),
        "zero trials": edited(held, trials=0),
        "not JSON": out[:-3],
    }
    for label, text in laws_corruptions.items():
        expect(f"laws, {label}", checks.check_laws(code, text), True)
    expect("laws, exit code 1", checks.check_laws(1, out), True)

    for line in bad:
        print(f"selftest: {line}", file=sys.stderr)
    print(f"selftest: {'FAILED' if bad else 'every corruption was caught'}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
