"""Benchmark of the aspalgebra CLI: one named workload per run.

    python3 bench/run.py --workload laws|answer-sets|equiv --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  The inputs are made from the seed and
written under `bench/out/`.  Every CLI call runs in a fresh process, so
every cache starts empty.  A run repeats whole rounds of the workload's
calls for about S seconds, checks every output against the independent
oracle (`oracle.py`), and prints one JSON line last:

* `--trace 0`: the end-to-end metrics, each the median over the rounds
  (`setup_s`: the median over fresh interpreters);
* `--trace 1`: the per-layer metrics of one traced in-process run
  (`traced.py`), made beside an untraced one.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402

ROOT = Path.cwd()
OUT = BENCH / "out"
# the checkers replay law witnesses with the checkout's own `replay_witness`
sys.path.insert(1, str(ROOT / "src"))
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
#: A run must end within 180 s; no single call may use more than this.
CALL_TIMEOUT_S = 150.0
SETUP_LAUNCHES = 15

#: The acceptance criterion-2 configuration of the law run.
LAWS = {"atoms": 3, "max_rules": 5, "max_body": 3, "seed": 314159, "trials": 1000, "exhaustive": True}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

_LAYER_MEASURES = (
    ("core.program_new", ("calls", "self_s")),
    ("textio.parse_program", ("self_s",)),
    ("textio.serialize_program", ("self_s",)),
    ("compose.compose", ("calls", "self_s", "hit_ratio", "cache_entries")),
    ("compose.negate_program", ("calls", "self_s", "hit_ratio")),
    ("compose.kleene_star", ("calls", "self_s", "hit_ratio")),
    ("compose.omega", ("self_s",)),
    ("compose.cup", ("calls", "self_s")),
    ("semantics.least_model", ("calls", "self_s", "hit_ratio")),
    ("semantics.gl_reduct", ("calls", "self_s")),
    ("semantics.entails_program", ("calls", "self_s")),
    ("semantics.is_answer_set", ("calls",)),
    ("semantics.answer_sets", ("yield_ratio",)),
    ("semantics.se_models", ("calls", "self_s")),
    ("semantics.strongly_equivalent", ("self_s",)),
    ("semantics.uniformly_equivalent", ("self_s",)),
)
_UNITS = {"calls": "count", "self_s": "s", "hit_ratio": "ratio", "cache_entries": "count", "yield_ratio": "ratio"}

PER_LAYER = {f"{layer}.{m}": _UNITS[m] for layer, measures in _LAYER_MEASURES for m in measures}
PER_LAYER.update({f"lawcheck.law.{law_id}.s": "s" for law_id, _ in checks.LAW_IDS})
PER_LAYER.update({"lawcheck.trials": "count", "lawcheck.pool_bound_s": "s", "trace.overhead_s": "s"})


@dataclass
class Call:
    """One CLI call of a round and the check of its output."""

    argv: list[str]
    check: Callable[[int, str], list[str]]
    ok_codes: tuple[int, ...] = (0,)


@dataclass
class Outcome:
    code: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: str


# -- workloads -------------------------------------------------------------------


def laws_calls(rng: random.Random, work: Path) -> list[Call]:
    argv = ["laws", "--json", "--trials", str(LAWS["trials"]), "--exhaustive"]
    argv += ["--atoms", str(LAWS["atoms"]), "--max-rules", str(LAWS["max_rules"])]
    argv += ["--max-body", str(LAWS["max_body"]), "--seed", str(LAWS["seed"])]
    return [Call(argv, checks.check_laws, (0, 1))]


def answer_sets_calls(rng: random.Random, work: Path) -> list[Call]:
    loops, count = inputs.even_loops(rng, loops=3, derived=7)
    family = [
        ("loops13", loops, count),
        ("horn12", inputs.horn_heavy(rng, 12, negative=4), None),
        ("wide14", inputs.wide_negative(rng, 14), None),
    ]
    calls = []
    for name, text, count in family:
        path = work / f"{name}.lp"
        path.write_text(text)
        check = lambda code, out, text=text, count=count: checks.check_answer_sets(text, code, out, count)
        calls.append(Call(["answer-sets", str(path)], check))
    return calls


def equiv_calls(rng: random.Random, work: Path) -> list[Call]:
    calls = []
    for name, left, right in inputs.equiv_pairs(rng):
        lpath, rpath = work / f"{name}.left.lp", work / f"{name}.right.lp"
        lpath.write_text(left)
        rpath.write_text(right)
        files = [str(lpath), str(rpath)]
        strong = lambda code, out, l=left, r=right: checks.check_strong(l, r, code, out)
        uniform = lambda code, out, l=left, r=right: checks.check_uniform(l, r, code, out)
        calls.append(Call(["equiv", "--mode", "strong", *files], strong, (0, 1)))
        calls.append(Call(["equiv", "--mode", "uniform", "--json", *files], uniform, (0, 1)))
    return calls


WORKLOADS = {"laws": laws_calls, "answer-sets": answer_sets_calls, "equiv": equiv_calls}


# -- running ---------------------------------------------------------------------


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def launch(cmd: list[str], stdout_path: Path, timeout: float) -> Outcome:
    """Run a command in its own process group; its rusage covers the pool
    workers it waited for.  On timeout the whole group is killed."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=ENV, stdout=out, stderr=err, start_new_session=True)
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    # reaped by wait4 above; tell Popen so that it does not wait again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        proc.returncode,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024,
        stdout_path.read_text(encoding="utf-8", errors="replace"),
    )


def run_round(calls: list[Call], work: Path, deadline: float) -> list[Outcome]:
    outcomes = []
    for index, call in enumerate(calls):
        timeout = max(1.0, min(CALL_TIMEOUT_S, deadline - time.perf_counter()))
        cmd = [sys.executable, "-m", "aspalgebra.cli", *call.argv]
        outcomes.append(launch(cmd, work / f"call{index}.out", timeout))
    return outcomes


def measure_setup(work: Path) -> float:
    """Median wall time of fresh interpreters that import the package, from
    process start to exit.  One launch first, untimed, so that compiling
    the sources to bytecode is not counted."""
    cmd = [sys.executable, "-c", "import aspalgebra"]
    times = []
    for index in range(SETUP_LAUNCHES + 1):
        outcome = launch(cmd, work / "setup.out", CALL_TIMEOUT_S)
        if outcome.code != 0:
            raise RuntimeError(f"`import aspalgebra` failed: {(work / 'setup.err').read_text()}")
        if index:
            times.append(outcome.wall)
    return statistics.median(times)


def check_round(calls: list[Call], outcomes: list[Outcome]) -> tuple[int, list[str]]:
    """The number of failed calls (killed, or an exit code that no verdict
    uses) and the problems in the outputs of the others."""
    failed, problems = 0, []
    for call, outcome in zip(calls, outcomes):
        if outcome.code not in call.ok_codes:
            failed += 1
            print(f"failed: {' '.join(call.argv)}: exit code {outcome.code}", file=sys.stderr)
            continue
        problems += [f"{' '.join(call.argv)}: {p}" for p in call.check(outcome.code, outcome.stdout)]
    return failed, problems


def end_to_end(calls: list[Call], work: Path, seconds: float, started: float) -> dict:
    setup = measure_setup(work)
    rounds: list[list[Outcome]] = []
    begin = time.perf_counter()
    deadline = started + CALL_TIMEOUT_S
    while True:
        rounds.append(run_round(calls, work, deadline))
        used = time.perf_counter() - begin
        longest = max(sum(o.wall for o in r) for r in rounds)
        if used + longest > seconds or time.perf_counter() + longest > deadline:
            break
    (work / "rounds.json").write_text(
        json.dumps(
            [
                [{"argv": c.argv, "code": o.code, "wall_s": o.wall, "cpu_s": o.cpu, "rss_mb": o.rss_mb}
                 for c, o in zip(calls, outcomes)]
                for outcomes in rounds
            ],
            indent=1,
        )
    )
    failed, problems = 0, []
    for outcomes in rounds:
        f, p = check_round(calls, outcomes)
        failed += f
        problems += p
    values = {
        "wall_s": statistics.median(sum(o.wall for o in r) for r in rounds),
        "cpu_s": statistics.median(sum(o.cpu for o in r) for r in rounds),
        "peak_rss_mb": statistics.median(max(o.rss_mb for o in r) for r in rounds),
        "setup_s": setup,
    }
    return {
        "attempted": len(rounds) * len(calls),
        "failed": failed,
        "problems": problems,
        "values": values,
        "units": END_TO_END,
    }


def _in_process(spec: dict, path: Path) -> subprocess.Popen:
    spec_path = path.with_suffix(".spec.json")
    spec_path.write_text(json.dumps(spec))
    cmd = [sys.executable, str(BENCH / "traced.py"), str(spec_path), str(path)]
    return subprocess.Popen(cmd, cwd=ROOT, env=ENV)


def per_layer(workload: str, calls: list[Call], work: Path, deadline: float) -> dict:
    """The traced in-process run, made beside an untraced one that gives the
    reference time and the per-law times.  On `laws` the CLI pool run comes
    first, for the trial count it reports."""
    problems: list[str] = []
    failed = 0
    pool_trials = None
    if workload == "laws":
        outcomes = run_round(calls, work, deadline)
        failed, problems = check_round(calls, outcomes)
        if not failed and not problems:
            pool_trials = sum(r["trials"] for r in json.loads(outcomes[0].stdout))
    spec = {"workload": workload, "calls": [c.argv for c in calls], "laws": LAWS}
    traced_path, plain_path = work / "traced.json", work / "untraced.json"
    procs = [_in_process(dict(spec, trace=True), traced_path), _in_process(dict(spec, trace=False), plain_path)]
    try:
        for proc in procs:
            if proc.wait(timeout=max(1.0, deadline - time.perf_counter())) != 0:
                raise RuntimeError(f"in-process run exited with {proc.returncode}")
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    traced = json.loads(traced_path.read_text())
    plain = json.loads(plain_path.read_text())
    problems += traced["problems"]
    for call, out in zip(calls, traced["outputs"]):
        problems += [f"traced {' '.join(call.argv)}: {p}" for p in call.check(out["code"], out["stdout"])]
    # the law suite runs on `laws` only; elsewhere its times are zero
    metrics = {f"lawcheck.law.{law_id}.s": 0.0 for law_id, _ in checks.LAW_IDS}
    metrics.update(traced["metrics"])
    for name, value in plain["metrics"].items():
        if name.startswith("lawcheck."):
            metrics[name] = value
    trials = sum(r["trials"] for r in json.loads(traced["outputs"][0]["stdout"])) if workload == "laws" else 0
    metrics["lawcheck.trials"] = trials
    if pool_trials is not None and trials != pool_trials:
        problems.append(f"traced run made {trials} trials, the pool run {pool_trials}")
    if workload == "answer-sets":
        expected = sum(2 ** oracle.parse(Path(c.argv[-1]).read_text()).size for c in calls)
        if metrics["semantics.is_answer_set.calls"] != expected:
            problems.append(f"is_answer_set ran {metrics['semantics.is_answer_set.calls']} times, not {expected}")
    metrics["trace.overhead_s"] = traced["cpu_s"] - plain["cpu_s"]
    missing = [name for name in PER_LAYER if name not in metrics]
    if missing:
        raise RuntimeError(f"no value for {missing}")
    return {
        "attempted": len(calls) + (len(calls) if workload == "laws" else 0),
        "failed": failed,
        "problems": problems,
        "values": {name: metrics[name] for name in PER_LAYER},
        "units": PER_LAYER,
    }


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "aspalgebra" / "__init__.py").is_file():
        print("error: run from the root of an aspalgebra checkout (no src/aspalgebra)", file=sys.stderr)
        return 2
    oracle.self_check()

    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work.mkdir(parents=True, exist_ok=True)
    calls = WORKLOADS[args.workload](random.Random(args.seed), work)
    if args.trace:
        result = per_layer(args.workload, calls, work, started + CALL_TIMEOUT_S)
    else:
        result = end_to_end(calls, work, args.seconds, started)
    for problem in result["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    report = {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": result["units"][name]}
            for name, value in result["values"].items()
        },
    }
    (work / "result.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
