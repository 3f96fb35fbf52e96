"""In-process run of one benchmark workload, for the per-layer metrics.

Run by `run.py` in a fresh interpreter, from the root of a checkout:

    python3 bench/traced.py SPEC.json RESULT.json

SPEC.json names the workload, its CLI calls and whether to trace.  Each `answer-sets` or
`equiv` call goes through `aspalgebra.cli.main` in this process, with every
cache emptied before it, as in a fresh CLI process.  The `laws` workload
calls `run_law` law by law, because the tracer's wrappers do not reach the
worker processes that `run_laws` spawns.  RESULT.json gets the per-layer
metrics, the cross-check problems, the outputs and the CPU time taken; the
spans go to `spans.json` beside it.  Untraced, the same run gives the
reference time for the tracing overhead and the per-law times.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, "src")

from tracer import Tracer  # noqa: E402

MODULES = ("core", "compose", "semantics", "lawcheck", "textio", "cli")

#: Traced functions as (metric prefix, module, attribute).  The answer-set
#: count of `answer_sets` results is kept for the yield ratio.
TRACED = (
    ("textio.parse_program", "textio", "parse_program"),
    ("textio.serialize_program", "textio", "serialize_program"),
    ("compose.compose", "compose", "compose"),
    ("compose.negate_program", "compose", "negate_program"),
    ("compose.kleene_star", "compose", "kleene_star"),
    ("compose.omega", "compose", "omega"),
    ("compose.cup", "compose", "cup"),
    ("semantics.least_model", "semantics", "least_model"),
    ("semantics.gl_reduct", "semantics", "gl_reduct"),
    ("semantics.entails_program", "semantics", "entails_program"),
    ("semantics.is_answer_set", "semantics", "is_answer_set"),
    ("semantics.answer_sets", "semantics", "answer_sets"),
    ("semantics.se_models", "semantics", "se_models"),
    ("semantics.strongly_equivalent", "semantics", "strongly_equivalent"),
    ("semantics.uniformly_equivalent", "semantics", "uniformly_equivalent"),
)

#: Memoized functions: traced name -> (module, attribute of the lru_cache).
CACHES = {
    "compose.compose": ("compose", "compose"),
    "compose.negate_program": ("compose", "_negate_cached"),
    "compose.kleene_star": ("compose", "kleene_star"),
    "semantics.least_model": ("semantics", "least_model"),
}


class CacheTotals:
    """Hits and misses summed over cache clears, and the largest size seen."""

    def __init__(self, caches: dict[str, object]) -> None:
        self.caches = caches
        self.hits = dict.fromkeys(caches, 0)
        self.misses = dict.fromkeys(caches, 0)
        self.largest = dict.fromkeys(caches, 0)

    def collect_and_clear(self) -> None:
        for name, cache in self.caches.items():
            info = cache.cache_info()
            self.hits[name] += info.hits
            self.misses[name] += info.misses
            self.largest[name] = max(self.largest[name], info.currsize)
            cache.cache_clear()

    def hit_ratio(self, name: str) -> float:
        total = self.hits[name] + self.misses[name]
        return self.hits[name] / total if total else 0.0


def run_cli_calls(cli, calls: list[list[str]], totals: CacheTotals) -> list[dict]:
    outputs = []
    for argv in calls:
        totals.collect_and_clear()
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
        outputs.append({"code": code, "stdout": buffer.getvalue()})
    totals.collect_and_clear()
    return outputs


def run_laws_in_process(lawcheck, spec: dict, totals: CacheTotals) -> tuple[dict, list]:
    totals.collect_and_clear()
    config = lawcheck.GeneratorConfig(
        alphabet_size=spec["atoms"],
        max_rules=spec["max_rules"],
        max_body=spec["max_body"],
        seed=spec["seed"],
    )
    seconds = {}
    results = []
    for law in lawcheck.REGISTRY:
        start = time.perf_counter()
        r = lawcheck.run_law(law, config, spec["trials"], exhaustive=spec["exhaustive"])
        seconds[law.law_id] = time.perf_counter() - start
        # the same record as `aspalgebra laws --json`
        results.append(
            {
                "law_id": r.law_id,
                "expected": r.expected_verdict,
                "verdict": r.verdict,
                "trials": r.trials,
                "as_expected": r.as_expected,
                "witness": list(r.witness) if r.witness else None,
            }
        )
    totals.collect_and_clear()
    return seconds, results


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    cpu_start = time.process_time()
    modules = {name: importlib.import_module(f"aspalgebra.{name}") for name in MODULES}
    namespaces = [sys.modules["aspalgebra"], *modules.values()]

    totals = CacheTotals(
        {name: getattr(modules[m], attr) for name, (m, attr) in CACHES.items()}
    )
    tracer = Tracer()
    if spec["trace"]:
        tracer.install_method("core.program_new", modules["core"].Program, "__init__")
        for name, module, attr in TRACED:
            fn = getattr(modules[module], attr)
            tracer.install(name, fn, namespaces, size_results=attr == "answer_sets")

    law_seconds: dict[str, float] = {}
    if spec["workload"] == "laws":
        law_seconds, laws_out = run_laws_in_process(modules["lawcheck"], spec["laws"], totals)
        outputs = [{"code": 0, "stdout": json.dumps(laws_out, sort_keys=True) + "\n"}]
    else:
        outputs = run_cli_calls(modules["cli"], spec["calls"], totals)
    tracer.uninstall()
    cpu = time.process_time() - cpu_start

    problems = []
    for name in CACHES if spec["trace"] else ():
        lookups = totals.hits[name] + totals.misses[name]
        if tracer.calls(name) != lookups:
            problems.append(
                f"{name}: {tracer.calls(name)} traced calls but the cache saw "
                f"{lookups} lookups"
            )

    metrics = {
        "core.program_new.calls": tracer.calls("core.program_new"),
        "core.program_new.self_s": tracer.self_s("core.program_new"),
    }
    for name, _, _ in TRACED:
        metrics[f"{name}.calls"] = tracer.calls(name)
        metrics[f"{name}.self_s"] = tracer.self_s(name)
    for name in CACHES:
        metrics[f"{name}.hit_ratio"] = totals.hit_ratio(name)
    metrics["compose.compose.cache_entries"] = totals.largest["compose.compose"]
    checked = tracer.edge_calls("semantics.answer_sets", "semantics.is_answer_set")
    found = tracer.result_sizes.get("semantics.answer_sets", 0)
    metrics["semantics.answer_sets.yield_ratio"] = found / checked if checked else 0.0
    for law_id, seconds in law_seconds.items():
        metrics[f"lawcheck.law.{law_id}.s"] = seconds
    nproc = os.cpu_count() or 1
    metrics["lawcheck.pool_bound_s"] = (
        max(sum(law_seconds.values()) / nproc, max(law_seconds.values()))
        if law_seconds
        else 0.0
    )

    if spec["trace"]:
        tracer.write(Path(result_path).with_name("spans.json"))
    Path(result_path).write_text(
        json.dumps(
            {"cpu_s": cpu, "metrics": metrics, "problems": problems, "outputs": outputs},
            sort_keys=True,
        )
    )
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit("usage: python3 bench/traced.py SPEC.json RESULT.json")
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
