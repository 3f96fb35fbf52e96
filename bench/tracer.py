"""Call tracer that wraps library functions from outside the package.

`Tracer.install` replaces a function by a timing wrapper under every name it
is bound to in the given modules, so that copies imported by name (such as
`semantics.compose` or `lawcheck.least_model`) are traced too.  Spans live on
a stack; each one records its parent, and a span's self time is its duration
minus the time covered by its child spans.  Spans are aggregated in memory
per function and per (parent, child) edge, and written out at the end.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable

ROOT = "<root>"


class Tracer:
    def __init__(self) -> None:
        # name -> [calls, total seconds, self seconds]
        self.stats: dict[str, list] = {}
        # (parent, child) -> [calls, total seconds]
        self.edges: dict[tuple[str, str], list] = {}
        # name -> summed len() of the results of functions wrapped with size_results
        self.result_sizes: dict[str, int] = {}
        self._stack: list[list] = [[ROOT, 0.0]]
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, size_results: bool = False) -> Callable:
        stack = self._stack
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        edges = self.edges
        sizes = self.result_sizes
        if size_results:
            sizes.setdefault(name, 0)

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                parent = stack[-1]
                parent[1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[1]
                edge = edges.get((parent[0], name))
                if edge is None:
                    edges[(parent[0], name)] = [1, elapsed]
                else:
                    edge[0] += 1
                    edge[1] += elapsed
            if size_results:
                sizes[name] += len(result)
            return result

        return traced

    def install(
        self,
        name: str,
        fn: Callable,
        modules: Iterable[object],
        size_results: bool = False,
    ) -> None:
        """Wrap `fn` wherever one of `modules` binds it, under any name."""
        wrapper = self.wrap(name, fn, size_results)
        bound = False
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
                    bound = True
        if not bound:
            raise LookupError(f"{name} is bound in none of the given modules")

    def install_method(self, name: str, owner: type, attr: str) -> None:
        """Wrap a method on its class, e.g. a dataclass `__init__`."""
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def edge_calls(self, parent: str, child: str) -> int:
        return self.edges.get((parent, child), [0, 0.0])[0]

    def write(self, path: Path) -> None:
        """Write the aggregated spans as JSON."""
        payload = {
            "functions": {
                name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.stats.items())
            },
            "edges": [
                {"parent": p, "child": c, "calls": n, "total_s": t}
                for (p, c), (n, t) in sorted(self.edges.items())
            ],
        }
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
