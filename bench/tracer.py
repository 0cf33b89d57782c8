"""Span recorder around the calls into each `clawcolor` layer.

`install` wraps every listed function and rebinds the wrapper in every
`clawcolor.*` module namespace that binds the original (for example
`verify` in `oracle`, `canonical`, `colorer` and `cli`), and on the class
for methods.  The package source is never edited.  A listed function that
no longer exists is skipped and reported as 0 calls, so refactors of the
package keep the benchmark running.

Spans are kept in memory as (name, start, end, parent index) and written
out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# "<module>.<function>" or "<module>.<Class>.<method>" under clawcolor.
FUNCTIONS = (
    "oracle.verify",
    "multigraph.single_source_distances",
    "multigraph.all_pairs_distances",
    "recognition.build_bridge_tree",
    "multigraph.MultiGraph.induced",
    "colorer.color_claw_free_cubic",
    "factorization.maximum_matching",
    "factorization.two_factor",
    "factorization.two_factor_through",
    "factorization.matching_through",
    "structure.oum_decompose",
    "recognition.find_diamonds",
    "canonical.canonical_color",
    "canonical.color_ring_of_diamonds",
    "canonical.color_two_edge_connected",
    "recognition.find_claw",
    "recognition.find_bridges",
    "recognition.is_k4",
    "recognition.is_ring_of_diamonds",
    "multigraph.is_connected",
    "multigraph.is_cubic",
    "multigraph.MultiGraph.__init__",
    "multigraph.MultiGraph.with_edges",
    "formats.parse_edgelist",
    "formats.emit_edgelist",
    "cli.main",
    "oracle.solve_spacking",
)

# Calls per coloring returned; 1.0 means each is done once per input.
RATIO_FUNCTIONS = {
    "ratio.verify_per_coloring": "oracle.verify",
    "ratio.find_bridges_per_coloring": "recognition.find_bridges",
    "ratio.is_connected_per_coloring": "multigraph.is_connected",
    "ratio.find_claw_per_coloring": "recognition.find_claw",
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.installed: list[str] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return wrapper

    def install(self, functions=FUNCTIONS) -> None:
        """Wrap each listed function that exists; skip the rest."""
        for mod in ("clawcolor", "clawcolor.cli"):
            importlib.import_module(mod)
        namespaces = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "clawcolor" or key.startswith("clawcolor."))
        ]
        for name in functions:
            module, *path = name.split(".")
            owner = sys.modules.get(f"clawcolor.{module}")
            for attr in path[:-1]:
                owner = getattr(owner, attr, None)
            original = getattr(owner, path[-1], None) if owner is not None else None
            if not callable(original):
                continue
            wrapper = self.wrap(name, original)
            if len(path) > 1:
                setattr(owner, path[-1], wrapper)
            else:
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
            self.installed.append(name)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def layer_totals(spans) -> dict[str, list]:
    """name -> [calls, self seconds]; self time excludes direct child spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, list] = {}
    for i, (name, start, end, _) in enumerate(spans):
        entry = totals.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += end - start - child_time[i]
    return totals


def root_wall(spans, name: str) -> float:
    """Summed duration of the top-level spans called `name`."""
    return sum(end - start for n, start, end, parent in spans if n == name and parent < 0)
