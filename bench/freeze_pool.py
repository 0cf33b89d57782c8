"""Regenerate bench/pool.json, the frozen solve-exact pool.

    PYTHONPATH=src python3 bench/freeze_pool.py

The pool holds simple random cubic graphs of order 48 to 60 under the specs
(1,2,2,2), (2,2,2,2,2) and (1,2,3,3,3), the Petersen graph under (1,1,2,2)
(the UNSAT control of the paper), and the subdivisions of K4, the prism and
Petersen under (1,2,2), (1,2,2,2) and (1,2,3,3).  Each verdict is the
solver's, re-derived independently by the MILP test in test_bench.py.

Backtracking time depends on vertex order, so the benchmark's seeded
relabelings spread it.  A random candidate is kept only when all of
SCREEN relabelings solve within SCREEN_LIMIT_S on the freezing machine,
which keeps one unlucky labeling from dominating a run.  That makes the
screening machine-dependent; the frozen file, not this script, defines
the pool.
"""

from __future__ import annotations

import json
import os
import sys
import time

from clawcolor import SPackingSpec, SplitMix64, fixtures, gen_cubic_multigraph, solve_spacking, subdivide

from workloads import relabel

PER_SPEC = 5
SCREEN = 12
SCREEN_LIMIT_S = 1.0
RANDOM_SPECS = ((1, 2, 2, 2), (2, 2, 2, 2, 2), (1, 2, 3, 3, 3))
ORDERS = (48, 52, 56, 60)
SUBDIVISION_SPECS = ((1, 2, 2), (1, 2, 2, 2), (1, 2, 3, 3))


def _simple_cubic(n: int, rng: SplitMix64):
    while True:
        g = gen_cubic_multigraph(n, rng)
        if g.is_simple():
            return g


def _screen(edges, n, spec):
    """The verdict if every screening relabeling agrees and is fast, else None."""
    verdicts = set()
    for k in range(SCREEN):
        g = relabel(n, edges, SplitMix64(10_000 + k))
        started = time.perf_counter()
        verdicts.add(solve_spacking(g, SPackingSpec(spec), cap=n) is not None)
        if time.perf_counter() - started > SCREEN_LIMIT_S:
            return None
    if len(verdicts) != 1:
        raise SystemExit(f"relabeling changed the verdict for n={n} spec={spec}")
    return "SAT" if verdicts.pop() else "UNSAT"


def _entry(name, g, spec, verdict):
    return {"name": name, "n": g.n, "spec": list(spec), "verdict": verdict,
            "edges": [list(e) for e in g.edge_list()]}


def main() -> None:
    rng = SplitMix64(20240923)
    pool = []
    for spec in RANDOM_SPECS:
        kept = 0
        tries = 0
        while kept < PER_SPEC:
            n = ORDERS[tries % len(ORDERS)]
            tries += 1
            g = _simple_cubic(n, rng)
            verdict = _screen(g.edge_list(), n, spec)
            print(f"cubic n={n} spec={spec}: {verdict or 'rejected'}", file=sys.stderr)
            if verdict is not None:
                tag = "".join(map(str, spec))
                pool.append(_entry(f"cubic{n}-{tag}-{kept}", g, spec, verdict))
                kept += 1
    fx = fixtures()
    controls = [("petersen", fx["petersen"], (1, 1, 2, 2))]
    for name in ("k4", "prism", "petersen"):
        controls += [(f"sub-{name}", subdivide(fx[name]), spec) for spec in SUBDIVISION_SPECS]
    for name, g, spec in controls:
        verdict = "SAT" if solve_spacking(g, SPackingSpec(spec), cap=g.n) else "UNSAT"
        pool.append(_entry(f"{name}-{''.join(map(str, spec))}", g, spec, verdict))
    out = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pool.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(pool, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
