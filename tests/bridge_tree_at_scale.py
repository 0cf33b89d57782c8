"""The bridge tree read from H, and the coloring glued on it, against their references, at scale.

On a chain of 20,000 diamonds between two Type III leaves (about 80,000
vertices) and on the tree of 798 K3 components and 800 Type III leaves
that `clawcolor generate bridged` builds with seed 1, compares every
field of `decompose(g)`'s `BridgeTree` with `brute.bridge_tree_by_sweeps`
on the bridges `find_bridges` gives, and the certified coloring of
`color_claw_free_cubic` with `brute.color_bridged_by_subgraphs`, which
colors one induced subgraph per component and builds, scans and searches
each Type III completion.  Prints the wall times of `decompose` and of
the coloring and the tracemalloc peak of `decompose` per graph.  Then
checks `_bridge_tree`'s root rule, min(a, b), against the all-pairs
eccentricity rule on each of the 280,392 labelled trees of 2 to 8 nodes.
Exits 1 unless every field and every color is equal and the rule holds
on every tree.  Too slow for tier-1; run it from the repository root:

    PYTHONPATH=src:tests python tests/bridge_tree_at_scale.py
"""

from __future__ import annotations

import sys
import time
import tracemalloc

from brute import bridge_tree_by_sweeps, color_bridged_by_subgraphs, root_rule_counterexamples
from clawcolor import BridgeTree, color_claw_free_cubic, decompose, find_bridges, gen_bridged
from clawcolor.rng import SplitMix64


def _graphs():
    chain = [("type3", 1)] + [("diamond", 2)] * 20_000 + [("type3", 1)]
    yield "chain of 20,000 diamonds", gen_bridged(chain, SplitMix64(1))
    k3_tree = [("k3", 3)] * 798 + [("type3", 1)] * 800
    yield "798 K3 components, 800 leaves", gen_bridged(k3_tree, SplitMix64(1))


def main() -> int:
    failed = 0
    for name, g in _graphs():
        started = time.perf_counter()
        got = decompose(g)
        wall_s = time.perf_counter() - started
        tracemalloc.start()
        try:
            decompose(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = bridge_tree_by_sweeps(g, find_bridges(g))
        differ = [f for f in BridgeTree._fields if getattr(got, f, None) != getattr(want, f)]
        started = time.perf_counter()
        colors = color_claw_free_cubic(g).assignment
        color_s = time.perf_counter() - started
        recolored = colors != color_bridged_by_subgraphs(g, want).assignment
        failed += bool(differ) + recolored
        print(
            f"{name}: n={g.n}, {len(want.components)} components, decompose "
            f"{wall_s:.3f} s, peak {peak / 2**20:.2f} MiB ({peak / g.n:.0f} B/vertex), "
            + (f"fields DIFFER: {', '.join(differ)}" if differ else "every field equal")
            + f"; coloring {color_s:.3f} s, "
            + ("colors DIFFER from the subgraph reference" if recolored else "same colors")
        )
    started = time.perf_counter()
    trees, bad = root_rule_counterexamples(8)
    failed += bool(bad)
    print(
        f"root rule on {trees} labelled trees of 2 to 8 nodes, "
        f"{time.perf_counter() - started:.1f} s: "
        + (f"{len(bad)} COUNTEREXAMPLES, first {bad[0]}" if bad else "holds on every tree")
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
