"""The bridge tree read from H, and the coloring glued on it, against their references, at scale.

On a chain of 20,000 diamonds between two Type III leaves (about 80,000
vertices), on the tree of 798 K3 components and 800 Type III leaves that
`clawcolor generate bridged` builds with seed 1, and on a tree of 300 K3
components, 900 diamonds and 302 Type III leaves (about 10,000 vertices),
whose diamonds form strings between K3 components, so that the class
forced on a string is read at a K3 corner, compares every
field of `decompose(g)`'s `BridgeTree` with `brute.bridge_tree_by_sweeps`
on the bridges `find_bridges` gives, and the certified coloring of
`color_claw_free_cubic` with `brute.color_bridged_by_subgraphs`, which
colors one induced subgraph per component and builds, scans and searches
each Type III completion.  Prints the wall times of `decompose` and of
the coloring, the tracemalloc peak of `decompose` and the number of
diamonds whose parent is a K3 per graph, and fails the mixed tree when
there is none.  Then
checks `_class_tree`'s root rule, min(a, b), against the all-pairs
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
from clawcolor import (
    BridgeTree,
    ComponentKind,
    color_claw_free_cubic,
    decompose,
    find_bridges,
    gen_bridged,
)
from clawcolor.rng import SplitMix64


def _graphs():
    chain = [("type3", 1)] + [("diamond", 2)] * 20_000 + [("type3", 1)]
    yield "chain of 20,000 diamonds", gen_bridged(chain, SplitMix64(1))
    k3_tree = [("k3", 3)] * 798 + [("type3", 1)] * 800
    yield "798 K3 components, 800 leaves", gen_bridged(k3_tree, SplitMix64(1))
    mixed = [("k3", 3)] * 300 + [("diamond", 2)] * 900 + [("type3", 1)] * 302
    yield "300 K3 components, 900 diamonds, 302 leaves", gen_bridged(mixed, SplitMix64(1))


def _diamonds_below_a_k3(bt: BridgeTree) -> int:
    """The diamond components whose parent is a K3: each is the first of
    a string, colored from the class read at the K3's corner."""
    comp_of = {v: c for c, vs in enumerate(bt.components) for v in vs}
    return sum(
        kind is ComponentKind.DIAMOND
        and bt.kinds[comp_of[bt.up_neighbor[c]]] is ComponentKind.TRIANGLE
        for c, kind in enumerate(bt.kinds)
    )


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
        below_k3 = _diamonds_below_a_k3(want)
        failed += bool(differ) + recolored + (name.startswith("300 K3") and not below_k3)
        print(
            f"{name}: n={g.n}, {len(want.components)} components, decompose "
            f"{wall_s:.3f} s, peak {peak / 2**20:.2f} MiB ({peak / g.n:.0f} B/vertex), "
            + (f"fields DIFFER: {', '.join(differ)}" if differ else "every field equal")
            + f"; coloring {color_s:.3f} s, "
            + ("colors DIFFER from the subgraph reference" if recolored else "same colors")
            + f"; {below_k3} diamonds below a K3"
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
