"""The bridge tree read from H against its sweeps reference, at scale.

On a chain of 20,000 diamonds between two Type III leaves (about 80,000
vertices) and on the tree of 798 K3 components and 800 Type III leaves
that `clawcolor generate bridged` builds with seed 1, compares every
field of `decompose(g)`'s `BridgeTree` with `brute.bridge_tree_by_sweeps`
on the bridges `find_bridges` gives.  Prints the wall time of `decompose`
and its tracemalloc peak per graph, and exits 1 unless every field is
equal.  Too slow for tier-1; run it from the repository root:

    PYTHONPATH=src:tests python tests/bridge_tree_at_scale.py
"""

from __future__ import annotations

import sys
import time
import tracemalloc

from brute import bridge_tree_by_sweeps
from clawcolor import BridgeTree, decompose, find_bridges, gen_bridged
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
        failed += bool(differ)
        print(
            f"{name}: n={g.n}, {len(want.components)} components, decompose "
            f"{wall_s:.3f} s, peak {peak / 2**20:.2f} MiB ({peak / g.n:.0f} B/vertex), "
            + (f"fields DIFFER: {', '.join(differ)}" if differ else "every field equal")
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
