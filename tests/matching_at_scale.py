"""The entry scan, the blossom search and the 2-factor core against their references at H of order 16,384.

For seeds 1 to 3, builds a triangle expansion of a random H of order
16,384 (about 147,000 vertices).  On one seeded relabelling of it, runs
`recognition._local_scan` and compares its diamonds, regrouped, with
`brute.find_diamonds` and its triangles with
`brute.triangles_off_diamonds_brute`.  Then contracts the graph as
`color_claw_free_cubic` does, its H-edges numbered, and builds H from
their ends for the references.  On that H, runs both
`factorization._max_matching_simple` and
`brute.max_matching_by_full_scans`, then `factorization._complement` and
`brute.two_factor_by_reattribution`, the 2-factor as cycles and a
matching named by slots, as it was before each H-edge was named by its
id.  Prints the times per seed, and exits 1 unless the scan matches both
references, the two mate arrays are equal and `_complement`'s bytes, one
per H-edge, equal the reference's 2-factor written as such bytes
(`brute.factor_bytes`).

Then, as a worst-case baseline for the blossom search, builds three
families of cubic H of order 4,096 that are not random: a necklace of
2,048 digons, the circular ladder of 2,048 rungs and the Moebius ladder of
2,048 rungs, each as built and under one seeded relabelling.  On each it
runs `factorization._max_matching_simple` and
`brute.max_matching_by_full_scans`, prints both times and the vertices the
greedy warm start leaves exposed, and exits 1 unless the mate arrays are
equal.  Too slow for tier-1; run it from the repository root:

    PYTHONPATH=src:tests python tests/matching_at_scale.py
"""

from __future__ import annotations

import sys
import time

from brute import (
    factor_bytes,
    find_diamonds,
    max_matching_by_full_scans,
    relabeled,
    scan_diamonds,
    triangles_off_diamonds_brute,
    two_factor_by_reattribution,
)
from clawcolor import MultiGraph
from clawcolor.factorization import _complement, _max_matching_simple
from clawcolor.recognition import _local_scan, _structure
from clawcolor.rng import SplitMix64
from conftest import _built

H_ORDER = 16_384
FAMILY_ORDER = 4_096


def _timed(f, *args):
    started = time.perf_counter()
    return f(*args), time.perf_counter() - started


def _families(n: int) -> dict[str, list[tuple[int, int]]]:
    """Edge lists of three cubic multigraphs on n vertices, n divisible by 4."""
    k = n // 2
    necklace = [e for i in range(0, n, 2) for e in ((i, i + 1), (i, i + 1), (i + 1, (i + 2) % n))]
    ladder = [(i, (i + 1) % k) for i in range(k)] + [(k + i, k + (i + 1) % k) for i in range(k)]
    ladder += [(i, k + i) for i in range(k)]
    moebius = [(i, (i + 1) % n) for i in range(n)] + [(i, i + k) for i in range(k)]
    return {"digon necklace": necklace, "circular ladder": ladder, "Moebius ladder": moebius}


def _greedy_exposed(n: int, adj: list[list[int]]) -> int:
    """The vertices the id-order greedy warm start of both searches leaves exposed."""
    mate = [-1] * n
    for v in range(n):
        if mate[v] == -1:
            for u in adj[v]:
                if mate[u] == -1:
                    mate[v], mate[u] = u, v
                    break
    return mate.count(-1)


def worst_case_families() -> int:
    """Compare the two searches' mate arrays on each family, as built and relabelled."""
    failed = 0
    rng = SplitMix64(FAMILY_ORDER)
    for name, edges in _families(FAMILY_ORDER).items():
        built = MultiGraph(FAMILY_ORDER, edges)
        perm = list(range(FAMILY_ORDER))
        rng.shuffle(perm)
        for label, h in (("as built", built), ("relabelled", relabeled(built, perm))):
            n, adj = h.n, h.adjacency()
            mate, search_s = _timed(_max_matching_simple, n, adj)
            reference, reference_s = _timed(max_matching_by_full_scans, n, adj)
            same = mate == reference and -1 not in mate
            failed += not same
            print(
                f"{name} H={n}, {label}: greedy leaves {_greedy_exposed(n, adj)} exposed; "
                f"search {search_s:.3f} s, full-scan reference {reference_s:.3f} s, "
                f"mate arrays {'equal and perfect' if same else 'DIFFER'}"
            )
    return failed


def main() -> int:
    failed = worst_case_families()
    for seed in (1, 2, 3):
        rng = SplitMix64(seed)
        g = _built(H_ORDER, rng)
        perm = list(range(g.n))
        rng.shuffle(perm)
        shuffled = relabeled(g, perm)
        scan, scan_s = _timed(_local_scan, shuffled)
        diamonds = scan_diamonds(scan.diamonds)
        same_scan = (
            scan.claw is None
            and diamonds == find_diamonds(shuffled)
            and scan.triangles == triangles_off_diamonds_brute(shuffled, diamonds)
        )
        failed += not same_scan
        print(
            f"n={g.n} seed {seed}, relabelled: scan {scan_s:.3f} s, {len(diamonds)} diamonds "
            f"and {len(scan.triangles)} triangles, "
            f"{'equal to' if same_scan else 'DIFFERENT from'} the references"
        )
        local = _structure(g).shares[0]
        h = MultiGraph(len(local.triangles), local.ends)  # for the references
        n, adj = h.n, h.adjacency()
        mate, search_s = _timed(_max_matching_simple, n, adj)
        reference, reference_s = _timed(max_matching_by_full_scans, n, adj)
        factor, factor_s = _timed(_complement, n, local.ends)
        want, want_s = _timed(two_factor_by_reattribution, h)
        same_mate, same_factor = mate == reference, factor == factor_bytes(h, want)
        failed += (not same_mate) + (not same_factor)
        print(
            f"H={n} seed {seed}: search {search_s:.3f} s, full-scan reference "
            f"{reference_s:.3f} s, mate arrays {'equal' if same_mate else 'DIFFER'}; "
            f"2-factor {factor_s:.3f} s, reattribution reference {want_s:.3f} s, "
            f"2-factors {'equal' if same_factor else 'DIFFER'}"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
