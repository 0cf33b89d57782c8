"""The entry scan, the blossom search and the 2-factor core against their references at H of order 16,384.

For seeds 1 to 3, builds a triangle expansion of a random H of order
16,384 (about 147,000 vertices).  On one seeded relabelling of it, runs
`recognition._local_scan` and compares its diamonds, regrouped, with
`brute.find_diamonds` and its triangles with
`brute.triangles_off_diamonds_brute`.  Then contracts the graph as
`color_claw_free_cubic` does, its H-edges numbered.  On the H it
recovers, runs both `factorization._max_matching_simple` and
`brute.max_matching_by_full_scans`, then `factorization._complement` and
`brute.two_factor_by_reattribution`, the 2-factor named by slots as it
was before each H-edge was named by its id.  Prints the times per seed,
and exits 1 unless the scan matches both references, the two mate arrays
are equal and `_complement`'s 2-factor, each id mapped to its slot
(`brute.slot_form`), equals the reference's.  Too slow for tier-1; run it
from the repository root:

    PYTHONPATH=src:tests python tests/matching_at_scale.py
"""

from __future__ import annotations

import sys
import time

from brute import (
    find_diamonds,
    max_matching_by_full_scans,
    relabeled,
    scan_diamonds,
    slot_form,
    triangles_off_diamonds_brute,
    two_factor_by_reattribution,
)
from clawcolor.factorization import _complement, _max_matching_simple
from clawcolor.recognition import _local_scan
from clawcolor.rng import SplitMix64
from clawcolor.structure import _structure
from conftest import _built

H_ORDER = 16_384


def _timed(f, *args):
    started = time.perf_counter()
    return f(*args), time.perf_counter() - started


def main() -> int:
    failed = 0
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
        local = _structure(g)
        h = local.h
        n, adj = h.n, h.adjacency()
        mate, search_s = _timed(_max_matching_simple, n, adj)
        reference, reference_s = _timed(max_matching_by_full_scans, n, adj)
        factor, factor_s = _timed(_complement, h, local.ends)
        want, want_s = _timed(two_factor_by_reattribution, h)
        same_mate, same_factor = mate == reference, slot_form(h, factor) == want
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
