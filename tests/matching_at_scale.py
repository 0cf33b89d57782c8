"""The blossom search against its full-scan reference at H of order 16,384.

For seeds 1 to 3, builds a triangle expansion of a random H of order
16,384 (about 147,000 vertices), decomposes it, and runs both
`factorization._max_matching_simple` and `brute.max_matching_by_full_scans`
on the H it recovers.  Prints both times per seed, and exits 1 unless the
two mate arrays are equal.  Too slow for tier-1; run it from the
repository root:

    PYTHONPATH=src:tests python tests/matching_at_scale.py
"""

from __future__ import annotations

import sys
import time

from brute import max_matching_by_full_scans
from clawcolor import decompose
from clawcolor.factorization import _max_matching_simple
from clawcolor.rng import SplitMix64
from conftest import _built

H_ORDER = 16_384


def main() -> int:
    failed = 0
    for seed in (1, 2, 3):
        h = decompose(_built(H_ORDER, SplitMix64(seed))).h
        n, adj = h.n, h.adjacency()
        started = time.perf_counter()
        mate = _max_matching_simple(n, adj)
        search_s = time.perf_counter() - started
        started = time.perf_counter()
        reference = max_matching_by_full_scans(n, adj)
        reference_s = time.perf_counter() - started
        same = mate == reference
        failed += not same
        print(
            f"H={n} seed {seed}: search {search_s:.3f} s, full-scan reference "
            f"{reference_s:.3f} s, mate arrays {'equal' if same else 'DIFFER'}"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
