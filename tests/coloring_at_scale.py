"""The memory and time of one certified coloring at about 10^5 vertices.

Colors and certifies the triangle expansion `conftest._built(16384,
SplitMix64(1))`, 147,456 vertices, with `color_claw_free_cubic`.  Prints
the untraced wall time of the call, then, for a second call under
tracemalloc, its peak and the size of the coloring it returns, freed when
the coloring is deleted, each in bytes per vertex.  Exits 1 when the peak
reaches PEAK_LIMIT bytes per vertex (62.3 on CPython 3.11 with the
2-factor as one byte per H-edge, 64.3 with its cycles as tuples, 75.0
with two entry scan indexes per vertex, 102.7 with a dict for the
labels).
Too slow for tier-1; run it from the repository root:

    PYTHONPATH=src:tests python tests/coloring_at_scale.py
"""

from __future__ import annotations

import sys
import time
import tracemalloc

from clawcolor import color_claw_free_cubic
from clawcolor.rng import SplitMix64
from conftest import _built

PEAK_LIMIT = 66


def main() -> int:
    g = _built(16384, SplitMix64(1))
    started = time.perf_counter()
    color_claw_free_cubic(g)
    wall_s = time.perf_counter() - started
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        coloring = color_claw_free_cubic(g)
        held, peak = tracemalloc.get_traced_memory()
        del coloring
        retained = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    per_vertex = (peak - before) / g.n
    print(
        f"n={g.n}: coloring {wall_s:.3f} s untraced; peak {per_vertex:.1f} B/vertex "
        f"(limit {PEAK_LIMIT}), coloring retained {retained / g.n:.2f} B/vertex"
    )
    return 1 if per_vertex >= PEAK_LIMIT else 0


if __name__ == "__main__":
    sys.exit(main())
