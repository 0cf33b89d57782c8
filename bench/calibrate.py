"""How fast the host runs plain Python right now, against a fixed reference.

The benchmark shares its host with other tenants.  On the 2-vCPU x86_64 VM
where it was written, the same deterministic pass ran up to 2x slower
for stretches of a second to several minutes, in CPU time as well as wall
time, so no choice of passes within one run could hide it: five runs of
identical inputs spread by 35% between their quartiles.  Timing small
stdlib kernels right before and after each measured call, and dividing by
their slowdown, brought that spread to 6-10%.

The kernels use no `clawcolor` code, so no change to the package can move
them.  Three kernels of different character, a BFS over lists, a
backtracking search and a scan of a matrix larger than the core's L2
cache, track the package's mix of all three better than any one alone:
on a 4-minute sample of the pipeline's and the solver's calls, the
three-kernel slowdown explained the calls' times with an elasticity of
0.84 to 1.07, two kernels with 0.74 to 0.93.
"""

from __future__ import annotations

import math
import time

# Seconds each kernel took on the reference host (x86_64, 2 vCPUs,
# Python 3.11) in its fastest 5% of samples.  They set the scale only: a
# normalized time is the time the call would take on that host, unslowed.
REF_BFS_S = 0.0039
REF_QUEENS_S = 0.0031
REF_MEMORY_S = 0.0083

_N = 1500
_ADJ = [[(i + 1) % _N, (i - 1) % _N, (i * 7 + 3) % _N] for i in range(_N)]


def _bfs() -> None:
    for s in range(12):
        dist = [math.inf] * _N
        dist[s] = 0
        queue = [s]
        for v in queue:
            d = dist[v] + 1
            for w in _ADJ[v]:
                if dist[w] == math.inf:
                    dist[w] = d
                    queue.append(w)


def _queens(n: int = 7) -> int:
    cols = [0] * n
    count = 0

    def place(row: int) -> None:
        nonlocal count
        if row == n:
            count += 1
            return
        for c in range(n):
            if all(cols[r] != c and abs(cols[r] - c) != row - r for r in range(row)):
                cols[row] = c
                place(row + 1)

    place(0)
    return count


# Allocated once: a kernel that allocated its matrix would also time the
# page faults left by whatever the measured call freed just before.
_MATRIX = [[math.inf] * 700 for _ in range(700)]  # 3.9 MB of pointers


def _memory() -> int:
    hits = 0
    for j in range(0, 700, 5):
        for row in _MATRIX:
            if row[j] == math.inf:
                hits += 1
    return hits


def _timed(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def slowdown() -> float:
    """This instant's time per unit of work over the reference host's.

    The geometric mean of the three kernels' ratios; about 1.0 on the
    reference host at its fastest, 1.6 when it runs 1.6x slower.
    """
    ratios = (
        _timed(_bfs) / REF_BFS_S,
        _timed(_queens) / REF_QUEENS_S,
        _timed(_memory) / REF_MEMORY_S,
    )
    return math.prod(ratios) ** (1 / len(ratios))
