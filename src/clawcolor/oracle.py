"""Independent ground truth: verification and exact decision by backtracking.

`verify` checks the definition of an S-packing coloring on any candidate
coloring: a BFS from each vertex, cut off at its class radius, finds
every same-class vertex too close to it.  On a graph of maximum degree
Delta and largest radius r this costs O(n * Delta^r) time and O(Delta^r)
extra memory, so it scales to the sizes the constructor handles.  The solver
decides S-packing colorability by complete backtracking with saturation
ordering and symmetry breaking between equal-radius classes, and is the
oracle the constructive algorithm is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import PackingColoring, SPackingSpec
from .errors import CapExceededError, PartialColoringError
from .multigraph import MultiGraph, all_pairs_distances

DEFAULT_SOLVER_CAP = 40


@dataclass(frozen=True)
class Violation:
    """Two same-class vertices at distance at most the class radius."""

    class_index: int
    label: str
    pair: tuple[int, int]
    distance: int


def verify(
    g: MultiGraph, spec: SPackingSpec, coloring: PackingColoring
) -> list[Violation]:
    """All violations of the packing condition; empty list means valid.

    For each vertex u, a BFS from u stops at depth radii[class(u)] and
    reports every same-class v > u it meets, with its distance.  The
    list is ordered by u, then v.
    """
    assignment = coloring.assignment
    missing = {v for v in range(g.n) if v not in assignment}
    if missing:
        raise PartialColoringError(missing)
    bad = {v for v in assignment if not 0 <= v < g.n}
    if bad:
        raise PartialColoringError(bad)
    labels = spec.labels()
    out: list[Violation] = []
    for u in range(g.n):
        cu = assignment[u]
        dist = {u: 0}
        frontier = [u]
        for d in range(1, spec.radii[cu] + 1):
            reached = []
            for x in frontier:
                for w in g.neighbors(x):
                    if w not in dist:
                        dist[w] = d
                        reached.append(w)
            if not reached:
                break
            frontier = reached
        for v in sorted(v for v in dist if v > u and assignment[v] == cu):
            out.append(Violation(cu, labels[cu], (u, v), dist[v]))
    return out


def solve_spacking(
    g: MultiGraph, spec: SPackingSpec, cap: int = DEFAULT_SOLVER_CAP
) -> PackingColoring | None:
    """Complete backtracking search; a coloring, or None when none exists.

    Branches on the uncolored vertex blocked by the most distinct classes
    (ties by id).  Within each group of equal-radius classes, an empty
    class may only be opened if its predecessor in the group is in use,
    which removes the permutation symmetry between equal classes.
    """
    n = g.n
    if n > cap:
        raise CapExceededError(n, cap)
    if n == 0:
        return PackingColoring(spec, {})
    radii = spec.radii
    r = spec.r
    dist = all_pairs_distances(g)
    # ball[c][v]: vertices u != v with d(u, v) <= radii[c]
    ball = [
        [
            [u for u in range(n) if u != v and dist[v][u] <= radii[c]]
            for v in range(n)
        ]
        for c in range(r)
    ]
    assign = [-1] * n
    conflicts = [[0] * r for _ in range(n)]
    class_sizes = [0] * r

    def pick() -> int:
        best, best_sat = -1, -1
        for v in range(n):
            if assign[v] != -1:
                continue
            sat = sum(1 for c in range(r) if conflicts[v][c] > 0)
            if sat > best_sat:
                best, best_sat = v, sat
        return best

    def backtrack(colored: int) -> bool:
        if colored == n:
            return True
        v = pick()
        for c in range(r):
            if conflicts[v][c] > 0:
                continue
            if (
                class_sizes[c] == 0
                and c > 0
                and radii[c] == radii[c - 1]
                and class_sizes[c - 1] == 0
            ):
                continue
            assign[v] = c
            class_sizes[c] += 1
            for u in ball[c][v]:
                conflicts[u][c] += 1
            if backtrack(colored + 1):
                return True
            assign[v] = -1
            class_sizes[c] -= 1
            for u in ball[c][v]:
                conflicts[u][c] -= 1
        return False

    if backtrack(0):
        return PackingColoring(spec, {v: assign[v] for v in range(n)})
    return None


def subdivide(g: MultiGraph) -> MultiGraph:
    """Replace every edge (with multiplicity) by a path of length 2.

    The new vertex for the k-th edge slot (in slot order) is g.n + k,
    so original vertices keep their ids.  The result is always simple.
    """
    edges = []
    w = g.n
    for u, v, _ in g.slots():
        edges.append((u, w))
        edges.append((w, v))
        w += 1
    return MultiGraph(w, edges)
