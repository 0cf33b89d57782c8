"""Independent ground truth: verification and exact decision by backtracking.

`verify` checks the definition of an S-packing coloring on any candidate
coloring.  It first decides, then explains.  When every radius is at
most 2, validity is decided by one pass over the closed neighbourhoods:
a class of radius 1 is an independent set exactly when no edge lies
inside it, and a class of radius 2 is a 2-packing exactly when it meets
every closed neighbourhood N[x] at most once.  On a graph of maximum
degree Delta that costs O(n * Delta) time, and a valid coloring is
certified by it alone.  Otherwise, and whenever some radius is above 2,
a BFS from each vertex, cut off at its class radius, lists every
same-class vertex too close to it.  The BFS runs over flat lists, one
adjacency list and one class per vertex, and one mark list stamped with
the source id stands in for a per-source visited set; it costs
O(n * Delta^r) time for largest radius r.  Both use O(n) extra memory,
so they scale to the sizes the constructor handles.
The solver decides S-packing colorability by complete backtracking with
saturation ordering and symmetry breaking between equal-radius classes,
and is the oracle the constructive algorithm is tested against.  It
works on n-bit ints as vertex sets: one ball mask per class and vertex,
one blocked set per class, and saturation degrees in r.bit_length()
bit-sliced counter planes.  A search node costs O(log r) operations on
n-bit ints, and an undo restores two saved values in O(1).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

from .coloring import PackingColoring, SPackingSpec
from .errors import CapExceededError, PartialColoringError
from .multigraph import MultiGraph

DEFAULT_SOLVER_CAP = 40


class Violation(NamedTuple):
    """Two same-class vertices at distance at most the class radius."""

    class_index: int
    label: str
    pair: tuple[int, int]
    distance: int


def verify(
    g: MultiGraph, spec: SPackingSpec, coloring: PackingColoring
) -> list[Violation]:
    """All violations of the packing condition; empty list means valid.

    When every radius is at most 2, one pass over the closed
    neighbourhoods decides validity in O(n * Delta) time, and a valid
    coloring returns [] from it.  Otherwise a BFS from each vertex u stops
    at depth radii[class(u)] and reports every same-class v > u it meets,
    with its distance, in O(n * Delta^r) time.  The list is ordered by u,
    then v.  Both read only the graph's adjacency and the assignment, with
    O(n) extra memory.
    """
    adj = g.adjacency()
    if spec.radii[-1] <= 2 and _packed_within_two(adj, coloring.assignment, spec.radii):
        return []
    return _violations(adj, _classes(coloring.assignment, g.n, range(spec.r)), spec)


def _classes(assignment: dict[int, int], n: int, table: Sequence[int]) -> list[int]:
    """table[class] of each vertex 0..n-1; a mismatched domain raises.

    The missing vertices are reported when there are any, else every key
    not in range(n).  With none missing, a dict of more than n keys holds
    such a key.
    """
    try:
        out = [table[assignment[v]] for v in range(n)]
    except KeyError:
        raise PartialColoringError({v for v in range(n) if v not in assignment}) from None
    if len(assignment) != n:
        raise PartialColoringError(set(assignment).difference(range(n)))
    return out


def _packed_within_two(
    adj: list[list[int]], assignment: dict[int, int], radii: tuple[int, ...]
) -> bool:
    """Whether the coloring is valid, for radii that are all 1 or 2.

    `seen` holds the class bits met so far in N[x], starting with x's own.
    A bit met twice is a violation when it is x's own class (an edge
    inside the class) or a class of radius 2 (two of its vertices in one
    closed neighbourhood, so at distance at most 2).
    """
    bit = [1 << c for c in range(len(radii))]
    two = sum(b for b, radius in zip(bit, radii) if radius == 2)
    bits = _classes(assignment, len(adj), bit)
    for own, nbrs in zip(bits, adj):
        seen = own
        for w in nbrs:
            b = bits[w]
            if b & seen and (b == own or b & two):
                return False
            seen |= b
    return True


def _violations(
    adj: list[list[int]], cls: list[int], spec: SPackingSpec
) -> list[Violation]:
    """Every violation, by a BFS from each vertex cut off at its class radius."""
    labels = spec.labels()
    radii = spec.radii
    n = len(cls)
    # mark[w] == u: w is already reached by the BFS from u
    mark = [-1] * n
    out: list[Violation] = []
    for u in range(n):
        cu = cls[u]
        mark[u] = u
        frontier = [u]
        near = []
        for d in range(1, radii[cu] + 1):
            reached = []
            for x in frontier:
                for w in adj[x]:
                    if mark[w] != u:
                        mark[w] = u
                        reached.append(w)
                        if w > u and cls[w] == cu:
                            near.append((w, d))
            if not reached:
                break
            frontier = reached
        if near:
            near.sort()
            for v, d in near:
                out.append(Violation(cu, labels[cu], (u, v), d))
    return out


def solve_spacking(
    g: MultiGraph, spec: SPackingSpec, cap: int = DEFAULT_SOLVER_CAP
) -> PackingColoring | None:
    """Complete backtracking search; a coloring, or None when none exists.

    Branches on the uncolored vertex blocked by the most distinct classes
    (ties by id).  Within each group of equal-radius classes, an empty
    class may only be opened if its predecessor in the group is in use,
    which removes the permutation symmetry between equal classes.

    Vertex sets are Python ints, bit v for vertex v.  The ball of radius
    d around v is the OR of the balls of radius d - 1 around v and its
    neighbours, grown until the largest radius or until no ball changes.
    `blocked[c]` holds the vertices within radii[c] of a colored class-c
    vertex, and bit i of a vertex's saturation lives in `planes[i]`.  A
    push ORs the ball into `blocked[c]` and ripple-carries the newly
    blocked vertices into the planes.  The pick narrows the uncolored set
    plane by plane, most significant first, and takes its lowest bit:
    the largest saturation, ties to the smallest id.  A search node costs
    O(log r) operations on n-bit ints, and an undo restores the saved
    `blocked[c]` and planes in O(1).
    """
    n = g.n
    if n > cap:
        raise CapExceededError(n, cap)
    if n == 0:
        return PackingColoring(spec, {})
    radii = spec.radii
    r = spec.r
    # balls[d][v]: vertices within distance d of v, v included
    adj = g.adjacency()
    balls = [[1 << v for v in range(n)]]
    while len(balls) <= radii[-1]:
        near = balls[-1]
        grown = []
        for v, nbrs in enumerate(adj):
            m = near[v]
            for w in nbrs:
                m |= near[w]
            grown.append(m)
        if grown == near:
            break
        balls.append(grown)
    ball = [balls[min(radius, len(balls) - 1)] for radius in radii]
    blocked = [0] * r
    class_sizes = [0] * r
    # planes[i]: bit i of each vertex's saturation, the classes blocking it
    planes = [0] * r.bit_length()
    free = (1 << n) - 1

    # stack[i]: the i-th vertex branched on, its class, and blocked[c] and
    # the planes before it; an explicit stack, so the depth is not bounded
    # by the interpreter's
    stack: list[tuple[int, int, int, list[int]]] = []
    v, bit = 0, 1  # nothing is blocked yet: the smallest id
    free ^= bit
    c = 0
    while True:
        while c < r and (
            blocked[c] & bit
            or (
                class_sizes[c] == 0
                and c > 0
                and radii[c] == radii[c - 1]
                and class_sizes[c - 1] == 0
            )
        ):
            c += 1
        if c < r:
            class_sizes[c] += 1
            before = blocked[c]
            stack.append((v, c, before, planes))
            carry = ball[c][v] & ~before
            blocked[c] = before | carry
            planes = planes.copy()
            i = 0
            while carry:
                planes[i], carry = planes[i] ^ carry, planes[i] & carry
                i += 1
            if not free:
                return PackingColoring(spec, dict(sorted((u, k) for u, k, _, _ in stack)))
            pick = free
            for plane in reversed(planes):
                if pick & plane:
                    pick &= plane
            bit = pick & -pick
            v = bit.bit_length() - 1
            free ^= bit
            c = 0
            continue
        # every class failed at v: free it and undo the previous choice
        free |= bit
        if not stack:
            return None
        v, c, before, planes = stack.pop()
        blocked[c] = before
        class_sizes[c] -= 1
        bit = 1 << v
        c += 1


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
