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
Both read the classes through `_classes`, which turns a built coloring's
`Labels` into class bits or indices with one `bytes.translate` and reads
any other mapping, a coloring file's dict, key by key; a vertex whose
byte is UNCOLORED is missing, so both forms raise the same errors.
`_certified` is the one exit check of a coloring this package built:
any fault it finds, a misfit to the graph included, is a bug.
The solver decides S-packing colorability by complete backtracking with
saturation ordering and symmetry breaking between equal-radius classes,
and is the oracle the constructive algorithm is tested against.  It
works on n-bit ints as vertex sets: one ball mask per class and vertex,
one blocked set per class, and saturation degrees in r.bit_length()
bit-sliced counter planes.  A search node costs O(log r) operations on
n-bit ints, and an undo restores two saved values in O(1).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import NamedTuple

from .coloring import UNCOLORED, Labels, PackingColoring, SPackingSpec
from .errors import (
    CapExceededError,
    InternalInvariantError,
    MalformedInputError,
    PartialColoringError,
    VerificationFailedError,
)
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
    table = {c: c for c in range(spec.r)}
    return _violations(adj, _classes(coloring.assignment, g.n, table), spec)


def _certified(
    g: MultiGraph, spec: SPackingSpec, coloring: PackingColoring
) -> PackingColoring:
    """`coloring`, built by this package for g, once `verify` finds it valid.

    On a built coloring, a vertex missing or outside g, or a class outside
    the spec, is a bug as much as a violation is: the input errors `verify`
    raises for a user's file become InternalInvariantError here, with
    their message, and violations raise VerificationFailedError.
    """
    try:
        violations = verify(g, spec, coloring)
    except (PartialColoringError, MalformedInputError) as exc:
        raise InternalInvariantError(str(exc)) from exc
    if violations:
        raise VerificationFailedError(violations)
    return coloring


def _classes(assignment: Mapping[int, int], n: int, table: dict[int, int]) -> Sequence[int]:
    """table[class] of each vertex 0..n-1; a mismatched domain or a class
    outside the table raises.

    The table maps 0..r-1, in order.  A `Labels` of n bytes, when every
    table value is below UNCOLORED, is read by one `bytes.translate`,
    which maps a class outside the table to UNCOLORED.  Any other
    `Labels`, or one with such a byte, becomes the dict of its bytes that
    are not UNCOLORED, so it raises what that dict raises.
    On the dict path the missing vertices are reported when there are any,
    else the first vertex whose class the table lacks, else every key not
    in range(n).  With none missing, a dict of more than n keys holds such
    a key.  The table is a dict, so a negative class does not wrap around
    as in a list.
    """
    if isinstance(assignment, Labels):
        data = assignment.data
        if len(data) == n and max(table.values()) < UNCOLORED:
            out = data.translate(bytes(table.values()).ljust(256, bytes([UNCOLORED])))
            if UNCOLORED not in out:
                return out
        assignment = {v: c for v, c in enumerate(data) if c != UNCOLORED}
    try:
        out = [table[assignment[v]] for v in range(n)]
    except KeyError:
        missing = {v for v in range(n) if v not in assignment}
        if missing:
            raise PartialColoringError(missing) from None
        v = next(v for v in range(n) if assignment[v] not in table)
        raise MalformedInputError(
            f"vertex {v} has class {assignment[v]!r}, outside the spec's {len(table)} classes"
        ) from None
    if len(assignment) != n:
        raise PartialColoringError(set(assignment).difference(range(n)))
    return out


def _packed_within_two(
    adj: list[list[int]], assignment: Mapping[int, int], radii: tuple[int, ...]
) -> bool:
    """Whether the coloring is valid, for radii that are all 1 or 2.

    `seen` holds the class bits met so far in N[x], starting with x's own.
    A bit met twice is a violation when it is x's own class (an edge
    inside the class) or a class of radius 2 (two of its vertices in one
    closed neighbourhood, so at distance at most 2).
    """
    bit = {c: 1 << c for c in range(len(radii))}
    two = sum(bit[c] for c, radius in enumerate(radii) if radius == 2)
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
    adj: list[list[int]], cls: Sequence[int], spec: SPackingSpec
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
        return PackingColoring(spec, Labels())
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
                colors = dict(sorted((u, k) for u, k, _, _ in stack))
                # a spec of UNCOLORED classes or more has classes no byte holds
                return PackingColoring(spec, Labels(colors.values()) if r < UNCOLORED else colors)
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

    The new vertex for the k-th edge of `g.edge_list()`, which lists the
    edges in slot order, is g.n + k, so original vertices keep their ids.
    The result is always simple.
    """
    edges = []
    w = g.n
    for u, v in g.edge_list():
        edges.append((u, w))
        edges.append((w, v))
        w += 1
    return MultiGraph(w, edges)
