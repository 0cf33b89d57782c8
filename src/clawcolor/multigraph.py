"""Loop-free undirected multigraphs with dense integer vertex ids.

A MultiGraph stores each vertex's distinct neighbours as a sorted list,
its degree (with multiplicity), and a dict holding the multiplicity of
only the pairs with two or more parallel copies.  A simple graph keeps
that dict empty, so it costs no more than its adjacency lists.  The
stored form is canonical: it does not depend on the order of the input
edges.  Instances are immutable after construction; "mutating" helpers
return new graphs.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable

from .errors import LoopEdgeError, VertexOutOfRangeError

# An edge slot identifies one parallel copy of an edge: (u, v, k) with
# u < v and 0 <= k < multiplicity(u, v).
Slot = tuple[int, int, int]


class MultiGraph:
    """Immutable loop-free multigraph on vertices 0..n-1."""

    __slots__ = ("n", "_adj", "_deg", "_par")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise LoopEdgeError(u)
            if not (0 <= u < n and 0 <= v < n):
                raise VertexOutOfRangeError(v if 0 <= u < n else u, n)
            adj[u].append(v)
            adj[v].append(u)
        deg = list(map(len, adj))
        # multiplicity of each pair (u, w), u < w, that has parallel copies
        par: dict[tuple[int, int], int] = {}
        for u, a in enumerate(adj):
            a.sort()
            # in a sorted list of three, the cubic case, any repeat involves the middle entry
            if (a[0] == a[1] or a[1] == a[2]) if len(a) == 3 else len(set(a)) < len(a):
                distinct = [a[0]]
                for w in a[1:]:
                    if w != distinct[-1]:
                        distinct.append(w)
                    elif u < w:
                        par[u, w] = par.get((u, w), 1) + 1
                adj[u] = distinct
        self.n = n
        self._adj = adj
        self._deg = deg
        self._par = par

    # basic queries

    def degree(self, v: int) -> int:
        return self._deg[v]

    def degrees(self) -> list[int]:
        return list(self._deg)

    def neighbors(self, v: int) -> list[int]:
        """Distinct neighbors of v, sorted ascending."""
        return self._adj[v]

    def adjacency(self) -> list[list[int]]:
        """Every vertex's `neighbors` list, indexed by vertex.

        This is the graph's own storage, not a copy: read it, never mutate it.
        """
        return self._adj

    def multiplicity(self, u: int, v: int) -> int:
        """Copies of the pair {u, v}; 0 for an absent pair or an id out of range."""
        if not 0 <= u < self.n:
            return 0
        a = self._adj[u]
        i = bisect_left(a, v)
        if i == len(a) or a[i] != v:
            return 0
        if not self._par:
            return 1
        return self._par.get((u, v) if u < v else (v, u), 1)

    def has_edge(self, u: int, v: int) -> bool:
        return self.multiplicity(u, v) > 0

    def edge_pairs(self) -> list[tuple[int, int, int]]:
        """Sorted list of (u, v, multiplicity) with u < v."""
        par = self._par
        return [
            (u, w, par.get((u, w), 1) if par else 1)
            for u, a in enumerate(self._adj)
            for w in a
            if u < w
        ]

    def slots_at(self, v: int) -> list[Slot]:
        """The slots at v, by neighbour and then by copy: their sorted order.

        A vertex with as many neighbours as edges has no parallel copies,
        so its slots read no multiplicity.
        """
        a = self._adj[v]
        if len(a) == self._deg[v]:
            return [(v, w, 0) if v < w else (w, v, 0) for w in a]
        par = self._par
        return [
            (v, w, k) if v < w else (w, v, k)
            for w in a
            for k in range(par.get((v, w) if v < w else (w, v), 1))
        ]

    def slots(self) -> list[Slot]:
        """All edge slots, sorted; parallel copies get k = 0, 1, ..."""
        out: list[Slot] = []
        for u, v, m in self.edge_pairs():
            out.extend((u, v, k) for k in range(m))
        return out

    def edge_list(self) -> list[tuple[int, int]]:
        """Edges expanded with multiplicity, sorted (canonical form)."""
        return [(u, v) for u, v, _ in self.slots()]

    @property
    def size(self) -> int:
        """Edge count with multiplicity."""
        return sum(self._deg) // 2

    def is_simple(self) -> bool:
        return not self._par

    # derived graphs

    def without_slots(self, removed: Iterable[Slot]) -> "MultiGraph":
        """New graph with the given edge slots deleted."""
        drop: dict[tuple[int, int], int] = {}
        for u, v, k in removed:
            if k >= self.multiplicity(u, v):
                raise ValueError(f"slot {(u, v, k)} not present")
            key = (u, v) if u < v else (v, u)
            drop[key] = drop.get(key, 0) + 1
        edges = []
        for u, v, m in self.edge_pairs():
            m -= drop.get((u, v), 0)
            if m < 0:
                raise ValueError(f"removed more copies of {(u, v)} than exist")
            edges.extend([(u, v)] * m)
        return MultiGraph(self.n, edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiGraph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj and self._par == other._par

    def __hash__(self):
        return hash((self.n, tuple(self.edge_pairs())))

    def __repr__(self) -> str:
        return f"MultiGraph(n={self.n}, m={self.size})"


def is_connected(g: MultiGraph) -> bool:
    """True iff a BFS from vertex 0 reaches every vertex."""
    if g.n <= 1:
        return True
    seen = [False] * g.n
    seen[0] = True
    queue = [0]
    for v in queue:
        for w in g.neighbors(v):
            if not seen[w]:
                seen[w] = True
                queue.append(w)
    return len(queue) == g.n


def is_cubic(g: MultiGraph) -> bool:
    """True iff every vertex has degree exactly 3 (with multiplicity)."""
    return g.degrees().count(3) == g.n
