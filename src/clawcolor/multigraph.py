"""Loop-free undirected multigraphs with dense integer vertex ids.

A MultiGraph stores each unordered pair at most once together with its
multiplicity, so the edge multiset is always canonical.  Instances are
immutable after construction; "mutating" helpers return new graphs.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from .errors import LoopEdgeError, VertexOutOfRangeError

# An edge slot identifies one parallel copy of an edge: (u, v, k) with
# u < v and 0 <= k < multiplicity(u, v).
Slot = tuple[int, int, int]


class MultiGraph:
    """Immutable loop-free multigraph on vertices 0..n-1."""

    __slots__ = ("n", "_mult", "_adj", "_deg")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        mult: dict[tuple[int, int], int] = {}
        for u, v in edges:
            if u == v:
                raise LoopEdgeError(u)
            for x in (u, v):
                if not 0 <= x < n:
                    raise VertexOutOfRangeError(x, n)
            key = (u, v) if u < v else (v, u)
            mult[key] = mult.get(key, 0) + 1
        adj: list[list[int]] = [[] for _ in range(n)]
        deg = [0] * n
        for (u, v), m in mult.items():
            adj[u].append(v)
            adj[v].append(u)
            deg[u] += m
            deg[v] += m
        for lst in adj:
            lst.sort()
        self.n = n
        self._mult = mult
        self._adj = adj
        self._deg = deg

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
        key = (u, v) if u < v else (v, u)
        return self._mult.get(key, 0)

    def has_edge(self, u: int, v: int) -> bool:
        return self.multiplicity(u, v) > 0

    def edge_pairs(self) -> list[tuple[int, int, int]]:
        """Sorted list of (u, v, multiplicity) with u < v."""
        return sorted((u, v, m) for (u, v), m in self._mult.items())

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
        return sum(self._mult.values())

    def is_simple(self) -> bool:
        return all(m == 1 for m in self._mult.values())

    # derived graphs

    def without_slots(self, removed: Iterable[Slot]) -> "MultiGraph":
        """New graph with the given edge slots deleted."""
        drop: dict[tuple[int, int], int] = {}
        for u, v, k in removed:
            key = (u, v) if u < v else (v, u)
            if k >= self._mult.get(key, 0):
                raise ValueError(f"slot {(u, v, k)} not present")
            drop[key] = drop.get(key, 0) + 1
        edges = []
        for (u, v), m in self._mult.items():
            m -= drop.get((u, v), 0)
            if m < 0:
                raise ValueError(f"removed more copies of {(u, v)} than exist")
            edges.extend([(u, v)] * m)
        return MultiGraph(self.n, edges)

    def with_edges(self, extra: Iterable[tuple[int, int]]) -> "MultiGraph":
        """New graph with extra edges added (multiplicities aggregate)."""
        return MultiGraph(self.n, self.edge_list() + list(extra))

    def induced(self, vertices: Iterable[int]) -> tuple["MultiGraph", list[int]]:
        """Induced subgraph on the given vertices.

        Returns (subgraph, to_global) where to_global[i] is the original id
        of local vertex i.  Local ids follow the sorted order of `vertices`.
        """
        to_global = sorted(set(vertices))
        to_local = {g: i for i, g in enumerate(to_global)}
        edges = []
        for (u, v), m in self._mult.items():
            if u in to_local and v in to_local:
                edges.extend([(to_local[u], to_local[v])] * m)
        return MultiGraph(len(to_global), edges), to_global

    def induced_parts(
        self, part_of: Sequence[int], order: Iterable[int]
    ) -> Iterator[tuple["MultiGraph", list[int]]]:
        """Induced subgraphs on some classes of a vertex partition, in one pass.

        part_of[v] is the class of vertex v; classes are 0..max(part_of).
        For each class i in `order`, yields what `induced` returns for the
        vertices of class i: local ids follow the ascending order of those
        vertices.  One scan of the edges serves every class, so the cost is
        O(n + m) in all.  Vertices and edges are collected only for the
        classes in `order`, and each subgraph is built only when its turn
        comes.
        """
        if len(part_of) != self.n:
            raise ValueError(f"partition covers {len(part_of)} vertices, graph has {self.n}")
        order = list(order)
        to_global: list[list[int] | None] = [None] * (max(part_of, default=-1) + 1)
        edges: list[list[tuple[int, int]] | None] = to_global[:]
        for p in order:
            to_global[p], edges[p] = [], []
        local = [0] * self.n
        for v, p in enumerate(part_of):
            members = to_global[p]
            if members is not None:
                local[v] = len(members)
                members.append(v)
        for (u, v), m in self._mult.items():
            p = part_of[u]
            if p == part_of[v] and edges[p] is not None:
                edges[p].extend([(local[u], local[v])] * m)
        for p in order:
            yield MultiGraph(len(to_global[p]), edges[p]), to_global[p]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiGraph):
            return NotImplemented
        return self.n == other.n and self._mult == other._mult

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
    return all(d == 3 for d in g.degrees())
