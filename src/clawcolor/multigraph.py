"""Loop-free undirected multigraphs with dense integer vertex ids.

A MultiGraph stores each vertex's distinct neighbours as a sorted list,
its degree (with multiplicity), and a dict holding the multiplicity of
only the pairs with two or more parallel copies.  A simple graph keeps
that dict empty, so it costs no more than its adjacency lists.  The
stored form is canonical: it does not depend on the order of the input
edges.  Instances are immutable after construction; "mutating" helpers
return new graphs.

`_bridges` finds the bridges of a multigraph given only as its edge
list, with one DFS preorder from an explicit vertex stack and one
reverse-preorder low-link sweep over edge ids, so parallel edges and
loops need no special case.  `recognition` runs it on G's edge list
(`find_bridges`) and on the contraction H, which no `MultiGraph` holds.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .errors import LoopEdgeError, VertexOutOfRangeError

# An edge slot identifies one parallel copy of an edge: (u, v, k) with
# u < v and 0 <= k < the number of copies of {u, v}.
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

    def slots(self) -> list[Slot]:
        """All edge slots, sorted; parallel copies get k = 0, 1, ..."""
        par = self._par
        return [
            (u, w, k)
            for u, a in enumerate(self._adj)
            for w in a
            if u < w
            for k in range(par.get((u, w), 1))
        ]

    def edge_list(self) -> list[tuple[int, int]]:
        """Edges expanded with multiplicity, sorted (canonical form)."""
        par = self._par
        if not par:
            return [(u, w) for u, a in enumerate(self._adj) for w in a if u < w]
        out: list[tuple[int, int]] = []
        for u, a in enumerate(self._adj):
            for w in a:
                if u < w:
                    out += [(u, w)] * par.get((u, w), 1)
        return out

    @property
    def size(self) -> int:
        """Edge count with multiplicity."""
        return sum(self._deg) // 2

    def is_simple(self) -> bool:
        return not self._par

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiGraph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj and self._par == other._par

    def __hash__(self):
        return hash((self.n, tuple(self.edge_list())))

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


def _bridges(n: int, ends: Sequence[tuple[int, int]]) -> set[int] | None:
    """The ids of the bridges of the multigraph on 0..n-1 whose edge e joins
    the two vertices in `ends[e]`, or None when the DFS discovers fewer than
    n vertices.

    The DFS is a preorder from an explicit vertex stack: a vertex is
    marked when it is popped, and it is reached by the last edge that
    pushed it, which gives a valid DFS tree.  One sweep in reverse
    preorder then sets low[v] from the edges at v other than the one it
    was reached by, and folds it into its parent's.  So a parallel copy of
    that edge lowers low[v] to the parent's preorder number, and neither
    copy is a bridge; an edge whose ends are one vertex is never a tree
    edge, so never a bridge.
    """
    bridges: set[int] = set()
    if n == 0:
        return bridges
    inc: list[list[int]] = [[] for _ in range(n)]  # the ids at each vertex
    for e, (a, b) in enumerate(ends):
        inc[a].append(e)
        inc[b].append(e)
    disc, via = [-1] * n, [-1] * n  # via[v]: the edge v is reached by
    order: list[int] = []
    stack = [0]
    while stack:
        v = stack.pop()
        if disc[v] != -1:
            continue
        disc[v] = len(order)
        order.append(v)
        for e in inc[v]:
            a, b = ends[e]
            if disc[w := b if a == v else a] == -1:  # w: e's other end
                via[w] = e
                stack.append(w)
    if len(order) < n:
        return None
    low = disc[:]
    # every vertex but the root, order[0], children before parents
    for v in order[:0:-1]:
        t, lv = via[v], low[v]
        for e in inc[v]:
            a, b = ends[e]
            if e != t and disc[w := b if a == v else a] < lv:
                lv = disc[w]
        a, b = ends[t]
        if lv > disc[p := b if a == v else a]:
            bridges.add(t)
        elif lv < low[p]:
            low[p] = lv
    return bridges


def is_cubic(g: MultiGraph) -> bool:
    """True iff every vertex has degree exactly 3 (with multiplicity)."""
    return g.degrees().count(3) == g.n
