"""Structural predicates and decompositions on claw-free cubic graphs.

Covers induced-claw detection, bridge finding (DFS low-link, multigraph
aware), the bridge tree with component typing, induced diamonds, and
ring-of-diamonds recognition.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations

from .errors import (
    DisconnectedError,
    NonK3CycleError,
    NotClawFreeError,
    NotCubicError,
    NotSimpleError,
    StructureViolationError,
    TypeIComponentError,
)
from .multigraph import MultiGraph, is_connected, is_cubic


def find_claw(g: MultiGraph) -> tuple[int, int, int, int] | None:
    """Return (center, a, b, c) of an induced claw, or None if claw-free.

    Parallel edges do not affect induced subgraphs, so only distinct
    neighbors matter.
    """
    for v in range(g.n):
        nbrs = g.neighbors(v)
        if len(nbrs) < 3:
            continue
        for a, b, c in combinations(nbrs, 3):
            if not (g.has_edge(a, b) or g.has_edge(a, c) or g.has_edge(b, c)):
                return (v, a, b, c)
    return None


def is_claw_free(g: MultiGraph) -> bool:
    return find_claw(g) is None


def find_bridges(g: MultiGraph) -> set[tuple[int, int]]:
    """Cut edges of a connected multigraph via one iterative low-link DFS.

    A pair with multiplicity >= 2 is never a bridge: the extra parallel
    copy acts as a back edge.  A DFS that discovers fewer than n vertices
    means the graph is disconnected.
    """
    n = g.n
    disc = [-1] * n
    low = [0] * n
    bridges: set[tuple[int, int]] = set()
    timer = 0
    if n == 0:
        return bridges
    # stack entries: (vertex, parent, iterator over neighbors)
    stack = [(0, -1, iter(g.neighbors(0)))]
    disc[0] = low[0] = timer
    timer += 1
    while stack:
        v, parent, it = stack[-1]
        advanced = False
        for w in it:
            if w == parent:
                if g.multiplicity(v, w) >= 2:
                    low[v] = min(low[v], disc[w])
                continue
            if disc[w] == -1:
                disc[w] = low[w] = timer
                timer += 1
                stack.append((w, v, iter(g.neighbors(w))))
                advanced = True
                break
            low[v] = min(low[v], disc[w])
        if not advanced:
            stack.pop()
            if stack:
                pv = stack[-1][0]
                low[pv] = min(low[pv], low[v])
                if low[v] > disc[pv] and g.multiplicity(pv, v) == 1:
                    bridges.add((min(pv, v), max(pv, v)))
    if timer < n:
        raise DisconnectedError("bridge search requires a connected graph")
    return bridges


def is_two_edge_connected(g: MultiGraph) -> bool:
    return is_connected(g) and not find_bridges(g)


def is_k4(g: MultiGraph) -> bool:
    return g.n == 4 and g.is_simple() and g.size == 6


@dataclass(frozen=True)
class Diamond:
    """Induced K4-minus-an-edge: two adjacent interiors, two exteriors."""

    interiors: tuple[int, int]
    exteriors: tuple[int, int]

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(self.interiors + self.exteriors)


def find_diamonds(g: MultiGraph) -> list[Diamond]:
    """All induced diamonds, keyed by their interior edge.

    K4 contains no induced diamond, so callers that treat K4 as a special
    case must test for it separately (and first).  In a claw-free cubic
    graph other than K4, the returned diamonds are vertex-disjoint.
    """
    out = []
    for u, v, _ in g.edge_pairs():
        common = sorted(set(g.neighbors(u)) & set(g.neighbors(v)))
        if len(common) == 2 and not g.has_edge(common[0], common[1]):
            out.append(Diamond(interiors=(u, v), exteriors=(common[0], common[1])))
    return out


def is_ring_of_diamonds(g: MultiGraph) -> bool:
    """Connected, claw-free, cubic, simple, and every vertex on a diamond.

    K4 is excluded by convention (it has no induced diamond anyway).
    """
    if g.n == 0 or not g.is_simple() or not is_cubic(g) or not is_connected(g):
        return False
    if not is_claw_free(g):
        return False
    covered: set[int] = set()
    for d in find_diamonds(g):
        covered |= d.vertices
    return len(covered) == g.n


class ComponentKind(enum.Enum):
    TRIANGLE = "K3"
    DIAMOND = "diamond"
    TYPE_III = "type3"


@dataclass(frozen=True)
class BridgeTree:
    """Components of G - B(G) arranged as a tree with typing and rooting.

    Components are indexed in order of their smallest vertex.  The root is
    the smallest-index component whose tree eccentricity equals the tree
    diameter, i.e. a leaf of a diametral path.  For every non-root
    component, up_vertex is its unique degree-2 vertex whose third edge is
    the bridge toward the parent, and up_neighbor is that bridge's other
    endpoint.  degree2 lists each component's degree-2 vertices with the
    up_vertex first (non-root) and the rest ascending.
    """

    components: tuple[tuple[int, ...], ...]
    kinds: tuple[ComponentKind, ...]
    comp_of: tuple[int, ...]
    bridges: tuple[tuple[int, int], ...]
    tree_adj: tuple[tuple[int, ...], ...]
    root: int
    depth: tuple[int, ...]
    parent: tuple[int, ...]
    up_vertex: tuple[int, ...]
    up_neighbor: tuple[int, ...]
    degree2: tuple[tuple[int, ...], ...]

    @property
    def b(self) -> int:
        return len(self.bridges)


def _classify_component(g: MultiGraph, verts: tuple[int, ...]) -> ComponentKind:
    if len(verts) == 1:
        raise TypeIComponentError(
            f"component {{{verts[0]}}} is a single vertex; input is not claw-free cubic"
        )
    vset = set(verts)
    deg_in = {v: sum(1 for w in g.neighbors(v) if w in vset) for v in verts}
    if any(d <= 1 for d in deg_in.values()):
        raise StructureViolationError(
            f"component containing {verts[0]} has a leaf; input is not claw-free cubic"
        )
    if all(d == 2 for d in deg_in.values()):
        if len(verts) != 3:
            raise NonK3CycleError(
                f"cycle component of size {len(verts)}; input is not claw-free cubic"
            )
        return ComponentKind.TRIANGLE
    if len(verts) == 4 and any(d == 2 for d in deg_in.values()):
        ints = sorted(v for v in verts if deg_in[v] == 3)
        exts = sorted(v for v in verts if deg_in[v] == 2)
        if len(ints) == 2 and len(exts) == 2 and g.has_edge(*ints) and not g.has_edge(*exts):
            return ComponentKind.DIAMOND
        raise StructureViolationError("4-vertex component is not a diamond")
    return ComponentKind.TYPE_III


def _require_claw_free_cubic(g: MultiGraph) -> None:
    """Raise unless g is simple, connected, cubic and claw-free, checked in that order."""
    if not g.is_simple():
        raise NotSimpleError("input must be a simple graph")
    if not is_connected(g):
        raise DisconnectedError("input graph is disconnected")
    if not is_cubic(g):
        raise NotCubicError("input graph is not cubic")
    claw = find_claw(g)
    if claw is not None:
        raise NotClawFreeError(claw)


def build_bridge_tree(g: MultiGraph) -> BridgeTree:
    """Bridge-tree decomposition of a connected, claw-free, cubic graph."""
    _require_claw_free_cubic(g)
    return _bridge_tree(g, find_bridges(g))


def _bridge_tree(g: MultiGraph, bridge_set: set[tuple[int, int]]) -> BridgeTree:
    """The bridge tree of a graph already validated, from its bridges."""
    bridges = tuple(sorted(bridge_set))
    comp_of = [-1] * g.n
    components: list[tuple[int, ...]] = []
    for start in range(g.n):
        if comp_of[start] != -1:
            continue
        idx = len(components)
        queue = [start]
        comp_of[start] = idx
        members = [start]
        for v in queue:
            for w in g.neighbors(v):
                key = (min(v, w), max(v, w))
                if key in bridge_set or comp_of[w] != -1:
                    continue
                comp_of[w] = idx
                members.append(w)
                queue.append(w)
        components.append(tuple(sorted(members)))

    ncomp = len(components)
    if ncomp != len(bridges) + 1:
        raise StructureViolationError(
            f"{ncomp} components for {len(bridges)} bridges; tree property violated"
        )

    kinds = tuple(_classify_component(g, comp) for comp in components)

    tree_adj: list[set[int]] = [set() for _ in range(ncomp)]
    bridge_between: dict[tuple[int, int], tuple[int, int]] = {}
    for u, v in bridges:
        cu, cv = comp_of[u], comp_of[v]
        if cu == cv:
            raise StructureViolationError(f"bridge {(u, v)} inside one component")
        tree_adj[cu].add(cv)
        tree_adj[cv].add(cu)
        bridge_between[(min(cu, cv), max(cu, cv))] = (u, v)

    def tree_bfs(src: int) -> list[int]:
        dist = [-1] * ncomp
        dist[src] = 0
        queue = [src]
        for c in queue:
            for d in tree_adj[c]:
                if dist[d] == -1:
                    dist[d] = dist[c] + 1
                    queue.append(d)
        return dist

    # root: smallest-index component whose eccentricity equals the diameter.
    # A component farthest from any start is one end a of a diametral path,
    # one farthest from a is the other end b, and in a tree every
    # eccentricity is max(d(a, c), d(b, c)).
    from_0 = tree_bfs(0)
    from_a = tree_bfs(from_0.index(max(from_0)))
    b = from_a.index(max(from_a))
    from_b = tree_bfs(b)
    diam = from_a[b]
    root = next(c for c in range(ncomp) if max(from_a[c], from_b[c]) == diam)

    depth = tree_bfs(root)
    parent = [-1] * ncomp
    order = sorted(range(ncomp), key=lambda c: (depth[c], c))
    for c in order:
        if c == root:
            continue
        ups = [d for d in tree_adj[c] if depth[d] == depth[c] - 1]
        if len(ups) != 1:
            raise StructureViolationError(f"component {c} has {len(ups)} parents")
        parent[c] = ups[0]

    up_vertex = [-1] * ncomp
    up_neighbor = [-1] * ncomp
    for c in range(ncomp):
        if c == root:
            continue
        u, v = bridge_between[(min(c, parent[c]), max(c, parent[c]))]
        if comp_of[u] == c:
            up_vertex[c], up_neighbor[c] = u, v
        else:
            up_vertex[c], up_neighbor[c] = v, u

    degree2: list[tuple[int, ...]] = []
    for c, comp in enumerate(components):
        vset = set(comp)
        d2 = sorted(
            v for v in comp if sum(1 for w in g.neighbors(v) if w in vset) == 2
        )
        if c != root:
            x1 = up_vertex[c]
            if x1 not in d2:
                raise StructureViolationError(
                    f"up vertex {x1} of component {c} does not have degree 2 inside it"
                )
            d2 = [x1] + [v for v in d2 if v != x1]
        degree2.append(tuple(d2))

    return BridgeTree(
        components=tuple(components),
        kinds=kinds,
        comp_of=tuple(comp_of),
        bridges=bridges,
        tree_adj=tuple(tuple(sorted(s)) for s in tree_adj),
        root=root,
        depth=tuple(depth),
        parent=tuple(parent),
        up_vertex=tuple(up_vertex),
        up_neighbor=tuple(up_neighbor),
        degree2=tuple(degree2),
    )


def multigraph_isomorphic(a: MultiGraph, b: MultiGraph) -> bool:
    """Exact multigraph isomorphism by backtracking; meant for small graphs.

    Vertices are pre-partitioned by (degree, sorted incident multiplicity
    profile) and the search maps vertices in order, checking multiplicity
    consistency against already-mapped neighbors.
    """
    if a.n != b.n or a.size != b.size:
        return False
    if sorted(a.degrees()) != sorted(b.degrees()):
        return False

    def profile(g: MultiGraph, v: int) -> tuple:
        mults = sorted(g.multiplicity(v, w) for w in g.neighbors(v))
        return (g.degree(v), tuple(mults))

    pa = [profile(a, v) for v in range(a.n)]
    pb = [profile(b, v) for v in range(b.n)]
    if sorted(pa) != sorted(pb):
        return False

    # order a's vertices to keep the partial mapping connected when possible
    order: list[int] = []
    seen = [False] * a.n
    for start in range(a.n):
        if seen[start]:
            continue
        seen[start] = True
        queue = [start]
        for v in queue:
            order.append(v)
            for w in a.neighbors(v):
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)

    mapping = [-1] * a.n
    used = [False] * b.n

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        mapped = [x for x in order[:i]]
        for w in range(b.n):
            if used[w] or pb[w] != pa[v]:
                continue
            if all(
                b.multiplicity(w, mapping[x]) == a.multiplicity(v, x) for x in mapped
            ):
                mapping[v] = w
                used[w] = True
                if extend(i + 1):
                    return True
                mapping[v] = -1
                used[w] = False
        return False

    return extend(0)
