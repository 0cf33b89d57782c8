"""Structural predicates and decompositions on claw-free cubic graphs.

Covers induced-claw detection, bridge finding (a DFS preorder from an
explicit vertex stack plus one reverse-preorder low-link sweep, multigraph
aware), induced diamonds, the contraction H and the bridge tree.

In a claw-free cubic graph every vertex lies on a triangle, so the claw
check, the induced diamonds and the triangles off the diamonds can all be
read from the closed neighborhoods.  `_local_scan` does that in one pass.
By Oum's theorem every vertex of such a graph other than K4 then lies on
exactly one of those triangles or diamonds, and `_walk` follows each
triangle corner through its string of diamonds to another corner, listing
the vertices it passes.  The walks are the edges of a cubic multigraph H
on the triangles, which `_contract` builds for the entry check
`_require_claw_free_cubic`, and `structure._decompose` numbers.  An edge
cut of H lifts to an edge cut of G of the same size, so the entry check
reads G's connectivity and bridges from H, which is much smaller.  With
no triangle, `_ring_walk` decides connectivity: the ring through
diamond 0 must hold every diamond.  `find_claw` stays for arbitrary
graphs and `find_bridges` for connected ones.

The components of G minus its bridges are read from H too (S. Oum,
Electron. J. Combin. 18 (2011) P62): the triangles joined by H's
non-bridge edges, H-loops included, with the diamonds on those edges'
strings, and each diamond on the string of an H-bridge on its own.
`_bridge_tree` joins the triangles with a union-find and types each
component by its size alone, the one component classifier.  One BFS
helper over the components finds the root and roots the tree.  For the
colorer, `_shares` then hands each Type III component its triangles and
realizations, from which it is completed without being scanned again.
`structure.decompose` is the one public way in.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from itertools import chain, combinations
from typing import NamedTuple

from .errors import (
    DisconnectedError,
    InternalInvariantError,
    NotClawFreeError,
    NotCubicError,
    NotSimpleError,
)
from .multigraph import MultiGraph, is_connected, is_cubic


def find_claw(g: MultiGraph) -> tuple[int, int, int, int] | None:
    """Return (center, a, b, c) of an induced claw, or None if claw-free.

    Works on any multigraph.  Parallel edges do not affect induced
    subgraphs, so only distinct neighbors matter.
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
    """Cut edges of a connected multigraph via one DFS and a low-link sweep."""
    bridges = _bridges(g)
    if bridges is None:
        raise DisconnectedError("bridge search requires a connected graph")
    return bridges


def _connected_and_bridgeless(g: MultiGraph) -> bool:
    """True iff g is connected and has no bridge, from one DFS."""
    return _bridges(g) == set()


def _bridges(g: MultiGraph) -> set[tuple[int, int]] | None:
    """`find_bridges`, or None when the DFS discovers fewer than n vertices.

    The DFS is a preorder from an explicit vertex stack: a vertex is
    marked when it is popped, and its parent is the last vertex that
    pushed it, which gives a valid DFS tree.  One sweep in reverse
    preorder then sets low[v] from v's non-parent neighbors and folds it
    into its parent's.  A pair with multiplicity >= 2 is never a bridge.
    The sweep skips the parent, so a parallel copy does not lower low[v];
    the multiplicity is looked up only for a bridge candidate instead.
    """
    n = g.n
    bridges: set[tuple[int, int]] = set()
    if n == 0:
        return bridges
    adj = g.adjacency()
    disc = [-1] * n
    parent = [-1] * n
    order: list[int] = []
    stack = [0]
    while stack:
        v = stack.pop()
        if disc[v] != -1:
            continue
        disc[v] = len(order)
        order.append(v)
        for w in adj[v]:
            if disc[w] == -1:
                parent[w] = v
                stack.append(w)
    if len(order) < n:
        return None
    low = disc[:]
    # every vertex but the root, order[0], children before parents
    for v in order[:0:-1]:
        p = parent[v]
        lv = low[v]
        for w in adj[v]:
            if disc[w] < lv and w != p:
                lv = disc[w]
        if lv > disc[p]:
            if g.multiplicity(p, v) == 1:
                bridges.add((p, v) if p < v else (v, p))
        elif lv < low[p]:
            low[p] = lv
    return bridges


class LocalScan(NamedTuple):
    """What `_local_scan` reads from the closed neighborhoods of a graph.

    Either `claw` is the first induced claw (center, a, b, c), and the rest
    is empty, or `claw` is None and the graph is claw-free.  Then
    `diamonds` lists the induced diamonds flat, four ints each: interiors,
    then exteriors, each pair ascending; `triangles` the triangles on no
    diamond by their smallest corner; `diamond_of[v]` and `triangle_of[v]`
    index those lists, by offset in `diamonds`, -1 for none.

    `_contract` keeps, for a graph with triangles, only `triangles` and
    fills in `walk`, the realizations `_walk` lists, `ends`, the triangles
    at the two ends of each, and `h`, the H-edges of the ones that are
    not H-loops.  For a ring it fills in `walk` with the one cyclic walk
    `_ring_walk` lists.  `structure._decompose` numbers the H-edges: H-edge
    e is `walk[e]`, from triangle `ends[e][0]` to `ends[e][1]`.  `_shares`
    hands each Type III component its share of G's contraction in
    `triangles` and `walk`.
    """

    claw: tuple[int, int, int, int] | None = None
    diamonds: Sequence[int] = ()
    diamond_of: Sequence[int] = ()
    triangles: Sequence[tuple[int, int, int]] = ()
    triangle_of: Sequence[int] = ()
    walk: Sequence[tuple[int, ...]] = ()
    ends: Sequence[tuple[int, int]] = ()
    h: MultiGraph | None = None


def _local_scan(g: MultiGraph) -> LocalScan:
    """Claw check, diamonds and triangles in one pass over a simple cubic graph.

    In a cubic graph, the three neighbors a < b < c of v span 0 to 3
    edges.  None: v is the center of a claw, and the first such v is the
    witness `find_claw` gives.  Three: v is on a K4, which in a connected
    cubic graph is the whole graph; nothing is recorded.  Two: v is an
    interior of a diamond, the other interior is the neighbor adjacent to
    both others, and the remaining two are its exteriors.  One, x-y: v lies
    on one triangle, on a diamond exactly when x's third neighbor e, read
    from x's list, is adjacent to y; v and e are then its exteriors.

    A vertex already recorded is skipped; its neighbors span an edge, so it
    is no claw center.  A triangle on no diamond is recorded at its
    smallest corner, as a smaller one would have done, and a diamond at its
    smallest vertex, as each of its vertices records it if visited
    unrecorded; so v < e.

    None of the other vertices of a diamond D met first at v is recorded
    yet, so that is not checked.  A recorded triangle or diamond S meeting
    D but not v holds an interior i, as each vertex of S has two neighbors
    on S and an exterior has one off D, and then i's two neighbors besides
    v.  With v an interior, these are e1 i e2, and S would be a 4-cycle.
    Else they are a triangle, with one neighbor off D, so S is that
    triangle.  But no corner records a triangle on a diamond: an interior
    sees two edges, an exterior passes the test.
    """
    n = g.n
    adj = g.adjacency()
    diamonds: list[int] = []
    diamond_of = [-1] * n
    triangles: list[tuple[int, int, int]] = []
    triangle_of = [-1] * n
    for v in range(n):
        if triangle_of[v] != -1 or diamond_of[v] != -1:
            continue
        a, b, c = adj[v]
        ab = b in adj[a]
        ac = c in adj[a]
        bc = c in adj[b]
        edges = ab + ac + bc
        if edges == 0:
            return LocalScan(claw=(v, a, b, c))
        if edges == 1:
            x, y = (a, b) if ab else (a, c) if ac else (b, c)
            for e in adj[x]:
                if e != v and e != y:
                    break
            if e in adj[y]:
                diamond_of[v] = diamond_of[x] = diamond_of[y] = diamond_of[e] = len(diamonds)
                diamonds += (x, y, v, e)
                continue
            triangle_of[v] = triangle_of[x] = triangle_of[y] = len(triangles)
            triangles.append((v, x, y))
        elif edges == 2:
            p, e1, e2 = (a, b, c) if ab and ac else (b, a, c) if ab else (c, a, b)
            diamond_of[v] = diamond_of[p] = diamond_of[e1] = diamond_of[e2] = len(diamonds)
            diamonds += (v, p, e1, e2)
    return LocalScan(None, diamonds, diamond_of, triangles, triangle_of)


def _walk(g: MultiGraph, local: LocalScan) -> list[tuple[int, ...]]:
    """Each H-edge's realization, as its vertices in walk order.

    A realization is the only record of an H-edge in G.  It starts at a
    triangle corner, then lists for each diamond of its string the entry
    exterior, the two interiors in ascending order and the exit exterior,
    and ends at another corner.  A string of k diamonds is 4k + 2 ints, and
    its edges outside the diamonds are the pairs zip(r[::4], r[1::4]).

    The two corners may lie on one triangle: an H-loop, which only a graph
    with a bridge has.  A walk is deterministic and reversible, so each
    corner ends exactly one realization, and since the triangles are
    visited in index order, each realization is listed from its corner in
    the lower-indexed triangle: its other corner, were it lower, would
    have been walked from first.

    g is simple and cubic, and its scan found no claw and put every vertex
    on one triangle or diamond; `_contract` and its callers check that
    first.  So a
    corner has two neighbors on its triangle and one outside it, and an
    exterior has its two interiors and one neighbor off its diamond (the
    exteriors are not adjacent).  An interior's neighbors all lie on its
    diamond, so the walk meets each diamond at an exterior, and it leaves
    the diamonds at a vertex on a triangle.  Nothing is checked here.
    """
    adj = g.adjacency()
    diamonds, diamond_of = local.diamonds, local.diamond_of
    triangle_of = local.triangle_of
    consumed = bytearray(g.n)
    walk: list[tuple[int, ...]] = []
    for t, tri in enumerate(local.triangles):
        for c in tri:
            if consumed[c]:
                continue
            a, b, cur = adj[c]
            if triangle_of[a] != t:
                cur = a
            elif triangle_of[b] != t:
                cur = b
            seq = [c]
            while (i := diamond_of[cur]) != -1:
                exit_ = diamonds[i + 3] if cur == diamonds[i + 2] else diamonds[i + 2]
                seq += (cur, diamonds[i], diamonds[i + 1], exit_)
                a, b, cur = adj[exit_]
                if diamond_of[a] != i:
                    cur = a
                elif diamond_of[b] != i:
                    cur = b
            consumed[c] = consumed[cur] = 1
            seq.append(cur)
            walk.append(tuple(seq))
    return walk


def _contract(g: MultiGraph, local: LocalScan) -> LocalScan | None:
    """g's triangles, walk, the two triangles at the ends of each realization, and H.

    None when the scan's triangles and diamonds do not partition g, or the
    walks miss a diamond.  A graph of diamonds only, a ring if connected,
    keeps its scan, with the ring through diamond 0 as its one walk
    (`_ring_walk`).  Otherwise the diamonds and per-vertex indexes, which
    no reader of a contraction uses, are dropped, so that a diamond chain's
    bridge tree does not hold them.
    """
    triangles, triangle_of, diamonds = local.triangles, local.triangle_of, local.diamonds
    if 3 * len(triangles) + len(diamonds) != g.n:
        return None
    if not triangles:
        return local._replace(walk=(_ring_walk(g, local),))
    walk = _walk(g, local)
    if sum(map(len, walk)) - 2 * len(walk) != len(diamonds):
        return None
    ends = [(triangle_of[r[0]], triangle_of[r[-1]]) for r in walk]
    h = MultiGraph(len(triangles), [(a, b) for a, b in ends if a != b])
    return LocalScan(triangles=triangles, walk=walk, ends=ends, h=h)


def _ring_walk(g: MultiGraph, local: LocalScan) -> tuple[int, ...]:
    """The ring through diamond 0, on a graph of diamonds, as one cyclic walk.

    Each diamond is listed as `_walk` lists one: entry exterior, the two
    interiors ascending, exit exterior.  Each exit is adjacent to the next
    entry, read from its list, and the last exit to the first entry, so a
    ring of k diamonds is 4k ints and its edges between diamonds are the
    pairs (r[j - 1], r[j]) for j = 0, 4, 8, ...
    """
    adj, diamonds, diamond_of = g.adjacency(), local.diamonds, local.diamond_of
    i, x, ring = 0, diamonds[2], []
    while True:
        exit_ = diamonds[i + 3] if x == diamonds[i + 2] else diamonds[i + 2]
        ring += (x, diamonds[i], diamonds[i + 1], exit_)
        x = next(w for w in adj[exit_] if diamond_of[w] != i)
        if (i := diamond_of[x]) == 0:
            return tuple(ring)


class ComponentKind(enum.Enum):
    TRIANGLE = "K3"
    DIAMOND = "diamond"
    TYPE_III = "type3"


class BridgeTree(NamedTuple):
    """Components of G - B(G) arranged as a tree with typing and rooting.

    Components are indexed in order of their smallest vertex.  The root is
    the smallest-index component whose tree eccentricity equals the tree
    diameter, i.e. a leaf of a diametral path.  degree2 lists each
    component's degree-2 vertices, the up vertex first and the rest
    ascending; a non-root component's up vertex is its one degree-2 vertex
    whose third edge is the bridge toward the parent, and up_neighbor is
    that bridge's other endpoint (-1 at the root).
    """

    components: tuple[tuple[int, ...], ...]
    kinds: tuple[ComponentKind, ...]
    tree_adj: tuple[tuple[int, ...], ...]
    root: int
    depth: tuple[int, ...]
    up_neighbor: tuple[int, ...]
    degree2: tuple[tuple[int, ...], ...]


_DISCONNECTED = "input graph is disconnected"


def _require_claw_free_cubic(g: MultiGraph) -> tuple[set[tuple[int, int]], LocalScan]:
    """Raise unless g is a connected claw-free cubic graph; return H's bridges.

    Checks simple, non-empty, cubic, claw-free, then connected, but a
    disconnected input is reported ahead of the cubic and claw checks: a
    BFS decides it when one of those fails.  On claw-free cubic input the
    structure decides it.  A graph of 4 vertices is K4.  Otherwise
    `_contract` must succeed (vertices it leaves out lie on K4
    components), the ring through diamond 0 must hold every diamond when
    there is no triangle, and H must be connected when there is.  Returns
    H's bridges, as pairs (a, b) with a < b, and what `_contract` returned,
    less H when it has bridges: the bridge tree does not read H, and on a
    tree of K3 components holding it through the build raises the peak by
    an eighth.
    """
    if not g.is_simple():
        raise NotSimpleError("input must be a simple graph")
    if g.n == 0:
        raise DisconnectedError("input graph has no vertices")
    if not is_cubic(g):
        if not is_connected(g):
            raise DisconnectedError(_DISCONNECTED)
        raise NotCubicError("input graph is not cubic")
    local = _local_scan(g)
    if local.claw is not None:
        if not is_connected(g):
            raise DisconnectedError(_DISCONNECTED)
        raise NotClawFreeError(local.claw)
    if g.n == 4:
        return set(), local
    local = _contract(g, local)
    if local is None or (local.h is None and len(local.walk[0]) != len(local.diamonds)):
        raise DisconnectedError(_DISCONNECTED)
    h_bridges = set() if local.h is None else _bridges(local.h)
    if h_bridges is None:
        raise DisconnectedError(_DISCONNECTED)
    return h_bridges, local._replace(h=None) if h_bridges else local


def _bridge_tree(
    g: MultiGraph, h_bridges: set[tuple[int, int]], local: LocalScan
) -> tuple[BridgeTree, list[int]]:
    """The bridge tree of a graph already validated, read from H, and the
    component of each vertex.

    g has passed `_require_claw_free_cubic`, which returned `h_bridges`
    and `local`, g's contraction, whose walk lists every vertex once.  A
    union-find over the triangles joins the two ends of each realization
    that is not an H-bridge; each class, with the inner vertices of those
    realizations, is one component.  Each diamond on an H-bridge's
    realization r is a component of its own, and r's connectors
    zip(r[::4], r[1::4]) are G's bridges: across[v] is the other end of
    v's bridge (-1 for none), and the vertices that have one are their
    component's attachments.  One pass over the vertices in ascending
    order numbers the components by smallest vertex and lists each one's
    vertices and attachments.

    A component of 3 vertices is a K3, a triangle whose three realizations
    are H-bridges, and one of 4 is a diamond.  Any other holds a non-bridge
    realization, which joins two triangles or, as an H-loop, carries a
    diamond (g is simple), so it is Type III.

    The root is min(a, b), where a is the smallest component farthest from
    component 0 and b the smallest farthest from a.  The ends of the
    diametral paths are the components at the tree's radius from its
    centre, one component or one edge, and the sides are the subtrees
    hanging off the centre.  The components farthest from any x are the
    ends on the other sides than x's (every end when x is the centre).  So
    a is an end.  When the smallest end lies on another side than 0's, it
    is a, and b > a.  Otherwise it lies on 0's side, not a's, so it is b,
    and b < a.  A sweep from component 0 finds a, one from a finds b and
    roots the tree when a < b, and one from b roots it otherwise; at most
    two sweep arrays are alive at once.  No per-component list of
    neighbouring components is kept: the sweeps read the tree edges from
    the attachments and across.

    G minus a set F of edges has |F| + 1 components only when every edge
    of F is a bridge, and H's bridges lift to G's, so the count check
    fails only when `h_bridges` holds a non-bridge of H, which is a bug.
    """
    n, ntri = g.n, len(local.triangles)
    up = list(range(ntri))  # union-find parent of each triangle

    def find(t: int) -> int:
        while up[t] != t:
            up[t] = t = up[up[t]]  # path halving
        return t

    across = [-1] * n
    # a vertex's group: a triangle, standing for its union-find class, or
    # past ntri one per diamond on an H-bridge
    group = [-1] * n
    key = ntri
    nbridges = 0
    for r, (a, b) in zip(local.walk, local.ends):
        if (a, b) in h_bridges:
            for x, y in zip(r[::4], r[1::4]):
                across[x] = y
                across[y] = x
                nbridges += 1
            for i in range(1, len(r) - 1, 4):
                group[r[i]] = group[r[i + 1]] = group[r[i + 2]] = group[r[i + 3]] = key
                key += 1
            group[r[0]] = a
            group[r[-1]] = b
        else:
            up[find(a)] = find(b)
            for v in r:
                group[v] = a
    root_of = [find(t) for t in range(ntri)]

    # the walk's int objects, sorted, are shared by the components, which
    # would otherwise hold a new one per vertex; group becomes comp_of in
    # place, each entry read before it is replaced
    comp_of = group
    index = [-1] * key
    components: list = []
    attach: list[list[int]] = []
    for v in sorted(chain.from_iterable(local.walk)):
        k = group[v]
        if k < ntri:
            k = root_of[k]
        c = index[k]
        if c == -1:
            c = index[k] = len(components)
            components.append([])
            attach.append([])
        comp_of[v] = c
        components[c].append(v)
        if across[v] != -1:
            attach[c].append(v)
    for c, vs in enumerate(components):
        components[c] = tuple(vs)

    ncomp = len(components)
    if ncomp != nbridges + 1:
        raise InternalInvariantError(
            f"{ncomp} components for {nbridges} bridges; tree property violated"
        )
    triangle, diamond = ComponentKind.TRIANGLE, ComponentKind.DIAMOND
    type3 = ComponentKind.TYPE_III
    kinds = tuple(
        triangle if len(vs) == 3 else diamond if len(vs) == 4 else type3 for vs in components
    )

    def sweep(src: int) -> tuple[list[int], list[int]]:
        """Depth of each component, and the vertex the BFS entered it at."""
        depth = [-1] * ncomp
        entry = [-1] * ncomp
        depth[src] = 0
        queue = [src]
        for c in queue:
            below = depth[c] + 1
            for v in attach[c]:
                x = across[v]
                d = comp_of[x]
                if depth[d] == -1:
                    depth[d] = below
                    entry[d] = x
                    queue.append(d)
        return depth, entry

    # root: min(a, b), the smallest end of a diametral path
    from_0 = sweep(0)[0]
    a = from_0.index(max(from_0))
    del from_0
    depth, up_vertex = sweep(a)
    b = depth.index(max(depth))
    root = min(a, b)
    if root == b:
        del depth, up_vertex
        depth, up_vertex = sweep(b)

    # each attachment list, up vertex first
    for xs, x1 in zip(attach, up_vertex):
        if x1 != -1 and xs[0] != x1:
            xs.remove(x1)
            xs.insert(0, x1)

    return BridgeTree(
        components=tuple(components),
        kinds=kinds,
        tree_adj=tuple(tuple(sorted([comp_of[across[v]] for v in xs])) for xs in attach),
        root=root,
        depth=tuple(depth),
        up_neighbor=tuple(-1 if x == -1 else across[x] for x in up_vertex),
        degree2=tuple(map(tuple, attach)),
    ), comp_of


def _shares(
    local: LocalScan, h_bridges: set[tuple[int, int]], kinds: Sequence[ComponentKind],
    comp_of: Sequence[int],
) -> dict[int, LocalScan]:
    """Each Type III component's share of G's contraction, by component.

    `local`, `h_bridges`, and `kinds` and `comp_of` as `_bridge_tree`
    returned them, describe a bridged graph.  The share of Type III
    component c holds c's triangles in G's order, and its realizations
    that are no H-bridges in walk order, each the walk's own tuple.  A
    dict keeps a chain of diamonds from holding an entry per component.
    """
    type3 = ComponentKind.TYPE_III
    shares = {c: LocalScan(triangles=[], walk=[]) for c, k in enumerate(kinds) if k is type3}
    for tri in local.triangles:
        if share := shares.get(comp_of[tri[0]]):
            share.triangles.append(tri)
    for r, e in zip(local.walk, local.ends):
        if e not in h_bridges:
            shares[comp_of[r[0]]].walk.append(r)
    return shares
