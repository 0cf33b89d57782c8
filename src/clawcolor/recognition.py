"""Structural predicates, Oum's structure and the bridge tree of claw-free cubic graphs.

Covers induced-claw detection, bridge finding (`multigraph._bridges`
over edge ids), induced diamonds, the contraction H, the decomposition
and the bridge tree.

By Oum's theorem (S. Oum, Electron. J. Combin. 18 (2011) P62) a
2-edge-connected claw-free cubic graph is K4, a ring of diamonds, or is
built from a 2-edge-connected cubic multigraph H by replacing each
H-vertex with a triangle and some H-edges with strings of diamonds.  In a
claw-free cubic graph every vertex lies on a triangle, so the claw check,
the induced diamonds and the triangles off the diamonds can all be read
from the closed neighborhoods.  `_local_scan` does that in one pass.
Every vertex of such a graph other than K4 then lies on exactly one of
those triangles or diamonds, `at[v]` says which, and `_walk` follows
each triangle corner through its string of diamonds to another corner,
listing the vertices it passes.  The walks are the edges of a cubic
multigraph H on the triangles, held only as the list `ends` of each
walk's two end triangles: `_walk` numbers it as it walks, for the entry
check `_require_claw_free_cubic`, and no graph object is built for it on
the coloring path.  An edge cut of H lifts to an edge cut of G of the same
size, so the entry check reads G's connectivity and bridges from H,
which is much smaller, by `_bridges` over H's edge ids.  With no
triangle, `_ring_walk` decides connectivity: the ring through diamond 0
must hold every diamond.  `find_claw` stays for arbitrary graphs and
`find_bridges` for connected ones.

The components of G minus its bridges are read from H too: the triangles
joined by H's non-bridge edges, H-loops included, with the diamonds on
those edges' strings, and each diamond on the string of an H-bridge on
its own.  `_class_tree`'s union-find, the one component classifier,
makes the classes, K3 or Type III, the nodes of a tree whose edges are
H's bridges, each weighing 1 + its string's diamonds: the distances, so
the root rule min(a, b), are those of the tree of all components.  The
colorer reads the classes with their shares of the contraction.  A
diamond string needs no node: the class f free at the parent's corner
goes on each diamond's exterior toward the root, the other radius-2
class on the other and 1a, 1b inside, so f is forced again past it.

`_structure` gives every graph as a class tree: a bridgeless one is one
class whose share is the entry check's own contraction.  A ring's
contraction is its one cyclic walk, and K4's the walk (0, 2, 3, 1) of
the ring of one diamond, closed by the edge 0-1.  `decompose`, the one
public way in, returns one `Decomposition` for every graph, built by
`_bridge_tree` from the contraction and the class tree: H as the
contraction numbers it, the tuples `triangles`, `ends` and `walk`, with
the bridge tree of all components, a single Type III component when g
has no bridge.  `color_claw_free_cubic` reads the same tree, so G is
neither walked nor contracted twice, and no other graph is scanned: a
completed Type III component's H is cut from G's contraction by
`colorer._surgery`.
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
from .multigraph import MultiGraph, _bridges, is_connected, is_cubic


def find_claw(g: MultiGraph) -> tuple[int, int, int, int] | None:
    """Return (center, a, b, c) of an induced claw of least center, or None.

    Any multigraph: adjacency lists hold distinct neighbors, and parallel
    edges do not affect induced subgraphs.
    """
    adj = g.adjacency()
    for v, nbrs in enumerate(adj):
        if len(nbrs) < 3:
            continue
        for a, b, c in combinations(nbrs, 3):
            if not (b in adj[a] or c in adj[a] or c in adj[b]):
                return (v, a, b, c)
    return None


def is_claw_free(g: MultiGraph) -> bool:
    return find_claw(g) is None


def find_bridges(g: MultiGraph) -> set[tuple[int, int]]:
    """Cut edges of a connected multigraph via one DFS and a low-link sweep."""
    edges = g.edge_list()
    if (bridges := _bridges(g.n, edges)) is None:
        raise DisconnectedError("bridge search requires a connected graph")
    return {edges[e] for e in bridges}


class LocalScan(NamedTuple):
    """What `_local_scan` reads from the closed neighborhoods of a graph.

    Either `claw` is the first induced claw (center, a, b, c), and the rest
    is empty, or `claw` is None and the graph is claw-free.  Then
    `diamonds` lists the induced diamonds flat, four ints each: interiors,
    then exteriors, each pair ascending; `triangles` the triangles on no
    diamond by their smallest corner; `at[v]` indexes them: v's triangle,
    ~j for its diamond at offset j in `diamonds`, None for neither (K4).

    A contraction holds only `walk` and, for a graph with triangles,
    `triangles` and `ends`.  `_contract` keeps the scan's `triangles` and
    fills in `walk`, the realizations `_walk` lists, and `ends`, the
    triangles at the two ends of each: these are the edges of H, H-loops
    included.  H-edge e is `walk[e]`, from triangle `ends[e][0]` to
    `ends[e][1]`, numbered as `_contract` says.  A ring's contraction is
    its one cyclic walk, as `_ring_walk` lists it, and K4's, whose scan
    records nothing, the entry check's (0, 2, 3, 1).  `_class_tree` hands
    each class its share of G's contraction in `triangles` and `walk`.
    """

    claw: tuple[int, int, int, int] | None = None
    diamonds: Sequence[int] = ()
    triangles: Sequence[tuple[int, int, int]] = ()
    at: Sequence[int | None] = ()
    walk: Sequence[tuple[int, ...]] = ()
    ends: Sequence[tuple[int, int]] = ()


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

    A vertex already recorded, its `at` entry set, is skipped; its
    neighbors span an edge, so it is no claw center.  A triangle on no diamond is recorded at its
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
    triangles: list[tuple[int, int, int]] = []
    at: list[int | None] = [None] * n
    for v in range(n):
        if at[v] is not None:
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
                at[v] = at[x] = at[y] = at[e] = ~len(diamonds)
                diamonds += (x, y, v, e)
                continue
            at[v] = at[x] = at[y] = len(triangles)
            triangles.append((v, x, y))
        elif edges == 2:
            p, e1, e2 = (a, b, c) if ab and ac else (b, a, c) if ab else (c, a, b)
            at[v] = at[p] = at[e1] = at[e2] = ~len(diamonds)
            diamonds += (v, p, e1, e2)
    return LocalScan(None, diamonds, triangles, at)


def _walk(g: MultiGraph, local: LocalScan) -> tuple[list, list]:
    """H numbered: each H-edge's realization, as its vertices in walk
    order, and its `ends`.

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
    have been walked from first.  So each triangle's (ends, realization)
    pairs, sorted, take the next ids; the ends are `at`'s own ints.

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
    diamonds, at = local.diamonds, local.at
    consumed = bytearray(g.n)
    walk: list[tuple[int, ...]] = []
    ends: list[tuple[int, int]] = []
    for t, tri in enumerate(local.triangles):
        pairs = []  # (ends, realization) of the H-edges walked from t
        for c in tri:
            if consumed[c]:
                continue
            a, b, cur = adj[c]
            if at[a] != t:
                cur = a
            elif at[b] != t:
                cur = b
            seq = [c]
            while (d := at[cur]) < 0:
                i = ~d
                exit_ = diamonds[i + 3] if cur == diamonds[i + 2] else diamonds[i + 2]
                seq += (cur, diamonds[i], diamonds[i + 1], exit_)
                a, b, cur = adj[exit_]
                if at[a] != d:
                    cur = a
                elif at[b] != d:
                    cur = b
            consumed[c] = consumed[cur] = 1
            seq.append(cur)
            pairs.append(((at[c], at[cur]), tuple(seq)))
        for e, r in sorted(pairs):
            ends.append(e)
            walk.append(r)
    return walk, ends


def _contract(g: MultiGraph, local: LocalScan) -> LocalScan | None:
    """g's triangles and H, its H-edges numbered: the realizations `walk`
    and the two triangles `ends` at the ends of each.

    None when the scan's triangles and diamonds do not partition g, or the
    walks miss a diamond.  A graph of diamonds only is the ring through
    diamond 0 (`_ring_walk`), its one cyclic walk, when that holds every
    diamond, and else disconnected.  The diamonds and per-vertex index,
    which no reader of a contraction uses, are dropped, so that neither a
    diamond chain's class tree nor any `decompose` record holds them.

    Each H-edge is named by one integer, its id: the H-edges come numbered
    0..m-1 by their ends, then by their realizations, and the coloring
    path reads nothing else.  H-edge e is `walk[e]`, run from triangle
    `ends[e][0]` to `ends[e][1]`, as `_walk` runs each realization from
    its lower triangle.  Parallel H-edges take consecutive ids, and the
    ids at a vertex ascend as its slots in H do: the id of slot (a, b, k)
    is its index in `h.slots()`.  `_walk` visits the triangles in index
    order, each the lower end of the H-edges walked from it, so sorting
    those by (ends, walk) numbers H.  `colorer._surgery` numbers a
    completion's H by the same rule.

    None of H's properties is checked again; a wrong contraction would
    still meet the exit certificate.  H has a loop, `ends[e][0] ==
    ends[e][1]`, only when g has a bridge: a loop's triangle meets the
    rest of H by its third H-edge alone, which is then a bridge of H, so
    of g.  H is cubic: the entry scan gives each corner exactly one
    outside edge, every vertex lies on a triangle or a diamond, and a walk
    is deterministic and reversible, so each corner ends exactly one
    realization.  An edge cut of H lifts to an edge cut of g of the same
    size, so H is bridgeless exactly when g is.
    """
    triangles, diamonds = local.triangles, local.diamonds
    if 3 * len(triangles) + len(diamonds) != g.n:
        return None
    if not triangles:
        ring = _ring_walk(g, local)
        return LocalScan(walk=(ring,)) if len(ring) == len(diamonds) else None
    walk, ends = _walk(g, local)
    if sum(map(len, walk)) - 2 * len(walk) != len(diamonds):
        return None
    return LocalScan(triangles=triangles, walk=walk, ends=ends)


def _ring_walk(g: MultiGraph, local: LocalScan) -> tuple[int, ...]:
    """The ring through diamond 0, on a graph of diamonds, as one cyclic walk.

    Each diamond is listed as `_walk` lists one: entry exterior, the two
    interiors ascending, exit exterior.  Each exit is adjacent to the next
    entry, read from its list, and the last exit to the first entry, so a
    ring of k diamonds is 4k ints and its edges between diamonds are the
    pairs (r[j - 1], r[j]) for j = 0, 4, 8, ...
    """
    adj, diamonds, at = g.adjacency(), local.diamonds, local.at
    i, x, ring = 0, diamonds[2], []
    while True:
        exit_ = diamonds[i + 3] if x == diamonds[i + 2] else diamonds[i + 2]
        ring += (x, diamonds[i], diamonds[i + 1], exit_)
        x = next(w for w in adj[exit_] if at[w] != ~i)
        if (i := ~at[x]) == 0:
            return tuple(ring)


class ComponentKind(enum.Enum):
    TRIANGLE = "K3"
    DIAMOND = "diamond"
    TYPE_III = "type3"


class Variant(enum.Enum):
    K4 = "K4"
    RING = "ring-of-diamonds"
    BUILT = "built"


class Decomposition(NamedTuple):
    """What `decompose` returns: G's contraction H and its bridge tree.

    H is numbered as `_contract` numbers it: its vertices are the
    `triangles`, and H-edge e joins triangles `ends[e]`, a <= b, through
    `walk[e]`, its vertices in G as `_walk` lists them, run from the
    corner in triangle a to the corner in triangle b.  The ids follow
    (ends, walk), so id e is the index of its slot (a, b, k) in the
    sorted slots of H: parallel H-edges take consecutive ids.  H has a
    loop, a == b, or a bridge only when G has a bridge.  A ring, and K4
    as the ring of one diamond, has no triangle and no `ends`, and its
    `walk` is one cyclic walk (`_ring_walk`).

    The bridge tree holds the components of G - B(G), indexed in order
    of their smallest vertex; a bridgeless G is one Type III component.
    The root is the smallest-index component whose tree eccentricity
    equals the tree diameter, i.e. a leaf of a diametral path.  degree2
    lists each component's degree-2 vertices, the up vertex first and the
    rest ascending; a non-root component's up vertex is its one degree-2
    vertex whose third edge is the bridge toward the parent, and
    up_neighbor is that bridge's other endpoint (-1 at the root).
    """

    variant: Variant
    triangles: tuple[tuple[int, int, int], ...]
    ends: tuple[tuple[int, int], ...]
    walk: tuple[tuple[int, ...], ...]
    components: tuple[tuple[int, ...], ...]
    kinds: tuple[ComponentKind, ...]
    tree_adj: tuple[tuple[int, ...], ...]
    root: int
    depth: tuple[int, ...]
    up_neighbor: tuple[int, ...]
    degree2: tuple[tuple[int, ...], ...]

    def string_lengths(self) -> list[int]:
        """Lengths of the non-empty diamond strings, sorted; a ring's cyclic walk counts as one."""
        return sorted(len(r) // 4 for r in self.walk if len(r) > 2)


_DISCONNECTED = "input graph is disconnected"


def _require_claw_free_cubic(g: MultiGraph) -> tuple[set[int], LocalScan]:
    """Raise unless g is a connected claw-free cubic graph; return H's bridges.

    Checks simple, non-empty, cubic, claw-free, then connected, but a
    disconnected input is reported ahead of the cubic and claw checks: a
    BFS decides it when one of those fails.  On claw-free cubic input the
    structure decides it.  A graph of 4 vertices is K4, whose contraction
    is the ring of one diamond.  Otherwise `_contract` must succeed
    (vertices it leaves out lie on K4 components, or on diamonds off the
    ring through diamond 0), and H must be connected when it has
    triangles.  Returns the ids of H's bridges, indexes into `ends`, and
    the contraction.
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
        return set(), LocalScan(walk=((0, 2, 3, 1),))
    local = _contract(g, local)
    if local is None:
        raise DisconnectedError(_DISCONNECTED)
    h_bridges = _bridges(len(local.triangles), local.ends) if local.triangles else set()
    if h_bridges is None:
        raise DisconnectedError(_DISCONNECTED)
    return h_bridges, local


class ClassTree(NamedTuple):
    """The bridge tree over the classes of H's triangles, as `_class_tree` builds it.

    Class c is a K3 or Type III component.  `shares[c]` holds a Type III
    class's triangles in G's order and its realizations that are no
    H-bridges; a K3 has none, its corners being its attachments.  A
    bridgeless graph is one class, 0, whose share is the entry check's
    contraction itself, a built graph's, or a ring's or K4's one cyclic
    walk.  Bridge
    i is the H-bridge realization `bridges[i]`, from class `ends[i][0]` to
    class `ends[i][1]`, and `links[c]` lists the bridges at class c.
    `order` lists the classes from the root, each after the class it
    hangs from; class c is entered by bridge `via[c]` (-1 at the root), at
    depth `depth[c]` in the bridge tree.
    """

    shares: dict[int, LocalScan]
    bridges: list[tuple[int, ...]]
    ends: list[tuple[int, int]]
    links: list[list[int]]
    order: list[int]
    via: list[int]
    depth: list[int]


def _class_tree(h_bridges: set[int], local: LocalScan) -> ClassTree:
    """The class tree of a graph already validated, read from its contraction.

    `h_bridges` and `local` are what `_require_claw_free_cubic` returned.
    With no bridge it is one class whose share is `local` itself.
    Otherwise a union-find over the triangles joins the two ends of each
    realization that is not an H-bridge, H-loops included; a class is K3
    when it is one triangle with no such realization, else Type III (g is
    simple, so a loop carries a diamond).  Classes are numbered by their
    first triangle.
    A bridge of k diamonds weighs k + 1, so depths are those of the bridge
    tree of all components.

    The root is min(a, b), components ordered by smallest vertex, where a
    is the smallest component farthest from x, here class 0, and b the
    smallest farthest from a.  The ends of the diametral paths lie at the
    tree's radius from its centre, a component or an edge, and the sides
    are the subtrees hanging off the centre.  The farthest from x are the
    ends on the other sides than x's (every end when x is the centre),
    leaves, so classes.  So a is an end.  When the smallest end lies on
    another side than x's, it is a, and b > a.  Otherwise it lies on x's
    side, not a's, so it is b, and b < a.  G minus a set F of edges has
    |F| + 1 components only when every edge of F is a bridge, so the count
    check fails only when `h_bridges` holds a non-bridge of H, which is a
    bug.
    """
    if not h_bridges:
        return ClassTree({0: local}, [], [], [[]], [0], [-1], [0])
    up = list(range(len(local.triangles)))  # union-find parent of each triangle

    def find(t: int) -> int:
        while up[t] != t:
            up[t] = t = up[up[t]]  # path halving
        return t

    bridges, at = [], []  # at: the triangles at each bridge's ends
    for i, (r, e) in enumerate(zip(local.walk, local.ends)):
        if i in h_bridges:
            bridges.append(r)
            at.append(e)
        else:
            up[find(e[0])] = find(e[1])
    roots = list(map(find, range(len(up))))
    index = dict(zip(dict.fromkeys(roots), range(len(up))))  # classes by first triangle
    cls, m = list(map(index.__getitem__, roots)), len(index)  # the class of each triangle
    if m != len(bridges) + 1:
        d = (sum(map(len, bridges)) - 2 * len(bridges)) // 4  # the diamonds on them
        raise InternalInvariantError(
            f"{m + d} components for {len(bridges) + d} bridges; tree property violated"
        )
    shares: dict[int, LocalScan] = {}  # a class is Type III when it has a realization
    for i, (r, e) in enumerate(zip(local.walk, local.ends)):
        if i not in h_bridges:
            if cls[e[0]] not in shares:
                shares[cls[e[0]]] = LocalScan(triangles=[], walk=[])
            shares[cls[e[0]]].walk.append(r)
    for c, tri in zip(cls, local.triangles):
        if c in shares:
            shares[c].triangles.append(tri)
    ends, links = [], [[] for _ in range(m)]
    for i, (a, b) in enumerate(at):
        ends.append((cls[a], cls[b]))
        links[cls[a]].append(i)
        links[cls[b]].append(i)

    def sweep(src: int) -> tuple[list[int], list[int], list[int]]:
        """The classes from src, each after its parent, their bridges to it and depths."""
        order, via, depth = [src], [-1] * m, [-1] * m
        depth[src] = 0
        for c in order:
            for i in links[c]:
                d = sum(ends[i]) - c
                if depth[d] == -1:
                    depth[d] = depth[c] + (len(bridges[i]) + 2) // 4
                    via[d] = i
                    order.append(d)
        return order, via, depth

    def first(c: int) -> int:
        """The smallest vertex of a Type III class, as every end is."""
        return min([shares[c].triangles[0][0], *map(min, shares[c].walk)])

    def farthest(depth: list[int]) -> int:
        far = max(depth)
        return min((c for c in range(m) if depth[c] == far), key=first)

    a = farthest(sweep(0)[2])
    tree = sweep(a)
    b = farthest(tree[2])
    if first(b) < first(a):
        tree = sweep(b)
    return ClassTree(shares, bridges, ends, links, *tree)


def _attachments(tree: ClassTree, c: int) -> list[int]:
    """Class c's attachments, the corners on its bridges: the one on
    `via[c]` first, the rest ascending."""
    bridges, ends, i = tree.bridges, tree.ends, tree.via[c]
    xs = sorted(bridges[j][0 if ends[j][0] == c else -1] for j in tree.links[c] if j != i)
    return xs if i == -1 else [bridges[i][0 if ends[i][0] == c else -1], *xs]


def _bridge_tree(local: LocalScan, tree: ClassTree) -> Decomposition:
    """The public record of g: its contraction `local`, as the entry check
    numbered it, and the bridge tree of its class tree `tree`, each
    diamond on a bridge's string a component of its own.

    Components are listed first in the class tree's order, the classes and
    then each bridge's diamonds from r[0] on, then renumbered by smallest
    vertex.  A diamond is entered at its exterior toward the root.  A
    share with no triangle, a ring's or K4's, is its one cyclic walk.
    """
    shares, bridges, ends, via = tree.shares, tree.bridges, tree.ends, tree.via
    comps, kinds, degree2, up_neighbor, adj = [], [], [], [-1] * len(via), [[] for _ in via]
    for c in range(len(via)):
        xs, s = _attachments(tree, c), shares.get(c)
        if s is None:  # a K3, whose corners are its attachments
            vs = xs
        else:
            vs = chain(*s.triangles, *(r[1:-1] for r in s.walk)) if s.triangles else s.walk[0]
        comps.append(tuple(sorted(vs)))
        kinds.append(ComponentKind.TRIANGLE if s is None else ComponentKind.TYPE_III)
        degree2.append(tuple(xs))
    depth = list(tree.depth)
    for i, r in enumerate(bridges):
        a, b = ends[i]
        path = [a, *range(len(comps), len(comps) + len(r) // 4), b]  # the components along r
        adj[a].append(path[1])
        adj[b].append(path[-2])
        down = via[b] == i  # r runs from the parent class
        up_neighbor[b if down else a] = r[-2] if down else r[1]
        for j in range(1, len(path) - 1):
            q = 4 * j - 3  # the diamond is r[q:q + 4], r[q] on a's side
            comps.append(tuple(sorted(r[q:q + 4])))
            kinds.append(ComponentKind.DIAMOND)
            adj.append((path[j - 1], path[j + 1]))
            depth.append(depth[a] + j if down else depth[b] + len(path) - 1 - j)
            up_neighbor.append(r[q - 1] if down else r[q + 4])
            degree2.append((r[q], r[q + 3]) if down else (r[q + 3], r[q]))
    # components are disjoint sorted tuples, so they sort by smallest vertex
    perm = sorted(range(len(comps)), key=comps.__getitem__)
    rank = sorted(range(len(perm)), key=perm.__getitem__)  # the inverse of perm

    def permuted(xs: list) -> tuple:
        return tuple(map(xs.__getitem__, perm))

    return Decomposition(
        variant=(
            Variant.BUILT if local.triangles
            else Variant.K4 if len(local.walk[0]) == 4 else Variant.RING
        ),
        triangles=tuple(local.triangles),
        ends=tuple(local.ends),
        walk=tuple(local.walk),
        components=permuted(comps),
        kinds=permuted(kinds),
        tree_adj=permuted([tuple(sorted(map(rank.__getitem__, ds))) for ds in adj]),
        root=rank[tree.order[0]],
        depth=permuted(depth),
        up_neighbor=permuted(up_neighbor),
        degree2=permuted(degree2),
    )


def _structure(g: MultiGraph) -> ClassTree:
    """What the colorer reads of g: the tree over the classes of H's
    triangles, one class when g has no bridge."""
    return _class_tree(*_require_claw_free_cubic(g))


def decompose(g: MultiGraph) -> Decomposition:
    """The structure of a connected, claw-free, cubic graph: its
    contraction H and its bridge tree, as `Decomposition` says.

    The variant is K4, the ring of diamonds, or built, with H as its
    numbered edge list; a graph with bridges is built, over an H with
    loops or bridges.  Raises the entry check's NotSimpleError,
    DisconnectedError, NotCubicError or NotClawFreeError on any other
    input, and InternalInvariantError on a bug.
    """
    h_bridges, local = _require_claw_free_cubic(g)
    return _bridge_tree(local, _class_tree(h_bridges, local))
