"""(1,1,2,2)-coloring of arbitrary connected claw-free cubic graphs.

Bridgeless graphs go straight to the 2-edge-connected constructions.
Otherwise the bridge tree is rooted at a leaf of a diametral path, the
root component is colored first, and the remaining components are colored
in BFS order.  K3 and diamond components are colored in place, from their
vertices and attachment vertices: the up vertex gets the forced 2-class,
a diamond's other exterior the other one, and the rest 1a and 1b.  Only a
Type III component C with attachment vertices X (its degree-2 vertices)
becomes a subgraph, and it is completed to a 2-edge-connected claw-free
cubic graph:

  * |X| even: add a pairing edge on each consecutive pair of X; color so
    that the pair (x1, x2) is a matched edge carrying 2a/2b.
  * |X| odd (including the root, where |X| = 1): remove x1 and its two
    neighbors u, w, join their outer neighbors s, y by an edge, pair up
    the rest of X; color so that s, y carry 1a/1b, then put u -> 1b,
    w -> 1a, x1 -> 2a.  When the completed graph collapses to K4 the
    explicit 7-vertex assignment is used instead.

The color forced on each x1 comes from inspecting the closed neighborhood
of its up-neighbor in the already-colored parent, and is realized by
transposing whole color classes of the child's coloring.

The public constructors verify what they return.  `color_claw_free_cubic`
validates its input once at entry and certifies the glued coloring once at
exit; in between it calls their unchecked cores.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Sequence

from .canonical import (
    _ring,
    _two_edge_connected,
    _verified,
    _with_edge,
    _with_matched_edge,
)
from .coloring import C1A, C1B, C2A, C2B, SPEC_1122, PackingColoring
from .errors import ClaimViolatedError, InternalInvariantError, PreconditionViolatedError
from .multigraph import MultiGraph
from .recognition import (
    BridgeTree,
    ComponentKind,
    _bridge_tree,
    _classify_component,
    _require_claw_free_cubic,
    is_k4,
)
from .structure import Decomposition, Variant, _decompose


def _attachments(comp: MultiGraph, x1: int) -> list[int]:
    xs = [v for v in range(comp.n) if comp.degree(v) == 2]
    if x1 not in xs:
        raise PreconditionViolatedError(
            f"designated attachment {x1} does not have degree 2 in its component"
        )
    return [x1] + [v for v in xs if v != x1]


def _check_independent(comp: MultiGraph, xs: list[int]) -> None:
    for i, u in enumerate(xs):
        for v in xs[i + 1:]:
            if comp.has_edge(u, v):
                raise InternalInvariantError(
                    f"attachment vertices {u} and {v} are adjacent; "
                    "the degree-2 set must be independent"
                )


def _odd_gadget(comp: MultiGraph, x1: int) -> tuple[int, int, int, int]:
    """Locate u, w (neighbors of x1) and their outer neighbors s, y."""
    nbrs = comp.neighbors(x1)
    if len(nbrs) != 2:
        raise PreconditionViolatedError(f"attachment {x1} has degree {len(nbrs)}")
    u, w = nbrs
    if not comp.has_edge(u, w):
        raise PreconditionViolatedError(
            f"neighbors {u}, {w} of attachment {x1} are not adjacent; "
            "the input graph cannot be claw-free"
        )
    s = next(z for z in comp.neighbors(u) if z not in (x1, w))
    y = next(z for z in comp.neighbors(w) if z not in (x1, u))
    if s == y:
        raise PreconditionViolatedError(
            "component is a diamond; the odd construction does not apply"
        )
    if comp.has_edge(s, y):
        raise PreconditionViolatedError(
            f"outer neighbors {s}, {y} are adjacent; impossible in a claw-free "
            "cubic graph"
        )
    return u, w, s, y


def _odd_tilde(
    comp: MultiGraph, x1: int, u: int, w: int, s: int, y: int, xs: list[int]
) -> tuple[MultiGraph, list[int]]:
    """The completed graph and its tilde-local -> component-local ids.

    Built in one construction from the component's adjacency: the edges
    among the kept vertices in ascending order, then s-y, then the pairs
    of the remaining attachments.
    """
    to_comp = [v for v in range(comp.n) if v not in (x1, u, w)]
    to_local = [-1] * comp.n
    for lv, v in enumerate(to_comp):
        to_local[v] = lv
    adj = comp.adjacency()
    edges = [
        (to_local[a], to_local[b])
        for a in to_comp
        for b in adj[a]
        if b > a and to_local[b] != -1
        for _ in range(comp.multiplicity(a, b))
    ]
    edges.append((to_local[s], to_local[y]))
    edges += [(to_local[xs[i]], to_local[xs[i + 1]]) for i in range(1, len(xs), 2)]
    return MultiGraph(len(to_comp), edges), to_comp


def _explicit_k4_completion(
    tilde: MultiGraph,
    to_comp: list[int],
    s: int,
    y: int,
    root_style: bool,
) -> dict[int, int]:
    """Explicit coloring of {s, y} + two symmetric K4 partners.

    Returns component-local colors for the four tilde vertices.  The two
    non-s/y vertices are interchangeable; the smaller id plays the written
    role first.
    """
    others = sorted(
        to_comp[v]
        for v in range(tilde.n)
        if to_comp[v] not in (s, y)
    )
    z, a = others
    if root_style:
        # explicit root assignment: s -> 1b, y -> 1a, fourth -> 2a, apex -> 2b
        return {s: C1B, y: C1A, a: C2A, z: C2B}
    # explicit child assignment: apex -> 2a, fourth -> 2b, s -> 1a, y -> 1b
    return {s: C1A, y: C1B, z: C2A, a: C2B}


def _color_odd_component(
    comp: MultiGraph, xs: list[int], root_style: bool
) -> tuple[dict[int, int], frozenset[int]]:
    """Color a Type III component with an odd number of attachments.

    Returns (component-local colors with xs[0] -> 2a, component-local
    vertices on tilde diamonds).
    """
    x1 = xs[0]
    u, w, s, y = _odd_gadget(comp, x1)
    tilde, to_comp = _odd_tilde(comp, x1, u, w, s, y, xs)
    to_local = {gv: lv for lv, gv in enumerate(to_comp)}
    colors: dict[int, int] = {}

    if is_k4(tilde):
        colors.update(_explicit_k4_completion(tilde, to_comp, s, y, root_style))
        if root_style:
            colors[u], colors[w] = C1A, C1B
        else:
            colors[u], colors[w] = C1B, C1A
        colors[x1] = C2A
        return colors, frozenset()

    dec = _decompose(tilde)
    if dec.variant is Variant.K4:
        raise InternalInvariantError("K4 must be caught before decomposition")
    if dec.variant is Variant.RING:
        sub_col = _ring(tilde, dec.ring_diamonds)
    else:
        sub_col = _with_edge(tilde, dec, (to_local[s], to_local[y]))
    if {sub_col.assignment[to_local[s]], sub_col.assignment[to_local[y]]} != {C1A, C1B}:
        raise InternalInvariantError(
            "joined outer neighbors did not receive the two radius-1 colors"
        )
    if sub_col.assignment[to_local[s]] != C1A:
        sub_col = sub_col.transposed(C1A, C1B)
    for lv in range(tilde.n):
        colors[to_comp[lv]] = sub_col.assignment[lv]
    colors[u] = C1B
    colors[w] = C1A
    colors[x1] = C2A
    return colors, frozenset(to_comp[v] for v in _diamond_vertices(dec))


def _color_even_component(
    comp: MultiGraph, xs: list[int]
) -> tuple[dict[int, int], frozenset[int]]:
    """Color a Type III component with an even number of attachments."""
    tilde = comp.with_edges([(xs[i], xs[i + 1]) for i in range(0, len(xs), 2)])
    dec = _decompose(tilde)
    if dec.variant is not Variant.BUILT:
        raise InternalInvariantError(
            f"even completion produced variant {dec.variant}; expected built"
        )
    sub_col = _with_matched_edge(tilde, dec, (xs[0], xs[1]))
    return dict(sub_col.assignment), _diamond_vertices(dec)


def _diamond_vertices(dec: Decomposition) -> frozenset[int]:
    """Vertices on the diamonds of a decomposed graph: its ring or its strings."""
    diamonds = dec.ring_diamonds or [d for e in dec.h_edges for d in e.diamonds]
    return frozenset(v for d in diamonds for v in d.vertices)


def _kind(comp: MultiGraph) -> ComponentKind:
    """The kind of a standalone component, classified as the bridge tree does."""
    deg_in = [len(comp.neighbors(v)) for v in range(comp.n)]
    return _classify_component(comp, tuple(range(comp.n)), deg_in)


def color_root_component(comp: MultiGraph, v: int) -> PackingColoring:
    """Color the root component so its attachment vertex v gets 2a.

    The root is a Type III component with v as its only degree-2 vertex.
    """
    kind = _kind(comp)
    coloring, _ = _root_coloring(comp, _attachments(comp, v), kind)
    return _verified(comp, coloring)


def _root_coloring(
    comp: MultiGraph, xs: list[int], kind: ComponentKind
) -> tuple[PackingColoring, frozenset[int]]:
    """Root coloring and its component-local tilde-diamond vertices.

    xs lists the component's degree-2 vertices, the designated one first.
    """
    if len(xs) != 1:
        raise PreconditionViolatedError(
            f"root component has {len(xs)} degree-2 vertices, expected exactly 1"
        )
    if kind is not ComponentKind.TYPE_III:
        raise PreconditionViolatedError("root component must be of Type III")
    colors, diamonds = _color_odd_component(comp, xs, root_style=True)
    return PackingColoring(SPEC_1122, colors), diamonds


def extend_component(comp: MultiGraph, x1: int, forced: int) -> PackingColoring:
    """Color one non-root component so that x1 gets the forced 2-class."""
    kind = _kind(comp)
    if forced not in (C2A, C2B):
        raise PreconditionViolatedError("forced color must be a radius-2 class")
    coloring, _ = _extension(comp, _attachments(comp, x1), forced, kind)
    return _verified(comp, coloring)


def _extension(
    comp: MultiGraph, xs: list[int], forced: int, kind: ComponentKind
) -> tuple[PackingColoring, frozenset[int]]:
    """Extension coloring and its component-local tilde-diamond vertices.

    xs lists the component's degree-2 vertices, the up vertex x1 first.
    """
    if kind is not ComponentKind.TYPE_III:
        colors = _color_k3_or_diamond(range(comp.n), xs, forced, kind)
        diamonds = frozenset(colors) if kind is ComponentKind.DIAMOND else frozenset()
        return PackingColoring(SPEC_1122, colors), diamonds
    x1 = xs[0]
    _check_independent(comp, xs)
    if len(xs) % 2 == 0:
        colors, diamonds = _color_even_component(comp, xs)
    else:
        colors, diamonds = _color_odd_component(comp, xs, root_style=False)
    if colors[x1] != forced:
        swapped = {C2A: C2B, C2B: C2A}
        colors = {v: swapped.get(c, c) for v, c in colors.items()}
    return PackingColoring(SPEC_1122, colors), diamonds


def _color_k3_or_diamond(
    verts: Iterable[int], xs: Sequence[int], forced: int, kind: ComponentKind
) -> dict[int, int]:
    """Colors of a K3 or diamond component, keyed in the order of `verts`.

    verts lists the component's vertices ascending, xs its degree-2
    vertices with the up vertex x1 first, which gets `forced`.  A K3's
    other corners get 1a, 1b; a diamond's interiors get 1a, 1b and its
    other exterior the other radius-2 class.
    """
    x1 = xs[0]
    ones = iter((C1A, C1B))
    if kind is ComponentKind.TRIANGLE:
        return {v: forced if v == x1 else next(ones) for v in verts}
    x2 = xs[1]
    other = C2B if forced == C2A else C2A
    return {v: forced if v == x1 else other if v == x2 else next(ones) for v in verts}


def free_two_color(g: MultiGraph, assignment: dict[int, int], attachment: int) -> int:
    """A radius-2 class absent from the colored closed neighborhood.

    `attachment` is the up-neighbor of the component about to be colored;
    its own component is already colored, the new component is not.
    """
    present = set()
    if attachment in assignment:
        present.add(assignment[attachment])
    for z in g.neighbors(attachment):
        if z in assignment:
            present.add(assignment[z])
    for candidate in (C2A, C2B):
        if candidate not in present:
            return candidate
    raise ClaimViolatedError(
        f"both radius-2 classes appear around attachment vertex {attachment}"
    )


def color_claw_free_cubic(g: MultiGraph) -> PackingColoring:
    """A verified (1,1,2,2)-coloring of a connected claw-free cubic graph."""
    bridges, local = _require_claw_free_cubic(g)
    if bridges:
        # completions scan themselves, and the tree keeps its own sorted
        # copy of the bridges; holding either while coloring raises peak memory
        del local
        bt = _bridge_tree(g, bridges)
        del bridges
        coloring = _color_bridged(g, bt)
    else:
        coloring = _two_edge_connected(g, _decompose(g, local))
    return _verified(g, coloring)


def _color_bridged(g: MultiGraph, bt: BridgeTree) -> PackingColoring:
    """Color each component of the bridge tree in BFS order, unverified.

    K3 and diamond components are colored in place from their vertices
    and attachments; only the Type III components, the root among them,
    become subgraphs.
    """
    assignment: dict[int, int] = {}
    # diamond vertices of each completed Type III component, in global ids,
    # for the no-diamond-at-up-neighbor invariant
    tilde_diamonds: dict[int, frozenset[int]] = {}

    kinds = bt.kinds
    order = sorted(range(len(bt.components)), key=lambda c: (bt.depth[c], c))
    completed = [c for c in order if c == bt.root or kinds[c] is ComponentKind.TYPE_III]
    parts = g.induced_parts(bt.comp_of, completed)
    for c in order:
        kind = kinds[c]
        if c != bt.root:
            q = bt.up_neighbor[c]
            parent = bt.parent[c]
            if q in tilde_diamonds.get(parent, ()):
                raise InternalInvariantError(
                    f"up-neighbor {q} lies on a diamond of its completed "
                    "component; contradicts the structure of claw-free cubic graphs"
                )
            forced = free_two_color(g, assignment, q)
            if kind is not ComponentKind.TYPE_III:
                colors = _color_k3_or_diamond(bt.components[c], bt.degree2[c], forced, kind)
                assignment.update(colors)
                continue
        sub, to_global = next(parts)
        # local ids follow sorted global ids, so the order of degree2 holds
        xs = [bisect_left(to_global, x) for x in bt.degree2[c]]
        if c == bt.root:
            local_col, dia = _root_coloring(sub, xs, kind)
        else:
            local_col, dia = _extension(sub, xs, forced, kind)
        tilde_diamonds[c] = frozenset(to_global[v] for v in dia)
        for lv, gv in enumerate(to_global):
            assignment[gv] = local_col.assignment[lv]
    return PackingColoring(SPEC_1122, assignment)
