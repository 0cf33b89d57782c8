"""(1,1,2,2)-coloring of arbitrary connected claw-free cubic graphs.

Bridgeless graphs go straight to the 2-edge-connected constructions.
Otherwise the bridge tree is rooted at a leaf of a diametral path, the
root component is colored first, and the remaining components are colored
in BFS order, each in G's own vertex ids.  Each component's attachment x1
is forced to a radius-2 class: 2a at the root, elsewhere one absent around
its up-neighbor in the already-colored parent.  K3 and diamond components
are colored in place, by direct stores into the glued assignment: x1 gets
the forced class, a diamond's other exterior the other one, and the two
vertices left 1a and 1b in ascending order.  A Type III component C, the
root included, with attachment vertices X (its degree-2 vertices) is
completed, in one step from G's sorted adjacency lists and with no edge
list or validating build, to a 2-edge-connected claw-free cubic graph,
which is decomposed once and colored from a 2-factor of its H with one
edge forced (Plesnik's theorem):

  * |X| even: add a pairing edge on each consecutive pair of X; x1-x2 is
    forced into the perfect matching, so x1, x2 carry 2a/2b.
  * |X| odd: remove x1 and its two neighbors u, w, join their outer
    neighbors s, y by an edge, pair up the rest of X; s-y is forced onto
    the 2-factor, so s, y carry 1a/1b, then put u -> 1b, w -> 1a,
    x1 -> 2a.  A K4 completion takes the explicit 7-vertex assignment
    instead, and a ring of diamonds the ring coloring.

The forced class of x1 is realized by transposing whole color classes.

`color_claw_free_cubic` is the one public constructor.  It validates its
input once at entry, through `structure.decompose`, and certifies the
glued coloring once at exit; nothing in between checks an input or
certifies an output.  Every component it hands on comes from a validated
graph, so a failed precondition below the entry check is a bug and raises
InternalInvariantError.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Container, Iterable, Sequence

from .canonical import _canonical, _lift_slot, _ring, _two_edge_connected
from .coloring import C1A, C1B, C2A, C2B, SPEC_1122, PackingColoring
from .errors import ClaimViolatedError, InternalInvariantError, VerificationFailedError
from .factorization import _matched_through, _two_factor_through
from .multigraph import MultiGraph
from .oracle import verify
from .recognition import BridgeTree, ComponentKind
from .structure import Decomposition, Variant, _decompose, decompose


def _check_independent(g: MultiGraph, xs: Sequence[int]) -> None:
    """Raise on the first adjacent pair of xs, in the order of xs."""
    pos = {x: i for i, x in enumerate(xs)}
    for i, u in enumerate(xs):
        later = [pos[v] for v in g.neighbors(u) if pos.get(v, -1) > i]
        if later:
            raise InternalInvariantError(
                f"attachment vertices {u} and {xs[min(later)]} are adjacent; "
                "the degree-2 set must be independent"
            )


def _odd_gadget(g: MultiGraph, x1: int, members: Container[int]) -> tuple[int, int, int, int]:
    """Locate u, w (x1's neighbors among `members`) and their outer neighbors s, y."""
    nbrs = [z for z in g.neighbors(x1) if z in members]
    if len(nbrs) != 2:
        raise InternalInvariantError(f"attachment {x1} has degree {len(nbrs)}")
    u, w = nbrs
    if not g.has_edge(u, w):
        raise InternalInvariantError(
            f"neighbors {u}, {w} of attachment {x1} are not adjacent; "
            "the input graph cannot be claw-free"
        )
    s = next(z for z in g.neighbors(u) if z not in (x1, w))
    y = next(z for z in g.neighbors(w) if z not in (x1, u))
    if s == y:
        raise InternalInvariantError(
            "component is a diamond; the odd construction does not apply"
        )
    if g.has_edge(s, y):
        raise InternalInvariantError(
            f"outer neighbors {s}, {y} are adjacent; impossible in a claw-free "
            "cubic graph"
        )
    return u, w, s, y


def _completion(
    g: MultiGraph, verts: Iterable[int], xs: Sequence[int]
) -> tuple[MultiGraph, dict[int, int], tuple[int, int, int, int] | None]:
    """The completed graph of a Type III component of g, built in one step.

    verts lists the component's vertices ascending, xs its attachment
    vertices with x1 first.  Returns the completion, its {id in g: local
    id} map, local ids ascending with g's, and the odd gadget (u, w, s, y),
    None when |X| is even.  Each kept vertex's neighbour list is g's,
    relabelled, so it stays sorted; then each end of s-y when |X| is odd,
    and of a pairing edge on each consecutive pair of the attachments
    left, is inserted in order.  The completion is simple: g is (the entry
    check found it so), the attachments are independent, and the odd
    gadget has no s-y edge and keeps s and y off the attachments, so no
    added edge repeats a pair.
    """
    local = dict.fromkeys(verts)
    added = []
    gadget = None
    if len(xs) % 2:
        gadget = u, w, s, y = _odd_gadget(g, xs[0], local)
        for v in (xs[0], u, w):
            del local[v]
        added.append((s, y))
    rest = xs[len(xs) % 2:]
    added += zip(rest[::2], rest[1::2])
    for i, v in enumerate(local):
        local[v] = i
    adj = g.adjacency()
    tilde = [[local[w] for w in adj[v] if w in local] for v in local]
    for a, b in added:
        a, b = local[a], local[b]
        insort(tilde[a], b)
        insort(tilde[b], a)
    return MultiGraph._from_sorted_adjacency(tilde), local, gadget


def _explicit_k4_completion(
    local: dict[int, int], x1: int, gadget: tuple[int, int, int, int], root_style: bool
) -> dict[int, int]:
    """Explicit coloring of a 7-vertex component whose completion is K4.

    The two completion vertices other than s and y are interchangeable;
    the smaller id plays the written role first.
    """
    u, w, s, y = gadget
    z, a = (v for v in local if v not in (s, y))
    if root_style:
        # explicit root assignment: s -> 1b, y -> 1a, fourth -> 2a, apex -> 2b
        return {s: C1B, y: C1A, a: C2A, z: C2B, u: C1A, w: C1B, x1: C2A}
    # explicit child assignment: apex -> 2a, fourth -> 2b, s -> 1a, y -> 1b
    return {s: C1A, y: C1B, z: C2A, a: C2B, u: C1B, w: C1A, x1: C2A}


def _color_type3(
    g: MultiGraph, verts: Sequence[int], xs: Sequence[int], forced: int, root_style: bool
) -> tuple[dict[int, int], list[int]]:
    """Colors of a Type III component of g, and its vertices on diamonds.

    verts lists the component's vertices ascending, xs its attachment
    vertices with x1 first, which gets `forced`.  The completion is
    decomposed once and colored by its variant, as the module docstring
    says.  The colors are keyed by g's ids in the order of `verts`; the
    diamond vertices are those on the diamonds of the completion.
    """
    x1 = xs[0]
    tilde, local, gadget = _completion(g, verts, xs)
    if gadget is None:
        edge, through = (x1, xs[1]), _matched_through
    else:
        u, w, s, y = gadget
        edge, through = (s, y), _two_factor_through
    dec = _decompose(tilde)
    fixed: dict[int, int] = {}  # colors of the vertices the completion lacks
    sub: dict[int, int] = {}  # colors of the completion's vertices, by local id
    ones = (C1A, C1B)  # the completion's 1a and 1b, as colored in g
    if dec.variant is Variant.K4:
        fixed = _explicit_k4_completion(local, x1, gadget, root_style)
    else:
        if dec.variant is Variant.RING:
            sub = _ring(tilde, dec.ring_diamonds).assignment
        else:
            factor = through(dec.h, _lift_slot(dec, (local[edge[0]], local[edge[1]])))
            sub = _canonical(tilde, dec, factor).assignment
        if gadget is not None:
            if {sub[local[s]], sub[local[y]]} != {C1A, C1B}:
                raise InternalInvariantError(
                    "joined outer neighbors did not receive the two radius-1 colors"
                )
            # s must carry 1a: exchange the completion's 1a and 1b if it does not
            ones = (C1A, C1B) if sub[local[s]] == C1A else (C1B, C1A)
            fixed = {u: C1B, w: C1A, x1: C2A}
    # 2a and 2b are exchanged unless x1 already has `forced`
    first = fixed[x1] if x1 in fixed else sub[local[x1]]
    twos = (C2A, C2B) if first == forced else (C2B, C2A)
    # swap[c] is the color in g of the completion's c, fixed_swap of a fixed c
    swap, fixed_swap = ones + twos, (C1A, C1B) + twos
    return {
        v: fixed_swap[fixed[v]] if v in fixed else swap[sub[local[v]]] for v in verts
    }, _diamond_vertices(dec, local)


def _diamond_vertices(dec: Decomposition, local: dict[int, int]) -> list[int]:
    """g's ids of the completion's vertices on diamonds: its ring or its strings."""
    if dec.variant is Variant.RING:
        on = {v for d in dec.ring_diamonds for v in d.vertices}
    else:
        on = {v for r in dec.realization.values() for v in r[1:-1]}
    return [v for v, i in local.items() if i in on]


def _free_two_color(g: MultiGraph, assignment: dict[int, int], attachment: int) -> int:
    """A radius-2 class absent from the colored closed neighborhood.

    `attachment` is the up-neighbor of the component about to be colored;
    its own component is already colored, the new component is not.
    """
    get = assignment.get
    present = (get(attachment), *map(get, g.neighbors(attachment)))
    if C2A not in present:
        return C2A
    if C2B not in present:
        return C2B
    raise ClaimViolatedError(
        f"both radius-2 classes appear around attachment vertex {attachment}"
    )


def color_claw_free_cubic(g: MultiGraph) -> PackingColoring:
    """A verified (1,1,2,2)-coloring of a connected claw-free cubic graph."""
    structure = decompose(g)
    if isinstance(structure, BridgeTree):
        coloring = _color_bridged(g, structure)
    else:
        coloring = _two_edge_connected(g, structure)
    violations = verify(g, SPEC_1122, coloring)
    if violations:
        raise VerificationFailedError(violations)
    return coloring


def _color_bridged(g: MultiGraph, bt: BridgeTree) -> PackingColoring:
    """Color each component of the bridge tree in BFS order, unverified.

    Every component is colored in g's own ids: K3 and diamond components
    in place, Type III components through one completion graph each.
    """
    assignment: dict[int, int] = {}
    # 1 at each vertex on a diamond of a completed Type III component, for
    # the no-diamond-at-up-neighbor invariant
    on_diamond = bytearray(g.n)
    components, degree2, kinds, up_neighbor = bt.components, bt.degree2, bt.kinds, bt.up_neighbor
    root = bt.root
    triangle, type3 = ComponentKind.TRIANGLE, ComponentKind.TYPE_III
    # ascending ids sorted stably by depth: the order of the key (depth, c)
    for c in sorted(range(len(components)), key=bt.depth.__getitem__):
        xs, kind = degree2[c], kinds[c]
        if c == root:
            forced = C2A
        else:
            q = up_neighbor[c]
            if on_diamond[q]:
                raise InternalInvariantError(
                    f"up-neighbor {q} lies on a diamond of its completed "
                    "component; contradicts the structure of claw-free cubic graphs"
                )
            forced = _free_two_color(g, assignment, q)
        if kind is not type3:
            # x1 gets the forced class, a diamond's x2 the other radius-2
            # class, and the two vertices left 1a and 1b in ascending order
            x1 = xs[0]
            assignment[x1] = forced
            if kind is triangle:
                u, v, w = components[c]
                a, b = (v, w) if x1 == u else (u, w) if x1 == v else (u, v)
            else:
                x2 = xs[1]
                assignment[x2] = C2B if forced == C2A else C2A
                a, b = [v for v in components[c] if v != x1 and v != x2]
            assignment[a] = C1A
            assignment[b] = C1B
            continue
        _check_independent(g, xs)
        colors, diamonds = _color_type3(g, components[c], xs, forced, root_style=c == root)
        for v in diamonds:
            on_diamond[v] = 1
        assignment.update(colors)
    return PackingColoring(SPEC_1122, assignment)
