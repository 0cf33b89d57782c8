"""(1,1,2,2)-coloring of arbitrary connected claw-free cubic graphs.

Bridgeless graphs go straight to the 2-edge-connected constructions.
Otherwise the tree over the classes of H's triangles
(`recognition._class_tree`), rooted at a leaf of a diametral path of the
bridge tree, is colored from the root, each class after its parent, in
G's own vertex ids.  A class's attachment x1 is forced to a radius-2
class: 2a at the root, else the class f absent around the parent's
corner of the bridge between them.  Each diamond on that bridge's string
gets f on the exterior it is entered by, the other radius-2 class on the
exit and 1a, 1b on its interiors in ascending order; f is then the
class absent around the exit, so the next diamond and x1 are forced f
again.  A K3 is colored in place: x1 gets f, its other corners 1a and 1b
in ascending order.  A Type III component C, the root included, with
attachment vertices X (its degree-2 vertices) is completed to a
2-edge-connected claw-free cubic graph, colored from a 2-factor of its H
with one edge forced (Plesnik's theorem):

  * |X| even: add a pairing edge on each consecutive pair of X; x1-x2 is
    forced into the perfect matching, so x1, x2 carry 2a/2b.
  * |X| odd: remove x1 and its two neighbors u, w, join their outer
    neighbors s, y by an edge, pair up the rest of X; s-y is forced onto
    the 2-factor, so s, y carry 1a/1b, then put u -> 1b, w -> 1a,
    x1 -> 2a.  A K4 completion takes the explicit 7-vertex assignment
    instead, and a ring of diamonds the ring coloring.

Neither the completed graph nor its H is built: `_surgery` cuts H's
edge list from C's share of G's contraction, which the class tree holds,
in G's ids, and numbers its H-edges as `recognition._contract` numbers G's.
The forced class of x1 is realized by transposing whole color classes.

`color_claw_free_cubic` is the one public constructor.  It validates its
input once at entry, through `recognition._structure`, and certifies the
glued coloring once at exit; nothing in between checks an input or
certifies an output.  Every component it hands on comes from a validated
graph, so a failed precondition below the entry check is a bug and raises
InternalInvariantError.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from itertools import chain

from .canonical import _canonical, _color_string, _ring, _two_edge_connected
from .coloring import C1A, C1B, C2A, C2B, SPEC_1122, PackingColoring
from .errors import ClaimViolatedError, InternalInvariantError, VerificationFailedError
from .factorization import _matched_through, _two_factor_through
from .multigraph import MultiGraph
from .oracle import verify
from .recognition import ClassTree, LocalScan, _attachments, _structure


def _check_attachments(at: Mapping[int, int], xs: Sequence[int]) -> None:
    """Raise unless each of xs is a corner, `at` mapping each corner of the
    component's triangles to its triangle, and no two share a triangle.

    An attachment's third edge is its bridge, so it is a corner of a
    triangle, on no diamond, and two attachments are adjacent exactly when
    they share a triangle.
    """
    first: dict[int, int] = {}
    for x in xs:
        t = at.get(x)
        if t is None:
            raise InternalInvariantError(
                f"attachment {x} lies on a diamond of its completed component; "
                "contradicts the structure of claw-free cubic graphs"
            )
        y = first.setdefault(t, x)
        if y != x:
            raise InternalInvariantError(
                f"attachment vertices {y} and {x} are adjacent; "
                "the degree-2 set must be independent"
            )


def _flip(r: tuple[int, ...]) -> tuple[int, ...]:
    """The realization r walked from its other end, each diamond's interiors ascending."""
    f = list(reversed(r))
    f[2::4], f[3::4] = f[3::4], f[2::4]
    return tuple(f)


def _surgery(
    share: LocalScan, at: Mapping[int, int], xs: Sequence[int]
) -> tuple[LocalScan, int, tuple[int, int, int, int] | None]:
    """The completion of a Type III component C, cut from its share of G's contraction.

    `share` holds C's triangles in G's order and its realizations that
    are no H-bridges, `at` maps each corner to its triangle, and xs lists
    C's attachments, x1 first.  Each pair of X the completion joins
    becomes a direct realization.  With |X| odd, x1's triangle (x1, u, w)
    goes, and the realizations of u and w are spliced at the new edge s-y.
    A new realization runs from its lower triangle and lists its diamonds
    as `_walk` does, the triangles keep G's order, and the H-edges are
    sorted by (ends, walk), so H and its numbering are those the completed
    graph's own scan, walk and contraction would give.  Returns the
    numbered contraction, in G's ids, with the triangles kept, the id of
    x1-x2 or of s-y, and the odd gadget (u, w, s, y), None when |X| is
    even.  No graph is built.

    The completion's H has no loop.  C has two or more triangles, joined
    by H-edges that are no bridges, while a loop's triangle meets the rest
    of H only by its third H-edge, a bridge.  A pairing edge joins two
    attachments, which lie on distinct triangles.  The odd splice cannot
    close a loop either: if the strings from u and from w both ended on
    one triangle T, T's third H-edge would be a bridge, and C would have
    exactly two attachments, not an odd number.
    """
    triangles = share.triangles
    odd = len(xs) % 2
    drop = at[xs[0]] if odd else len(triangles)  # the triangle that goes, if any
    kept, toward, gadget = [], {}, None  # toward: u's and w's realizations, run to end there
    for r in share.walk:
        if at[r[0]] == drop:
            toward[r[0]] = _flip(r)
        elif at[r[-1]] == drop:
            toward[r[-1]] = r
        else:
            kept.append(r)
    if odd:
        u, w = (v for v in triangles[drop] if v != xs[0])
        head, tail = toward[u], _flip(toward[w])  # (..., s, u) and (w, y, ...)
        gadget = u, w, head[-2], tail[1]
        kept.append(head[:-1] + tail[1:])
    pairs = []  # (ends, realization) of each H-edge, run from its lower triangle
    for r in chain(kept, zip(xs[odd::2], xs[odd + 1::2])):
        a, b = at[r[0]], at[r[-1]]
        a, b = a - (a > drop), b - (b > drop)
        pairs.append(((a, b), r) if a <= b else ((b, a), _flip(r)))
    forced = pairs[len(kept) - odd]
    pairs.sort()
    triangles = triangles[:drop] + triangles[drop + 1:]
    local = LocalScan(triangles=triangles, walk=[r for _, r in pairs], ends=[e for e, _ in pairs])
    return local, pairs.index(forced), gadget


def _explicit_k4_completion(x1: int, r: tuple[int, ...], root_style: bool) -> dict[int, int]:
    """Explicit coloring of a 7-vertex component whose completion is K4.

    r = (u, s, z, a, y, w) is the H-loop at x1's triangle: one diamond,
    whose interiors z < a are the completion's two vertices other than s
    and y.  The smaller plays the written role first.
    """
    u, s, z, a, y, w = r
    if root_style:
        # explicit root assignment: s -> 1b, y -> 1a, fourth -> 2a, apex -> 2b
        return {s: C1B, y: C1A, a: C2A, z: C2B, u: C1A, w: C1B, x1: C2A}
    # explicit child assignment: apex -> 2a, fourth -> 2b, s -> 1a, y -> 1b
    return {s: C1A, y: C1B, z: C2A, a: C2B, u: C1B, w: C1A, x1: C2A}


def _color_type3(
    share: LocalScan, xs: Sequence[int], forced: int, root_style: bool
) -> dict[int, int]:
    """Colors of a Type III component, keyed by G's ids.

    `share` is the component's share of G's contraction, xs its
    attachment vertices with x1 first, which gets `forced`.  A component
    of one triangle, x1's, holds an H-loop (u, s, ..., y, w), and its
    completion is the loop's string closed up by s-y: K4 for one diamond,
    else a ring.  Any other is completed by `_surgery` and colored
    canonically, as the module docstring says.
    """
    at = {v: t for t, tri in enumerate(share.triangles) for v in tri}
    _check_attachments(at, xs)
    x1 = xs[0]
    fixed: dict[int, int] = {}  # colors of the vertices the completion lacks
    sub: dict[int, int] = {}  # colors of the completion's vertices
    ones = (C1A, C1B)  # the completion's 1a and 1b, as colored in G
    if len(share.triangles) == 1:
        (r,) = share.walk
        gadget = r[0], r[-1], r[1], r[-2]
        if len(r) == 6:
            fixed = _explicit_k4_completion(x1, r, root_style)
        else:
            # s-y closes r's string into a ring: s, ..., y is its cyclic walk
            sub = _ring(r[1:-1]).assignment
    else:
        local, e, gadget = _surgery(share, at, xs)
        through = _matched_through if gadget is None else _two_factor_through
        sub = _canonical(local, through(len(local.triangles), local.ends, e)).assignment
    if sub and gadget is not None:
        u, w, s, y = gadget
        if {sub[s], sub[y]} != {C1A, C1B}:
            raise InternalInvariantError(
                "joined outer neighbors did not receive the two radius-1 colors"
            )
        # s must carry 1a: exchange the completion's 1a and 1b if it does not
        ones = (C1A, C1B) if sub[s] == C1A else (C1B, C1A)
        fixed = {u: C1B, w: C1A, x1: C2A}
    # 2a and 2b are exchanged unless x1 already has `forced`
    first = fixed[x1] if x1 in fixed else sub[x1]
    twos = (C2A, C2B) if first == forced else (C2B, C2A)
    # swap[c] is the color in G of the completion's c, fixed_swap of a fixed c
    swap, fixed_swap = ones + twos, (C1A, C1B) + twos
    colors = {v: swap[c] for v, c in sub.items()}
    for v, c in fixed.items():
        colors[v] = fixed_swap[c]
    return colors


def _free_two_color(g: MultiGraph, assignment: dict[int, int], attachment: int) -> int:
    """A radius-2 class absent from the colored closed neighborhood.

    `attachment` is the parent's corner on the bridge to the class about
    to be colored; the parent is colored, the bridge's string is not.
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
    structure = _structure(g)
    if isinstance(structure, LocalScan):
        coloring = _two_edge_connected(structure)
    else:
        coloring = _color_bridged(g, structure)
    violations = verify(g, SPEC_1122, coloring)
    if violations:
        raise VerificationFailedError(violations)
    return coloring


def _color_bridged(g: MultiGraph, tree: ClassTree) -> PackingColoring:
    """Color each class of the class tree from the root, unverified: the
    string of the bridge it is entered by first, as the module docstring
    says, then a K3 in place and a Type III class from its share."""
    assignment: dict[int, int] = {}
    bridges, ends, via = tree.bridges, tree.ends, tree.via
    for c in tree.order:
        xs, share, i = _attachments(tree, c), tree.shares.get(c), via[c]
        forced = C2A
        if i != -1:
            r = bridges[i]
            down = ends[i][1] == c  # r runs from the parent's corner
            forced = _free_two_color(g, assignment, r[0] if down else r[-1])
            other = C2B if forced == C2A else C2A
            # r[j] is the exterior on r[0]'s side of the diamond at r[j:j + 4]
            _color_string(assignment, r, *((forced, other) if down else (other, forced)), C1A, C1B)
        if share is None:  # a K3, whose corners are xs: x1, then the other two ascending
            assignment[xs[0]], assignment[xs[1]], assignment[xs[2]] = forced, C1A, C1B
        else:
            assignment.update(_color_type3(share, xs, forced, root_style=i == -1))
    return PackingColoring(SPEC_1122, assignment)
