"""(1,1,2,2)-coloring of arbitrary connected claw-free cubic graphs.

A 2-edge-connected graph, and each completed Type III component, is
colored by one of three constructions: the trivial K4 coloring, the
ring-of-diamonds coloring (interiors take the radius-2 classes, each
inter-diamond edge takes both radius-1 classes), and the canonical
coloring driven by a 2-factor of the underlying multigraph H:

  * each matching edge's two triangle corners get 2a/2b, with Type 2
    strings alternating 2b/2a along their exteriors and 1a/1b inside;
  * around each 2-factor cycle, triangle corners take roles entry -> 1a
    and exit -> 1b, with Type 1 strings taking 1a/1b on their exteriors
    and 2a/2b inside.

Corners and diamonds are read by position from the realization tuples
(`recognition._walk` gives the format): H-edge e is `walk[e]`, run from
triangle `ends[e][0]` (`recognition._contract`'s docstring).  A
bridgeless graph's coloring takes `_complement`'s 2-factor; a ring, of G
or of a completion, is colored from one cyclic walk by `_ring`.

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
2-edge-connected claw-free cubic graph and colored by one rule, from a
2-factor of its H with one edge forced (Plesnik's theorem) or as a ring:

  * |X| even: add a pairing edge on each consecutive pair of X; x1-x2 is
    forced into the perfect matching of a canonical coloring, so x1, x2
    carry 2a/2b.
  * |X| odd: remove x1 and its two neighbors u, w, join their outer
    neighbors s, y by an edge, pair up the rest of X.  A component of
    one triangle completes to a ring, K4 for one diamond, and any other
    is colored canonically with s-y forced onto the 2-factor, so s and y
    carry 1a and 1b either way.  Then u takes y's class, w takes s's
    and x1 takes 2a.
  * 2a and 2b are exchanged over the whole component unless x1 already
    has the forced class.

The odd gadget needs no check of its own.  u lies 2 from y and w 2 from
s, so were s or y to carry a radius-2 class, or both one radius-1 class
(putting u's class next to s), the exit certificate would find the
violation and raise VerificationFailedError.

Neither the completed graph nor its H is built: `_surgery` cuts H's
edge list from C's share of G's contraction, which the class tree holds,
in G's ids, and numbers its H-edges as `recognition._contract` numbers G's.

`color_claw_free_cubic` is the one public constructor. It validates its
input once at entry, through `recognition._structure`, and certifies the
glued coloring once at exit, through `oracle._certified`; nothing in
between checks an input or certifies an output. The coloring is one
bytearray of n labels, UNCOLORED until a core writes a class there:
every core writes into it in G's ids, a Type III component too, whose 2a
and 2b are exchanged in place over its corners and its strings'
diamonds. No mapping of labels is built; the result is a
`coloring.Labels` over its bytes. The cores trust what the entry check
and the class tree guarantee. A core that leaves a vertex uncolored,
colors one outside G, uses a class outside the spec or gives two close
vertices one class is caught by the certificate, which raises
InternalInvariantError: a bug, never bad input.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from itertools import chain

from .coloring import C1A, C1B, C2A, C2B, SPEC_1122, UNCOLORED, Labels, PackingColoring
from .factorization import TwoFactor, _complement, _matched_through, _two_factor_through
from .multigraph import MultiGraph
from .oracle import _certified
from .recognition import ClassTree, LocalScan, _attachments, _structure

# _EXCHANGE_2A_2B[c]: class c with 2a and 2b exchanged
_EXCHANGE_2A_2B = bytes.maketrans(bytes((C2A, C2B)), bytes((C2B, C2A)))


def _k4(labels: bytearray) -> None:
    """K4 takes one vertex in each class."""
    labels[:4] = bytes((C1A, C1B, C2A, C2B))


def _ring(labels: bytearray, ring: tuple[int, ...]) -> None:
    """Color a ring of diamonds from its cyclic walk (`recognition._ring_walk`).

    Interiors get 2a and 2b; an edge between diamonds gets 1a at its
    smaller end and 1b at the other.
    """
    for j in range(0, len(ring), 4):
        x, y = ring[j - 1], ring[j]  # the previous diamond's exit and this one's entry
        labels[x], labels[y] = (C1A, C1B) if x < y else (C1B, C1A)
        labels[ring[j + 1]] = C2A
        labels[ring[j + 2]] = C2B


def _canonical(labels: bytearray, local: LocalScan, factor: TwoFactor) -> None:
    """The canonical coloring of a built graph for a 2-factor of its H.

    `local` is a numbered contraction (`recognition._contract`, or
    `_surgery` for a completion) and `factor` a 2-factor of its
    H.
    """
    walk, ends = local.walk, local.ends

    # matching edges: the corner in the lower-indexed triangle gets 2a
    for e in factor.matching:
        r = walk[e]
        labels[r[0]] = C2A
        labels[r[-1]] = C2B
        _color_string(labels, r, C2B, C2A, C1A, C1B)

    # cycles: each edge runs from hv, whose exit corner is 1b, to the next
    # H-vertex, whose entry corner is 1a; r runs from ends[e][0]
    for cycle in factor.cycles:
        for hv, e in cycle:
            r = walk[e]
            first, last = (C1B, C1A) if hv == ends[e][0] else (C1A, C1B)
            labels[r[0]] = first
            labels[r[-1]] = last
            if len(r) > 2:
                _color_string(labels, r, last, first, C2A, C2B)


def _color_string(
    labels: bytearray, r: tuple[int, ...], entry: int, exit_: int, first: int, second: int
) -> None:
    """Color each diamond of the realization r: its exteriors r[j] and
    r[j + 3] get `entry` and `exit_`, its interiors `first` and `second`."""
    for j in range(1, len(r) - 1, 4):
        labels[r[j]] = entry
        labels[r[j + 3]] = exit_
        labels[r[j + 1]] = first
        labels[r[j + 2]] = second


def _two_edge_connected(labels: bytearray, local: LocalScan) -> None:
    """Dispatch on what the numbered contraction of a bridgeless graph holds:
    H's triangles, a ring's one cyclic walk, or nothing, for K4."""
    if local.triangles:
        _canonical(labels, local, _complement(len(local.triangles), local.ends))
    elif local.walk:
        _ring(labels, local.walk[0])
    else:
        _k4(labels)


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


def _color_type3(labels: bytearray, share: LocalScan, xs: Sequence[int], forced: int) -> None:
    """Color a Type III component in G's ids.

    `share` is the component's share of G's contraction, xs its
    attachment vertices with x1 first, which gets `forced`.  A component
    of one triangle, x1's, holds an H-loop (u, s, ..., y, w), and its
    completion is the loop's string closed up by s-y, a ring: K4 for one
    diamond.  Any other is completed by `_surgery` and colored
    canonically, as the module docstring says.

    xs is not checked: the class tree guarantees what `_surgery` needs.
    Each attachment is the end corner of a bridge's realization, so it is
    a corner of one of the class's triangles and `at` holds it.  No two
    lie on one triangle: two bridges at a triangle would make its third
    H-edge a bridge as well, since a cycle through that edge would leave
    the triangle by a bridge, and the triangle's class would be a lone K3.
    """
    at = {v: t for t, tri in enumerate(share.triangles) for v in tri}
    x1 = xs[0]
    if len(share.triangles) == 1:
        (r,) = share.walk
        gadget = r[0], r[-1], r[1], r[-2]
        # s-y closes r's string into a ring: s, ..., y is its cyclic walk
        _ring(labels, r[1:-1])
    else:
        local, e, gadget = _surgery(share, at, xs)
        through = _matched_through if gadget is None else _two_factor_through
        _canonical(labels, local, through(len(local.triangles), local.ends, e))
    if gadget is not None:
        u, w, s, y = gadget
        # s and y, one edge apart in the completion, hold 1a and 1b; if
        # not, u (2 from y) or w (2 from s) repeats a radius-2 class, or u
        # sits next to s in its class, and the exit certificate says so
        labels[u], labels[w], labels[x1] = labels[y], labels[s], C2A
    if labels[x1] != forced:
        # C's vertices, each once: its corners and its strings' diamonds
        for v in chain(at, chain.from_iterable(r[1:-1] for r in share.walk)):
            labels[v] = _EXCHANGE_2A_2B[labels[v]]


def _free_two_color(g: MultiGraph, labels: bytearray, attachment: int) -> int:
    """A radius-2 class absent from the colored closed neighborhood.

    `attachment` is the parent's corner on the bridge to the class about
    to be colored; the parent is colored, the bridge's string is not, so
    its first vertex reads UNCOLORED.  Were both classes present, the 2b
    returned would go to a neighbor of `attachment`, the string's first
    vertex or x1, within 2 of the 2b already there, and the exit
    certificate would report it.
    """
    present = (labels[attachment], *map(labels.__getitem__, g.neighbors(attachment)))
    return C2B if C2A in present else C2A


def color_claw_free_cubic(g: MultiGraph) -> PackingColoring:
    """A verified (1,1,2,2)-coloring of a connected claw-free cubic graph."""
    structure = _structure(g)
    labels = bytearray([UNCOLORED]) * g.n
    if isinstance(structure, LocalScan):
        _two_edge_connected(labels, structure)
    else:
        _color_bridged(labels, g, structure)
    return _certified(g, SPEC_1122, PackingColoring(SPEC_1122, Labels(labels)))


def _color_bridged(labels: bytearray, g: MultiGraph, tree: ClassTree) -> None:
    """Color each class of the class tree from the root, unverified: the
    string of the bridge it is entered by first, as the module docstring
    says, then a K3 in place and a Type III class from its share."""
    bridges, ends, via = tree.bridges, tree.ends, tree.via
    for c in tree.order:
        xs, share, i = _attachments(tree, c), tree.shares.get(c), via[c]
        forced = C2A
        if i != -1:
            r = bridges[i]
            down = ends[i][1] == c  # r runs from the parent's corner
            forced = _free_two_color(g, labels, r[0] if down else r[-1])
            other = C2B if forced == C2A else C2A
            # r[j] is the exterior on r[0]'s side of the diamond at r[j:j + 4]
            _color_string(labels, r, *((forced, other) if down else (other, forced)), C1A, C1B)
        if share is None:  # a K3, whose corners are xs: x1, then the other two ascending
            labels[xs[0]], labels[xs[1]], labels[xs[2]] = forced, C1A, C1B
        else:
            _color_type3(labels, share, xs, forced)
