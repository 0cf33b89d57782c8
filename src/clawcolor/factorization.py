"""Perfect matchings and 2-factors of the cubic multigraph H.

The matching core is Edmonds' blossom algorithm for maximum cardinality
matching: a greedy start, then a BFS alternating forest from each exposed
vertex.  Blossom bases live in a disjoint-set forest (Gabow and Tarjan),
a search resets only the entries it set, and a contraction queues only
the odd vertices of its two paths, so a search costs about the part of
the graph it reaches, not n.  Parallel edges are collapsed for the search.

Every 2-factor comes from one core, `_complement`: the complement of a
perfect matching (Petersen's theorem) that may be kept off a set of
banned H-edges.  A completed Type III component forces one edge of its H:
`_two_factor_through` onto the 2-factor, by banning it from the matching,
and `_matched_through` into the matching, by banning the other two edges
at one end (Plesnik's theorem).  Neither checks that the forced edge
landed: a banned edge is never matched, and a perfect matching must
cover the end at which only the forced edge is left.

A 2-factor is handed out as one byte per H-edge id, all that
`colorer._canonical` reads of it: 0 for an edge of the complementary
matching, else which end of the edge its cycle runs from (`_complement`).

H is held as its order n and its edge list `ends`, with no graph object:
H-edge e, its id, joins the two vertices in `ends[e]`, the lower first
(`recognition._contract`'s docstring gives the numbering).

Nothing here is public and nothing here validates its input.  Every
caller hands over the H of a decomposition, which the pipeline's entry
check found cubic and 2-edge-connected, or that of a completed component,
which is so by construction.  A theorem failing on such an H is a bug and
raises InternalInvariantError.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Collection, Sequence

from .errors import InternalInvariantError


def _max_matching_simple(n: int, adj: list[list[int]]) -> list[int]:
    """Maximum cardinality matching on a simple graph; returns mate array."""
    match = [-1] * n

    # greedy warm start
    for v in range(n):
        if match[v] == -1:
            for u in adj[v]:
                if match[u] == -1:
                    match[v], match[u] = u, v
                    break

    # a search's forest parents and its blossoms, as a disjoint-set forest
    # rooted at their bases, are reset through the vertices it set (touched,
    # merged); used holds the root of the last search to queue a vertex
    p = [-1] * n
    base = list(range(n))
    used = [-1] * n

    def find(v):
        while base[v] != v:
            base[v] = v = base[base[v]]
        return v

    def lca(a, b):
        seen = {a := find(a)}
        while match[a] != -1:
            a = find(p[match[a]])
            seen.add(a)
        while (b := find(b)) not in seen:
            b = p[match[b]]
        return b

    def mark_path(v, b, child, marked):
        while (bv := find(v)) != b:
            marked += bv, find(match[v])
            p[v] = child
            touched.append(v)
            child = match[v]
            v = p[child]

    for root in range(n):
        if match[root] != -1:
            continue
        used[root] = root
        touched, merged = [], []
        q = deque((root,))
        exposed = -1
        while q and exposed == -1:
            v = q.popleft()
            bv = base[v]
            if base[bv] != bv:
                bv = find(v)
            for to in adj[v]:
                bt = base[to]
                if base[bt] != bt:
                    bt = find(to)
                if bv == bt or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    # mark both paths before any union, as the second walk
                    # reads the bases as they were; v's base is then bv
                    bv = lca(v, to)
                    marked = []
                    mark_path(v, bv, to, marked)
                    mark_path(to, bv, v, marked)
                    for x in marked:
                        base[x] = bv
                    merged += marked
                    # an unqueued vertex is its own base: queue those in id
                    # order, as a scan over all n vertices would
                    for x in sorted(marked):
                        if used[x] != root:
                            used[x] = root
                            q.append(x)
                elif p[to] == -1:
                    p[to] = v
                    touched.append(to)
                    if match[to] == -1:
                        exposed = to
                        break
                    used[match[to]] = root
                    q.append(match[to])
        # flip matched/unmatched along the alternating path back to the root
        while exposed != -1:
            prev = p[exposed]
            match[exposed], match[prev], exposed = prev, exposed, match[prev]
        for x in touched:
            p[x] = -1
        for x in merged:
            base[x] = x
    return match


def _complement(
    n: int, ends: Sequence[tuple[int, int]], banned: Collection[int] = ()
) -> bytearray:
    """The 2-factor of a cubic multigraph complementary to a perfect matching.

    The multigraph has vertices 0..n-1, and its edge e joins the two
    vertices in `ends[e]`, a pair (a, b), a < b, the pairs sorted, so
    parallel edges take consecutive ids.  No id in `banned` is matched, so
    each lies on the 2-factor.  The blossom search runs on adjacency lists
    built in one pass over the ids, less the banned ids and each pair's
    copies after the first kept: as the pairs are sorted, every list comes
    out sorted, the smaller neighbours first, as `MultiGraph` keeps it.
    Each matched pair takes its lowest id that is not banned, and one pass
    over the ids in ascending order finds it: a vertex's two factor edges
    are its other two ids, ascending.

    Returns one byte per id: 0 for a matched edge, else the way its cycle
    runs along it, 1 from `ends[e][0]` and 2 from `ends[e][1]`.  Each cycle
    starts at its smallest vertex and leaves it by that vertex's lower
    factor edge.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    last = None  # the last pair kept
    for e, pair in enumerate(ends):
        if pair != last and e not in banned:
            a, b = last = pair
            adj[a].append(b)
            adj[b].append(a)
    mate = _max_matching_simple(n, adj)
    del adj  # the search's lists go before the factor is built
    if -1 in mate:
        raise InternalInvariantError(
            "no perfect matching avoiding the banned edges; impossible in a "
            "2-edge-connected cubic multigraph (Petersen, Plesnik)"
        )
    factor = [-1] * (2 * n)  # factor[2v], factor[2v + 1]: v's factor edges, ascending
    for e, (a, b) in enumerate(ends):
        if mate[a] == b and e not in banned:
            mate[a] = -1  # the pair's edge is taken: its other copies are not
        else:
            factor[2 * a + (factor[2 * a] != -1)] = e
            factor[2 * b + (factor[2 * b] != -1)] = e
    way = bytearray(len(ends))
    for start in range(n):
        if way[factor[2 * start]]:  # start's cycle is walked
            continue
        v, e = start, -1
        while True:
            p, q = factor[2 * v], factor[2 * v + 1]
            e = q if p == e else p
            a, b = ends[e]
            way[e], v = (1, b) if a == v else (2, a)
            if v == start:
                break
    return way


def _two_factor_through(n: int, ends: Sequence[tuple[int, int]], e: int) -> bytearray:
    """A 2-factor of the multigraph `_complement` reads containing the edge
    e, as `_complement`'s bytes.

    Bans e and the lowest other id: by Plesnik's theorem, H less any two
    edges has a perfect matching, whose complement holds both.
    """
    return _complement(n, ends, (e, 1 if e == 0 else 0))


def _matched_through(n: int, ends: Sequence[tuple[int, int]], e: int) -> bytearray:
    """The 2-factor of the multigraph `_complement` reads whose complementary
    perfect matching contains e, as `_complement`'s bytes.

    Bans the other two edges at e's lower end a; the rest has a perfect
    matching by Plesnik's theorem.  It needs no check that e is matched.
    The bans leave e as the only edge at a, and a perfect matching must
    cover a, so a is matched along e's pair.  `_complement` takes the
    lowest unbanned id of a matched pair, and e's parallel copies are
    banned, so it takes e.
    """
    a = ends[e][0]
    return _complement(n, ends, [f for f, pair in enumerate(ends) if a in pair and f != e])
