"""Perfect matchings and 2-factors of the cubic multigraph H.

The matching core is Edmonds' blossom algorithm for maximum cardinality
matching: a greedy start, then a BFS alternating forest from each exposed
vertex.  Blossom bases live in a disjoint-set forest (Gabow and Tarjan),
a search resets only the entries it set, and a contraction queues only
the odd vertices of its two paths, so a search costs about the part of
the graph it reaches, not n.  Parallel edges are collapsed for the search.

Every 2-factor comes from one core, `_complement`: the complement of a
perfect matching (Petersen's theorem) that may be kept off a set of
banned slots.  A completed Type III component forces one edge of its H:
`_two_factor_through` onto the 2-factor, by banning it from the matching,
and `_matched_through` into the matching, by banning the other two slots
at one end (Plesnik's theorem).  A banned slot is never matched, so only
the second needs a check that the forced edge landed.

Nothing here is public and nothing here validates its input.  Every
caller hands over the H of a decomposition, which the pipeline's entry
check found cubic and 2-edge-connected, or that of a completed component,
which is so by construction.  A theorem failing on such an H is a bug and
raises InternalInvariantError.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Collection
from typing import NamedTuple

from .errors import InternalInvariantError
from .multigraph import MultiGraph, Slot


class TwoFactor(NamedTuple):
    """A spanning 2-regular sub-multigraph plus its complement matching.

    Each cycle lists (vertex, slot) entries, the slot leading on to the
    next vertex, cyclically; a digon uses two parallel slots.  The perfect
    matching is its slots in sorted order.
    """

    cycles: tuple[tuple[tuple[int, Slot], ...], ...]
    matching: tuple[Slot, ...]


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


def _complement(h: MultiGraph, banned: Collection[Slot] = ()) -> TwoFactor:
    """The 2-factor of a cubic multigraph complementary to a perfect matching.

    No slot in `banned` is matched, so each lies on the 2-factor.  The
    blossom search runs on h's adjacency lists, less the pairs whose copies
    are all banned; with nothing banned it reads h's own lists, uncopied.
    Each matched pair takes its lowest slot that is not banned.  Each cycle
    starts at its smallest vertex and leaves it by that vertex's first
    factor slot in sorted order.  The walk reads a vertex's two factor
    slots as it reaches it and keeps no per-vertex list.  h is cubic, so a
    vertex with three distinct neighbours is on no parallel pair: its
    factor slots are the copy-0 slots to the two neighbours other than its
    mate, read with no multiplicity.  Only a vertex on a parallel pair
    reads `h.slots_at(v)` less its matched slot.
    """
    n = h.n
    hadj = h.adjacency()
    adj = list(hadj) if banned else hadj
    for u, v, _ in banned:
        if all((u, v, k) in banned for k in range(h.multiplicity(u, v))):
            adj[u] = [w for w in adj[u] if w != v]
            adj[v] = [w for w in adj[v] if w != u]
    mate = _max_matching_simple(n, adj)
    if -1 in mate:
        raise InternalInvariantError(
            "no perfect matching avoiding the banned slots; impossible in a "
            "2-edge-connected cubic multigraph (Petersen, Plesnik)"
        )
    matched: list[Slot] = [(0, 0, 0)] * n
    for v, w in enumerate(mate):
        if w > v:
            k = 0
            while (v, w, k) in banned:
                k += 1
            matched[v] = matched[w] = (v, w, k)
    cycles = []
    on_cycle = bytearray(n)
    for start in range(n):
        if on_cycle[start]:
            continue
        cycle: list[tuple[int, Slot]] = []
        v, slot = start, None
        while True:
            nbrs = hadj[v]
            if len(nbrs) == 3:
                # three distinct neighbours: the factor slots lead to the two
                # that are not v's mate, each by the pair's one copy
                x, y, z = nbrs
                m = mate[v]
                p, q = (y, z) if m == x else (x, z) if m == y else (x, y)
                a = (v, p, 0) if v < p else (p, v, 0)
                if a == slot:
                    a = (v, q, 0) if v < q else (q, v, 0)
                slot = a
            else:
                inc = h.slots_at(v)
                inc.remove(matched[v])
                if len(inc) != 2:
                    raise InternalInvariantError(
                        f"vertex {v} has {len(inc)} factor edges, expected 2"
                    )
                a, b = inc
                slot = b if a == slot else a
            on_cycle[v] = 1
            cycle.append((v, slot))
            v = slot[1] if slot[0] == v else slot[0]
            if v == start:
                break
        cycles.append(tuple(cycle))
    pairs = tuple(s for v, s in enumerate(matched) if s[0] == v)
    return TwoFactor(cycles=tuple(cycles), matching=pairs)


def _two_factor_through(h: MultiGraph, e: Slot) -> TwoFactor:
    """A 2-factor of h containing the slot e.

    Bans e and the smallest other slot at vertex 0: by Plesnik's theorem,
    h less any two edges has a perfect matching, whose complement holds both.
    """
    f = next(s for s in h.slots_at(0) if s != e)
    return _complement(h, (e, f))


def _matched_through(h: MultiGraph, e: Slot) -> TwoFactor:
    """The 2-factor of h whose complementary perfect matching contains e.

    Bans the other two slots at e[0], so a perfect matching of the rest,
    which exists by Plesnik's theorem, covers e[0] through e.
    """
    others = [s for s in h.slots_at(e[0]) if s != e]
    if len(others) != 2:
        raise InternalInvariantError(f"vertex {e[0]} does not have 3 slots")
    tf = _complement(h, others)
    if e not in tf.matching:
        raise InternalInvariantError("forced edge missing from matching")
    return tf
