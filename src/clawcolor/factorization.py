"""Perfect matchings and 2-factors of the cubic multigraph H.

The matching core is the classic O(n^3) blossom algorithm for maximum
cardinality matching (BFS alternating forest with base contraction, after
Edmonds).  Parallel edges are collapsed for the search.

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

    Each cycle is a list of (vertex, slot) entries: the slot leads from
    that vertex to the next one (cyclically).  Digons, cycles of length 2
    using two parallel slots, are allowed.  The perfect matching is its
    slots in sorted order.
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
                    match[v] = u
                    match[u] = v
                    break

    def lca(base: list[int], p: list[int], a: int, b: int) -> int:
        seen = set()
        while True:
            a = base[a]
            seen.add(a)
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if b in seen:
                return b
            b = p[match[b]]

    def mark_path(
        base: list[int],
        p: list[int],
        blossom: list[bool],
        v: int,
        b: int,
        child: int,
    ) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def find_augmenting(root: int) -> tuple[int, list[int]]:
        p = [-1] * n
        base = list(range(n))
        used = [False] * n
        used[root] = True
        q = deque([root])
        while q:
            v = q.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    curbase = lca(base, p, v, to)
                    blossom = [False] * n
                    mark_path(base, p, blossom, v, curbase, to)
                    mark_path(base, p, blossom, to, curbase, v)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = curbase
                            if not used[i]:
                                used[i] = True
                                q.append(i)
                elif p[to] == -1:
                    p[to] = v
                    if match[to] == -1:
                        return to, p
                    used[match[to]] = True
                    q.append(match[to])
        return -1, p

    for v in range(n):
        if match[v] != -1:
            continue
        exposed, p = find_augmenting(v)
        if exposed == -1:
            continue
        # flip matched/unmatched along the alternating path back to the root
        cur = exposed
        while cur != -1:
            prev = p[cur]
            nxt = match[prev]
            match[cur] = prev
            match[prev] = cur
            cur = nxt
    return match


def _complement(h: MultiGraph, banned: Collection[Slot] = ()) -> TwoFactor:
    """The 2-factor of a cubic multigraph complementary to a perfect matching.

    No slot in `banned` is matched, so each lies on the 2-factor.  The
    blossom search runs on h's adjacency lists, less the pairs whose
    copies are all banned; with nothing banned it reads h's own lists,
    uncopied, since it never writes them.  Each matched pair takes its
    lowest slot that is not banned.  Each cycle starts at its smallest
    vertex and leaves it by that vertex's first factor slot in sorted
    order.  The factor slots at a vertex are `h.slots_at(v)` less the
    matched one: one pass over its neighbours, which on a simple h looks
    up no multiplicity.
    """
    n = h.n
    adj = list(h.adjacency()) if banned else h.adjacency()
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
    rest = []
    for v in range(n):
        inc = [s for s in h.slots_at(v) if s != matched[v]]
        if len(inc) != 2:
            raise InternalInvariantError(
                f"vertex {v} has {len(inc)} factor edges, expected 2"
            )
        rest.append(inc)

    cycles = []
    on_cycle = bytearray(n)
    for start in range(n):
        if on_cycle[start]:
            continue
        cycle: list[tuple[int, Slot]] = []
        v, slot = start, rest[start][0]
        while True:
            on_cycle[v] = 1
            cycle.append((v, slot))
            v = slot[1] if slot[0] == v else slot[0]
            if v == start:
                break
            a, b = rest[v]
            slot = b if a == slot else a
        cycles.append(tuple(cycle))
    pairs = tuple(s for v, s in enumerate(matched) if s[0] == v)
    return TwoFactor(cycles=tuple(cycles), matching=pairs)


def _two_factor_through(h: MultiGraph, e: Slot) -> TwoFactor:
    """A 2-factor of h containing the slot e.

    Bans e and the lexicographically smallest other slot f at vertex 0
    from the matching.  By Plesnik's theorem, deleting any two edges of a
    2-edge-connected cubic multigraph of even order leaves a graph with a
    1-factor, so a perfect matching of the rest exists and its complement
    contains both e and f.
    """
    f = next(s for s in h.slots_at(0) if s != e)
    return _complement(h, (e, f))


def _matched_through(h: MultiGraph, e: Slot) -> TwoFactor:
    """The 2-factor of h whose complementary perfect matching contains e.

    Bans the other two slots at e's first endpoint; any perfect matching
    of the rest, which exists by Plesnik's theorem, must cover that
    endpoint through e.
    """
    others = [s for s in h.slots_at(e[0]) if s != e]
    if len(others) != 2:
        raise InternalInvariantError(f"vertex {e[0]} does not have 3 slots")
    tf = _complement(h, others)
    if e not in tf.matching:
        raise InternalInvariantError("forced edge missing from matching")
    return tf
