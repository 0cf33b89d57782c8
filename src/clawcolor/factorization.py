"""Perfect matchings and 2-factors on cubic multigraphs.

The matching core is the classic O(n^3) blossom algorithm for maximum
cardinality matching (BFS alternating forest with base contraction, after
Edmonds).  Parallel edges are collapsed for the search.

Every 2-factor comes from one core, `_complement`: the complement of a
perfect matching (Petersen's theorem) that may be kept off a set of
banned slots.  Forcing an edge onto a 2-factor bans it and one other
slot; by Plesnik's theorem, deleting any two edges of a 2-edge-connected
cubic multigraph of even order leaves a graph with a 1-factor, whose
complement is a 2-factor through both.  Forcing an edge into the
matching bans the other two slots at one of its ends.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Collection
from dataclasses import dataclass

from .errors import (
    EdgeAbsentError,
    InternalInvariantError,
    NotBridgelessError,
    NotCubicError,
    NotTwoEdgeConnectedError,
)
from .multigraph import MultiGraph, Slot, is_cubic
from .recognition import _connected_and_bridgeless


@dataclass(frozen=True)
class Matching:
    """A set of vertex-disjoint edge slots."""

    slots: tuple[Slot, ...]
    perfect: bool


@dataclass(frozen=True)
class TwoFactor:
    """A spanning 2-regular sub-multigraph plus its complement matching.

    Each cycle is a list of (vertex, slot) entries: the slot leads from
    that vertex to the next one (cyclically).  Digons, cycles of length 2
    using two parallel slots, are allowed.
    """

    cycles: tuple[tuple[tuple[int, Slot], ...], ...]
    matching: Matching

    def slots(self) -> set[Slot]:
        return {slot for cycle in self.cycles for _, slot in cycle}


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


def maximum_matching(g: MultiGraph) -> Matching:
    """Maximum cardinality matching; parallel copies collapse to one edge."""
    mate = _max_matching_simple(g.n, g.adjacency())
    slots = tuple(
        sorted((v, mate[v], 0) for v in range(g.n) if mate[v] > v)
    )
    perfect = g.n % 2 == 0 and all(m != -1 for m in mate)
    return Matching(slots=slots, perfect=perfect)


def perfect_matching(g: MultiGraph) -> Matching | None:
    """A perfect matching if one exists, else None."""
    m = maximum_matching(g)
    return m if m.perfect else None


def _slots_at(h: MultiGraph, v: int) -> list[Slot]:
    """The slots at v, by neighbour and then by copy: their sorted order."""
    return [
        (v, w, k) if v < w else (w, v, k)
        for w in h.neighbors(v)
        for k in range(h.multiplicity(v, w))
    ]


def _complement(h: MultiGraph, banned: Collection[Slot] = ()) -> TwoFactor:
    """The 2-factor of a cubic multigraph complementary to a perfect matching.

    No slot in `banned` is matched, so each lies on the 2-factor.  The
    blossom search runs on h's adjacency lists, less the pairs whose
    copies are all banned; each matched pair takes its lowest slot that is
    not banned.  Each cycle starts at its smallest vertex and leaves it by
    that vertex's first factor slot in sorted order.
    """
    n = h.n
    adj = list(h.adjacency())
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
        inc = [s for s in _slots_at(h, v) if s != matched[v]]
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
    return TwoFactor(cycles=tuple(cycles), matching=Matching(pairs, True))


def two_factor(g: MultiGraph) -> TwoFactor:
    """A 2-factor of a bridgeless cubic multigraph (Petersen's theorem)."""
    if not is_cubic(g):
        raise NotCubicError("2-factor requires a cubic multigraph")
    if not _connected_and_bridgeless(g):
        raise NotBridgelessError("2-factor requires a bridgeless graph")
    return _complement(g)


def two_factor_through(g: MultiGraph, e: Slot) -> TwoFactor:
    """A 2-factor containing the given edge slot.

    Bans e and the lexicographically smallest other slot f from the
    matching (a perfect matching of the rest exists by Plesnik's theorem),
    so its complement contains both e and f.
    """
    _require_slot(g, e)
    return _two_factor_through(g, e)


def _two_factor_through(h: MultiGraph, e: Slot) -> TwoFactor:
    """`two_factor_through` on an already checked multigraph and slot."""
    f = next(s for s in _slots_at(h, 0) if s != e)
    tf = _complement(h, (e, f))
    if e in tf.matching.slots:
        raise InternalInvariantError("forced edge missing from 2-factor")
    return tf


def matching_through(g: MultiGraph, e: Slot) -> Matching:
    """A perfect matching containing the given edge slot.

    Bans the other two slots at e's first endpoint; any perfect matching
    of the rest must cover that endpoint through e.
    """
    _require_slot(g, e)
    return _matched_through(g, e).matching


def _matched_through(h: MultiGraph, e: Slot) -> TwoFactor:
    """The 2-factor whose matching contains e, on an already checked h and e."""
    others = [s for s in _slots_at(h, e[0]) if s != e]
    if len(others) != 2:
        raise InternalInvariantError(f"vertex {e[0]} does not have 3 slots")
    tf = _complement(h, others)
    if e not in tf.matching.slots:
        raise InternalInvariantError("forced edge missing from matching")
    return tf


def _require_slot(g: MultiGraph, e: Slot) -> None:
    """g is cubic and 2-edge-connected, and e is one of its slots.

    A slot is a tuple (u, v, k) of ids u < v in range(n) and k in
    range(multiplicity(u, v)).  Membership in a range compares as the
    sorted slot list did, so an end of None or a k of 0.5 is no slot.
    """
    if not is_cubic(g):
        raise NotCubicError("operation requires a cubic multigraph")
    if not _connected_and_bridgeless(g):
        raise NotTwoEdgeConnectedError("operation requires a 2-edge-connected graph")
    if not (
        isinstance(e, tuple)
        and len(e) == 3
        and e[0] in range(g.n)
        and e[1] in range(g.n)
        and e[0] < e[1]
        and e[2] in range(g.multiplicity(e[0], e[1]))
    ):
        raise EdgeAbsentError(e[0], e[1])
