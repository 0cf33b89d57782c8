"""Perfect matchings and 2-factors on cubic multigraphs.

The matching core is the classic O(n^3) blossom algorithm for maximum
cardinality matching (BFS alternating forest with base contraction, after
Edmonds).  Parallel edges are collapsed for the search and matched pairs
are re-attributed to the lowest available edge slot.

2-factors come from the complement of a perfect matching.  Forcing an
edge onto a 2-factor uses Plesnik's theorem: in a 2-edge-connected cubic
multigraph of even order, deleting any two edges leaves a graph with a
1-factor, whose complement is a 2-factor through both deleted edges.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import (
    EdgeAbsentError,
    InternalInvariantError,
    NoPerfectMatchingError,
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

    def pairs(self) -> list[tuple[int, int]]:
        return [(u, v) for u, v, _ in self.slots]


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
    adj = [list(g.neighbors(v)) for v in range(g.n)]
    mate = _max_matching_simple(g.n, adj)
    slots = tuple(
        sorted((v, mate[v], 0) for v in range(g.n) if mate[v] > v)
    )
    perfect = g.n % 2 == 0 and all(m != -1 for m in mate)
    return Matching(slots=slots, perfect=perfect)


def perfect_matching(g: MultiGraph) -> Matching | None:
    """A perfect matching if one exists, else None."""
    m = maximum_matching(g)
    return m if m.perfect else None


def _cycles_from_slots(g: MultiGraph, factor: set[Slot]) -> tuple:
    """Decompose a 2-regular slot set into vertex/slot cycles."""
    incident: dict[int, list[Slot]] = {v: [] for v in range(g.n)}
    for s in sorted(factor):
        incident[s[0]].append(s)
        incident[s[1]].append(s)
    for v, inc in incident.items():
        if len(inc) != 2:
            raise InternalInvariantError(
                f"vertex {v} has {len(inc)} factor edges, expected 2"
            )
    unused = set(factor)
    cycles = []
    for start in range(g.n):
        starters = [s for s in incident[start] if s in unused]
        if not starters:
            continue
        cycle: list[tuple[int, Slot]] = []
        v = start
        slot = starters[0]
        while True:
            cycle.append((v, slot))
            unused.discard(slot)
            v = slot[1] if slot[0] == v else slot[0]
            if v == start:
                break
            nxt = [s for s in incident[v] if s in unused]
            slot = nxt[0]
        cycles.append(tuple(cycle))
    if unused:
        raise InternalInvariantError("2-factor decomposition left unused slots")
    return tuple(cycles)


def _reattribute(g: MultiGraph, pairs: list[tuple[int, int]], banned: set[Slot]) -> list[Slot]:
    """Map matched vertex pairs to the lowest non-banned slot of each pair."""
    out = []
    for u, v in pairs:
        u, v = (u, v) if u < v else (v, u)
        for k in range(g.multiplicity(u, v)):
            if (u, v, k) not in banned:
                out.append((u, v, k))
                break
        else:
            raise InternalInvariantError(f"no available slot for matched pair {(u, v)}")
    return out


def two_factor(g: MultiGraph) -> TwoFactor:
    """A 2-factor of a bridgeless cubic multigraph (Petersen's theorem)."""
    if not is_cubic(g):
        raise NotCubicError("2-factor requires a cubic multigraph")
    if not _connected_and_bridgeless(g):
        raise NotBridgelessError("2-factor requires a bridgeless graph")
    return _two_factor(g)


def _two_factor(g: MultiGraph) -> TwoFactor:
    """`two_factor` on a multigraph already known to be cubic and bridgeless."""
    m = perfect_matching(g)
    if m is None:
        raise NoPerfectMatchingError(
            "no perfect matching; impossible for a bridgeless cubic multigraph"
        )
    matched = set(_reattribute(g, m.pairs(), banned=set()))
    factor = {s for s in g.slots() if s not in matched}
    cycles = _cycles_from_slots(g, factor)
    return TwoFactor(cycles=cycles, matching=Matching(tuple(sorted(matched)), True))


def two_factor_through(g: MultiGraph, e: Slot) -> TwoFactor:
    """A 2-factor containing the given edge slot.

    Deletes e and the lexicographically smallest other slot f, finds a
    perfect matching of the remainder (guaranteed by Plesnik's theorem),
    and returns its complement, which contains both e and f.
    """
    _require_slot(g, e)
    return _two_factor_through(g, e)


def _two_factor_through(g: MultiGraph, e: Slot) -> TwoFactor:
    """`two_factor_through` on an already checked multigraph and slot."""
    all_slots = g.slots()
    f = next(s for s in all_slots if s != e)
    reduced = g.without_slots([e, f])
    m = perfect_matching(reduced)
    if m is None:
        raise InternalInvariantError(
            "matching after removing two edges must exist in a 2-edge-connected "
            "cubic multigraph of even order"
        )
    matched = set(_reattribute(g, m.pairs(), banned={e, f}))
    factor = {s for s in all_slots if s not in matched}
    if e not in factor:
        raise InternalInvariantError("forced edge missing from 2-factor")
    cycles = _cycles_from_slots(g, factor)
    return TwoFactor(cycles=cycles, matching=Matching(tuple(sorted(matched)), True))


def matching_through(g: MultiGraph, e: Slot) -> Matching:
    """A perfect matching containing the given edge slot.

    Deletes the other two slots at e's first endpoint; any perfect matching
    of the remainder must cover that endpoint through e.
    """
    _require_slot(g, e)
    return _matching_through(g, e)


def _matching_through(g: MultiGraph, e: Slot) -> Matching:
    """`matching_through` on an already checked multigraph and slot."""
    all_slots = g.slots()
    hu = e[0]
    others = [s for s in all_slots if s != e and hu in (s[0], s[1])]
    if len(others) != 2:
        raise InternalInvariantError(f"vertex {hu} does not have 3 slots")
    reduced = g.without_slots(others)
    m = perfect_matching(reduced)
    if m is None:
        raise InternalInvariantError(
            "matching after removing two edges must exist in a 2-edge-connected "
            "cubic multigraph of even order"
        )
    matched = _reattribute(g, m.pairs(), banned=set(others))
    if e not in matched:
        raise InternalInvariantError("forced edge missing from matching")
    return Matching(tuple(sorted(matched)), True)


def factor_from_matching(g: MultiGraph, m: Matching) -> TwoFactor:
    """The 2-factor complementary to a perfect matching of a cubic multigraph."""
    matched = set(m.slots)
    factor = {s for s in g.slots() if s not in matched}
    cycles = _cycles_from_slots(g, factor)
    return TwoFactor(cycles=cycles, matching=m)


def _require_slot(g: MultiGraph, e: Slot) -> None:
    """g is cubic and 2-edge-connected, and e is one of its slots."""
    if not is_cubic(g):
        raise NotCubicError("operation requires a cubic multigraph")
    if not _connected_and_bridgeless(g):
        raise NotTwoEdgeConnectedError("operation requires a 2-edge-connected graph")
    if e not in g.slots():
        raise EdgeAbsentError(e[0], e[1])
