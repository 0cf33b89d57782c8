"""Structure of 2-edge-connected claw-free cubic graphs (Oum's theorem).

Every such graph is K4, a ring of diamonds, or is built from a
2-edge-connected cubic multigraph H by replacing each H-vertex with a
triangle and some H-edges with strings of diamonds.  `oum_decompose`
recovers that structure: the triangles, the multigraph H, and for every
H-edge its realization in G (a direct edge or an oriented diamond string).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .errors import (
    NotClawFreeError,
    NotCubicError,
    NotSimpleError,
    NotTwoEdgeConnectedError,
    StructureViolationError,
)
from .multigraph import MultiGraph, Slot, is_connected, is_cubic
from .recognition import Diamond, find_bridges, find_claw, find_diamonds, is_k4


class Variant(enum.Enum):
    K4 = "K4"
    RING = "ring-of-diamonds"
    BUILT = "built"


@dataclass(frozen=True)
class StringDiamond:
    """One diamond of a string, oriented along the realization.

    `entry` is the exterior nearer end_u of the owning HEdge, `exit` the
    exterior nearer end_v; `interiors` are the two adjacent degree-3
    vertices (sorted, no inherent orientation).
    """

    entry: int
    interiors: tuple[int, int]
    exit: int

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset((self.entry, self.exit) + self.interiors)

    def reversed(self) -> "StringDiamond":
        return StringDiamond(self.exit, self.interiors, self.entry)


@dataclass(frozen=True)
class HEdge:
    """An H-edge slot together with its realization in G.

    end_u is the triangle corner in triangle slot[0], end_v the corner in
    triangle slot[1].  diamonds (possibly empty) run from the end_u side
    to the end_v side; end_u is adjacent to diamonds[0].entry and end_v to
    diamonds[-1].exit, while consecutive diamonds meet exit -> entry.
    """

    slot: Slot
    end_u: int
    end_v: int
    diamonds: tuple[StringDiamond, ...] = ()

    @property
    def string_length(self) -> int:
        return len(self.diamonds)

    def connector_edges(self) -> list[tuple[int, int]]:
        """The G-edges realizing this H-edge (excluding diamond-internal)."""
        chain = [self.end_u]
        for d in self.diamonds:
            chain.extend((d.entry, d.exit))
        chain.append(self.end_v)
        return [
            (min(a, b), max(a, b)) for a, b in zip(chain[::2], chain[1::2])
        ]


@dataclass(frozen=True)
class Decomposition:
    variant: Variant
    g: MultiGraph
    ring_diamonds: tuple[Diamond, ...] = ()
    triangles: tuple[tuple[int, int, int], ...] = ()
    h: MultiGraph | None = None
    h_edges: tuple[HEdge, ...] = ()
    triangle_of: dict[int, int] = field(default_factory=dict)
    slot_edge: dict[Slot, HEdge] = field(default_factory=dict)
    edge_slot: dict[tuple[int, int], Slot] = field(default_factory=dict)
    attach: dict[tuple[int, Slot], int] = field(default_factory=dict)

    def string_lengths(self) -> list[int]:
        """Lengths of the non-empty diamond strings, sorted."""
        return sorted(
            e.string_length for e in self.h_edges if e.string_length > 0
        )


def _validate_two_edge_connected_cfc(g: MultiGraph) -> None:
    if not g.is_simple():
        raise NotSimpleError("structure decomposition requires a simple graph")
    if not is_connected(g):
        raise NotTwoEdgeConnectedError("input graph is disconnected")
    if not is_cubic(g):
        raise NotCubicError("input graph is not cubic")
    claw = find_claw(g)
    if claw is not None:
        raise NotClawFreeError(claw)
    if find_bridges(g):
        raise NotTwoEdgeConnectedError("input graph has bridges")


def oum_decompose(g: MultiGraph) -> Decomposition:
    """Decompose a 2-edge-connected, claw-free, cubic graph.

    Returns the K4 variant, the ring-of-diamonds variant, or the built
    variant with the underlying cubic multigraph H reconstructed.  Raises
    StructureViolationError if the triangle/string partition fails, which
    on a validated input indicates a bug.
    """
    _validate_two_edge_connected_cfc(g)
    return _decompose(g)


def _decompose(g: MultiGraph) -> Decomposition:
    """`oum_decompose` on a graph already known to be valid input for it."""
    if is_k4(g):
        return Decomposition(variant=Variant.K4, g=g)

    diamonds = find_diamonds(g)
    diamond_of: dict[int, int] = {}
    for i, d in enumerate(diamonds):
        for v in d.vertices:
            if v in diamond_of:
                raise StructureViolationError(
                    f"vertex {v} lies on two diamonds; only K4 allows that"
                )
            diamond_of[v] = i

    if len(diamond_of) == g.n:
        return Decomposition(
            variant=Variant.RING, g=g, ring_diamonds=tuple(diamonds)
        )

    # group the non-diamond vertices into their unique triangles
    triangle_of: dict[int, int] = {}
    triangles: list[tuple[int, int, int]] = []
    for v in range(g.n):
        if v in diamond_of or v in triangle_of:
            continue
        mates = [
            w
            for w in g.neighbors(v)
            if w not in diamond_of and w not in triangle_of
        ]
        tri = None
        for i in range(len(mates)):
            for j in range(i + 1, len(mates)):
                if g.has_edge(mates[i], mates[j]):
                    tri = (v, mates[i], mates[j])
                    break
            if tri:
                break
        if tri is None:
            raise StructureViolationError(
                f"vertex {v} is on no diamond and no triangle of free vertices"
            )
        idx = len(triangles)
        triangles.append(tuple(sorted(tri)))
        for x in tri:
            triangle_of[x] = idx

    # third neighbor of each triangle corner (the one outside its triangle)
    third: dict[int, int] = {}
    for tri in triangles:
        tset = set(tri)
        for c in tri:
            outs = [w for w in g.neighbors(c) if w not in tset]
            if len(outs) != 1:
                raise StructureViolationError(
                    f"triangle corner {c} has {len(outs)} outside edges"
                )
            third[c] = outs[0]

    # walk realizations: direct edges or diamond strings, corner to corner
    consumed: set[int] = set()
    used_diamonds: set[int] = set()
    raw: list[tuple[int, int, list[StringDiamond]]] = []
    for tri in triangles:
        for c in tri:
            if c in consumed:
                continue
            cur = third[c]
            seq: list[StringDiamond] = []
            while cur in diamond_of:
                d = diamonds[diamond_of[cur]]
                if cur not in d.exteriors:
                    raise StructureViolationError(
                        f"string enters diamond at interior vertex {cur}"
                    )
                exit_ = d.exteriors[0] if d.exteriors[1] == cur else d.exteriors[1]
                seq.append(StringDiamond(cur, d.interiors, exit_))
                used_diamonds.add(diamond_of[cur])
                outs = [w for w in g.neighbors(exit_) if w not in d.vertices]
                if len(outs) != 1:
                    raise StructureViolationError(
                        f"diamond exterior {exit_} has {len(outs)} outside edges"
                    )
                cur = outs[0]
            if cur not in triangle_of:
                raise StructureViolationError(
                    f"realization starting at corner {c} ends at non-corner {cur}"
                )
            consumed.add(c)
            consumed.add(cur)
            raw.append((c, cur, seq))

    if len(used_diamonds) != len(diamonds):
        raise StructureViolationError("some diamonds belong to no string")

    # orient realizations toward the lower triangle index and assign slots
    oriented: list[tuple[int, int, int, int, tuple[StringDiamond, ...]]] = []
    for end_a, end_b, seq in raw:
        ha, hb = triangle_of[end_a], triangle_of[end_b]
        if ha == hb:
            raise StructureViolationError(
                f"H-edge loop at triangle {ha}; impossible in a bridgeless graph"
            )
        if ha > hb:
            ha, hb = hb, ha
            end_a, end_b = end_b, end_a
            seq = [d.reversed() for d in reversed(seq)]
        oriented.append((ha, hb, end_a, end_b, tuple(seq)))

    oriented.sort(key=lambda t: (t[0], t[1], t[2], t[3]))
    h_edges: list[HEdge] = []
    counts: dict[tuple[int, int], int] = {}
    for ha, hb, end_a, end_b, seq in oriented:
        k = counts.get((ha, hb), 0)
        counts[(ha, hb)] = k + 1
        h_edges.append(HEdge(slot=(ha, hb, k), end_u=end_a, end_v=end_b, diamonds=seq))

    h = MultiGraph(len(triangles), [(e.slot[0], e.slot[1]) for e in h_edges])
    if not is_cubic(h):
        raise StructureViolationError("reconstructed multigraph H is not cubic")
    if find_bridges(h):
        raise StructureViolationError("reconstructed multigraph H has bridges")

    slot_edge = {e.slot: e for e in h_edges}
    attach: dict[tuple[int, Slot], int] = {}
    edge_slot: dict[tuple[int, int], Slot] = {}
    for e in h_edges:
        attach[(e.slot[0], e.slot)] = e.end_u
        attach[(e.slot[1], e.slot)] = e.end_v
        for pair in e.connector_edges():
            edge_slot[pair] = e.slot

    return Decomposition(
        variant=Variant.BUILT,
        g=g,
        triangles=tuple(triangles),
        h=h,
        h_edges=tuple(h_edges),
        triangle_of=triangle_of,
        slot_edge=slot_edge,
        edge_slot=edge_slot,
        attach=attach,
    )
