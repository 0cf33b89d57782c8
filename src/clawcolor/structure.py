"""Structure of 2-edge-connected claw-free cubic graphs (Oum's theorem).

Every such graph is K4, a ring of diamonds, or is built from a
2-edge-connected cubic multigraph H by replacing each H-vertex with a
triangle and some H-edges with strings of diamonds.  `oum_decompose`
recovers that structure: the triangles, the multigraph H, and for every
H-edge its realization in G (a direct edge or an oriented diamond string).

The triangles and diamonds come from `recognition._local_scan`, as lists
indexed per vertex, and the realizations from `recognition._walk`, which
goes from each triangle corner's outside neighbor through any diamond
string to the next corner.  The entry check `_require_claw_free_cubic`
runs both and builds H to find the bridges; `color_claw_free_cubic` hands
all three over, so G is neither walked nor contracted twice.  A completed
component of a bridged graph is scanned and walked here.

The reconstructed H is cubic and bridgeless by construction, so neither is
checked again:

  * Cubic.  The walk raises unless each triangle corner has exactly one
    outside edge, and the orientation step rejects H-loops.  A walk is
    deterministic and reversible, so each corner ends exactly one
    realization.
  * Bridgeless.  An edge cut of H lifts to an edge cut of G of the same
    size, so G's connectivity and bridges are read from H: on the pipeline
    path the entry check searched H, not G, and found no bridge.  For a
    completed component of a bridged graph, the construction of the
    completion guarantees it.  A violation would surface as
    `_complement`'s InternalInvariantError or as the exit certificate's
    VerificationFailedError.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .errors import (
    DisconnectedError,
    NotTwoEdgeConnectedError,
    StructureViolationError,
)
from .multigraph import MultiGraph, Slot
from .recognition import (
    Diamond,
    LocalScan,
    _local_scan,
    _require_claw_free_cubic,
    _walk,
    is_k4,
)


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
    ring_diamonds: tuple[Diamond, ...] = ()
    triangles: tuple[tuple[int, int, int], ...] = ()
    h: MultiGraph | None = None
    h_edges: tuple[HEdge, ...] = ()
    slot_edge: dict[Slot, HEdge] = field(default_factory=dict)

    def string_lengths(self) -> list[int]:
        """Lengths of the non-empty diamond strings, sorted."""
        return sorted(
            e.string_length for e in self.h_edges if e.string_length > 0
        )


def oum_decompose(g: MultiGraph) -> Decomposition:
    """Decompose a 2-edge-connected, claw-free, cubic graph.

    Returns the K4 variant, the ring-of-diamonds variant, or the built
    variant with the underlying cubic multigraph H reconstructed.  Raises
    StructureViolationError if the triangle/string partition fails, which
    on a validated input indicates a bug.
    """
    try:
        bridges, local = _require_claw_free_cubic(g)
    except DisconnectedError:
        raise NotTwoEdgeConnectedError("input graph is disconnected") from None
    if bridges:
        raise NotTwoEdgeConnectedError("input graph has bridges")
    return _decompose(g, local)


def _decompose(g: MultiGraph, local: LocalScan | None = None) -> Decomposition:
    """`oum_decompose` on a graph already known to be valid input for it.

    `local` is g's scan, when the caller has it; the entry check's carries
    the walk and H.  Whatever is missing is computed here.
    """
    if is_k4(g):
        return Decomposition(variant=Variant.K4)

    if local is None:
        local = _local_scan(g)
        if local.claw is not None:
            raise StructureViolationError(f"claw {local.claw} in a graph to decompose")
    diamonds, diamond_of = local.diamonds, local.diamond_of
    triangles, triangle_of = local.triangles, local.triangle_of

    if 4 * len(diamonds) == g.n:
        return Decomposition(
            variant=Variant.RING, ring_diamonds=tuple(diamonds)
        )
    walk, h = local.walk, local.h
    if h is None:
        if 3 * len(triangles) + 4 * len(diamonds) != g.n:
            v = next(v for v in range(g.n) if diamond_of[v] == triangle_of[v] == -1)
            raise StructureViolationError(
                f"vertex {v} is on no diamond and no triangle of free vertices"
            )
        walk = _walk(g, local)
        if sum(map(len, walk)) - 2 * len(walk) != len(diamonds):
            raise StructureViolationError("some diamonds belong to no string")

    # orient realizations toward the lower triangle index and assign slots
    oriented: list[tuple[int, int, int, int, tuple[StringDiamond, ...]]] = []
    for r in walk:
        end_a, end_b, entries = r[0], r[-1], r[1:-1]
        ha, hb = triangle_of[end_a], triangle_of[end_b]
        if ha == hb:
            raise StructureViolationError(
                f"H-edge loop at triangle {ha}; impossible in a bridgeless graph"
            )
        seq = []
        for x in entries:
            d = diamonds[diamond_of[x]]
            e1, e2 = d.exteriors
            seq.append(StringDiamond(x, d.interiors, e1 if x == e2 else e2))
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

    if h is None:
        h = MultiGraph(len(triangles), [(e.slot[0], e.slot[1]) for e in h_edges])
    return Decomposition(
        variant=Variant.BUILT,
        triangles=tuple(triangles),
        h=h,
        h_edges=tuple(h_edges),
        slot_edge={e.slot: e for e in h_edges},
    )
