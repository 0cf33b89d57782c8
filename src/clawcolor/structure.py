"""Structure of 2-edge-connected claw-free cubic graphs (Oum's theorem).

Every such graph is K4, a ring of diamonds, or is built from a
2-edge-connected cubic multigraph H by replacing each H-vertex with a
triangle and some H-edges with strings of diamonds.  `_decompose`
recovers that structure: the triangles, and for every H-edge its two
end triangles and its realization in G (a direct edge or a diamond
string).  These lists are H: no graph object is built for it on the
coloring path.

`decompose` is the one public way in, for any connected claw-free cubic
graph.  It runs the entry check `_require_claw_free_cubic` once, then
returns the bridge tree, read from H and its bridges, when the graph has
bridges and its decomposition when it has none.  `color_claw_free_cubic`
reads the same structure through `_structure`, which hands it the
numbered contraction of a bridgeless graph, or the tree over the classes
of H's triangles that the bridge tree is expanded from.

The triangles and diamonds come from `recognition._local_scan`, and the
realizations and their ends from `recognition._contract`, which walks
from each triangle corner's outside neighbor through any diamond string
to the next corner.  The entry check contracts G and `decompose` hands
the result over, so G is neither walked nor contracted twice.  No other
graph is scanned: a completed Type III component's H is cut from G's
contraction by `colorer._surgery`.

Each H-edge is named by one integer, its id.  `_decompose` numbers the
H-edges 0..m-1 by their ends, then by their realizations, for G's H and
for each completion's H alike; H-edge e is `walk[e]`, run from triangle
`ends[e][0]` to the higher `ends[e][1]` (`_walk`'s docstring gives the
format).  Parallel H-edges thus take consecutive ids, and the ids at a
vertex ascend as its slots in H do.  The coloring path reads nothing
else.  Only `decompose` builds H as a `MultiGraph`, in `_decomposition`,
and files the realizations under its slots (a, b, k) in a public
`Decomposition`: the id of slot (a, b, k) is its index in `h.slots()`.

The reconstructed H is cubic and bridgeless by construction, so neither is
checked again:

  * Cubic.  G's entry scan guarantees that each triangle corner has
    exactly one outside edge, and `_contract` requires it to put every
    vertex on a triangle or a diamond.  A walk is deterministic and
    reversible, so each corner ends exactly one realization; the surgery
    on a completion replaces realizations end for end.  Numbering rejects
    H-loops.
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
from collections.abc import Mapping
from types import MappingProxyType
from typing import NamedTuple

from .errors import InternalInvariantError
from .multigraph import MultiGraph, Slot
from .recognition import (
    BridgeTree,
    ClassTree,
    LocalScan,
    _bridge_tree,
    _class_tree,
    _require_claw_free_cubic,
)


class Variant(enum.Enum):
    K4 = "K4"
    RING = "ring-of-diamonds"
    BUILT = "built"


class Diamond(NamedTuple):
    """Induced K4-minus-an-edge: two adjacent interiors, two exteriors."""

    interiors: tuple[int, int]
    exteriors: tuple[int, int]


class Decomposition(NamedTuple):
    """What `decompose` returns for a 2-edge-connected graph.

    For the built variant, `realization` maps each slot (a, b, k) of H, in
    slot order, to its H-edge's vertices in G as `recognition._walk` lists
    them, run from the corner in triangle a to the corner in triangle b.
    Each `decompose` result owns its dict; the default mapping is read-only.
    """

    variant: Variant
    ring_diamonds: tuple[Diamond, ...] = ()
    triangles: tuple[tuple[int, int, int], ...] = ()
    h: MultiGraph | None = None
    realization: Mapping[Slot, tuple[int, ...]] = MappingProxyType({})

    def string_lengths(self) -> list[int]:
        """Lengths of the non-empty diamond strings, sorted."""
        return sorted(len(r) // 4 for r in self.realization.values() if len(r) > 2)


def decompose(g: MultiGraph) -> BridgeTree | Decomposition:
    """The structure of a connected, claw-free, cubic graph.

    Returns the bridge tree when g has bridges.  Otherwise returns the K4
    variant, the ring-of-diamonds variant, or the built variant with the
    underlying cubic multigraph H reconstructed.  Raises the entry check's
    NotSimpleError, DisconnectedError, NotCubicError or NotClawFreeError
    on any other input, and InternalInvariantError on a bug.
    """
    h_bridges, local = _require_claw_free_cubic(g)
    if not h_bridges:
        return _decomposition(_decompose(local))
    tree = _class_tree(h_bridges, local)
    del local  # its triangles and ends, which the class tree does not hold, go
    return _bridge_tree(tree)


def _decomposition(local: LocalScan) -> Decomposition:
    """The public form of a numbered contraction, as `_decompose` returns it,
    with H built from its ends."""
    if local.triangles:
        h = MultiGraph(len(local.triangles), local.ends)
        return Decomposition(
            variant=Variant.BUILT,
            triangles=tuple(local.triangles),
            h=h,
            realization=dict(zip(h.slots(), local.walk)),
        )
    if d := local.diamonds:
        ring = sorted(Diamond((d[j], d[j + 1]), (d[j + 2], d[j + 3])) for j in range(0, len(d), 4))
        return Decomposition(variant=Variant.RING, ring_diamonds=tuple(ring), realization={})
    return Decomposition(variant=Variant.K4, realization={})


def _structure(g: MultiGraph) -> LocalScan | ClassTree:
    """What the colorer reads of g: the numbered contraction when g has no
    bridge, else the tree over the classes of H's triangles."""
    h_bridges, local = _require_claw_free_cubic(g)
    if h_bridges:
        return _class_tree(h_bridges, local)
    return _decompose(local)


def _decompose(local: LocalScan) -> LocalScan:
    """A contraction with its H-edges numbered in the order of their ends.

    `local` is what the entry check returned for a bridgeless graph, or
    what `colorer._surgery` cut for a completion.  The contraction of K4,
    which has neither triangle nor diamond, or of a ring, which has no
    triangle, has no H and is returned as it is.  Otherwise `walk` and
    `ends` come back sorted by (ends, walk): H-edge e is `walk[e]`.  The
    walk runs each realization from its lower triangle (`_walk`), and each
    corner starts one realization, so the sort never looks past r[0].
    """
    if not local.triangles:
        return local
    pairs = sorted(zip(local.ends, local.walk))
    ends = [e for e, _ in pairs]
    for ha, hb in ends:
        if ha >= hb:
            raise InternalInvariantError(
                f"H-edge loop or a walk from the higher triangle, {ha} to {hb}; "
                "impossible in a bridgeless graph"
            )
    return local._replace(walk=[r for _, r in pairs], ends=ends)
