"""Structure of 2-edge-connected claw-free cubic graphs (Oum's theorem).

Every such graph is K4, a ring of diamonds, or is built from a
2-edge-connected cubic multigraph H by replacing each H-vertex with a
triangle and some H-edges with strings of diamonds.  `_decompose`
recovers that structure: the triangles, the multigraph H, and for every
H-edge its realization in G (a direct edge or a diamond string).

`decompose` is the one public way in, for any connected claw-free cubic
graph.  It runs the entry check `_require_claw_free_cubic` once, then
returns the bridge tree, read from H and its bridges, when the graph has
bridges and its decomposition when it has none; `color_claw_free_cubic`
and `clawcolor decompose` both branch on the type it returns.

The triangles and diamonds come from `recognition._local_scan`, and the
realizations and H from `recognition._contract`, which walks from each
triangle corner's outside neighbor through any diamond string to the next
corner.  The entry check contracts G and `decompose` hands the result
over, so G is neither walked nor contracted twice; a completed component
of a bridged graph is contracted here through the same helper.  Past the
entry check a failed partition is a bug, so `_decompose` raises
InternalInvariantError.

A realization stays the vertex tuple the walk lists (`_walk`'s docstring
gives the format).  The walk already runs each one from its lower-indexed
triangle, so `_decompose` only files them under their slots.

The reconstructed H is cubic and bridgeless by construction, so neither is
checked again:

  * Cubic.  The scan guarantees that each triangle corner has exactly one
    outside edge: G's entry scan, or the completion's own scan here, which
    `_contract` requires to put every vertex on a triangle or a diamond.
    Filing rejects H-loops.  A walk is deterministic and reversible, so
    each corner ends exactly one realization.
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
    Diamond,
    LocalScan,
    _bridge_tree,
    _contract,
    _local_scan,
    _require_claw_free_cubic,
    is_k4,
)


class Variant(enum.Enum):
    K4 = "K4"
    RING = "ring-of-diamonds"
    BUILT = "built"


class Decomposition(NamedTuple):
    """What `_decompose` recovers from a 2-edge-connected graph.

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
    if h_bridges:
        return _bridge_tree(g, h_bridges, local)
    return _decompose(g, local)


def _decompose(g: MultiGraph, local: LocalScan | None = None) -> Decomposition:
    """The decomposition of a graph already known to be 2-edge-connected.

    `local` is what the entry check returned for g, when the caller has
    it; otherwise g is scanned and contracted here.
    """
    if is_k4(g):
        return Decomposition(variant=Variant.K4, realization={})

    if local is None:
        local = _local_scan(g)
        if local.claw is not None:
            raise InternalInvariantError(f"claw {local.claw} in a graph to decompose")
        local = _contract(g, local)
        if local is None:
            raise InternalInvariantError(
                "the triangles and diamond strings do not partition the graph to decompose"
            )
    if local.h is None:
        return Decomposition(
            variant=Variant.RING, ring_diamonds=tuple(local.diamonds), realization={}
        )

    # the walk runs each realization from its lower triangle (`_walk`);
    # each corner starts one realization, so the sort never looks past r[0]
    realization: dict[Slot, tuple[int, ...]] = {}
    counts: dict[tuple[int, int], int] = {}
    for (ha, hb), r in sorted(zip(local.ends, local.walk)):
        if ha >= hb:
            raise InternalInvariantError(
                f"H-edge loop or a walk from the higher triangle, {ha} to {hb}; "
                "impossible in a bridgeless graph"
            )
        k = counts.get((ha, hb), 0)
        counts[(ha, hb)] = k + 1
        realization[(ha, hb, k)] = r

    return Decomposition(
        variant=Variant.BUILT,
        triangles=tuple(local.triangles),
        h=local.h,
        realization=realization,
    )
