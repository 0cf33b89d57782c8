"""(1,1,2,2)-colorings of 2-edge-connected claw-free cubic graphs.

Three constructions: the trivial K4 coloring, the ring-of-diamonds
coloring (interiors take the radius-2 classes, each inter-diamond edge
takes both radius-1 classes), and the canonical coloring driven by a
2-factor of the underlying multigraph H:

  * each matching edge's two triangle corners get 2a/2b, with Type 2
    strings alternating 2b/2a along their exteriors and 1a/1b inside;
  * around each 2-factor cycle, triangle corners take roles entry -> 1a
    and exit -> 1b, with Type 1 strings taking 1a/1b on their exteriors
    and 2a/2b inside.

Corners and diamonds are read by position from the decomposition's
realization tuples (`recognition._walk` gives the format).  A bridgeless
graph's coloring takes `_complement`'s 2-factor; a completed Type III
component's takes a 2-factor forced through one H-edge, whose slot
`_lift_slot` finds, and `colorer._color_type3` composes the two.

Nothing here is public or checks its input, and nothing here certifies
its output: `color_claw_free_cubic` validates its input once at entry,
calls these constructions, and certifies the glued coloring once at exit.
A fact the construction relies on that is found false is a bug and raises
InternalInvariantError.
"""

from __future__ import annotations

from collections.abc import Iterable

from .coloring import C1A, C1B, C2A, C2B, SPEC_1122, PackingColoring
from .errors import InternalInvariantError
from .factorization import TwoFactor, _complement
from .multigraph import MultiGraph
from .recognition import Diamond
from .structure import Decomposition, Variant


def _k4() -> PackingColoring:
    """K4 takes one vertex in each class."""
    return PackingColoring(SPEC_1122, dict(enumerate((C1A, C1B, C2A, C2B))))


def _ring(g: MultiGraph, diamonds: Iterable[Diamond]) -> PackingColoring:
    """Diamond interiors get 2a/2b; an edge between diamonds gets 1a at its smaller end and 1b."""
    assignment: dict[int, int] = {}
    adj = g.adjacency()
    for d in diamonds:
        i1, i2 = d.interiors
        assignment[i1] = C2A
        assignment[i2] = C2B
        for e in d.exteriors:
            x = sum(adj[e]) - i1 - i2  # e's one neighbor off the diamond
            if e < x:
                assignment[e], assignment[x] = C1A, C1B
    return PackingColoring(SPEC_1122, assignment)


def _canonical(g: MultiGraph, dec: Decomposition, factor: TwoFactor) -> PackingColoring:
    """The canonical coloring of a built graph for a 2-factor of its H."""
    assignment: dict[int, int] = {}

    # matching edges: the corner in the lower-indexed triangle gets 2a
    for slot in factor.matching:
        r = dec.realization[slot]
        assignment[r[0]] = C2A
        assignment[r[-1]] = C2B
        _color_string(assignment, r, C2B, C2A, C1A, C1B)

    # cycles: per triangle, the entry corner is 1a and the exit corner 1b
    for cycle in factor.cycles:
        entry_slot = cycle[-1][1]
        entry = dec.realization[entry_slot]
        for hv, exit_slot in cycle:
            r = dec.realization[exit_slot]
            forward = hv == exit_slot[0]
            assignment[entry[0] if hv == entry_slot[0] else entry[-1]] = C1A
            assignment[r[0] if forward else r[-1]] = C1B
            entry, entry_slot = r, exit_slot
            if len(r) > 2:
                # backward, a diamond is entered at its exit in r
                _color_string(assignment, r, *((C1A, C1B) if forward else (C1B, C1A)), C2A, C2B)

    if len(assignment) != g.n:
        raise InternalInvariantError(
            f"canonical coloring covered {len(assignment)} of {g.n} vertices"
        )
    return PackingColoring(SPEC_1122, assignment)


def _color_string(
    assignment: dict[int, int], r: tuple[int, ...], entry: int, exit_: int, first: int, second: int
) -> None:
    """Color each diamond of the realization r: its exteriors r[j] and
    r[j + 3] get `entry` and `exit_`, its interiors `first` and `second`."""
    for j in range(1, len(r) - 1, 4):
        assignment[r[j]] = entry
        assignment[r[j + 3]] = exit_
        assignment[r[j + 1]] = first
        assignment[r[j + 2]] = second


def _lift_slot(dec: Decomposition, edge: tuple[int, int]):
    """The slot of the H-edge whose realization contains `edge`."""
    key = (min(edge), max(edge))
    for slot, r in dec.realization.items():
        for a, b in zip(r[::4], r[1::4]):
            if (a, b) == key or (b, a) == key:
                return slot
    raise InternalInvariantError(
        f"edge {key} lies inside a triangle or a diamond; no H-edge image"
    )


def _two_edge_connected(g: MultiGraph, dec: Decomposition) -> PackingColoring:
    """Dispatch on the structure variant of g's decomposition."""
    if dec.variant is Variant.K4:
        return _k4()
    if dec.variant is Variant.RING:
        return _ring(g, dec.ring_diamonds)
    return _canonical(g, dec, _complement(dec.h))
