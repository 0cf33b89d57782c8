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
`colorer._surgery` gives, and `colorer._color_type3` composes the two.

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


def _canonical(dec: Decomposition, factor: TwoFactor) -> PackingColoring:
    """The canonical coloring of a built graph for a 2-factor of its H.

    Each vertex lies on one realization, so the check counts their lengths.
    """
    assignment: dict[int, int] = {}

    # matching edges: the corner in the lower-indexed triangle gets 2a
    for slot in factor.matching:
        r = dec.realization[slot]
        assignment[r[0]] = C2A
        assignment[r[-1]] = C2B
        _color_string(assignment, r, C2B, C2A, C1A, C1B)

    # cycles: each edge runs from hv, whose exit corner is 1b, to the next
    # H-vertex, whose entry corner is 1a; r runs from slot[0]
    for cycle in factor.cycles:
        for hv, slot in cycle:
            r = dec.realization[slot]
            first, last = (C1B, C1A) if hv == slot[0] else (C1A, C1B)
            assignment[r[0]] = first
            assignment[r[-1]] = last
            if len(r) > 2:
                _color_string(assignment, r, last, first, C2A, C2B)

    n = sum(map(len, dec.realization.values()))
    if len(assignment) != n:
        raise InternalInvariantError(
            f"canonical coloring covered {len(assignment)} of {n} vertices"
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


def _two_edge_connected(g: MultiGraph, dec: Decomposition) -> PackingColoring:
    """Dispatch on the structure variant of g's decomposition."""
    if dec.variant is Variant.K4:
        return _k4()
    if dec.variant is Variant.RING:
        return _ring(g, dec.ring_diamonds)
    return _canonical(dec, _complement(dec.h))
