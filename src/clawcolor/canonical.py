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

Corners and diamonds are read by position from the realization tuples
(`recognition._walk` gives the format): H-edge e is `walk[e]`, run from
triangle `ends[e][0]` (`structure`'s docstring).  A bridgeless graph's
coloring takes `_complement`'s 2-factor; a completed Type III component's
takes a 2-factor forced through one H-edge, whose id `colorer._surgery`
gives, and `colorer._color_type3` composes the two.  A ring, of G or of
a completion, is colored from one cyclic walk by `_ring`.

Nothing here is public or checks its input, and nothing here certifies
its output: `color_claw_free_cubic` validates its input once at entry,
calls these constructions, and certifies the glued coloring once at exit.
A fact the construction relies on that is found false is a bug and raises
InternalInvariantError.
"""

from __future__ import annotations

from .coloring import C1A, C1B, C2A, C2B, SPEC_1122, PackingColoring
from .errors import InternalInvariantError
from .factorization import TwoFactor, _complement
from .recognition import LocalScan


def _k4() -> PackingColoring:
    """K4 takes one vertex in each class."""
    return PackingColoring(SPEC_1122, dict(enumerate((C1A, C1B, C2A, C2B))))


def _ring(ring: tuple[int, ...]) -> PackingColoring:
    """Color a ring of diamonds from its cyclic walk (`recognition._ring_walk`).

    Interiors get 2a and 2b; an edge between diamonds gets 1a at its
    smaller end and 1b at the other.
    """
    assignment: dict[int, int] = {}
    for j in range(0, len(ring), 4):
        x, y = ring[j - 1], ring[j]  # the previous diamond's exit and this one's entry
        assignment[x], assignment[y] = (C1A, C1B) if x < y else (C1B, C1A)
        assignment[ring[j + 1]] = C2A
        assignment[ring[j + 2]] = C2B
    return PackingColoring(SPEC_1122, assignment)


def _canonical(local: LocalScan, factor: TwoFactor) -> PackingColoring:
    """The canonical coloring of a built graph for a 2-factor of its H.

    `local` is a numbered contraction (`structure._decompose`) and
    `factor` a 2-factor of its H.  Each vertex lies on one realization, so
    the check counts their lengths.
    """
    walk, ends = local.walk, local.ends
    assignment: dict[int, int] = {}

    # matching edges: the corner in the lower-indexed triangle gets 2a
    for e in factor.matching:
        r = walk[e]
        assignment[r[0]] = C2A
        assignment[r[-1]] = C2B
        _color_string(assignment, r, C2B, C2A, C1A, C1B)

    # cycles: each edge runs from hv, whose exit corner is 1b, to the next
    # H-vertex, whose entry corner is 1a; r runs from ends[e][0]
    for cycle in factor.cycles:
        for hv, e in cycle:
            r = walk[e]
            first, last = (C1B, C1A) if hv == ends[e][0] else (C1A, C1B)
            assignment[r[0]] = first
            assignment[r[-1]] = last
            if len(r) > 2:
                _color_string(assignment, r, last, first, C2A, C2B)

    n = sum(map(len, walk))
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


def _two_edge_connected(local: LocalScan) -> PackingColoring:
    """Dispatch on what the numbered contraction of a bridgeless graph holds:
    H, a ring's one cyclic walk, or nothing, for K4."""
    if local.h is not None:
        return _canonical(local, _complement(local.h, local.ends))
    return _ring(local.walk[0]) if local.walk else _k4()
