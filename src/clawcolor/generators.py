"""Construction of test inputs.

Forward expansion (triangles plus diamond strings over a cubic multigraph),
rings of diamonds, random 2-edge-connected cubic multigraphs, bridged
assemblies with a prescribed component tree, and the named fixtures
shipped with the package.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

from .errors import (
    InfeasibleSpecError,
    KTooSmallError,
    NotCubicError,
    NotTwoEdgeConnectedError,
    OddOrderError,
    RetryLimitError,
)
from .formats import parse_edgelist
from .multigraph import MultiGraph, Slot, is_connected, is_cubic
from .recognition import _connected_and_bridgeless, is_claw_free
from .rng import SplitMix64

_RETRIES = 2000


class ExpansionSpec(NamedTuple):
    """String length per H-edge slot; absent slots default to length 0."""

    string_lengths: dict[Slot, int]

    def length(self, slot: Slot) -> int:
        return self.string_lengths.get(slot, 0)


def expand_to_clawfree(
    h: MultiGraph, spec: ExpansionSpec | None = None, rng: SplitMix64 | None = None
) -> MultiGraph:
    """Replace each H-vertex with a triangle and H-edges with diamond strings.

    The result is a claw-free cubic graph on 3*n(H) + 4*(total string
    length) vertices.  Corner-to-slot attachment is rotated by `rng` when
    given, producing isomorphic but differently labeled outputs.
    """
    if not is_cubic(h):
        raise NotCubicError("expansion requires a cubic multigraph")
    if not _connected_and_bridgeless(h):
        raise NotTwoEdgeConnectedError("expansion requires a 2-edge-connected multigraph")
    spec = spec or ExpansionSpec({})

    # corner c of triangle t is vertex 3 t + c; slot -> corner assignment
    corner_of: dict[tuple[int, Slot], int] = {}
    for v in range(h.n):
        order = h.slots_at(v)
        if rng is not None:
            rng.shuffle(order)
        if len(order) != 3:
            raise NotCubicError(f"H-vertex {v} has {len(order)} edge slots")
        for c, s in enumerate(order):
            corner_of[(v, s)] = 3 * v + c

    edges: list[tuple[int, int]] = []
    for t in range(h.n):
        base = 3 * t
        edges += [(base, base + 1), (base, base + 2), (base + 1, base + 2)]

    nxt = 3 * h.n
    for s in h.slots():
        a = corner_of[(s[0], s)]
        b = corner_of[(s[1], s)]
        k = spec.length(s)
        if k < 0:
            raise InfeasibleSpecError("string lengths must be non-negative")
        prev = a
        for _ in range(k):
            entry, i1, i2, exit_ = nxt, nxt + 1, nxt + 2, nxt + 3
            nxt += 4
            edges += [
                (prev, entry),
                (entry, i1),
                (entry, i2),
                (i1, i2),
                (i1, exit_),
                (i2, exit_),
            ]
            prev = exit_
        edges.append((prev, b))
    return MultiGraph(nxt, edges)


def gen_ring_of_diamonds(k: int) -> MultiGraph:
    """Closed chain of k >= 2 diamonds; 4k vertices, claw-free cubic."""
    if k < 2:
        raise KTooSmallError("a ring of diamonds needs at least 2 diamonds")
    edges = []
    for i in range(k):
        a, i1, i2, d = 4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3
        edges += [(a, i1), (a, i2), (i1, i2), (i1, d), (i2, d)]
        edges.append((d, (4 * (i + 1)) % (4 * k)))
    return MultiGraph(4 * k, edges)


def gen_cubic_multigraph(n: int, rng: SplitMix64) -> MultiGraph:
    """Random 2-edge-connected cubic multigraph: cycle + perfect matching.

    A random cyclic arrangement of the vertices gives a 2-factor and a
    random perfect matching supplies the third edge slot; rejection
    sampling keeps only 2-edge-connected results.
    """
    if n < 2:
        raise OddOrderError("need at least 2 vertices")
    if n % 2:
        raise OddOrderError("a cubic multigraph has even order")
    for _ in range(_RETRIES):
        perm = list(range(n))
        rng.shuffle(perm)
        edges = [(perm[i], perm[(i + 1) % n]) for i in range(n)]
        if n == 2:
            # the 2-cycle is the digon; drop the duplicate arc
            edges = [(perm[0], perm[1]), (perm[0], perm[1])]
        pairing = list(range(n))
        rng.shuffle(pairing)
        edges += [(pairing[i], pairing[i + 1]) for i in range(0, n, 2)]
        g = MultiGraph(n, edges)
        if is_cubic(g) and _connected_and_bridgeless(g):
            return g
    raise RetryLimitError("could not sample a 2-edge-connected cubic multigraph")


def random_expansion_spec(
    h: MultiGraph, rng: SplitMix64, max_string: int = 2
) -> ExpansionSpec:
    if max_string < 0:
        raise InfeasibleSpecError("string lengths must be non-negative")
    lengths = {s: rng.randrange(max_string + 1) for s in h.slots()}
    return ExpansionSpec(lengths)


# bridged assemblies


def _deletable_edges(g: MultiGraph) -> list[tuple[int, int]]:
    """Edges whose deletion keeps every endpoint claw-safe.

    An endpoint stays claw-safe when its two remaining neighbors are
    adjacent (its third edge will become a bridge in the assembly).
    """
    out = []
    for u, v, m in g.edge_pairs():
        if m != 1:
            continue
        ru = [z for z in g.neighbors(u) if z != v]
        rv = [z for z in g.neighbors(v) if z != u]
        if len(ru) == 2 and len(rv) == 2 and g.has_edge(*ru) and g.has_edge(*rv):
            out.append((u, v))
    return out


def _random_base(rng: SplitMix64, allow_k4: bool) -> MultiGraph:
    roll = rng.randrange(6 if allow_k4 else 5)
    if allow_k4 and roll == 5:
        return MultiGraph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    if roll == 4:
        return gen_ring_of_diamonds(2 + rng.randrange(2))
    n_h = rng.choice([2, 2, 4, 4, 6])
    h = gen_cubic_multigraph(n_h, rng)
    return expand_to_clawfree(h, random_expansion_spec(h, rng, max_string=1), rng)


def _delete_edges(g: MultiGraph, count: int, rng: SplitMix64, banned: set[int]):
    """Delete `count` claw-safe edges with pairwise nonadjacent endpoints.

    Returns (graph, freed degree-2 vertices) or None when stuck.
    """
    cur = g
    freed: list[int] = []
    for _ in range(count):
        candidates = [
            (u, v)
            for u, v in _deletable_edges(cur)
            if u not in banned
            and v not in banned
            and not any(
                cur.has_edge(u, f) or cur.has_edge(v, f) or f in (u, v)
                for f in freed
            )
        ]
        candidates = [
            (u, v)
            for u, v in candidates
            if cur.degree(u) == 3 and cur.degree(v) == 3
        ]
        if not candidates:
            return None
        u, v = candidates[rng.randrange(len(candidates))]
        cur = cur.without_slots([(u, v, 0)])
        freed += [u, v]
    if not _connected_and_bridgeless(cur):
        return None
    return cur, freed


def _gen_component(kind: str, attach: int, rng: SplitMix64):
    """One component with `attach` degree-2 attachment vertices.

    Returns (graph, attachment vertex list).
    """
    if kind == "k3":
        if attach != 3:
            raise InfeasibleSpecError("a K3 component has exactly 3 attachments")
        return MultiGraph(3, [(0, 1), (0, 2), (1, 2)]), [0, 1, 2]
    if kind == "diamond":
        if attach != 2:
            raise InfeasibleSpecError("a diamond component has exactly 2 attachments")
        g = MultiGraph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        return g, [0, 3]
    if kind != "type3":
        raise InfeasibleSpecError(f"unknown component kind {kind!r}")
    if attach < 1:
        raise InfeasibleSpecError("a Type III component needs at least 1 attachment")

    for _ in range(_RETRIES):
        if attach % 2:
            base = _random_base(rng, allow_k4=True)
            cands = _deletable_edges(base)
            if not cands:
                continue
            s, y = cands[rng.randrange(len(cands))]
            # replace edge (s, y) by the 3-vertex gadget: s-u, u-w, w-y, u-v, w-v
            stripped = base.without_slots([(s, y, 0)])
            n0 = base.n
            u, w, v = n0, n0 + 1, n0 + 2
            comp = MultiGraph(
                n0 + 3,
                stripped.edge_list()
                + [(s, u), (u, w), (w, y), (u, v), (w, v)],
            )
            extra = (attach - 1) // 2
            banned = {s, y, u, w, v}
        else:
            base = _random_base(rng, allow_k4=False)
            comp = base
            v = None
            extra = attach // 2
            banned = set()
        if extra:
            res = _delete_edges(comp, extra, rng, banned)
            if res is None:
                continue
            comp, freed = res
        if v is not None and not _connected_and_bridgeless(comp):
            continue
        attachments = sorted(z for z in range(comp.n) if comp.degree(z) == 2)
        if len(attachments) != attach or comp.n < 5:
            continue
        ok = all(
            not comp.has_edge(a, b)
            for i, a in enumerate(attachments)
            for b in attachments[i + 1:]
        )
        if ok and is_claw_free(comp):
            return comp, attachments
    raise RetryLimitError(f"could not build a Type III component with {attach} attachments")


def _tree_with_degrees(degrees: list[int], rng: SplitMix64) -> list[tuple[int, int]]:
    """A labeled tree whose node i has the given degree (Pruefer decode).

    A node appearing d-1 times in a Pruefer sequence ends up with degree d,
    so shuffling the multiset realizes the exact degree sequence.
    """
    n = len(degrees)
    if n == 2:
        return [(0, 1)]
    seq: list[int] = []
    for i, d in enumerate(degrees):
        seq += [i] * (d - 1)
    rng.shuffle(seq)
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    heap = [i for i in range(n) if deg[i] == 1]
    heapq.heapify(heap)
    edges = []
    for x in seq:
        leaf = heapq.heappop(heap)
        edges.append((leaf, x))
        deg[leaf] -= 1
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(heap, x)
    u = heapq.heappop(heap)
    v = heapq.heappop(heap)
    edges.append((u, v))
    return edges


def _parse_tree_spec(text: str) -> list[tuple[str, int]]:
    """Parse e.g. "k3:3,type3:1,type3:1,type3:1" into `gen_bridged`'s component specs."""
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise InfeasibleSpecError(f"bad component spec {part!r}, want kind:attachments")
        kind, _, num = part.partition(":")
        try:
            out.append((kind.strip(), int(num)))
        except ValueError:
            raise InfeasibleSpecError(f"bad attachment count in {part!r}") from None
    return out


def gen_bridged(tree_spec: list[tuple[str, int]], rng: SplitMix64) -> MultiGraph:
    """Connected claw-free cubic graph whose bridge tree realizes tree_spec.

    tree_spec lists (kind, attachment count) per component; kinds are
    "k3" (3 attachments), "diamond" (2), and "type3" (any r >= 1).  The
    attachment counts must form a tree degree sequence.
    """
    n = len(tree_spec)
    if n < 2:
        raise InfeasibleSpecError("a bridged assembly needs at least 2 components")
    degrees = [attach for _, attach in tree_spec]
    if any(d < 1 for d in degrees):
        raise InfeasibleSpecError("every component needs at least one attachment")
    if sum(degrees) != 2 * (n - 1):
        raise InfeasibleSpecError(
            f"attachment counts sum to {sum(degrees)}, a tree on {n} nodes needs {2 * (n - 1)}"
        )
    for kind, attach in tree_spec:
        if kind == "k3" and attach != 3:
            raise InfeasibleSpecError("a K3 component has exactly 3 attachments")
        if kind == "diamond" and attach != 2:
            raise InfeasibleSpecError("a diamond component has exactly 2 attachments")

    tree = _tree_with_degrees(degrees, rng)
    comps = [_gen_component(kind, attach, rng) for kind, attach in tree_spec]

    offsets = []
    total = 0
    for comp, _ in comps:
        offsets.append(total)
        total += comp.n
    edges: list[tuple[int, int]] = []
    for i, (comp, _) in enumerate(comps):
        edges += [(u + offsets[i], v + offsets[i]) for u, v in comp.edge_list()]
    cursors = [list(att) for _, att in comps]
    for i, j in tree:
        a = cursors[i].pop(0) + offsets[i]
        b = cursors[j].pop(0) + offsets[j]
        edges.append((a, b))
    g = MultiGraph(total, edges)
    if not (is_cubic(g) and is_connected(g) and is_claw_free(g)):
        raise RetryLimitError("assembled bridged graph failed validation")
    return g


_FIXTURE_FILES = {
    "k4": "k4.el",
    "petersen": "petersen.el",
    "prism": "prism.el",
    "h10": "h10.el",
    "big_expansion": "big_expansion.el",
    "bridged_star": "bridged_star.el",
}


def fixtures() -> dict[str, MultiGraph]:
    """Named graphs shipped as edge-list files.

    k4, petersen, prism: the classics.  h10: a 10-vertex 2-edge-connected
    cubic multigraph (two 4-cycles and a digon tied together) exercising
    digon 2-factors.  big_expansion: a 34-vertex claw-free cubic graph
    built from a 6-vertex H (4-cycle plus a digon) with one string of two
    diamonds on a matching edge and one on a cycle edge.  bridged_star: a
    24-vertex graph whose bridge tree is a 3-leaf star centered on a K3.
    """
    import importlib.resources

    out = {}
    pkg = importlib.resources.files("clawcolor") / "fixtures"
    for name, fname in _FIXTURE_FILES.items():
        g = parse_edgelist((pkg / fname).read_text())
        _validate_fixture(name, g)
        out[name] = g
    return out


def _validate_fixture(name: str, g: MultiGraph) -> None:
    if not is_cubic(g) or not is_connected(g):
        raise InfeasibleSpecError(f"fixture {name} is not a connected cubic graph")
    if name in ("k4", "prism", "h10", "big_expansion", "bridged_star"):
        if not is_claw_free(g):
            raise InfeasibleSpecError(f"fixture {name} must be claw-free")
    if name == "petersen" and is_claw_free(g):
        raise InfeasibleSpecError("the petersen fixture must contain claws")
