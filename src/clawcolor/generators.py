"""Construction of test inputs.

Forward expansion (triangles plus diamond strings over a cubic multigraph),
rings of diamonds, random 2-edge-connected cubic multigraphs, bridged
assemblies with a prescribed component tree, and the named fixtures
shipped with the package.

A bridged assembly is put together from plain edge lists: a K3 or a
diamond component is a literal list, a Type III component hands over its
`edge_list()`, and `gen_bridged` builds the one `MultiGraph` of the whole
graph.  Adjacency is tested with `in` on `adjacency()` lists, and an edge
is deleted by rebuilding from `edge_list()`.
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
from .formats import parse_edgelist, parse_int
from .multigraph import MultiGraph, Slot, _bridges, is_connected, is_cubic
from .recognition import is_claw_free
from .rng import SplitMix64

_RETRIES = 2000


class ExpansionSpec(NamedTuple):
    """String length per H-edge slot; absent slots default to length 0."""

    string_lengths: dict[Slot, int]

    def length(self, slot: Slot) -> int:
        return self.string_lengths.get(slot, 0)


def _connected_and_bridgeless(g: MultiGraph) -> bool:
    """True iff g is connected and has no bridge, from one DFS."""
    return _bridges(g.n, g.edge_list()) == set()


def expand_to_clawfree(
    h: MultiGraph, spec: ExpansionSpec | None = None, rng: SplitMix64 | None = None
) -> MultiGraph:
    """Replace each H-vertex with a triangle and H-edges with diamond strings.

    The result is a claw-free cubic graph on 3*n(H) + 4*(total string
    length) vertices.  Corner-to-slot attachment is rotated by `rng` when
    given, producing isomorphic but differently labeled outputs.  Raises
    InfeasibleSpecError on the first spec key that is no slot of H or has
    a negative length, before anything is built.
    """
    if not is_cubic(h):
        raise NotCubicError("expansion requires a cubic multigraph")
    if not _connected_and_bridgeless(h):
        raise NotTwoEdgeConnectedError("expansion requires a 2-edge-connected multigraph")
    spec = spec or ExpansionSpec({})
    slots = h.slots()  # H-edge e is slots[e]
    known = set(slots)
    for key, k in spec.string_lengths.items():
        if key not in known:
            raise InfeasibleSpecError(f"spec key {key!r} is not an edge slot of H")
        if k < 0:
            raise InfeasibleSpecError("string lengths must be non-negative")

    # corner c of triangle t is vertex 3 t + c; H-edge e is attached at
    # corner[e][0] of its lower end and corner[e][1] of its upper end
    inc: list[list[int]] = [[] for _ in range(h.n)]  # the ids at each vertex, ascending
    for e, (a, b, _) in enumerate(slots):
        inc[a].append(e)
        inc[b].append(e)
    corner = [[0, 0] for _ in slots]
    for v, ids in enumerate(inc):
        if rng is not None:
            rng.shuffle(ids)
        for c, e in enumerate(ids):
            corner[e][slots[e][0] != v] = 3 * v + c

    edges: list[tuple[int, int]] = []
    for t in range(h.n):
        base = 3 * t
        edges += [(base, base + 1), (base, base + 2), (base + 1, base + 2)]

    nxt = 3 * h.n
    for s, (prev, b) in zip(slots, corner):
        for _ in range(spec.length(s)):
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

    A random cyclic arrangement of the vertices gives a Hamiltonian cycle
    (the digon when n = 2) and a random perfect matching supplies the
    third edge slot.  Every vertex has two cycle edges and one matching
    edge, none of them a loop, so the graph is cubic.  Each cycle edge lies
    on the cycle, and each matching edge closes a cycle with a path of it,
    so no edge is a bridge: every draw is kept.
    """
    if n < 2:
        raise OddOrderError("need at least 2 vertices")
    if n % 2:
        raise OddOrderError("a cubic multigraph has even order")
    perm = list(range(n))
    rng.shuffle(perm)
    pairing = list(range(n))
    rng.shuffle(pairing)
    edges = [(perm[i], perm[(i + 1) % n]) for i in range(n)]
    edges += [(pairing[i], pairing[i + 1]) for i in range(0, n, 2)]
    return MultiGraph(n, edges)


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
    adjacent (its third edge will become a bridge in the assembly).  g is
    a base or one with edges deleted, so simple: every pair is one edge.
    """
    adj = g.adjacency()
    out = []
    for u, v in g.edge_list():
        ru = [z for z in adj[u] if z != v]
        rv = [z for z in adj[v] if z != u]
        if len(ru) == 2 and len(rv) == 2 and ru[1] in adj[ru[0]] and rv[1] in adj[rv[0]]:
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

    Returns the graph, or None when stuck or when it has a bridge.  Both
    ends of a deletable edge have three distinct neighbours, so degree 3
    (no degree here exceeds 3), and each deletion frees two new degree-2
    vertices, adjacent to no vertex freed before.
    """
    cur = g
    freed: list[int] = []
    for _ in range(count):
        adj = cur.adjacency()
        candidates = [
            (u, v)
            for u, v in _deletable_edges(cur)
            if u not in banned
            and v not in banned
            and not any(f in adj[u] or f in adj[v] for f in freed)
        ]
        if not candidates:
            return None
        e = candidates[rng.randrange(len(candidates))]
        cur = MultiGraph(cur.n, [d for d in cur.edge_list() if d != e])
        freed += e
    if not _connected_and_bridgeless(cur):
        return None
    return cur


def _gen_component(kind: str, attach: int, rng: SplitMix64):
    """One component with `attach` degree-2 attachment vertices.

    Returns (vertex count, edge list, attachment vertex list): a K3 or a
    diamond is a literal edge list, and no graph is built for it.
    `gen_bridged`, the only caller, has checked the counts: 3 for a K3, 2
    for a diamond, at least 1.

    A Type III component is a random base (K4, a ring of diamonds or an
    expansion), 2-edge-connected and claw-free, with edges deleted.  Each
    edge of K4 and each connector of a ring or an expansion is deletable,
    so an odd count always finds the edge its gadget replaces.  The gadget
    subdivides that edge twice, s-u-w-y, and hangs v on u and w: the graph
    stays 2-edge-connected, and v is its one degree-2 vertex.  Each further
    deletion frees two vertices (`_delete_edges`), which checks that the
    result has no bridge, so the attachments number `attach`, are pairwise
    nonadjacent (v's neighbours u and w are banned), and n >= 5.
    """
    if kind == "k3":
        return 3, [(0, 1), (0, 2), (1, 2)], [0, 1, 2]
    if kind == "diamond":
        return 4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)], [0, 3]
    if kind != "type3":
        raise InfeasibleSpecError(f"unknown component kind {kind!r}")

    for _ in range(_RETRIES):
        if attach % 2:
            base = _random_base(rng, allow_k4=True)
            cands = _deletable_edges(base)
            s, y = cands[rng.randrange(len(cands))]
            # replace edge (s, y) by the 3-vertex gadget: s-u, u-w, w-y, u-v, w-v
            n0 = base.n
            u, w, v = n0, n0 + 1, n0 + 2
            edges = [e for e in base.edge_list() if e != (s, y)]
            comp = MultiGraph(n0 + 3, edges + [(s, u), (u, w), (w, y), (u, v), (w, v)])
            extra = (attach - 1) // 2
            banned = {s, y, u, w, v}
        else:
            comp = _random_base(rng, allow_k4=False)
            extra = attach // 2
            banned = set()
        if extra:
            comp = _delete_edges(comp, extra, rng, banned)
            if comp is None:
                continue
        if is_claw_free(comp):
            return comp.n, comp.edge_list(), [z for z in range(comp.n) if comp.degree(z) == 2]
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
            out.append((kind.strip(), parse_int(num)))
        except ValueError:
            raise InfeasibleSpecError(f"bad attachment count in {part!r}") from None
        except OverflowError as exc:
            raise InfeasibleSpecError(f"attachment count {exc} out of range") from None
    return out


def gen_bridged(tree_spec: list[tuple[str, int]], rng: SplitMix64) -> MultiGraph:
    """Connected claw-free cubic graph whose bridge tree realizes tree_spec.

    tree_spec lists (kind, attachment count) per component; kinds are
    "k3" (3 attachments), "diamond" (2), and "type3" (any r >= 1).  The
    attachment counts must form a tree degree sequence.  The components'
    edge lists are shifted into one list, the tree's bridges appended, and
    one `MultiGraph` is built from it; only Type III components build
    graphs of their own.
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
    edges: list[tuple[int, int]] = []
    for n_comp, comp_edges, _ in comps:
        offsets.append(total)
        edges += [(u + total, v + total) for u, v in comp_edges]
        total += n_comp
    cursors = [att for _, _, att in comps]
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
