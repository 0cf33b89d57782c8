"""Independent brute-force oracles used to cross-check the library, the
reference copies of replaced library code, and the few shims their
callers need.

**Oracles**, written from the definitions without the library's
algorithms: `bfs_distances`, the one BFS over a raw edge list; the
exhaustive `all_perfect_matchings` and `all_two_factors` over edge slots;
the quadratic `bridges_by_removal`; `find_diamonds`,
`triangles_off_diamonds_brute`, `find_claw_brute`, `claw_centers_brute`
and `is_induced_claw`; `light_support_property`; `violations_brute`,
`coloring_valid_brute` and the exhaustive `spacking_colorable_brute`;
`bridge_tree_root_brute` and `root_rule_counterexamples` over
`labelled_trees`; the bit-indexing graph6 decoder `ref_graph6_decode`; and
`relabeled` with `multigraph_isomorphic`.

**Reference copies**, the library's code as it was before a rewrite,
each pinning the code that replaced it: `solve_spacking_rescan` the
solver's search tree; `decompose_by_grouping` `_contract`, its output
written as `decompose`'s record of a bridgeless graph (`bridgeless`);
`bridge_tree_by_sweeps`, with `classify_component_by_sets` to type its
components, the seven bridge-tree fields of `decompose`'s record,
`Decomposition[4:]`; the `*_by_reattribution` 2-factors, each a pair
(cycles, matching) named by slots, `factorization._complement`; `max_matching_by_full_scans`, which the
`*_by_reattribution` references search with, `_max_matching_simple`;
`verify_by_layers` and `bridges_by_iterator_dfs` `oracle.verify` and
`multigraph._bridges` on large graphs; and the `*_by_subgraphs` bridged
path, one induced subgraph per component and each Type III completion
built from its subgraph, then decomposed (`decompose_by_own_scan`), ring
coloured from its diamonds (`ring_by_diamonds`, or by the same rule
written out for K4) or
searched for its forced edge's slot (`lift_slot`), with the colorer's one
odd-gadget rule applied on top, `colorer._color_tree`,
`colorer._color_class` and `colorer._surgery`.
A diamond is the plain pair ((i1, i2), (e1, e2)) of its interiors and
exteriors, each ascending: `find_diamonds` lists them, and
`scan_diamonds` reads `_local_scan`'s flat diamonds so.

**Shims**, each kept for the callers named:
- `induced`, the subgraph on a vertex set: the `*_by_subgraphs`
  references and the per-component checks of `test_colorer.py` and
  `test_structure.py`.
- `h_of`, the `MultiGraph` H of a decomposition, whose edge e is slot
  `h_of(dec).slots()[e]`: `lift_slot`, `color_type3_by_subgraphs`, and
  the tests that compare H with `multigraph_isomorphic` or search its
  2-factors with `all_two_factors`.
- `factor_bytes`, a reference's 2-factor as `_complement`'s bytes: the
  comparisons with the `*_by_reattribution` references in
  `test_factorization.py` and `matching_at_scale.py`.
- `is_k4`: `decompose_by_grouping`, `decompose_by_own_scan` and
  `test_canonical.py` and `test_recognition.py`.
- `bridgeless`, `decompose`'s record of a bridgeless graph from its
  variant and H, one Type III component: `decompose_by_grouping`, whose
  output `test_structure.py` compares with `decompose`'s.
- `transposed`, a swap of two colour classes: `test_canonical.py`.
- `colored`, what a colorer core writes into a fresh label array, as a
  `PackingColoring`: `color_type3_by_subgraphs`, and the tests that call
  a core directly in `test_canonical.py`, `test_colorer.py` and
  `test_acceptance.py`.
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Iterable, Sequence
from itertools import combinations, product

from clawcolor.colorer import _canonical, _free_two_color
from clawcolor.coloring import (
    C1A,
    C1B,
    C2A,
    C2B,
    SPEC_1122,
    UNCOLORED,
    Labels,
    PackingColoring,
    SPackingSpec,
)
from clawcolor.errors import (
    CapExceededError,
    ClawcolorError,
    InternalInvariantError,
    PartialColoringError,
)
from clawcolor.factorization import _matched_through, _two_factor_through
from clawcolor.multigraph import MultiGraph, Slot, is_cubic
from clawcolor.oracle import DEFAULT_SOLVER_CAP, Violation
from clawcolor.recognition import (
    ComponentKind,
    Decomposition,
    LocalScan,
    Variant,
    _bridge_tree,
    _class_tree,
    _contract,
    _local_scan,
    find_bridges,
)


def bfs_distances(n: int, edges: list[tuple[int, int]], source: int) -> list[float]:
    """BFS hop distances from source over the raw edge list on 0..n-1;
    inf for an unreachable vertex, and parallel copies change nothing."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    dist: list[float] = [float("inf")] * n
    dist[source] = 0
    dq = deque([source])
    while dq:
        v = dq.popleft()
        for w in adj[v]:
            if dist[w] == float("inf"):
                dist[w] = dist[v] + 1
                dq.append(w)
    return dist


def induced(g: MultiGraph, vertices: Iterable[int]) -> tuple[MultiGraph, list[int]]:
    """The subgraph of a simple g induced on the given vertices.

    Returns (subgraph, to_global) where to_global[i] is the original id
    of local vertex i.  Local ids follow the sorted order of `vertices`.
    """
    if not g.is_simple():
        raise ValueError("induced subgraphs are taken of simple graphs only")
    to_global = sorted(set(vertices))
    to_local = {v: i for i, v in enumerate(to_global)}
    edges = [
        (i, to_local[w]) for i, u in enumerate(to_global) for w in g.neighbors(u)
        if u < w and w in to_local
    ]
    return MultiGraph(len(to_global), edges), to_global


def h_of(dec: Decomposition) -> MultiGraph:
    """The multigraph H of a built decomposition, on its triangles with its `ends`."""
    return MultiGraph(len(dec.triangles), dec.ends)


def is_k4(g: MultiGraph) -> bool:
    return g.n == 4 and g.is_simple() and g.size == 6


def bridgeless(n: int, variant: Variant, triangles=(), ends=(), walk=()) -> Decomposition:
    """`decompose`'s record of a bridgeless graph on n vertices: its
    variant and H, and a bridge tree of one Type III component."""
    return Decomposition(
        variant, triangles, ends, walk,
        components=(tuple(range(n)),),
        kinds=(ComponentKind.TYPE_III,),
        tree_adj=((),),
        root=0,
        depth=(0,),
        up_neighbor=(-1,),
        degree2=((),),
    )


def transposed(coloring: PackingColoring, i: int, j: int) -> PackingColoring:
    """Swap two color classes; valid for classes of equal radius."""
    if coloring.spec.radii[i] != coloring.spec.radii[j]:
        raise ValueError("only equal-radius classes may be transposed")
    swap = {i: j, j: i}
    return PackingColoring(
        coloring.spec, {v: swap.get(c, c) for v, c in coloring.assignment.items()}
    )


def colored(n: int, core, *args) -> PackingColoring:
    """The (1,1,2,2)-coloring the colorer core `core` writes, given args,
    into n UNCOLORED labels."""
    labels = bytearray([UNCOLORED]) * n
    core(labels, *args)
    return PackingColoring(SPEC_1122, Labels(labels))


def bridges_by_removal(g: MultiGraph) -> set[tuple[int, int]]:
    """Quadratic oracle: an edge is a bridge iff, once it is removed, no path joins its ends.

    A pair with two or more copies is never a bridge.  The search from u
    skips the removed edge and stops at the first sight of v.
    """
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edge_list():
        adj[u].append(v)
        adj[v].append(u)

    def joined_without(u: int, v: int) -> bool:
        seen, stack = {u}, [u]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if x == u and y == v:
                    continue
                if y == v:
                    return True
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return False

    copies = Counter(g.edge_list())
    return {(u, v) for (u, v), m in copies.items() if m == 1 and not joined_without(u, v)}


def all_perfect_matchings(g: MultiGraph) -> list[frozenset[tuple[int, int, int]]]:
    """Every perfect matching as a frozenset of edge slots, by recursion."""
    slots = g.slots()
    by_vertex: dict[int, list[tuple[int, int, int]]] = {v: [] for v in range(g.n)}
    for s in slots:
        by_vertex[s[0]].append(s)
        by_vertex[s[1]].append(s)
    out: list[frozenset] = []

    def rec(covered: set[int], chosen: list):
        free = [v for v in range(g.n) if v not in covered]
        if not free:
            out.append(frozenset(chosen))
            return
        v = free[0]
        for s in by_vertex[v]:
            other = s[1] if s[0] == v else s[0]
            if other in covered:
                continue
            chosen.append(s)
            covered.update((v, other))
            rec(covered, chosen)
            chosen.pop()
            covered.difference_update((v, other))

    rec(set(), [])
    return out


def all_two_factors(g: MultiGraph) -> list[frozenset[tuple[int, int, int]]]:
    """Every spanning 2-regular slot subset, by exhaustive recursion."""
    slots = g.slots()
    deg = [0] * g.n
    out: list[frozenset] = []
    chosen: list = []

    def rec(i: int):
        if i == len(slots):
            if all(d == 2 for d in deg):
                out.append(frozenset(chosen))
            return
        u, v, _ = slots[i]
        remaining_u = sum(1 for s in slots[i:] if u in (s[0], s[1]))
        remaining_v = sum(1 for s in slots[i:] if v in (s[0], s[1]))
        # prune: skip only if skipping cannot still complete the degrees
        if deg[u] + remaining_u - 1 >= 2 and deg[v] + remaining_v - 1 >= 2:
            rec(i + 1)
        if deg[u] < 2 and deg[v] < 2:
            deg[u] += 1
            deg[v] += 1
            chosen.append(slots[i])
            rec(i + 1)
            chosen.pop()
            deg[u] -= 1
            deg[v] -= 1

    rec(0)
    return out


def diamond_vertices(d: tuple) -> frozenset[int]:
    """The four vertices of a diamond."""
    return frozenset(d[0] + d[1])


def find_diamonds(g: MultiGraph) -> list[tuple]:
    """All induced diamonds, keyed by their interior edge, in edge order.

    The reference for `_local_scan`'s diamonds: for each edge, the common
    neighbors of its ends, straight from the definition.
    """
    out = []
    for u, v in dict.fromkeys(g.edge_list()):
        common = sorted(set(g.neighbors(u)) & set(g.neighbors(v)))
        if len(common) == 2 and common[1] not in g.neighbors(common[0]):
            out.append(((u, v), (common[0], common[1])))
    return out


def scan_diamonds(flat: Sequence[int]) -> list[tuple]:
    """`_local_scan`'s flat diamonds, four ints each, as pairs in `find_diamonds`'s order."""
    return sorted(((flat[j], flat[j + 1]), (flat[j + 2], flat[j + 3])) for j in range(0, len(flat), 4))


def triangles_off_diamonds_brute(
    g: MultiGraph, diamonds: Iterable[tuple]
) -> list[tuple[int, int, int]]:
    """Every triangle sharing no vertex with the diamonds, sorted, each corners ascending."""
    on_diamond = {v for d in diamonds for v in diamond_vertices(d)}
    triangles = {
        tuple(sorted((u, v, w)))
        for u in range(g.n)
        for v, w in combinations(g.neighbors(u), 2)
        if w in g.neighbors(v)
    }
    return sorted(t for t in triangles if not on_diamond & set(t))


def light_support_property(g: MultiGraph, coloring: PackingColoring) -> bool:
    """The canonical coloring's support property, on a simple cubic claw-free g.

    Every vertex in a radius-1 class has two neighbors in the partner
    radius-1 class or lies on an induced diamond.
    """
    on_diamond = {v for d in find_diamonds(g) for v in diamond_vertices(d)}
    partner = {C1A: C1B, C1B: C1A}
    for v, c in coloring.assignment.items():
        if c in partner and v not in on_diamond:
            if sum(coloring.assignment[w] == partner[c] for w in g.neighbors(v)) < 2:
                return False
    return True


def is_induced_claw(g: MultiGraph, center: int, leaves: Sequence[int]) -> bool:
    """True iff `center` is adjacent to three distinct leaves, no two of them adjacent."""
    return (
        len(set(leaves)) == 3
        and all(x in g.neighbors(center) for x in leaves)
        and not any(b in g.neighbors(a) for a, b in combinations(leaves, 2))
    )


def find_claw_brute(g: MultiGraph) -> tuple | None:
    for quad in combinations(range(g.n), 4):
        for center in quad:
            leaves = [x for x in quad if x != center]
            if is_induced_claw(g, center, leaves):
                return (center, *leaves)
    return None


def claw_centers_brute(g: MultiGraph) -> list[int]:
    """Every vertex that is the center of an induced claw, ascending, over all quadruples."""
    return sorted(
        {
            center
            for quad in combinations(range(g.n), 4)
            for center in quad
            if is_induced_claw(g, center, [x for x in quad if x != center])
        }
    )


def violations_brute(
    g: MultiGraph, radii: tuple[int, ...], assignment: dict
) -> list[tuple[int, str, tuple[int, int], int]]:
    """Every (class_index, label, pair, distance) violation, from full BFS.

    Labels follow SPackingSpec.labels(): 1a/1b/2a/2b for (1,1,2,2), c1, c2,
    ... otherwise.  Pairs are ordered by u, then v.
    """
    if radii == (1, 1, 2, 2):
        labels = ("1a", "1b", "2a", "2b")
    else:
        labels = tuple(f"c{i + 1}" for i in range(len(radii)))
    edges = g.edge_list()
    out = []
    for u in range(g.n):
        du = bfs_distances(g.n, edges, u)
        c = assignment[u]
        for v in range(u + 1, g.n):
            if assignment[v] == c and du[v] <= radii[c]:
                out.append((c, labels[c], (u, v), int(du[v])))
    return out


def coloring_valid_brute(g: MultiGraph, radii: tuple[int, ...], assignment: dict) -> bool:
    """Direct definition check with per-source BFS."""
    return not violations_brute(g, radii, assignment)


def spacking_colorable_brute(
    n: int, edges: list[tuple[int, int]], radii: tuple[int, ...]
) -> bool:
    """Is there an S-packing coloring?  Plain exhaustive search.

    Vertices are colored in id order, each class tried in turn, and a
    class is refused only when an earlier vertex of that class lies within
    its radius.  No saturation ordering, no symmetry breaking.
    """
    dist = [bfs_distances(n, edges, v) for v in range(n)]
    assign: list[int] = []

    def extend(v: int) -> bool:
        if v == n:
            return True
        for c, radius in enumerate(radii):
            if all(assign[u] != c or dist[v][u] > radius for u in range(v)):
                assign.append(c)
                if extend(v + 1):
                    return True
                assign.pop()
        return False

    return extend(0)


# Reference for the search tree: pick() rescans every conflict counter at
# each node and the ball table is cut from the all-pairs distance matrix.
# solve_spacking must branch exactly as this does and so return the same
# assignment.
def solve_spacking_rescan(
    g: MultiGraph, spec: SPackingSpec, cap: int = DEFAULT_SOLVER_CAP
) -> PackingColoring | None:
    """Complete backtracking search; a coloring, or None when none exists.

    Branches on the uncolored vertex blocked by the most distinct classes
    (ties by id).  Within each group of equal-radius classes, an empty
    class may only be opened if its predecessor in the group is in use,
    which removes the permutation symmetry between equal classes.
    """
    n = g.n
    if n > cap:
        raise CapExceededError(n, cap)
    if n == 0:
        return PackingColoring(spec, {})
    radii = spec.radii
    r = spec.r
    edges = g.edge_list()
    dist = [bfs_distances(n, edges, v) for v in range(n)]
    # ball[c][v]: vertices u != v with d(u, v) <= radii[c]
    ball = [
        [
            [u for u in range(n) if u != v and dist[v][u] <= radii[c]]
            for v in range(n)
        ]
        for c in range(r)
    ]
    assign = [-1] * n
    conflicts = [[0] * r for _ in range(n)]
    class_sizes = [0] * r

    def pick() -> int:
        best, best_sat = -1, -1
        for v in range(n):
            if assign[v] != -1:
                continue
            sat = sum(1 for c in range(r) if conflicts[v][c] > 0)
            if sat > best_sat:
                best, best_sat = v, sat
        return best

    def backtrack(colored: int) -> bool:
        if colored == n:
            return True
        v = pick()
        for c in range(r):
            if conflicts[v][c] > 0:
                continue
            if (
                class_sizes[c] == 0
                and c > 0
                and radii[c] == radii[c - 1]
                and class_sizes[c - 1] == 0
            ):
                continue
            assign[v] = c
            class_sizes[c] += 1
            for u in ball[c][v]:
                conflicts[u][c] += 1
            if backtrack(colored + 1):
                return True
            assign[v] = -1
            class_sizes[c] -= 1
            for u in ball[c][v]:
                conflicts[u][c] -= 1
        return False

    if backtrack(0):
        return PackingColoring(spec, {v: assign[v] for v in range(n)})
    return None


def bridge_tree_root_brute(g: MultiGraph, bridges) -> dict[str, list[int]]:
    """Rooting of the bridge tree by the all-pairs eccentricity rule.

    Components of G minus `bridges` are numbered in order of their smallest
    vertex.  The root is the smallest-numbered component whose eccentricity
    in the bridge tree, from a BFS out of every component, equals the tree's
    diameter.  Returns root, depth, parent, up_vertex and up_neighbor, the
    last three indexed by component and -1 at the root.
    """
    cut = {frozenset(e) for e in bridges}
    kept = [e for e in g.edge_list() if frozenset(e) not in cut]
    comp = [-1] * g.n
    k = 0
    for s in range(g.n):
        if comp[s] == -1:
            for v, d in enumerate(bfs_distances(g.n, kept, s)):
                if d != float("inf"):
                    comp[v] = k
            k += 1
    tree = [(comp[u], comp[v]) for u, v in bridges]
    dist = [bfs_distances(k, tree, c) for c in range(k)]
    ecc = [max(row) for row in dist]
    root = min(c for c in range(k) if ecc[c] == max(ecc))
    depth = [int(d) for d in dist[root]]
    parent, up_vertex, up_neighbor = [-1] * k, [-1] * k, [-1] * k
    for u, v in bridges:
        for x, y in ((u, v), (v, u)):
            if depth[comp[x]] == depth[comp[y]] + 1:
                parent[comp[x]] = comp[y]
                up_vertex[comp[x]], up_neighbor[comp[x]] = x, y
    return {"root": root, "depth": depth, "parent": parent,
            "up_vertex": up_vertex, "up_neighbor": up_neighbor}


def labelled_trees(n: int):
    """Every labelled tree on n >= 2 nodes once, as an edge list, by Pruefer decoding."""
    for seq in product(range(n), repeat=n - 2):
        deg = [1] * n
        for x in seq:
            deg[x] += 1
        edges = []
        for x in seq:
            leaf = deg.index(1)
            edges.append((leaf, x))
            deg[leaf] = 0
            deg[x] -= 1
        u = deg.index(1)
        edges.append((u, deg.index(1, u + 1)))
        yield edges


def root_rule_counterexamples(max_n: int) -> tuple[int, list[list[tuple[int, int]]]]:
    """Check `_class_tree`'s root rule on every labelled tree of 2 to max_n nodes.

    The rule: a is the smallest node farthest from a start x, b the
    smallest farthest from a, and the root is min(a, b), whichever node x
    is: the class tree starts at class 0, which need not hold vertex 0.
    The reference is the smallest node whose eccentricity, from a BFS out
    of every node, is the diameter.  Returns the number of trees and those
    where the two differ for some start.
    """
    count, bad = 0, []
    for n in range(2, max_n + 1):
        for edges in labelled_trees(n):
            count += 1
            dist = [bfs_distances(n, edges, c) for c in range(n)]
            ecc = [max(row) for row in dist]
            root = ecc.index(max(ecc))
            for row in dist:
                a = row.index(max(row))
                b = dist[a].index(max(dist[a]))
                if min(a, b) != root:
                    bad.append(edges)
                    break
    return count, bad


def ref_graph6_decode(s: str) -> tuple[int, set[tuple[int, int]]]:
    """Reference graph6 decoder using direct bit indexing.

    bit index of pair (u, v) with u < v is v(v-1)/2 + u; bit i lives in
    body byte i // 6 at position 5 - i % 6.
    """
    data = s.strip().encode("ascii")
    if data[0] == 126:
        if data[1] == 126:
            n = 0
            for b in data[2:8]:
                n = (n << 6) | (b - 63)
            body = data[8:]
        else:
            n = 0
            for b in data[1:4]:
                n = (n << 6) | (b - 63)
            body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    edges = set()
    for v in range(n):
        for u in range(v):
            i = v * (v - 1) // 2 + u
            bit = (body[i // 6] - 63) >> (5 - i % 6) & 1
            if bit:
                edges.add((u, v))
    return n, edges


def relabeled(g: MultiGraph, perm: list[int]) -> MultiGraph:
    return MultiGraph(g.n, [(perm[u], perm[v]) for u, v in g.edge_list()])


def multigraph_isomorphic(a: MultiGraph, b: MultiGraph) -> bool:
    """Exact multigraph isomorphism by backtracking; meant for small graphs.

    Vertices are pre-partitioned by (degree, sorted incident multiplicity
    profile) and the search maps vertices in order, checking multiplicity
    consistency against already-mapped neighbors.
    """
    if a.n != b.n or a.size != b.size:
        return False
    if sorted(a.degrees()) != sorted(b.degrees()):
        return False

    copies_a, copies_b = Counter(a.edge_list()), Counter(b.edge_list())

    def copies(counts: Counter, u: int, v: int) -> int:
        return counts[min(u, v), max(u, v)]

    def profile(g: MultiGraph, counts: Counter, v: int) -> tuple:
        mults = sorted(copies(counts, v, w) for w in g.neighbors(v))
        return (g.degree(v), tuple(mults))

    pa = [profile(a, copies_a, v) for v in range(a.n)]
    pb = [profile(b, copies_b, v) for v in range(b.n)]
    if sorted(pa) != sorted(pb):
        return False

    # order a's vertices to keep the partial mapping connected when possible
    order: list[int] = []
    seen = [False] * a.n
    for start in range(a.n):
        if seen[start]:
            continue
        seen[start] = True
        queue = [start]
        for v in queue:
            order.append(v)
            for w in a.neighbors(v):
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)

    mapping = [-1] * a.n
    used = [False] * b.n

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        mapped = [x for x in order[:i]]
        for w in range(b.n):
            if used[w] or pb[w] != pa[v]:
                continue
            if all(
                copies(copies_b, w, mapping[x]) == copies(copies_a, v, x) for x in mapped
            ):
                mapping[v] = w
                used[w] = True
                if extend(i + 1):
                    return True
                mapping[v] = -1
                used[w] = False
        return False

    return extend(0)


class StructureViolationError(ClawcolorError):
    """Input violates a structural guarantee the reference classifiers rely on."""


def decompose_by_grouping(g: MultiGraph) -> Decomposition:
    """`decompose` as it was before the local scan, as the reference for it.

    Verbatim but for the dropped `triangle_of` and `attach` fields,
    `diamond_vertices` and plain pairs for the gone `Diamond` type, and the output,
    which `decompose` now hands out as `ends` and `walk` tuples in place of
    a slot-keyed dict, in its one record with a bridge tree of one
    component (`bridgeless`): `find_diamonds`, then triangles grouped from
    the first uncovered vertex, then a walk over `diamond_vertices` sets.
    Each string diamond is kept as (entry, interiors, exit) and only the
    output is flattened into the `walk` tuples, in the order of their sort
    by (ends, end corners), which is the order of the slots they filled.
    A ring, once its sorted diamonds, is its cyclic walk through the
    diamond of vertex 0 from its smaller exterior, each diamond listed as
    a string diamond is; K4 is the ring (0, 2, 3, 1) of one diamond.
    """
    if is_k4(g):
        return bridgeless(4, Variant.K4, walk=((0, 2, 3, 1),))

    diamonds = find_diamonds(g)
    diamond_of: dict[int, int] = {}
    for i, d in enumerate(diamonds):
        for v in diamond_vertices(d):
            if v in diamond_of:
                raise StructureViolationError(
                    f"vertex {v} lies on two diamonds; only K4 allows that"
                )
            diamond_of[v] = i

    if len(diamond_of) == g.n:
        first = diamond_of[0]
        cur, ring = diamonds[first][1][0], []
        while True:
            ints, exts = diamonds[diamond_of[cur]]
            exit_ = exts[0] if exts[1] == cur else exts[1]
            ring += (cur, *ints, exit_)
            (cur,) = (w for w in g.neighbors(exit_) if w not in ints + exts)
            if diamond_of[cur] == first:
                return bridgeless(g.n, Variant.RING, walk=(tuple(ring),))

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
                if mates[j] in g.neighbors(mates[i]):
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
    raw: list[tuple[int, int, list[tuple[int, tuple[int, int], int]]]] = []
    for tri in triangles:
        for c in tri:
            if c in consumed:
                continue
            cur = third[c]
            seq: list[tuple[int, tuple[int, int], int]] = []
            while cur in diamond_of:
                d = diamonds[diamond_of[cur]]
                interiors, exteriors = d
                if cur not in exteriors:
                    raise StructureViolationError(
                        f"string enters diamond at interior vertex {cur}"
                    )
                exit_ = exteriors[0] if exteriors[1] == cur else exteriors[1]
                seq.append((cur, interiors, exit_))
                used_diamonds.add(diamond_of[cur])
                outs = [w for w in g.neighbors(exit_) if w not in diamond_vertices(d)]
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
    oriented: list[tuple[int, int, int, int, list[tuple[int, tuple[int, int], int]]]] = []
    for end_a, end_b, seq in raw:
        ha, hb = triangle_of[end_a], triangle_of[end_b]
        if ha == hb:
            raise StructureViolationError(
                f"H-edge loop at triangle {ha}; impossible in a bridgeless graph"
            )
        if ha > hb:
            ha, hb = hb, ha
            end_a, end_b = end_b, end_a
            seq = [(exit_, ints, entry) for entry, ints, exit_ in reversed(seq)]
        oriented.append((ha, hb, end_a, end_b, seq))

    oriented.sort(key=lambda t: (t[0], t[1], t[2], t[3]))
    ends = tuple((ha, hb) for ha, hb, *_ in oriented)
    walk = tuple(
        (end_a, *(x for entry, ints, exit_ in seq for x in (entry, *ints, exit_)), end_b)
        for _, _, end_a, end_b, seq in oriented
    )

    h = MultiGraph(len(triangles), ends)
    if not is_cubic(h):
        raise StructureViolationError("reconstructed multigraph H is not cubic")
    if find_bridges(h):
        raise StructureViolationError("reconstructed multigraph H has bridges")

    return bridgeless(g.n, Variant.BUILT, tuple(triangles), ends, walk)


def classify_component_by_sets(g: MultiGraph, verts: tuple[int, ...]) -> ComponentKind:
    """The component classifier as it was, with a vertex set and a degree dict per component."""
    if len(verts) == 1:
        raise StructureViolationError(
            f"component {{{verts[0]}}} is a single vertex; input is not claw-free cubic"
        )
    vset = set(verts)
    deg_in = {v: sum(1 for w in g.neighbors(v) if w in vset) for v in verts}
    if any(d <= 1 for d in deg_in.values()):
        raise StructureViolationError(
            f"component containing {verts[0]} has a leaf; input is not claw-free cubic"
        )
    if all(d == 2 for d in deg_in.values()):
        if len(verts) != 3:
            raise StructureViolationError(
                f"cycle component of size {len(verts)}; input is not claw-free cubic"
            )
        return ComponentKind.TRIANGLE
    if len(verts) == 4 and any(d == 2 for d in deg_in.values()):
        ints = sorted(v for v in verts if deg_in[v] == 3)
        exts = sorted(v for v in verts if deg_in[v] == 2)
        if (
            len(ints) == 2 and len(exts) == 2
            and ints[1] in g.neighbors(ints[0]) and exts[1] not in g.neighbors(exts[0])
        ):
            return ComponentKind.DIAMOND
        raise StructureViolationError("4-vertex component is not a diamond")
    return ComponentKind.TYPE_III


def bridge_tree_by_sweeps(g: MultiGraph, bridge_set: set[tuple[int, int]]) -> tuple:
    """`_bridge_tree` as it was, as the reference for the seven bridge-tree
    fields of `decompose`'s record, `Decomposition[4:]`.

    Verbatim: a tree BFS for each diameter sweep and for the depths, a
    parent pass sorted by depth, a dict of the bridge between two
    components, and a vertex set per component for its degree-2 vertices.
    Only the count check's error class follows the library's: a set that
    fails it comes from a bug past the entry check, and the output is the
    plain tuple of the fields in their order, components to degree2.
    """
    bridges = tuple(sorted(bridge_set))
    comp_of = [-1] * g.n
    components: list[tuple[int, ...]] = []
    for start in range(g.n):
        if comp_of[start] != -1:
            continue
        idx = len(components)
        queue = [start]
        comp_of[start] = idx
        members = [start]
        for v in queue:
            for w in g.neighbors(v):
                key = (min(v, w), max(v, w))
                if key in bridge_set or comp_of[w] != -1:
                    continue
                comp_of[w] = idx
                members.append(w)
                queue.append(w)
        components.append(tuple(sorted(members)))

    ncomp = len(components)
    if ncomp != len(bridges) + 1:
        raise InternalInvariantError(
            f"{ncomp} components for {len(bridges)} bridges; tree property violated"
        )

    kinds = tuple(classify_component_by_sets(g, comp) for comp in components)

    tree_adj: list[set[int]] = [set() for _ in range(ncomp)]
    bridge_between: dict[tuple[int, int], tuple[int, int]] = {}
    for u, v in bridges:
        cu, cv = comp_of[u], comp_of[v]
        if cu == cv:
            raise StructureViolationError(f"bridge {(u, v)} inside one component")
        tree_adj[cu].add(cv)
        tree_adj[cv].add(cu)
        bridge_between[(min(cu, cv), max(cu, cv))] = (u, v)

    def tree_bfs(src: int) -> list[int]:
        dist = [-1] * ncomp
        dist[src] = 0
        queue = [src]
        for c in queue:
            for d in tree_adj[c]:
                if dist[d] == -1:
                    dist[d] = dist[c] + 1
                    queue.append(d)
        return dist

    # root: smallest-index component whose eccentricity equals the diameter.
    # A component farthest from any start is one end a of a diametral path,
    # one farthest from a is the other end b, and in a tree every
    # eccentricity is max(d(a, c), d(b, c)).
    from_0 = tree_bfs(0)
    from_a = tree_bfs(from_0.index(max(from_0)))
    b = from_a.index(max(from_a))
    from_b = tree_bfs(b)
    diam = from_a[b]
    root = next(c for c in range(ncomp) if max(from_a[c], from_b[c]) == diam)

    depth = tree_bfs(root)
    parent = [-1] * ncomp
    order = sorted(range(ncomp), key=lambda c: (depth[c], c))
    for c in order:
        if c == root:
            continue
        ups = [d for d in tree_adj[c] if depth[d] == depth[c] - 1]
        if len(ups) != 1:
            raise StructureViolationError(f"component {c} has {len(ups)} parents")
        parent[c] = ups[0]

    up_vertex = [-1] * ncomp
    up_neighbor = [-1] * ncomp
    for c in range(ncomp):
        if c == root:
            continue
        u, v = bridge_between[(min(c, parent[c]), max(c, parent[c]))]
        if comp_of[u] == c:
            up_vertex[c], up_neighbor[c] = u, v
        else:
            up_vertex[c], up_neighbor[c] = v, u

    degree2: list[tuple[int, ...]] = []
    for c, comp in enumerate(components):
        vset = set(comp)
        d2 = sorted(
            v for v in comp if sum(1 for w in g.neighbors(v) if w in vset) == 2
        )
        if c != root:
            x1 = up_vertex[c]
            if x1 not in d2:
                raise StructureViolationError(
                    f"up vertex {x1} of component {c} does not have degree 2 inside it"
                )
            d2 = [x1] + [v for v in d2 if v != x1]
        degree2.append(tuple(d2))

    return (
        tuple(components),
        kinds,
        tuple(tuple(sorted(s)) for s in tree_adj),
        root,
        tuple(depth),
        tuple(up_neighbor),
        tuple(degree2),
    )


def max_matching_by_full_scans(n: int, adj: list[list[int]]) -> list[int]:
    """`factorization._max_matching_simple` as it was: fresh n-lists per search.

    Verbatim: each augmenting search allocates `p`, `base` and `used`, and
    each blossom contraction scans all n vertices for its members.
    """
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


def factor_bytes(h: MultiGraph, reference: tuple) -> bytearray:
    """A reference's 2-factor of h, its pair (cycles, matching) named by
    slots, as `factorization._complement`'s bytes over h's ids in slot
    order: 0 for a matched slot, and for a cycle's (vertex, slot) entry, the
    slot leading on from the vertex, 1 when the vertex is the slot's lower
    end, else 2.  A slot the pair leaves out reads 3.  Called by the
    2-factor comparisons of `test_factorization.py` and `matching_at_scale.py`."""
    cycles, matching = reference
    way = dict.fromkeys(matching, 0)
    way.update((s, 1 if v == s[0] else 2) for cycle in cycles for v, s in cycle)
    return bytearray(way.get(s, 3) for s in h.slots())


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
    copies = Counter(g.edge_list())
    out = []
    for u, v in pairs:
        u, v = (u, v) if u < v else (v, u)
        for k in range(copies[u, v]):
            if (u, v, k) not in banned:
                out.append((u, v, k))
                break
        else:
            raise InternalInvariantError(f"no available slot for matched pair {(u, v)}")
    return out


def _perfect_pairs(g: MultiGraph) -> list[tuple[int, int]] | None:
    """The matched pairs of the blossom search's mate array, or None if not perfect."""
    mate = max_matching_by_full_scans(g.n, g.adjacency())
    if -1 in mate:
        return None
    return [(v, w) for v, w in enumerate(mate) if w > v]


def two_factor_by_reattribution(g: MultiGraph) -> tuple:
    """`factorization._two_factor` as it was: public matching, re-attribution, slot sets.

    Verbatim but for the error class of a missing perfect matching, whose
    class `NoPerfectMatchingError` is gone.
    """
    pairs = _perfect_pairs(g)
    if pairs is None:
        raise InternalInvariantError(
            "no perfect matching; impossible for a bridgeless cubic multigraph"
        )
    matched = set(_reattribute(g, pairs, banned=set()))
    factor = {s for s in g.slots() if s not in matched}
    cycles = _cycles_from_slots(g, factor)
    return cycles, tuple(sorted(matched))


def two_factor_through_by_reattribution(g: MultiGraph, e: Slot) -> tuple:
    """`factorization._two_factor_through` as it was, on a copy of g less e and f."""
    all_slots = g.slots()
    f = next(s for s in all_slots if s != e)
    reduced = MultiGraph(g.n, [s[:2] for s in all_slots if s not in (e, f)])
    pairs = _perfect_pairs(reduced)
    if pairs is None:
        raise InternalInvariantError(
            "matching after removing two edges must exist in a 2-edge-connected "
            "cubic multigraph of even order"
        )
    matched = set(_reattribute(g, pairs, banned={e, f}))
    factor = {s for s in all_slots if s not in matched}
    if e not in factor:
        raise InternalInvariantError("forced edge missing from 2-factor")
    cycles = _cycles_from_slots(g, factor)
    return cycles, tuple(sorted(matched))


def matching_through_by_reattribution(g: MultiGraph, e: Slot) -> tuple[Slot, ...]:
    """`factorization._matching_through` as it was, on a copy of g less e's other slots."""
    all_slots = g.slots()
    hu = e[0]
    others = [s for s in all_slots if s != e and hu in (s[0], s[1])]
    if len(others) != 2:
        raise InternalInvariantError(f"vertex {hu} does not have 3 slots")
    reduced = MultiGraph(g.n, [s[:2] for s in all_slots if s not in others])
    pairs = _perfect_pairs(reduced)
    if pairs is None:
        raise InternalInvariantError(
            "matching after removing two edges must exist in a 2-edge-connected "
            "cubic multigraph of even order"
        )
    matched = _reattribute(g, pairs, banned=set(others))
    if e not in matched:
        raise InternalInvariantError("forced edge missing from matching")
    return tuple(sorted(matched))


def factor_from_matching_by_reattribution(g: MultiGraph, m: tuple[Slot, ...]) -> tuple:
    """`factorization.factor_from_matching` as it was: the complement of a perfect matching."""
    matched = set(m)
    factor = {s for s in g.slots() if s not in matched}
    cycles = _cycles_from_slots(g, factor)
    return cycles, m


def _bfs_layers(g: MultiGraph, source: int, radius: int) -> list[list[int]]:
    """Vertices at distance 1, 2, ..., radius from source, one list each.

    The list stops early at the first empty layer.
    """
    seen = {source}
    frontier = [source]
    layers = []
    for _ in range(radius):
        reached = []
        for x in frontier:
            for w in g.neighbors(x):
                if w not in seen:
                    seen.add(w)
                    reached.append(w)
        if not reached:
            break
        layers.append(reached)
        frontier = reached
    return layers


def verify_by_layers(
    g: MultiGraph, spec: SPackingSpec, coloring: PackingColoring
) -> list[Violation]:
    """`oracle.verify` as it was: a set and layer lists per source vertex."""
    assignment = coloring.assignment
    missing = {v for v in range(g.n) if v not in assignment}
    if missing:
        raise PartialColoringError(missing)
    bad = {v for v in assignment if not 0 <= v < g.n}
    if bad:
        raise PartialColoringError(bad)
    labels = spec.labels()
    out: list[Violation] = []
    for u in range(g.n):
        cu = assignment[u]
        near = [
            (v, d)
            for d, layer in enumerate(_bfs_layers(g, u, spec.radii[cu]), 1)
            for v in layer
            if v > u and assignment[v] == cu
        ]
        for v, d in sorted(near):
            out.append(Violation(cu, labels[cu], (u, v), d))
    return out


def bridges_by_iterator_dfs(g: MultiGraph) -> set[tuple[int, int]] | None:
    """`multigraph._bridges` as it was: a DFS stack of neighbor iterators."""
    n = g.n
    disc = [-1] * n
    low = [0] * n
    bridges: set[tuple[int, int]] = set()
    timer = 0
    if n == 0:
        return bridges
    copies = Counter(g.edge_list())
    # stack entries: (vertex, parent, iterator over neighbors)
    stack = [(0, -1, iter(g.neighbors(0)))]
    disc[0] = low[0] = timer
    timer += 1
    while stack:
        v, parent, it = stack[-1]
        advanced = False
        for w in it:
            if w == parent:
                continue
            if disc[w] == -1:
                disc[w] = low[w] = timer
                timer += 1
                stack.append((w, v, iter(g.neighbors(w))))
                advanced = True
                break
            low[v] = min(low[v], disc[w])
        if not advanced:
            stack.pop()
            if stack:
                pv = stack[-1][0]
                low[pv] = min(low[pv], low[v])
                if low[v] > disc[pv] and copies[min(pv, v), max(pv, v)] == 1:
                    bridges.add((min(pv, v), max(pv, v)))
    return bridges if timer == n else None


def completion_by_subgraphs(comp: MultiGraph, xs: list[int]) -> tuple[MultiGraph, list[int]]:
    """A Type III completion as it was built: an induced subgraph, then the added edges.

    `comp` is the component alone and xs its attachments, x1 first.
    Returns the completion and its local -> component ids.
    """
    if len(xs) % 2 == 0:
        tilde = MultiGraph(comp.n, comp.edge_list() + list(zip(xs[::2], xs[1::2])))
        return tilde, list(range(comp.n))
    x1 = xs[0]
    u, w = comp.neighbors(x1)
    s = next(z for z in comp.neighbors(u) if z not in (x1, w))
    y = next(z for z in comp.neighbors(w) if z not in (x1, u))
    added = [(s, y)] + list(zip(xs[1::2], xs[2::2]))
    sub, to_comp = induced(comp, (v for v in range(comp.n) if v not in (x1, u, w)))
    to_local = {gv: lv for lv, gv in enumerate(to_comp)}
    local_added = [(to_local[a], to_local[b]) for a, b in added]
    return MultiGraph(sub.n, sub.edge_list() + local_added), to_comp


def decompose_by_own_scan(g: MultiGraph) -> Decomposition:
    """g decomposed from its own scan, walk and contraction, as a completion
    once was: a bridgeless g, read as a class tree of one class."""
    local = LocalScan(walk=((0, 2, 3, 1),)) if is_k4(g) else _contract(g, _local_scan(g))
    return _bridge_tree(local, _class_tree(set(), local))


def ring_by_diamonds(g: MultiGraph, diamonds: Iterable[tuple]) -> PackingColoring:
    """`colorer._ring` as it was, from g's diamonds and adjacency: interiors
    2a/2b; an edge between diamonds gets 1a at its smaller end and 1b."""
    assignment: dict[int, int] = {}
    adj = g.adjacency()
    for (i1, i2), exteriors in diamonds:
        assignment[i1] = C2A
        assignment[i2] = C2B
        for e in exteriors:
            x = sum(adj[e]) - i1 - i2  # e's one neighbor off the diamond
            if e < x:
                assignment[e], assignment[x] = C1A, C1B
    return PackingColoring(SPEC_1122, assignment)


def lift_slot(dec: Decomposition, edge: tuple[int, int]) -> Slot:
    """The slot of the H-edge whose realization contains `edge`, by a search
    of them all; H-edge e is slot `h_of(dec).slots()[e]`."""
    key = (min(edge), max(edge))
    for slot, r in zip(h_of(dec).slots(), dec.walk):
        for a, b in zip(r[::4], r[1::4]):
            if (a, b) == key or (b, a) == key:
                return slot
    raise InternalInvariantError(f"edge {key} lies inside a triangle or a diamond; no H-edge image")


def color_type3_by_subgraphs(
    comp: MultiGraph, xs: list[int], forced: int
) -> tuple[dict[int, int], list[int]]:
    """`colorer._color_class` on the component alone, by one rule.

    The completion is built from the subgraph, scanned, walked and
    contracted, and the forced edge's slot is found by `lift_slot`.  A K4
    or ring completion is ring colored from its diamonds (`find_diamonds`), a K4's s and y
    taking 1a and 1b by id order and its other two vertices 2a and 2b
    ascending; any other is colored canonically.  With |X| odd, u then
    takes y's class, w takes s's and x1 takes 2a, and 2a and 2b are
    exchanged unless x1 has `forced`.  Returns the colors by component id
    and the vertices on the completion's diamonds.
    """
    if any(b in comp.neighbors(a) for a, b in combinations(xs, 2)):
        raise InternalInvariantError("attachment vertices are adjacent")
    x1 = xs[0]
    tilde, to_comp = completion_by_subgraphs(comp, xs)
    to_tilde = {v: i for i, v in enumerate(to_comp)}
    dec, diamonds = decompose_by_own_scan(tilde), find_diamonds(tilde)
    if len(xs) % 2:
        u, w = comp.neighbors(x1)
        s = next(z for z in comp.neighbors(u) if z not in (x1, w))
        y = next(z for z in comp.neighbors(w) if z not in (x1, u))
    if dec.variant is Variant.K4:
        z, a = sorted(v for v in to_comp if v not in (s, y))
        colors = {min(s, y): C1A, max(s, y): C1B, z: C2A, a: C2B}
    else:
        if dec.variant is Variant.RING:
            sub = ring_by_diamonds(tilde, diamonds).assignment
        else:
            if len(xs) % 2:
                edge, through = (s, y), _two_factor_through
            else:
                edge, through = (x1, xs[1]), _matched_through
            slot = lift_slot(dec, (to_tilde[edge[0]], to_tilde[edge[1]]))
            # the colorer names H-edges by their index in slot order
            e = h_of(dec).slots().index(slot)
            local = LocalScan(walk=list(dec.walk), ends=list(dec.ends))
            factor = through(len(dec.triangles), local.ends, e)
            sub = colored(tilde.n, _canonical, local, factor).assignment
        colors = {to_comp[v]: c for v, c in sub.items()}
    if len(xs) % 2:
        colors[u], colors[w], colors[x1] = colors[y], colors[s], C2A
    if colors[x1] != forced:
        colors = {v: {C2A: C2B, C2B: C2A}.get(c, c) for v, c in colors.items()}
    on = {v for d in diamonds for v in diamond_vertices(d)}
    return colors, [to_comp[v] for v in sorted(on)]


def extension_by_subgraphs(
    comp: MultiGraph, xs: list[int], forced: int, kind: ComponentKind
) -> tuple[dict[int, int], list[int]]:
    """A non-root component colored on its own subgraph, as the colorer once did."""
    x1 = xs[0]
    if kind is ComponentKind.TRIANGLE:
        others = [z for z in range(3) if z != x1]
        return {x1: forced, others[0]: C1A, others[1]: C1B}, []
    if kind is ComponentKind.DIAMOND:
        ints = [z for z in range(4) if comp.degree(z) == 3]
        return {
            ints[0]: C1A,
            ints[1]: C1B,
            x1: forced,
            xs[1]: C2B if forced == C2A else C2A,
        }, list(range(4))
    return color_type3_by_subgraphs(comp, xs, forced)


def color_bridged_by_subgraphs(g: MultiGraph, bt: Decomposition) -> PackingColoring:
    """`colorer._color_tree` as it was: one induced subgraph per component."""
    assignment = bytearray([UNCOLORED]) * g.n
    tilde_diamonds: dict[int, frozenset[int]] = {}
    comp_of = {v: c for c, comp in enumerate(bt.components) for v in comp}

    order = sorted(range(len(bt.components)), key=lambda c: (bt.depth[c], c))
    for c in order:
        sub, to_global = induced(g, bt.components[c])
        to_local = {gv: lv for lv, gv in enumerate(to_global)}
        xs = [to_local[x] for x in bt.degree2[c]]
        if c == bt.root:
            local_col, dia = color_type3_by_subgraphs(sub, xs, C2A)
        else:
            q = bt.up_neighbor[c]
            parent = comp_of[q]
            if (
                bt.kinds[parent] is not ComponentKind.DIAMOND
                and q in tilde_diamonds.get(parent, frozenset())
            ):
                raise InternalInvariantError(
                    f"up-neighbor {q} lies on a diamond of its completed "
                    "component; contradicts the structure of claw-free cubic graphs"
                )
            forced = _free_two_color(g, assignment, q)
            local_col, dia = extension_by_subgraphs(sub, xs, forced, bt.kinds[c])
        tilde_diamonds[c] = frozenset(to_global[v] for v in dia)
        for lv, gv in enumerate(to_global):
            assignment[gv] = local_col[lv]
    return PackingColoring(SPEC_1122, Labels(assignment))
