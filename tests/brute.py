"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately written from the definitions, without
reusing the library's algorithms: BFS over raw edge lists, exhaustive
matching and 2-factor enumeration over edge slots, quadratic bridge
detection, exhaustive S-packing search, and a direct graph6 bit-indexing
decoder.  The one exception is `solve_spacking_rescan`, a plain rescanning
copy of the solver that pins its search tree.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

from clawcolor.coloring import PackingColoring, SPackingSpec
from clawcolor.errors import CapExceededError
from clawcolor.multigraph import MultiGraph, all_pairs_distances
from clawcolor.oracle import DEFAULT_SOLVER_CAP


def bfs_distances(n: int, edges: list[tuple[int, int]], source: int) -> list[float]:
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


def connected_after_removal(g: MultiGraph, u: int, v: int) -> bool:
    """Is the graph still connected after deleting one copy of (u, v)?"""
    edges = list(g.edge_list())
    edges.remove((min(u, v), max(u, v)))
    if g.n == 0:
        return True
    dist = bfs_distances(g.n, edges, 0)
    return all(d != float("inf") for d in dist)


def bridges_by_removal(g: MultiGraph) -> set[tuple[int, int]]:
    """Quadratic oracle: an edge is a bridge iff removing it disconnects."""
    out = set()
    for u, v, m in g.edge_pairs():
        if m == 1 and not connected_after_removal(g, u, v):
            out.add((u, v))
    return out


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


def find_claw_brute(g: MultiGraph) -> tuple | None:
    for quad in combinations(range(g.n), 4):
        for center in quad:
            leaves = [x for x in quad if x != center]
            if all(g.has_edge(center, x) for x in leaves) and not any(
                g.has_edge(a, b) for a, b in combinations(leaves, 2)
            ):
                return (center, *leaves)
    return None


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
    dist = all_pairs_distances(g)
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
