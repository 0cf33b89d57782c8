"""Independent checks of the program's outputs, written from the definitions.

Nothing here imports `clawcolor`: the checks work on the raw edge list, so
a defect in the package's own `verify` or graph code cannot hide a wrong
answer from the benchmark.
"""

from __future__ import annotations


def adjacency(n: int, edges) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def packing_problems(n: int, edges, radii, colors) -> list[str]:
    """Why `colors` is not an S-packing coloring for `radii`; empty if it is.

    `colors[v]` is the class index of vertex v.  Class i must have its
    vertices pairwise at distance greater than radii[i], so a BFS from each
    vertex, cut off at its own class's radius, must meet no vertex of that
    class.
    """
    if len(colors) != n:
        return [f"coloring has {len(colors)} entries for {n} vertices"]
    bad = [v for v, c in enumerate(colors) if not (isinstance(c, int) and 0 <= c < len(radii))]
    if bad:
        return [f"vertex {bad[0]} has no valid class"]
    adj = adjacency(n, edges)
    problems = []
    for v in range(n):
        c = colors[v]
        seen = {v}
        frontier = [v]
        for d in range(1, radii[c] + 1):
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
                        if colors[y] == c and y > v:
                            problems.append(f"class {c}: {v} and {y} at distance {d}")
            frontier = nxt
    return problems


def claw_problems(n: int, edges, witness) -> list[str]:
    """Why `witness` (centre, a, b, c) is not an induced claw; empty if it is."""
    if len(witness) != 4 or len(set(witness)) != 4:
        return [f"witness {witness} is not four distinct vertices"]
    if any(not (isinstance(v, int) and 0 <= v < n) for v in witness):
        return [f"witness {witness} names a vertex outside 0..{n - 1}"]
    adj = adjacency(n, edges)
    centre, *leaves = witness
    problems = [f"{x} is not adjacent to centre {centre}" for x in leaves if x not in adj[centre]]
    for i, x in enumerate(leaves):
        for y in leaves[i + 1:]:
            if y in adj[x]:
                problems.append(f"leaves {x} and {y} are adjacent")
    return problems
