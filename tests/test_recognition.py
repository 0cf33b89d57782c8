import re
from itertools import combinations

import pytest

from clawcolor import (
    SPEC_1122,
    ComponentKind,
    MultiGraph,
    Decomposition,
    SplitMix64,
    Variant,
    color_claw_free_cubic,
    decompose,
    expand_to_clawfree,
    find_bridges,
    find_claw,
    gen_bridged,
    gen_cubic_multigraph,
    gen_ring_of_diamonds,
    is_claw_free,
    random_expansion_spec,
    verify,
)
from clawcolor import recognition
from clawcolor.errors import ClawcolorError, DisconnectedError, InternalInvariantError
from clawcolor.recognition import (
    _bridge_tree,
    _bridges,
    _class_tree,
    _local_scan,
    _require_claw_free_cubic,
    _ring_walk,
    _structure,
)

from brute import (
    bfs_distances,
    bridge_tree_by_sweeps,
    bridge_tree_root_brute,
    bridges_by_iterator_dfs,
    bridges_by_removal,
    claw_centers_brute,
    diamond_vertices,
    find_claw_brute,
    find_diamonds,
    is_induced_claw,
    is_k4,
    root_rule_counterexamples,
    multigraph_isomorphic,
    relabeled,
    scan_diamonds,
    triangles_off_diamonds_brute,
)


def k4():
    return MultiGraph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])


def test_k4_claw_free():
    assert is_claw_free(k4())


def test_star_is_a_claw():
    g = MultiGraph(4, [(0, 1), (0, 2), (0, 3)])
    witness = find_claw(g)
    assert witness is not None
    assert set(witness) == {0, 1, 2, 3}
    assert witness[0] == 0


def test_petersen_not_claw_free(named_fixtures):
    # every Petersen neighborhood is an independent triple
    g = named_fixtures["petersen"]
    assert find_claw(g) is not None
    assert find_claw_brute(g) is not None


def test_claw_matches_brute_on_corpus(base_corpus, named_fixtures):
    """`find_claw` finds a claw exactly when some quadruple is one, and its
    witness is an induced claw at the least center, on simple graphs and on
    multigraphs, whose parallel edges add no adjacency: h10, random cubic
    multigraphs of order 4 to 12, and a claw whose center has a doubled
    edge to a leaf."""
    rng = SplitMix64(0xC1A)
    graphs = [g for _, g in base_corpus[:20]] + [named_fixtures["petersen"], named_fixtures["h10"]]
    graphs += [gen_cubic_multigraph(n, rng) for n in (4, 6, 8, 10, 12) for _ in range(4)]
    graphs.append(MultiGraph(5, [(0, 1), (1, 2), (1, 2), (1, 3), (0, 4)]))
    claws = parallel_claws = 0
    for g in graphs:
        centers, claw = claw_centers_brute(g), find_claw(g)
        assert (claw is None) == (not centers)
        if claw is not None:
            assert claw[0] == centers[0] and is_induced_claw(g, claw[0], claw[1:]), (centers, claw)
            claws += 1
            parallel_claws += not g.is_simple()
    assert claw == (1, 0, 2, 3)
    assert claws >= 14 and parallel_claws >= 9, (claws, parallel_claws)


def test_bridges_two_triangles():
    g = MultiGraph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
    assert find_bridges(g) == {(2, 3)}


def test_bridges_k4_empty():
    assert find_bridges(k4()) == set()


def test_bridges_parallel_edge_never_bridge():
    g = MultiGraph(4, [(0, 1), (0, 1), (1, 2), (2, 3), (2, 3)])
    assert find_bridges(g) == {(1, 2)}


def test_bridges_require_connected():
    with pytest.raises(DisconnectedError):
        find_bridges(MultiGraph(4, [(0, 1), (2, 3)]))


def test_bridged_star_has_three_bridges(named_fixtures):
    g = named_fixtures["bridged_star"]
    assert len(find_bridges(g)) == 3


def test_bridges_match_removal_oracle(base_corpus):
    for _, g in base_corpus:
        if g.n <= 20:
            assert find_bridges(g) == bridges_by_removal(g)


def _bridge_pairs(g: MultiGraph) -> set[tuple[int, int]] | None:
    """`_bridges` over g's edge list, each id mapped to its pair; None when
    g is disconnected."""
    edges = g.edge_list()
    ids = _bridges(g.n, edges)
    return None if ids is None else {edges[i] for i in ids}


def test_bridges_match_removal_oracle_on_multigraphs():
    """Random multigraphs with parallel pairs; a disconnected one gives None.

    Each is also searched as an edge list with loops inserted, in the drawn
    order and orientation: the bridge ids are those of the edges whose pair
    the oracle reports on the loop-free multigraph, so neither a loop nor a
    parallel copy is one.
    """
    rng = SplitMix64(0xB81D6E)
    seen = {"disconnected": 0, "bridged": 0, "parallel": 0, "loops": 0}
    for _ in range(2000):
        n = 1 + rng.randrange(10)
        edges = []
        if rng.randrange(4):
            # a random spanning tree, so most graphs are connected
            edges = [(v, rng.randrange(v)) for v in range(1, n)]
        for _ in range(rng.randrange(n + 1)):
            if edges and rng.randrange(2):
                edges.append(edges[rng.randrange(len(edges))])
            elif n > 1:
                u, v = rng.randrange(n), rng.randrange(n - 1)
                edges.append((u, v if v < u else v + 1))
        g = MultiGraph(n, edges)
        ends = list(edges)
        for _ in range(rng.randrange(3)):
            v = rng.randrange(n)
            ends.insert(rng.randrange(len(ends) + 1), (v, v))
        if all(d != float("inf") for d in bfs_distances(n, edges, 0)):
            want = bridges_by_removal(g)
            assert _bridge_pairs(g) == want
            assert find_bridges(g) == want
            assert _bridges(n, ends) == {
                i for i, (u, v) in enumerate(ends) if (min(u, v), max(u, v)) in want
            }
            seen["bridged"] += bool(want)
        else:
            assert _bridge_pairs(g) is None
            assert _bridges(n, ends) is None
            seen["disconnected"] += 1
        seen["parallel"] += not g.is_simple()
        seen["loops"] += len(ends) > len(edges)
    assert min(seen.values()) > 100, seen


def test_bridges_match_iterator_dfs_reference(large_graphs, bridged_trees):
    """Same sets on graphs past the corpus, and None once an edge is cut."""
    disconnected = 0
    for name, g in large_graphs + bridged_trees:
        got = _bridge_pairs(g)
        assert got == bridges_by_iterator_dfs(g), name
        u, v = next(iter(got)) if got else (0, g.neighbors(0)[0])
        cut = MultiGraph(g.n, [e for e in g.edge_list() if e != (u, v)])
        after = _bridge_pairs(cut)
        assert after == bridges_by_iterator_dfs(cut), name
        assert (after is None) == bool(got), name
        disconnected += after is None
    assert disconnected > len(bridged_trees) // 2


def test_no_vertex_has_two_bridges(corpus, bridged_trees, random_bridged_trees):
    graphs = [g for _, g in corpus + bridged_trees] + random_bridged_trees
    for g in graphs:
        ends = [v for e in find_bridges(g) for v in e]
        assert len(ends) == len(set(ends))


def _tree_bridges(g: MultiGraph) -> set[tuple[int, int]]:
    """G's bridges read off `decompose`'s tree: each non-root component's
    up vertex with its up-neighbor.  None for a bridgeless graph, a tree
    of one component."""
    bt = decompose(g)
    ups = [(bt.degree2[c][0], bt.up_neighbor[c]) for c in range(len(bt.components)) if c != bt.root]
    return {(min(e), max(e)) for e in ups}


def _h_loops(g: MultiGraph) -> int:
    """The realizations the entry check finds with both ends on one triangle."""
    return sum(a == b for a, b in _require_claw_free_cubic(g)[1].ends)


def test_entry_bridges_match_removal_oracle(named_fixtures, random_bridged_trees):
    """The tree read from H's bridges has exactly G's bridges as its edges.

    Over the fixtures and 200 random bridged trees, among them many
    7-vertex Type III leaves, whose triangle has an H-loop through the
    leaf's diamond.
    """
    graphs = [named_fixtures[name] for name in ("k4", "prism", "big_expansion", "bridged_star")]
    graphs += random_bridged_trees
    with_loops = 0
    for g in graphs:
        assert _tree_bridges(g) == bridges_by_removal(g)
        with_loops += _h_loops(g) > 0
    assert _h_loops(named_fixtures["bridged_star"]) == 3
    assert with_loops > 100, with_loops


def test_entry_bridges_match_find_bridges_on_large_graphs(large_graphs):
    """A chain of 2,000 diamonds, which is one H-edge, and a graph over H of order 1,024."""
    graphs = dict(large_graphs)
    chain, built = graphs["chain-2000"], graphs["built-h1024"]
    assert len(_local_scan(built).triangles) == 1024
    assert len(_tree_bridges(chain)) == 2001
    for g in (chain, built):
        assert _tree_bridges(g) == find_bridges(g)


def test_entry_check_hands_out_h_edges_in_id_order(
    corpus, bridged_trees, random_bridged_trees, large_graphs
):
    """The contraction the entry check returns is numbered: its H-edges are
    sorted by (ends, walk), each run from its lower triangle, and H has no
    loop when g has no bridge."""
    graphs = [g for _, g in corpus + bridged_trees + large_graphs] + random_bridged_trees
    seen = {"bridgeless": 0, "bridged": 0}
    for g in graphs:
        h_bridges, local = _require_claw_free_cubic(g)
        if not local.triangles:
            continue
        pairs = list(zip(local.ends, local.walk))
        assert pairs == sorted(pairs)
        if h_bridges:
            assert all(a <= b for a, b in local.ends)
        else:
            assert all(a < b for a, b in local.ends)
        seen["bridged" if h_bridges else "bridgeless"] += 1
    assert min(seen.values()) > 200, seen


def _bridged_sweep_shapes() -> list[MultiGraph]:
    """Diamond chains of 50 to 400 components and a tree of 50 K3 components."""
    rng = SplitMix64(1)
    chains = [
        gen_bridged([("type3", 1)] + [("diamond", 2)] * k + [("type3", 1)], rng)
        for k in (50, 100, 200, 400)
    ]
    return chains + [gen_bridged([("k3", 3)] * 50 + [("type3", 1)] * 52, SplitMix64(2409))]


def test_bridge_tree_matches_sweeps_reference(
    named_fixtures, base_corpus, bridged_trees, random_bridged_trees
):
    """Every bridge-tree field of `decompose`'s record equals the one the
    previous construction gives, a bridgeless graph's, a single
    component, K4's and a ring's included.
    """
    graphs = [named_fixtures[name] for name in ("k4", "prism", "big_expansion", "bridged_star")]
    graphs += [gen_ring_of_diamonds(5)]
    graphs += [g for _, g in base_corpus + bridged_trees if find_bridges(g)]
    graphs += random_bridged_trees + _bridged_sweep_shapes()
    for g in graphs:
        got = decompose(g)
        want = bridge_tree_by_sweeps(g, find_bridges(g))
        for f, w in zip(Decomposition._fields[4:], want, strict=True):
            assert getattr(got, f) == w, f


def _tree_or_error(build, *args):
    try:
        return build(*args)
    except ClawcolorError as e:
        return type(e), str(e)


def _lifted(local, ids) -> set[tuple[int, int]]:
    """The G-edges of H-edges: the connectors of the realizations whose
    ids are in `ids`."""
    lifted = set()
    for i in ids:
        r = local.walk[i]
        lifted.update((min(e), max(e)) for e in zip(r[::4], r[1::4]))
    return lifted


def _broken_h_bridge_sets(local, h_bridges, rng):
    """Broken copies of H's bridge ids: less one, less half, plus an H-edge
    that is no bridge, or plus an H-loop."""
    ordered = sorted(h_bridges)
    yield "drop one", h_bridges - {ordered[rng.randrange(len(ordered))]}
    yield "drop half", set(ordered[::2])
    others = [i for i, e in enumerate(local.ends) if e[0] != e[1] and i not in h_bridges]
    if others:
        yield "non-bridge H-edge", h_bridges | {others[rng.randrange(len(others))]}
    loops = [i for i, e in enumerate(local.ends) if e[0] == e[1]]
    if loops:
        yield "H-loop", h_bridges | {loops[rng.randrange(len(loops))]}


def test_bridge_tree_matches_sweeps_reference_on_broken_bridge_sets(
    bridged_trees, random_bridged_trees
):
    """Same tree, or the same error class and message, as the reference on
    the G-edges the broken set of H-edges lifts to.

    Less one or half of H's bridges, the tree is one of merged components.
    An H-edge that is no bridge, or an H-loop, lifts to G-edges that are
    no bridges either, so the set stops at the component count.
    """
    rng = SplitMix64(0xB8)
    outcomes = set()
    for g in [g for _, g in bridged_trees] + random_bridged_trees:
        h_bridges, local = _require_claw_free_cubic(g)
        if not h_bridges:
            continue
        for how, broken in _broken_h_bridge_sets(local, h_bridges, rng):
            got = _tree_or_error(
                lambda *args: _bridge_tree(local, _class_tree(*args))[4:], broken, local
            )
            assert got == _tree_or_error(bridge_tree_by_sweeps, g, _lifted(local, broken)), how
            if isinstance(got[0], type):  # an error class and its message
                outcomes.add((how, got[0], re.sub(r"\d+", "k", got[1])))
            else:
                outcomes.add((how, "tree"))
    count = (InternalInvariantError, "k components for k bridges; tree property violated")
    assert outcomes == {
        ("drop one", "tree"),
        ("drop half", "tree"),
        ("non-bridge H-edge", *count),
        ("H-loop", *count),
    }, outcomes


def test_bridge_tree_reads_no_multiplicity(monkeypatch):
    """The tree is read from the contraction: it looks up no multiplicity
    and no adjacency of G, so it runs no search over G's vertices.  Nor
    does it read H, which the entry check holds only as its edge-id list:
    the scan has no H to keep.  G's copies of a pair are read only from
    `edge_list` or `slots`, and its adjacency from `neighbors` or
    `adjacency`."""
    g = gen_bridged([("type3", 1)] + [("diamond", 2)] * 50 + [("type3", 1)], SplitMix64(50))
    h_bridges, local = _require_claw_free_cubic(g)
    assert not hasattr(local, "h") and local.walk
    calls = [0]

    def counted(real):
        def method(self, *args):
            calls[0] += 1
            return real(self, *args)

        return method

    for name in ("edge_list", "slots", "neighbors", "adjacency"):
        monkeypatch.setattr(MultiGraph, name, counted(getattr(MultiGraph, name)))
    bt = _bridge_tree(local, _class_tree(h_bridges, local))
    assert bt.kinds.count(ComponentKind.DIAMOND) == 50
    assert calls[0] == 0


@pytest.mark.parametrize(
    "name, variant",
    [("k4", Variant.K4), ("ring", Variant.RING), ("prism", Variant.BUILT),
     ("big_expansion", Variant.BUILT)],
    ids=["k4", "ring", "prism", "big_expansion"],
)
def test_bridge_tree_bridgeless_single_node(named_fixtures, monkeypatch, name, variant):
    """A bridgeless graph's class tree, read from H's empty set of bridges,
    is one class with no bridge, whose share is the very contraction the
    entry check returned, not a copy: a built graph's numbered H, a
    ring's one cyclic walk, and K4's, the ring (0, 2, 3, 1) of one
    diamond.  `decompose` hands that contraction out with the tree
    expanded to one Type III component, whatever the variant."""
    g = gen_ring_of_diamonds(5) if name == "ring" else named_fixtures[name]
    real, checked = recognition._require_claw_free_cubic, []

    def recorded(g):
        checked.append(real(g))
        return checked[-1]

    monkeypatch.setattr(recognition, "_require_claw_free_cubic", recorded)
    tree = _structure(g)
    ((h_bridges, local),) = checked
    assert h_bridges == set()
    assert (tree.order, tree.via, tree.depth) == ([0], [-1], [0])
    assert tree.bridges == tree.ends == [] and tree.links == [[]]
    assert list(tree.shares) == [0] and tree.shares[0] is local
    if name == "k4":
        assert local.walk == ((0, 2, 3, 1),)
    elif name == "ring":
        assert local.walk == (_ring_walk(g, _local_scan(g)),)
    bt = _bridge_tree(local, tree)
    assert bt == decompose(g)
    assert bt.variant is variant
    assert bt.triangles == tuple(local.triangles)
    assert bt.ends == tuple(local.ends)
    assert bt.walk == tuple(local.walk)
    assert bt.components == (tuple(range(g.n)),)
    assert bt.kinds == (ComponentKind.TYPE_III,)
    assert bt.tree_adj == ((),)
    assert bt.root == 0
    assert bt.depth == (0,)
    assert bt.up_neighbor == (-1,)
    assert bt.degree2 == ((),)


def test_bridge_tree_of_star_fixture(named_fixtures):
    g = named_fixtures["bridged_star"]
    bt = decompose(g)
    assert len(bt.components) == 4
    kinds = sorted(k.value for k in bt.kinds)
    assert kinds == ["K3", "type3", "type3", "type3"]
    # the K3 is the center, every Type III is a leaf
    center = bt.kinds.index(ComponentKind.TRIANGLE)
    assert len(bt.tree_adj[center]) == 3
    assert bt.root != center
    assert bt.depth[center] == 1
    # each non-root component's first degree-2 vertex has the up-neighbor
    for c in range(4):
        if c == bt.root:
            assert bt.up_neighbor[c] == -1
        else:
            assert bt.up_neighbor[c] in g.neighbors(bt.degree2[c][0])
            assert bt.up_neighbor[c] not in bt.components[c]


def test_bridge_tree_two_blocks():
    # two 7-vertex gadgets joined by one bridge
    leaf = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 5), (3, 6), (5, 6), (5, 4), (6, 4)]
    g = MultiGraph(14, leaf + [(u + 7, v + 7) for u, v in leaf] + [(0, 7)])
    bt = decompose(g)
    assert len(bt.components) == 2
    assert bt.degree2 == ((0,), (7,))
    assert bt.up_neighbor in ((-1, 0), (7, -1))
    assert bt.kinds == (ComponentKind.TYPE_III, ComponentKind.TYPE_III)
    assert bt.depth[bt.root] == 0


def test_up_neighbor_in_component_neighbors_adjacent(base_corpus, random_bridged_trees):
    """Every attachment of every component lies on a triangle of it: its
    two in-component neighbors are adjacent.  No two attachments of a
    Type III component or a diamond are adjacent, so no two share a
    triangle.  The colorer completes Type III components on these facts
    without checking them."""
    tested = 0
    for g in [g for _, g in base_corpus] + random_bridged_trees:
        if not find_bridges(g):
            continue
        tested += 1
        bt = decompose(g)
        for comp, kind, xs in zip(bt.components, bt.kinds, bt.degree2):
            inside = set(comp)
            for x in xs:
                a, b = (w for w in g.neighbors(x) if w in inside)
                assert b in g.neighbors(a)
            if kind != ComponentKind.TRIANGLE:
                assert not any(y in g.neighbors(x) for x in xs for y in xs)
    assert tested > 50


def test_bridge_tree_component_count(base_corpus):
    """`decompose` gives a tree of |B| + 1 components, one when there is no bridge."""
    for _, g in base_corpus:
        assert len(decompose(g).components) == len(find_bridges(g)) + 1


def _rooting_mismatches(graphs) -> tuple[int, list]:
    """How many graphs have bridges, and those whose `decompose` rooting is
    not the all-pairs rule's."""
    tested, bad = 0, []
    for name, g in graphs:
        bridges = find_bridges(g)
        bt = decompose(g)
        if not bridges:
            assert len(bt.components) == 1, name
            continue
        tested += 1
        comp_of = {v: c for c, comp in enumerate(bt.components) for v in comp}
        got = {
            "root": bt.root,
            "depth": list(bt.depth),
            "parent": [-1 if q == -1 else comp_of[q] for q in bt.up_neighbor],
            "up_vertex": [-1 if c == bt.root else xs[0] for c, xs in enumerate(bt.degree2)],
            "up_neighbor": list(bt.up_neighbor),
        }
        if got != bridge_tree_root_brute(g, bridges):
            bad.append(name)
    return tested, bad


def test_bridge_tree_rooting_matches_all_pairs_rule(bridged_trees, random_bridged_trees):
    """The root min(a, b) and the depths from its sweep are the ones the
    eccentricity of every node picks, on every bridged tree of both corpora."""
    assert _rooting_mismatches(bridged_trees) == (49, [])
    assert _rooting_mismatches(
        (f"random{i}", g) for i, g in enumerate(random_bridged_trees)
    ) == (200, [])


def test_root_rule_on_every_labelled_tree_up_to_7_nodes():
    """min(a, b) is the smallest end of a diametral path on each of the
    18,248 labelled trees of 2 to 7 nodes, from every start node.
    `tests/bridge_tree_at_scale.py` runs the 280,392 trees of up to 8 nodes."""
    assert root_rule_counterexamples(7) == (18_248, [])


def test_single_diamond():
    g = MultiGraph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    ds = find_diamonds(g)
    assert ds == [((1, 2), (0, 3))]  # (interiors, exteriors)


def test_k4_has_no_induced_diamond():
    assert find_diamonds(k4()) == []
    assert is_k4(k4())


def test_ring3_diamonds_disjoint():
    g = gen_ring_of_diamonds(3)
    ds = find_diamonds(g)
    assert len(ds) == 3
    seen = set()
    for d in ds:
        assert not (diamond_vertices(d) & seen)
        seen |= diamond_vertices(d)
    assert len(seen) == 12


def test_ring_recognition():
    assert decompose(gen_ring_of_diamonds(2)).variant is Variant.RING
    assert decompose(k4()).variant is not Variant.RING


def test_big_expansion_not_ring(named_fixtures):
    assert decompose(named_fixtures["big_expansion"]).variant is not Variant.RING


def test_isomorphism_basic():
    a = MultiGraph(2, [(0, 1), (0, 1), (0, 1)])
    b = MultiGraph(2, [(0, 1), (0, 1), (0, 1)])
    assert multigraph_isomorphic(a, b)
    c = MultiGraph(2, [(0, 1), (0, 1)])
    assert not multigraph_isomorphic(a, c)


def test_isomorphism_detects_relabeling(named_fixtures):
    g = named_fixtures["h10"]
    perm = [3, 1, 4, 0, 9, 2, 6, 5, 8, 7]
    assert multigraph_isomorphic(g, relabeled(g, perm))


def test_isomorphism_distinguishes():
    # K4 vs digon pair: same degree sequence, different structure
    a = k4()
    b = MultiGraph(4, [(0, 1), (0, 1), (2, 3), (2, 3), (0, 2), (1, 3)])
    assert not multigraph_isomorphic(a, b)


def _random_simple_cubic(rng: SplitMix64, count: int) -> list[MultiGraph]:
    """Seeded simple cubic graphs of order 4 to 40; most have claws."""
    out = []
    while len(out) < count:
        g = gen_cubic_multigraph(2 * (2 + rng.randrange(19)), rng)
        if g.is_simple():
            perm = list(range(g.n))
            rng.shuffle(perm)
            out.append(relabeled(g, perm))
    return out


def _claw_free_graphs(base_corpus, named_fixtures) -> list[MultiGraph]:
    graphs = [g for _, g in base_corpus]
    graphs += [named_fixtures[name] for name in ("k4", "prism", "big_expansion", "bridged_star")]
    graphs += [gen_ring_of_diamonds(k) for k in (2, 3, 9)]
    rng = SplitMix64(0xD1A)
    for n_h in (2, 4, 8, 16, 32):
        h = gen_cubic_multigraph(n_h, rng)
        graphs.append(expand_to_clawfree(h, random_expansion_spec(h, rng, 3), rng))
    return graphs


def test_local_scan_claw_matches_find_claw(named_fixtures, base_corpus):
    rng = SplitMix64(0xC1A)
    petersen = named_fixtures["petersen"]
    graphs = [petersen] + _random_simple_cubic(rng, 200)
    for _ in range(30):
        perm = list(range(10))
        rng.shuffle(perm)
        graphs.append(relabeled(petersen, perm))
    graphs += _claw_free_graphs(base_corpus, named_fixtures)
    claws = 0
    for g in graphs:
        expected = find_claw(g)
        assert _local_scan(g).claw == expected
        claws += expected is not None
    assert claws >= 200


def _assert_scan_matches_definitions(g: MultiGraph, local) -> None:
    """The scan of a claw-free g, K4 aside, against the definitions.

    The flat diamonds, regrouped, are `find_diamonds`'s; the triangles are
    those on no diamond by smallest corner; the index `at` maps each
    corner of triangle i to i and each vertex of the diamond at offset j
    to ~j, and no entry is None.
    """
    assert local.claw is None
    diamonds = scan_diamonds(local.diamonds)
    assert diamonds == find_diamonds(g)
    assert local.triangles == triangles_off_diamonds_brute(g, diamonds)
    for j in range(0, len(local.diamonds), 4):
        assert all(local.at[v] == ~j for v in local.diamonds[j:j + 4])
    for i, t in enumerate(local.triangles):
        assert all(local.at[v] == i for v in t)
    assert None not in local.at


def test_local_scan_matches_definitions(named_fixtures, base_corpus):
    """Diamonds as `find_diamonds` lists them, in the order of their smallest
    vertices, and the triangles on no diamond by smallest corner, with
    one per-vertex index into both."""
    for g in _claw_free_graphs(base_corpus, named_fixtures):
        local = _local_scan(g)
        if is_k4(g):
            assert local.claw is None and local.diamonds == local.triangles == []
            continue
        _assert_scan_matches_definitions(g, local)
        firsts = [min(local.diamonds[j:j + 4]) for j in range(0, len(local.diamonds), 4)]
        assert firsts == sorted(firsts)


def test_local_scan_does_not_depend_on_vertex_order():
    """Seeded relabellings of built graphs with strings of 0 to 2 diamonds,
    rings and diamond chains: the scan matches the definitions, and the
    coloring certifies.  A diamond is recorded at its smallest vertex, so
    the relabellings meet diamonds first at an exterior and at an interior
    alike, and both are counted."""
    rng = SplitMix64(0x5CA9)
    graphs = []
    for strings in (0, 1, 2):
        for n_h in (4, 16, 64):
            h = gen_cubic_multigraph(n_h, rng)
            graphs.append(expand_to_clawfree(h, random_expansion_spec(h, rng, strings), rng))
    graphs += [gen_ring_of_diamonds(k) for k in (2, 5, 30)]
    for k in (1, 10):
        graphs.append(gen_bridged([("type3", 1)] + [("diamond", 2)] * k + [("type3", 1)], rng))
    met_at = {"exterior": 0, "interior": 0}
    for g in graphs:
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            g2 = relabeled(g, perm)
            local = _local_scan(g2)
            _assert_scan_matches_definitions(g2, local)
            for j in range(0, len(local.diamonds), 4):
                met_at["exterior" if local.diamonds[j + 2] < local.diamonds[j] else "interior"] += 1
            assert verify(g2, SPEC_1122, color_claw_free_cubic(g2)) == []
    assert min(met_at.values()) >= 100, met_at


def _rewired(rng: SplitMix64) -> tuple[MultiGraph, MultiGraph]:
    """A built graph, and it with one vertex v's edge to p rewired.

    A 2-switch trades the edge vp and an edge uw away from both for vu and
    pw.  On a triangle or diamond edge it leaves v or p a claw center; on a
    connector the graph stays claw-free.  v is drawn from the upper half of
    the ids, so the first claw center tends to come after many triangles
    and diamonds.
    """
    while True:
        h = gen_cubic_multigraph(2 * (3 + rng.randrange(8)), rng)
        g = expand_to_clawfree(h, random_expansion_spec(h, rng, 2), rng)
        v = g.n // 2 + rng.randrange(g.n - g.n // 2)
        p = g.neighbors(v)[rng.randrange(3)]
        edges = g.edge_list()
        u, w = edges[rng.randrange(len(edges))]
        if {u, w} & {v, p} or u in g.neighbors(v) or w in g.neighbors(p):
            continue
        edges.remove((min(v, p), max(v, p)))
        edges.remove((u, w))
        return g, MultiGraph(g.n, edges + [(v, u), (p, w)])


def test_local_scan_skipping_recorded_vertices_keeps_its_answer():
    """The scan skips vertices it has recorded; the claw, diamonds and triangles stay.

    Over rewired built graphs, where the first claw center (if any) comes
    after at least three triangles and three diamonds the scan recorded
    and skipped through, and simple random cubic graphs.  The witness is
    `find_claw`'s, the first center in vertex order; `find_claw_brute`,
    whose first claw is the lexicographically first quadruple, confirms a
    claw on the smaller graphs.
    """
    rng = SplitMix64(0x5C1A)
    late_claws = claw_free = 0
    for _ in range(150):
        before, g = _rewired(rng)
        local, claw = _local_scan(g), find_claw(g)
        assert local.claw == claw
        if claw is None:
            claw_free += 1
            diamonds = scan_diamonds(local.diamonds)
            assert diamonds == find_diamonds(g)
            # a 2-switch may split off a K4, whose triangles the scan leaves out
            on_k4 = {
                v for v in range(g.n)
                if all(b in g.neighbors(a) for a, b in combinations([v, *g.neighbors(v)], 2))
            }
            triangles = triangles_off_diamonds_brute(g, diamonds)
            assert local.triangles == [t for t in triangles if t[0] not in on_k4]
            continue
        # the triangles and diamonds of the unrewired graph, wholly below the center
        scanned = _local_scan(before)
        below = [t for t in scanned.triangles if max(t) < claw[0]]
        below_d = [d for d in scan_diamonds(scanned.diamonds) if max(diamond_vertices(d)) < claw[0]]
        late_claws += len(below) >= 3 and len(below_d) >= 3
    assert late_claws >= 80 and claw_free >= 5, (late_claws, claw_free)
    for g in _random_simple_cubic(rng, 100):
        local = _local_scan(g)
        assert local.claw == find_claw(g)
        if g.n <= 16:
            assert (local.claw is None) == (find_claw_brute(g) is None)
        if local.claw is None:
            assert scan_diamonds(local.diamonds) == find_diamonds(g)


class _ReadCounter(list):
    """Adjacency lists that count how many lists are read from them."""

    reads = 0

    def __getitem__(self, v):
        self.reads += 1
        return list.__getitem__(self, v)


class _CountedGraph(MultiGraph):
    def adjacency(self):
        self.counter = _ReadCounter(super().adjacency())
        return self.counter


@pytest.mark.parametrize("strings", [0, 2, "ring"])
def test_local_scan_reads_a_recorded_vertex_no_more(strings):
    """Each triangle is read from its smallest corner only, and each diamond
    from the first of its vertices the scan visits, its smallest, only.

    A visit makes 4 reads: its own list, then a's twice and b's once to
    test its neighborhood.  A vertex with one edge there makes 2 more for
    the diamond test, x's list and y's.  So a triangle costs 6 reads, and a
    diamond 4 when its smallest vertex is an interior and 6 when it is an
    exterior.  Visiting every vertex would cost a triangle 14.
    """
    rng = SplitMix64(0xC0DE)
    if strings == "ring":
        plain = gen_ring_of_diamonds(12)
    else:
        h = gen_cubic_multigraph(24, rng)
        plain = expand_to_clawfree(h, random_expansion_spec(h, rng, strings), rng)
    g = _CountedGraph(plain.n, plain.edge_list())
    local = _local_scan(g)
    assert local.claw is None and (strings == 0) == (not local.diamonds)
    expected = 6 * len(local.triangles) + sum(
        6 if exteriors[0] < interiors[0] else 4
        for interiors, exteriors in scan_diamonds(local.diamonds)
    )
    assert g.counter.reads == expected
