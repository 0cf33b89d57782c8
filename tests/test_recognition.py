import pytest

from clawcolor import (
    ComponentKind,
    MultiGraph,
    build_bridge_tree,
    find_bridges,
    find_claw,
    find_diamonds,
    gen_ring_of_diamonds,
    is_claw_free,
    is_k4,
    is_ring_of_diamonds,
    multigraph_isomorphic,
)
from clawcolor.errors import DisconnectedError

from brute import bridge_tree_root_brute, bridges_by_removal, find_claw_brute, relabeled


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
    graphs = [g for _, g in base_corpus[:20]] + [named_fixtures["petersen"]]
    for g in graphs:
        assert (find_claw(g) is None) == (find_claw_brute(g) is None)


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


def test_bridge_tree_bridgeless_single_node():
    bt = build_bridge_tree(k4())
    assert bt.b == 0
    assert len(bt.components) == 1
    assert bt.root == 0
    assert bt.depth == (0,)


def test_bridge_tree_of_star_fixture(named_fixtures):
    bt = build_bridge_tree(named_fixtures["bridged_star"])
    assert len(bt.components) == 4
    kinds = sorted(k.value for k in bt.kinds)
    assert kinds == ["K3", "type3", "type3", "type3"]
    # the K3 is the center, every Type III is a leaf
    center = bt.kinds.index(ComponentKind.TRIANGLE)
    assert len(bt.tree_adj[center]) == 3
    assert bt.root != center
    assert bt.depth[center] == 1
    # each non-root component has exactly one vertex with an up-neighbor
    for c in range(4):
        if c == bt.root:
            assert bt.up_vertex[c] == -1
        else:
            assert bt.up_vertex[c] >= 0
            assert bt.degree2[c][0] == bt.up_vertex[c]


def test_bridge_tree_two_blocks():
    # two 7-vertex gadgets joined by one bridge
    leaf = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 5), (3, 6), (5, 6), (5, 4), (6, 4)]
    g = MultiGraph(14, leaf + [(u + 7, v + 7) for u, v in leaf] + [(0, 7)])
    bt = build_bridge_tree(g)
    assert len(bt.components) == 2
    assert bt.bridges == ((0, 7),)
    assert bt.kinds == (ComponentKind.TYPE_III, ComponentKind.TYPE_III)
    assert bt.depth[bt.root] == 0


def test_up_neighbor_in_component_neighbors_adjacent(base_corpus):
    # the two in-component neighbors of every attachment vertex are adjacent
    for _, g in base_corpus:
        if not find_bridges(g):
            continue
        bt = build_bridge_tree(g)
        for c, comp in enumerate(bt.components):
            if c == bt.root:
                continue
            x1 = bt.up_vertex[c]
            inside = [w for w in g.neighbors(x1) if w in set(comp)]
            assert len(inside) == 2
            assert g.has_edge(inside[0], inside[1])


def test_bridge_tree_component_count(base_corpus):
    for _, g in base_corpus:
        bt = build_bridge_tree(g)
        assert len(bt.components) == bt.b + 1


def test_bridge_tree_rooting_matches_all_pairs_rule(bridged_trees):
    """Three BFS sweeps pick the root the eccentricity of every node picks."""
    for name, g in bridged_trees:
        bt = build_bridge_tree(g)
        got = {
            "root": bt.root,
            "depth": list(bt.depth),
            "parent": list(bt.parent),
            "up_vertex": list(bt.up_vertex),
            "up_neighbor": list(bt.up_neighbor),
        }
        assert got == bridge_tree_root_brute(g, bt.bridges), name


def test_single_diamond():
    g = MultiGraph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    ds = find_diamonds(g)
    assert len(ds) == 1
    assert ds[0].interiors == (1, 2)
    assert ds[0].exteriors == (0, 3)


def test_k4_has_no_induced_diamond():
    assert find_diamonds(k4()) == []
    assert is_k4(k4())


def test_ring3_diamonds_disjoint():
    g = gen_ring_of_diamonds(3)
    ds = find_diamonds(g)
    assert len(ds) == 3
    seen = set()
    for d in ds:
        assert not (d.vertices & seen)
        seen |= d.vertices
    assert len(seen) == 12


def test_ring_recognition():
    assert is_ring_of_diamonds(gen_ring_of_diamonds(2))
    assert not is_ring_of_diamonds(k4())


def test_big_expansion_not_ring(named_fixtures):
    assert not is_ring_of_diamonds(named_fixtures["big_expansion"])


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
