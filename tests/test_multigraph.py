import math

import pytest
from hypothesis import given, strategies as st

from clawcolor import (
    MultiGraph,
    build_bridge_tree,
    fixtures,
    is_connected,
    is_cubic,
)
from clawcolor.errors import LoopEdgeError, VertexOutOfRangeError

from brute import all_pairs_distances, bfs_distances


def test_triple_edge_is_cubic():
    g = MultiGraph(2, [(0, 1), (0, 1), (0, 1)])
    assert g.degree(0) == g.degree(1) == 3
    assert is_cubic(g)
    assert g.multiplicity(0, 1) == 3
    assert g.slots() == [(0, 1, 0), (0, 1, 1), (0, 1, 2)]


def test_k4_degrees():
    g = MultiGraph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert all(g.degree(v) == 3 for v in range(4))
    assert is_cubic(g)


def test_loop_rejected():
    with pytest.raises(LoopEdgeError):
        MultiGraph(1, [(0, 0)])


def test_out_of_range_rejected():
    with pytest.raises(VertexOutOfRangeError):
        MultiGraph(2, [(0, 2)])


def test_k4_distances_all_one():
    g = MultiGraph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    d = all_pairs_distances(g)
    assert all(d[u][v] == 1 for u in range(4) for v in range(4) if u != v)


def test_path_distance():
    g = MultiGraph(4, [(0, 1), (1, 2), (2, 3)])
    assert all_pairs_distances(g)[0][3] == 3


def test_petersen_diameter_two():
    g = fixtures()["petersen"]
    d = all_pairs_distances(g)
    # frozen from an independent BFS over the standard edge list
    ref = [bfs_distances(g.n, g.edge_list(), s) for s in range(g.n)]
    assert d == ref
    assert max(max(row) for row in d) == 2


def test_c5_not_cubic():
    g = MultiGraph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert not is_cubic(g)


def test_disconnected_distance_inf():
    g = MultiGraph(3, [(0, 1)])
    d = all_pairs_distances(g)
    assert d[0][2] == math.inf
    assert not is_connected(g)


def test_induced_subgraph():
    g = MultiGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3), (1, 3)])
    sub, to_global = g.induced([1, 2, 3])
    assert to_global == [1, 2, 3]
    assert sub.edge_pairs() == [(0, 1, 1), (0, 2, 2), (1, 2, 1)]


def test_without_slots_and_with_edges():
    g = MultiGraph(3, [(0, 1), (0, 1), (1, 2)])
    h = g.without_slots([(0, 1, 1)])
    assert h.edge_pairs() == [(0, 1, 1), (1, 2, 1)]
    back = h.with_edges([(0, 1)])
    assert back == g


edge_lists = st.integers(min_value=2, max_value=12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=30,
        ),
    )
)


@given(edge_lists)
def test_handshake(data):
    n, edges = data
    g = MultiGraph(n, edges)
    assert sum(g.degrees()) == 2 * g.size == 2 * len(edges)


@given(edge_lists)
def test_distances_match_bfs_oracle(data):
    n, edges = data
    g = MultiGraph(n, edges)
    d = all_pairs_distances(g)
    for s in range(n):
        assert d[s] == bfs_distances(n, g.edge_list(), s)
    for u in range(n):
        assert d[u][u] == 0
        for v in range(n):
            assert d[u][v] == d[v][u]


@given(edge_lists, st.data())
def test_induced_parts_match_induced(graph, data):
    n, edges = graph
    g = MultiGraph(n, edges)
    part_of = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    classes = range(max(part_of, default=-1) + 1)
    for p, part in zip(classes, g.induced_parts(part_of, classes), strict=True):
        assert part == g.induced([v for v in range(n) if part_of[v] == p])


@given(edge_lists, st.data())
def test_induced_parts_of_some_classes_match_induced(graph, data):
    """A subset of the classes, in any order."""
    n, edges = graph
    g = MultiGraph(n, edges)
    part_of = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    classes = range(max(part_of, default=-1) + 1)
    order = data.draw(st.lists(st.sampled_from(classes), unique=True))
    parts = list(g.induced_parts(part_of, order))
    assert len(parts) == len(order)
    for p, part in zip(order, parts):
        assert part == g.induced([v for v in range(n) if part_of[v] == p])


def test_induced_parts_rejects_short_partition():
    with pytest.raises(ValueError):
        next(MultiGraph(3, [(0, 1)]).induced_parts([0, 0], [0]))


def test_bridge_tree_components_in_one_pass(bridged_trees):
    for name, g in bridged_trees:
        bt = build_bridge_tree(g)
        # reversed, to show the subgraphs do not depend on the order asked
        order = range(len(bt.components) - 1, -1, -1)
        parts = g.induced_parts(bt.comp_of, order)
        for c, (sub, to_global) in zip(order, parts, strict=True):
            comp = bt.components[c]
            expected_sub, expected_to_global = g.induced(comp)
            assert sub == expected_sub, name
            assert to_global == expected_to_global, name
