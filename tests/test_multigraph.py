import math
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from clawcolor import (
    MultiGraph,
    SplitMix64,
    fixtures,
    gen_cubic_multigraph,
    is_connected,
    is_cubic,
)
from clawcolor.errors import LoopEdgeError, VertexOutOfRangeError

from brute import bfs_distances


def test_triple_edge_is_cubic():
    g = MultiGraph(2, [(0, 1), (0, 1), (0, 1)])
    assert g.degree(0) == g.degree(1) == 3
    assert is_cubic(g)
    assert g.edge_list() == [(0, 1)] * 3
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


def test_petersen_diameter_two():
    g = fixtures()["petersen"]
    d = [bfs_distances(g.n, g.edge_list(), s) for s in range(g.n)]
    assert max(max(row) for row in d) == 2


def test_c5_not_cubic():
    g = MultiGraph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert not is_cubic(g)


def test_disconnected_distance_inf():
    g = MultiGraph(3, [(0, 1)])
    assert bfs_distances(g.n, g.edge_list(), 0)[2] == math.inf
    assert not is_connected(g)


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


# Definition-level checks: a MultiGraph must answer every query as the
# Counter of its normalised edge pairs does.  Few vertices and many edges,
# so parallel pairs are common.
multisets = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=24,
        ),
    )
)


def pair_counts(edges) -> Counter:
    return Counter((min(e), max(e)) for e in edges)


def slots_of(counts: Counter) -> list[tuple[int, int, int]]:
    return [(u, v, k) for (u, v), m in sorted(counts.items()) for k in range(m)]


@given(multisets)
def test_queries_match_pair_counts(data):
    n, edges = data
    g = MultiGraph(n, edges)
    counts = pair_counts(edges)
    nbrs = [sorted({w for pair in counts for w in pair if v in pair and w != v}) for v in range(n)]
    assert [g.neighbors(v) for v in range(n)] == g.adjacency() == nbrs
    assert [g.degree(v) for v in range(n)] == g.degrees()
    assert g.degrees() == [sum(m for pair, m in counts.items() if v in pair) for v in range(n)]
    assert g.slots() == slots_of(counts)
    assert g.edge_list() == [(u, v) for u, v, _ in slots_of(counts)]
    assert g.size == len(edges)
    assert g.is_simple() == all(m == 1 for m in counts.values())


@given(multisets, st.data())
def test_equality_and_hash_ignore_edge_order(graph, data):
    n, edges = graph
    g = MultiGraph(n, edges)
    shuffled = data.draw(st.permutations(edges))
    flips = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    same = MultiGraph(n, [(v, u) if f else (u, v) for (u, v), f in zip(shuffled, flips)])
    assert same == g
    expanded = tuple((u, v) for u, v, _ in slots_of(pair_counts(edges)))
    assert hash(same) == hash(g) == hash((n, expanded))
    assert MultiGraph(n + 1, edges) != g
    if n >= 2:
        assert MultiGraph(n, edges + [(0, 1)]) != g


@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.tuples(st.integers(-2, n + 1), st.integers(-2, n + 1)), max_size=8)
        )
    )
)
def test_first_bad_edge_decides_the_error(data):
    """A loop is reported before a range error, and u before v."""
    n, edges = data
    for u, v in edges:
        if u == v:
            with pytest.raises(LoopEdgeError) as info:
                MultiGraph(n, edges)
            break
        bad = next((x for x in (u, v) if not 0 <= x < n), None)
        if bad is not None:
            with pytest.raises(VertexOutOfRangeError) as info:
                MultiGraph(n, edges)
            break
    else:
        assert MultiGraph(n, edges).size == len(edges)
        return
    assert info.value.vertex == (u if u == v else bad)


def test_bytes_per_vertex(large_graphs):
    """The 9,216-vertex built graph: a simple graph stores its neighbour lists and no per-edge dict."""
    name, g = large_graphs[0]
    assert name == "built-h1024"
    n, edges = g.n, g.edge_list()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = MultiGraph(n, edges)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert built == g
    assert held / n < 160, f"{held / n:.0f} bytes per vertex"


def test_slots_at_lists_each_vertex_slots_in_sorted_order():
    """The slots at v, by neighbour and then by copy, as the definition
    reads them from the copies in `g.edge_list()`, with and without
    parallel pairs, are the slots of `g.slots()` at v in their order, the
    order of the indexes `expand_to_clawfree` numbers H's edges by."""
    rng = SplitMix64(0x5107)
    graphs = [
        MultiGraph(2, [(0, 1)] * 3),
        MultiGraph(5, [(0, 1), (0, 1), (1, 2), (0, 3), (0, 3), (0, 3), (2, 4)]),
        fixtures()["h10"],
        fixtures()["petersen"],
    ]
    graphs += [gen_cubic_multigraph(2 * (1 + rng.randrange(12)), rng) for _ in range(60)]
    parallel = 0
    for g in graphs:
        parallel += not g.is_simple()
        copies = Counter(g.edge_list())
        for v in range(g.n):
            expected = [
                (min(v, w), max(v, w), k)
                for w in g.neighbors(v)
                for k in range(copies[min(v, w), max(v, w)])
            ]
            assert expected == sorted(expected)
            assert set(expected) <= set(g.slots())
            assert expected == [s for s in g.slots() if v in s[:2]]
    assert parallel >= 30, parallel
