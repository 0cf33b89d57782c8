from unittest import mock

import pytest

from clawcolor import (
    C1A,
    C1B,
    C2A,
    C2B,
    SPEC_1122,
    BridgeTree,
    ComponentKind,
    ExpansionSpec,
    MultiGraph,
    PackingColoring,
    color_claw_free_cubic,
    decompose,
    expand_to_clawfree,
    find_bridges,
    gen_bridged,
    gen_cubic_multigraph,
    verify,
)
from clawcolor.errors import (
    ClaimViolatedError,
    DisconnectedError,
    InternalInvariantError,
    NotClawFreeError,
    NotCubicError,
    NotSimpleError,
)
import clawcolor.colorer
from clawcolor.colorer import (
    _check_independent,
    _color_bridged,
    _color_type3,
    _completion,
    _free_two_color,
)
from clawcolor.recognition import _require_claw_free_cubic
from clawcolor.rng import SplitMix64

from brute import bridges_by_removal, color_bridged_by_subgraphs, completion_by_subgraphs, induced
from test_recognition import _bridged_sweep_shapes


def assert_valid(g, coloring):
    assert verify(g, SPEC_1122, coloring) == []


def leaf_gadget(offset=0):
    """7-vertex Type III component whose completion collapses to K4."""
    e = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 5), (3, 6), (5, 6), (5, 4), (6, 4)]
    return [(u + offset, v + offset) for u, v in e]


def _attachments(comp, x1):
    """comp's degree-2 vertices, x1 first."""
    return [x1] + [v for v in range(comp.n) if comp.degree(v) == 2 and v != x1]


def color_root(comp, x1):
    """The root coloring of a whole Type III component whose one attachment is x1."""
    colors, _ = _color_type3(comp, range(comp.n), _attachments(comp, x1), C2A, root_style=True)
    return PackingColoring(SPEC_1122, colors)


def extend(comp, x1, forced, kind=ComponentKind.TYPE_III):
    """The coloring of a whole non-root component whose up vertex x1 gets `forced`.

    A K3 or diamond is colored in place by `_color_bridged`, as the one
    non-root component of a tree whose up-neighbor, x1 itself, leaves
    `forced` free.
    """
    xs = _attachments(comp, x1)
    if kind is not ComponentKind.TYPE_III:
        bt = BridgeTree(
            components=(tuple(range(comp.n)),),
            kinds=(kind,),
            tree_adj=((),),
            root=-1,
            depth=(1,),
            up_neighbor=(x1,),
            degree2=(tuple(xs),),
        )
        with mock.patch.object(clawcolor.colorer, "_free_two_color", lambda g, a, q: forced):
            return _color_bridged(comp, bt)
    _check_independent(comp, xs)
    colors, _ = _color_type3(comp, range(comp.n), xs, forced, root_style=False)
    return PackingColoring(SPEC_1122, colors)


def test_k4_top_level():
    g = MultiGraph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert_valid(g, color_claw_free_cubic(g))


def test_rejects_petersen_with_witness(named_fixtures):
    with pytest.raises(NotClawFreeError) as exc:
        color_claw_free_cubic(named_fixtures["petersen"])
    assert len(exc.value.witness) == 4


def test_rejects_non_cubic():
    with pytest.raises(NotCubicError):
        color_claw_free_cubic(MultiGraph(3, [(0, 1), (1, 2), (0, 2)]))


def test_rejects_disconnected():
    # two disjoint copies of K4
    k4_edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    g = MultiGraph(8, k4_edges + [(u + 4, v + 4) for u, v in k4_edges])
    with pytest.raises(DisconnectedError):
        color_claw_free_cubic(g)


def test_rejects_multigraph():
    with pytest.raises(NotSimpleError):
        color_claw_free_cubic(MultiGraph(2, [(0, 1)] * 3))


def test_bridged_star_fixture(named_fixtures):
    g = named_fixtures["bridged_star"]
    col = color_claw_free_cubic(g)
    assert_valid(g, col)
    # every component's attachment vertex carries a radius-2 class, and no
    # bridge has both endpoints in one class
    bt = decompose(g)
    for c in range(len(bt.components)):
        if c == bt.root:
            continue
        assert col.assignment[bt.degree2[c][0]] in (C2A, C2B)
    for u, v in find_bridges(g):
        assert col.assignment[u] != col.assignment[v]


def test_two_k4_completion_leaves():
    g = MultiGraph(14, leaf_gadget(0) + leaf_gadget(7) + [(0, 7)])
    col = color_claw_free_cubic(g)
    assert_valid(g, col)
    # both attachment vertices carry radius-2 classes across the bridge
    assert col.assignment[0] in (C2A, C2B)
    assert col.assignment[7] in (C2A, C2B)
    assert col.assignment[0] != col.assignment[7]


def test_root_component_coloring():
    comp = MultiGraph(7, leaf_gadget(0))
    col = color_root(comp, 0)
    assert col.assignment[0] == C2A
    assert_valid(comp, col)


def test_root_component_with_prism_completion():
    # prism with one rung replaced by the gadget: completion is the prism
    prism_minus = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (1, 4), (2, 5)]
    comp = MultiGraph(9, prism_minus + [(0, 6), (6, 7), (7, 3), (6, 8), (7, 8)])
    col = color_root(comp, 8)
    assert col.assignment[8] == C2A
    assert_valid(comp, col)


def test_extend_k3():
    comp = MultiGraph(3, [(0, 1), (0, 2), (1, 2)])
    col = extend(comp, 1, C2B, ComponentKind.TRIANGLE)
    assert col.assignment[1] == C2B
    assert {col.assignment[0], col.assignment[2]} == {C1A, C1B}
    assert_valid(comp, col)


def test_extend_diamond():
    comp = MultiGraph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    col = extend(comp, 0, C2A, ComponentKind.DIAMOND)
    assert col.assignment[0] == C2A
    assert col.assignment[3] == C2B
    assert {col.assignment[1], col.assignment[2]} == {C1A, C1B}
    assert_valid(comp, col)


def test_extend_k4_completion_with_forced_swap():
    comp = MultiGraph(7, leaf_gadget(0))
    col = extend(comp, 0, C2B)
    assert col.assignment[0] == C2B
    assert_valid(comp, col)


def test_extend_even_component():
    # prism minus one rung: two attachments, even case
    comp = MultiGraph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (1, 4), (2, 5)])
    col = extend(comp, 0, C2A)
    assert col.assignment[0] == C2A
    assert col.assignment[3] == C2B
    assert_valid(comp, col)


def test_free_two_color_k3_parent():
    g = MultiGraph(3, [(0, 1), (0, 2), (1, 2)])
    assignment = {0: C2A, 1: C1A, 2: C1B}
    # attaching at vertex 2: closed neighborhood colors {1b, 2a, 1a} -> 2b
    assert _free_two_color(g, assignment, 2) == C2B


def test_free_two_color_diamond_parent():
    g = MultiGraph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    assignment = {0: C2B, 1: C1A, 2: C1B, 3: C2A}
    assert _free_two_color(g, assignment, 3) == C2B


def test_free_two_color_claim_violation_is_loud():
    g = MultiGraph(3, [(0, 1), (0, 2), (1, 2)])
    assignment = {0: C2A, 1: C2B, 2: C1A}
    with pytest.raises(ClaimViolatedError):
        _free_two_color(g, assignment, 2)


def test_ring_completion_leaf():
    # ring of 2 diamonds with one connecting edge replaced by the gadget;
    # the completed graph of this component is a ring of diamonds
    ring = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6), (5, 7), (6, 7), (7, 0)]
    comp0 = ring + [(3, 8), (8, 9), (9, 4), (8, 10), (9, 10)]
    g = MultiGraph(18, comp0 + leaf_gadget(11) + [(10, 11)])
    col = color_claw_free_cubic(g)
    assert_valid(g, col)


def test_deep_tree():
    g = gen_bridged(
        [("type3", 1), ("diamond", 2), ("k3", 3), ("type3", 1), ("type3", 1)],
        SplitMix64(0xDEEB),
    )
    col = color_claw_free_cubic(g)
    assert_valid(g, col)


def test_bridge_endpoint_classes_safe(base_corpus):
    # across every bridge, same radius-2 class never appears within distance 2
    from brute import all_pairs_distances

    for name, g in base_corpus:
        if not find_bridges(g):
            continue
        col = color_claw_free_cubic(g)
        dist = all_pairs_distances(g)
        for u, v in find_bridges(g):
            cu, cv = col.assignment[u], col.assignment[v]
            if cu == cv:
                assert SPEC_1122.radii[cu] < dist[u][v], (name, u, v)


def test_every_corpus_graph_colors(corpus):
    for name, g in corpus[:60]:
        col = color_claw_free_cubic(g)
        assert verify(g, SPEC_1122, col) == [], name


def test_coloring_is_deterministic(named_fixtures):
    for name in ("big_expansion", "bridged_star", "prism"):
        g = named_fixtures[name]
        first = color_claw_free_cubic(g)
        second = color_claw_free_cubic(g)
        assert first.assignment == second.assignment


def _all_labeled_cubic(n):
    """Every labeled simple cubic graph on n vertices, by backtracking."""
    from itertools import combinations

    pairs = list(combinations(range(n), 2))
    out = []
    deg = [0] * n
    chosen = []

    def rec(i):
        if i == len(pairs):
            if all(d == 3 for d in deg):
                out.append(list(chosen))
            return
        u, v = pairs[i]
        # pairs come in lexicographic order: from i on, u is in the n - v
        # pairs (u, v), ..., (u, n - 1), and v in the n - 1 - u pairs
        # (u, v), ..., (v - 1, v), (v, v + 1), ..., (v, n - 1)
        if deg[u] + n - v < 3 or deg[v] + n - 1 - u < 3:
            return
        rec(i + 1)
        if deg[u] < 3 and deg[v] < 3:
            deg[u] += 1
            deg[v] += 1
            chosen.append((u, v))
            rec(i + 1)
            chosen.pop()
            deg[u] -= 1
            deg[v] -= 1

    rec(0)
    return out


def test_exhaustive_small_orders():
    """Every connected claw-free cubic graph on at most 8 vertices colors.

    Covers all 2581 labeled instances (1 + 60 + 2520), cross-checked with
    the exact solver; the entry check finds no bridge of H, and the
    removal oracle no bridge of G, at these orders.  The 35 labeled pairs
    of K4 are rejected as disconnected.
    """
    from clawcolor import is_claw_free, is_connected, solve_spacking

    counts = {}
    pairs_of_k4 = 0
    for n in (4, 6, 8):
        tested = 0
        for edges in _all_labeled_cubic(n):
            g = MultiGraph(n, edges)
            if not is_claw_free(g):
                continue
            if not is_connected(g):
                with pytest.raises(DisconnectedError, match="^input graph is disconnected$"):
                    _require_claw_free_cubic(g)
                pairs_of_k4 += 1
                continue
            assert _require_claw_free_cubic(g)[0] == set() == bridges_by_removal(g), edges
            col = color_claw_free_cubic(g)
            assert verify(g, SPEC_1122, col) == [], edges
            assert solve_spacking(g, SPEC_1122) is not None, edges
            tested += 1
        counts[n] = tested
    assert counts == {4: 1, 6: 60, 8: 2520}
    assert pairs_of_k4 == 35


def test_large_built_graph_colors_and_certifies():
    """n = 36,864: far past what an all-pairs distance matrix could hold."""
    rng = SplitMix64(0x4096)
    h = gen_cubic_multigraph(4096, rng)
    slots = h.slots()
    lengths = [i % 3 for i in range(len(slots))]
    rng.shuffle(lengths)
    g = expand_to_clawfree(h, ExpansionSpec(dict(zip(slots, lengths))), rng)
    assert g.n == 36864
    assert_valid(g, color_claw_free_cubic(g))


def test_long_diamond_chain_colors_and_certifies():
    """4,000 components: the bridged path is linear in their number."""
    g = gen_bridged(
        [("type3", 1)] + [("diamond", 2)] * 4000 + [("type3", 1)], SplitMix64(5)
    )
    assert g.n == 16060
    assert_valid(g, color_claw_free_cubic(g))


def _bridged_graphs(bridged_trees, random_bridged_trees, large_graphs):
    graphs = [g for _, g in bridged_trees] + random_bridged_trees + _bridged_sweep_shapes()
    graphs.append(dict(large_graphs)["chain-2000"])
    return [g for g in graphs if find_bridges(g)]


def test_bridged_path_matches_subgraph_reference(
    bridged_trees, random_bridged_trees, large_graphs
):
    """The same assignment as one subgraph per component.

    The key order may differ: a K3 or diamond is stored x1 first.
    """
    for g in _bridged_graphs(bridged_trees, random_bridged_trees, large_graphs):
        bt = decompose(g)
        got = _color_bridged(g, bt).assignment
        want = color_bridged_by_subgraphs(g, bt).assignment
        assert got == want


def test_odd_completion_matches_subgraph_reference(bridged_trees, random_bridged_trees):
    """The completed graph of every Type III component, odd and even, built in one go."""
    tested = [0, 0]
    for g in [g for _, g in bridged_trees] + random_bridged_trees:
        bt = decompose(g)
        if not isinstance(bt, BridgeTree):
            continue
        for c, comp in enumerate(bt.components):
            if bt.kinds[c] is not ComponentKind.TYPE_III:
                continue
            tilde, local, _ = _completion(g, comp, bt.degree2[c])
            sub, to_global = induced(g, comp)
            to_sub = {v: i for i, v in enumerate(to_global)}
            want, want_to_sub = completion_by_subgraphs(sub, [to_sub[x] for x in bt.degree2[c]])
            assert tilde == want and tilde.adjacency() == want.adjacency()
            assert list(local) == [to_global[i] for i in want_to_sub]
            assert list(local.values()) == list(range(tilde.n))
            tested[len(bt.degree2[c]) % 2] += 1
    assert tested[0] > 100 and tested[1] > 500, tested


def test_completion_is_the_graph_its_edges_build(base_corpus, bridged_trees, random_bridged_trees):
    """The completion handed over as sorted lists is what `MultiGraph.__init__`
    builds from its edges: every list sorted and distinct, every added edge
    at both ends, and no parallel pair."""
    tested = [0, 0]
    graphs = [g for _, g in base_corpus + bridged_trees] + random_bridged_trees
    for g in graphs:
        bt = decompose(g)
        if not isinstance(bt, BridgeTree):
            continue
        for c, comp in enumerate(bt.components):
            if bt.kinds[c] is not ComponentKind.TYPE_III:
                continue
            tilde, _, _ = _completion(g, comp, bt.degree2[c])
            want = MultiGraph(tilde.n, tilde.edge_list())
            assert tilde.n == want.n
            assert tilde.adjacency() == want.adjacency()
            assert tilde.degrees() == want.degrees() == [3] * tilde.n
            assert tilde.is_simple() and want.is_simple()
            tested[len(bt.degree2[c]) % 2] += 1
    assert tested[0] > 100 and tested[1] > 500, tested


def test_completion_of_a_simple_graph_reads_no_multiplicity(monkeypatch):
    """On a simple G the completions copy each edge without a multiplicity lookup.

    Coloring the 50-diamond chain made 205 `multiplicity` calls when every
    copied edge looked its multiplicity up; 90 of them came from the two
    leaves' completions.  Reading the factor slots made six more while each
    slot looked its pair's multiplicity up, and classifying the components
    made 100 more, two `has_edge` calls per diamond, before the bridge
    tree typed them by size and attachment count.  The 9 left are the two
    `has_edge` calls of each leaf's odd gadget (the 4 inside), one for the
    bridge candidate of the entry check's search of H, and four
    `_complement` banned-slot checks under `_two_factor_through`.
    """
    g = gen_bridged([("type3", 1)] + [("diamond", 2)] * 50 + [("type3", 1)], SplitMix64(50))
    real_multiplicity, real_completion = MultiGraph.multiplicity, clawcolor.colorer._completion
    calls, inside = [0], [0]

    def multiplicity(self, u, v):
        calls[0] += 1
        return real_multiplicity(self, u, v)

    def completion(*args):
        before = calls[0]
        out = real_completion(*args)
        inside[0] += calls[0] - before
        return out

    monkeypatch.setattr(MultiGraph, "multiplicity", multiplicity)
    monkeypatch.setattr(clawcolor.colorer, "_completion", completion)
    assert_valid(g, color_claw_free_cubic(g))
    assert inside[0] == 4
    assert calls[0] == 9


def test_up_neighbor_on_a_completion_diamond_is_an_internal_error(monkeypatch):
    """The invariant reads the completions' diamond vertices in G's ids.

    The centre's completion holds its three lower attachments, the leaves'
    up-neighbors; claiming every completion vertex lies on a diamond must
    stop the coloring at the first leaf.
    """
    g = gen_bridged([("type3", 4)] + [("type3", 1)] * 4, SplitMix64(1))
    monkeypatch.setattr(clawcolor.colorer, "_diamond_vertices", lambda dec, local: list(local))
    with pytest.raises(InternalInvariantError, match="lies on a diamond of its completed"):
        color_claw_free_cubic(g)


def test_adjacent_attachments_are_an_internal_error():
    """Attachments 0 and 1 of this component are adjacent; 6 is the third."""
    comp = MultiGraph(
        7, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5), (4, 6), (5, 6)]
    )
    with pytest.raises(InternalInvariantError) as caught:
        extend(comp, 0, C2A)
    assert str(caught.value) == (
        "attachment vertices 0 and 1 are adjacent; the degree-2 set must be independent"
    )


def _ladder_star(k):
    """A star of k Type III leaves around one Type III centre with k attachments.

    The centre is a circular ladder of k rungs with every vertex replaced
    by a triangle, and every other rung cut; each cut end takes a leaf.
    """
    edges = []
    for v in range(2 * k):
        edges += [(3 * v, 3 * v + 1), (3 * v, 3 * v + 2), (3 * v + 1, 3 * v + 2)]
    for ring in (0, k):
        edges += [(3 * (ring + i) + 1, 3 * (ring + (i + 1) % k)) for i in range(k)]
    ends = []
    for i in range(k):
        a, b = 3 * i + 2, 3 * (k + i) + 2
        if i % 2:
            edges.append((a, b))
        else:
            ends += [a, b]
    n = 6 * k
    for x in ends:
        edges += leaf_gadget(n) + [(x, n)]
        n += 7
    return MultiGraph(n, edges)


def test_independence_check_is_linear_in_the_attachments(monkeypatch):
    """No pair of a centre's 2,000 attachments is queried for an edge.

    The only `has_edge` calls left are the two of each leaf's odd gadget.
    """
    g = _ladder_star(2000)
    bt = decompose(g)
    assert max(len(xs) for xs in bt.degree2) == 2000
    real = MultiGraph.has_edge
    calls = [0]

    def counted(self, u, v):
        calls[0] += 1
        return real(self, u, v)

    monkeypatch.setattr(MultiGraph, "has_edge", counted)
    assert_valid(g, color_claw_free_cubic(g))
    assert calls[0] <= 2 * 2000, calls
