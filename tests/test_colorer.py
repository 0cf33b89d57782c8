import tracemalloc
from unittest import mock

import pytest

from clawcolor import (
    C1A,
    C1B,
    C2A,
    C2B,
    SPEC_1122,
    ComponentKind,
    Decomposition,
    ExpansionSpec,
    MultiGraph,
    PackingColoring,
    Variant,
    color_claw_free_cubic,
    decompose,
    expand_to_clawfree,
    find_bridges,
    gen_bridged,
    gen_cubic_multigraph,
    verify,
)
from clawcolor.errors import (
    DisconnectedError,
    NotClawFreeError,
    NotCubicError,
    NotSimpleError,
)
import clawcolor.colorer
from clawcolor.colorer import _color_class, _color_tree, _free_two_color, _surgery
from clawcolor.coloring import Labels
from clawcolor.recognition import ClassTree, _require_claw_free_cubic, _structure
from clawcolor.rng import SplitMix64

from brute import (
    bridges_by_removal,
    color_bridged_by_subgraphs,
    colored,
    completion_by_subgraphs,
    decompose_by_own_scan,
    h_of,
    induced,
    lift_slot,
    violations_brute,
)
from test_recognition import _bridged_sweep_shapes


def assert_valid(g, coloring):
    assert verify(g, SPEC_1122, coloring) == []


def leaf_gadget(offset=0, diamonds=1):
    """Type III component of one triangle (0, 1, 2) whose H-loop carries
    `diamonds` diamonds, from 1's neighbor 3 to 2's neighbor 4 * diamonds;
    its completion collapses to K4 for one diamond, else to a ring.

    Diamond j has exteriors 3 + 4j and 4 + 4j and interiors 5 + 4j and 6 + 4j.
    """
    e = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4 * diamonds)]
    for b in range(3, 4 * diamonds, 4):
        e += [(b, b + 2), (b, b + 3), (b + 2, b + 3), (b + 2, b + 1), (b + 3, b + 1)]
        e += [(b + 1, b + 4)] if b + 4 < 4 * diamonds else []
    return [(u + offset, v + offset) for u, v in e]


def _attachments(comp, x1):
    """comp's degree-2 vertices, x1 first."""
    return [x1] + [v for v in range(comp.n) if comp.degree(v) == 2 and v != x1]


def _corners(share):
    """Each corner of the share's triangles, mapped to its triangle."""
    return {v: t for t, tri in enumerate(share.triangles) for v in tri}


def _share(comp, xs):
    """comp's share of the contraction of comp with a leaf gadget bridged to
    each of xs: class 0's, as comp holds the smallest triangle corner."""
    edges, n = comp.edge_list(), comp.n
    for x in xs:
        edges += leaf_gadget(n) + [(x, n)]
        n += 7
    return _structure(MultiGraph(n, edges)).shares[0]


def color_root(comp, x1):
    """The root coloring of a whole Type III component whose one attachment is x1."""
    xs = _attachments(comp, x1)
    return colored(comp.n, _color_class, _share(comp, xs), xs, C2A)


def extend(comp, x1, forced, kind=ComponentKind.TYPE_III):
    """The coloring of a whole non-root component whose up vertex x1 gets `forced`.

    A K3 or diamond is colored in place by `_color_tree`: the class
    entered from the root, by a bridge whose corner there, -1, leaves
    `forced` free, is a K3, comp itself or a phantom (n, n + 1, n + 2)
    past comp's one diamond, and its other two corners lead to phantom
    classes.
    """
    xs = _attachments(comp, x1)
    if kind is not ComponentKind.TYPE_III:
        n = comp.n
        if kind is ComponentKind.TRIANGLE:
            r, (y, z) = (-1, x1), xs[1:]
        else:
            r, (y, z) = (-1, x1, *[v for v in range(n) if v not in xs], xs[1], n), (n + 1, n + 2)
        tree = ClassTree(
            shares={}, bridges=[r, (y, -2), (z, -3)], ends=[(0, 1), (1, 2), (1, 3)],
            links=[[0], [0, 1, 2], [1], [2]], order=[1], via=[-1, 0, 1, 2],
            depth=[0, len(r) // 4 + 1, 0, 0],
        )
        with mock.patch.object(clawcolor.colorer, "_free_two_color", lambda g, a, q: forced):
            col = colored(n + 3, _color_tree, comp, tree)  # the phantom K3 included
        return PackingColoring(SPEC_1122, Labels(col.assignment.data[:n]))
    return colored(comp.n, _color_class, _share(comp, xs), xs, forced)


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


@pytest.mark.parametrize("forced", [None, C2A, C2B], ids=["root", "child-2a", "child-2b"])
@pytest.mark.parametrize("diamonds", [1, 2, 3], ids=["k4", "ring2", "ring3"])
def test_one_triangle_component_takes_the_ring_rule(diamonds, forced):
    """A component of one triangle (x1, u, w) = (0, 1, 2) completes to K4 or
    a ring by closing its H-loop's string up with the edge s-y, and is
    colored by one rule: the ring coloring, in which s and y hold 1a and
    1b, then u takes y's class, w takes s's and x1 the forced class."""
    comp = MultiGraph(3 + 4 * diamonds, leaf_gadget(0, diamonds))
    col = color_root(comp, 0) if forced is None else extend(comp, 0, forced)
    assert violations_brute(comp, SPEC_1122.radii, col.assignment) == []
    c, u, w, s, y = col.assignment, 1, 2, 3, 4 * diamonds
    assert c[0] == (C2A if forced is None else forced)
    assert {c[s], c[y]} == {C1A, C1B}
    assert (c[u], c[w]) == (c[y], c[s])


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
    labels = bytearray((C2A, C1A, C1B))
    # attaching at vertex 2: closed neighborhood colors {1b, 2a, 1a} -> 2b
    assert _free_two_color(g, labels, 2) == C2B


def test_free_two_color_diamond_parent():
    g = MultiGraph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    labels = bytearray((C2B, C1A, C1B, C2A))
    assert _free_two_color(g, labels, 3) == C2B


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
    from brute import bfs_distances

    for name, g in base_corpus:
        if not find_bridges(g):
            continue
        col = color_claw_free_cubic(g)
        for u, v in find_bridges(g):
            cu, cv = col.assignment[u], col.assignment[v]
            if cu == cv:
                assert SPEC_1122.radii[cu] < bfs_distances(g.n, g.edge_list(), u)[v], (name, u, v)


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
    """The same assignment as one subgraph per component."""
    for g in _bridged_graphs(bridged_trees, random_bridged_trees, large_graphs):
        tree = _structure(g)
        got = colored(g.n, _color_tree, g, tree).assignment
        want = color_bridged_by_subgraphs(g, decompose(g)).assignment
        assert got == want


def test_coloring_a_diamond_chain_builds_no_component_per_diamond(large_graphs, monkeypatch):
    """Colouring the 2,000-diamond chain reads the tree over H's classes:
    it never builds the public `Decomposition`, whose bridge tree holds
    each diamond as a component, and its tracemalloc peak stays below 80
    bytes per vertex (49.5 with one scan index per vertex, 56.2 with two,
    63.2 with a dict for the labels; it was 103.6 when the colouring swept
    a component per diamond)."""
    g = dict(large_graphs)["chain-2000"]

    def refuse(cls, *args, **kwargs):
        raise AssertionError("a Decomposition was built")

    monkeypatch.setattr(Decomposition, "__new__", refuse)
    with pytest.raises(AssertionError, match="a Decomposition was built"):
        decompose(g)
    color_claw_free_cubic(g)  # the first call's one-time allocations are no part of the peak
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        color_claw_free_cubic(g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert g.n == 8028
    assert peak / g.n < 80, f"{peak / g.n:.1f} B/vertex"


# peak bytes per vertex of a coloring: 35.0, 49.5 and 48.8 on CPython 3.11
# with the 2-factor as one byte per H-edge; with its cycles as tuples they
# were 35.6, 49.5 and 48.8 on 3.11 and 3.12, 35.0, 47.5 and 46.8 on 3.10,
# and with two per-vertex scan indexes 46.3, 56.2 and 55.6 (45.8, 55.3 and
# 54.6 on 3.10), which fail
PEAK_PER_VERTEX = {"built-h1024": 40, "chain-2000": 52, "ring-2500": 52}


def test_coloring_peak_memory_per_vertex(large_graphs):
    """After a warm-up call, coloring a large graph peaks below
    PEAK_PER_VERTEX bytes per vertex, and the coloring it returns holds n
    bytes and a constant: deleting it frees no more."""
    for name, g in large_graphs:
        color_claw_free_cubic(g)  # the first call's one-time allocations are no part of the peak
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            coloring = color_claw_free_cubic(g)
            held, peak = tracemalloc.get_traced_memory()
            del coloring
            retained = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert (peak - before) / g.n < PEAK_PER_VERTEX[name], (name, (peak - before) / g.n)
        assert retained <= g.n + 256, (name, retained - g.n)


def _assert_cut_as_built(share, xs, tilde, to_g):
    """`_surgery` of a share gives, in G's ids, the H, realizations and
    forced edge of the completed graph tilde, decomposed from its own
    scan, the ids numbering its slots in slot order; to_g maps tilde's ids
    to G's.  Returns the cut, the forced edge's slot and the gadget."""
    local, e, gadget = _surgery(share, _corners(share), xs)
    want = decompose_by_own_scan(tilde)
    assert want.variant is Variant.BUILT
    h = MultiGraph(len(local.triangles), local.ends)
    assert h == h_of(want) and h.adjacency() == h_of(want).adjacency()
    assert local.triangles == [tuple(to_g[v] for v in t) for t in want.triangles]
    assert local.ends == list(want.ends)
    assert local.walk == [tuple(to_g[v] for v in r) for r in want.walk]
    edge = (xs[0], xs[1]) if gadget is None else gadget[2:]
    to_tilde = {v: i for i, v in enumerate(to_g)}
    slot = lift_slot(want, (to_tilde[edge[0]], to_tilde[edge[1]]))
    assert e == h.slots().index(slot)
    return local, slot, gadget


def test_odd_completion_matches_subgraph_reference(bridged_trees, random_bridged_trees):
    """Every Type III component's completion, odd and even, cut from G's
    contraction, is the one the completed graph's own scan, walk and
    contraction give, in G's ids.  A component of one triangle completes
    to K4 or to the ring of its H-loop's diamonds, whose cyclic walk lists
    them, K4's its one diamond."""
    tested = [0, 0]
    for g in [g for _, g in bridged_trees] + random_bridged_trees:
        if not _require_claw_free_cubic(g)[0]:
            continue
        tree, bt = _structure(g), decompose(g)
        component = {v: c for c, comp in enumerate(bt.components) for v in comp}
        # the shares of the Type III classes, by component
        shares = {component[s.triangles[0][0]]: s for s in tree.shares.values()}
        assert sorted(shares) == [c for c, k in enumerate(bt.kinds) if k is ComponentKind.TYPE_III]
        for c, share in shares.items():
            comp, xs = bt.components[c], bt.degree2[c]
            sub, to_global = induced(g, comp)
            to_sub = {v: i for i, v in enumerate(to_global)}
            tilde, to_sub_ids = completion_by_subgraphs(sub, [to_sub[x] for x in xs])
            to_g = [to_global[i] for i in to_sub_ids]
            if len(share.triangles) > 1:
                _assert_cut_as_built(share, xs, tilde, to_g)
            else:
                (r,) = share.walk
                want = decompose_by_own_scan(tilde)
                assert want.variant is (Variant.K4 if len(r) == 6 else Variant.RING)
                (w,) = want.walk
                ring = {frozenset(to_g[v] for v in w[j:j + 4]) for j in range(0, len(w), 4)}
                loop = {frozenset(r[j:j + 4]) for j in range(1, len(r) - 1, 4)}
                assert ring == loop
            tested[len(xs) % 2] += 1
    assert tested[0] > 100 and tested[1] > 500, tested


def _surgery_and_reference(comp, xs):
    """`_surgery` of comp's share, checked against the completed graph that
    `brute.completion_by_subgraphs` builds."""
    tilde, to_comp = completion_by_subgraphs(comp, xs)
    return _assert_cut_as_built(_share(comp, xs), xs, tilde, to_comp)


def test_surgery_on_a_pairing_edge_parallel_to_an_h_edge():
    """Two triangles joined by 0-3 and 1-4; the pairing edge 2-5 is the
    third copy of their H-edge, and the last in slot order."""
    comp = MultiGraph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4)])
    local, slot, gadget = _surgery_and_reference(comp, [5, 2])
    assert gadget is None and local.ends.count((0, 1)) == 3
    assert slot == (0, 1, 2) and local.walk[2] == (2, 5)
    col = extend(comp, 5, C2B)
    assert col.assignment[5] == C2B and col.assignment[2] == C2A
    assert_valid(comp, col)


def _splice_component(ends):
    """x1 = 0 on the triangle (0, 1, 2); 1 and 2 lead through the diamonds
    (3, 4, 5, 6) and (7, 8, 9, 10) to the triangles at ends[0] and ends[1],
    of (11, 12, 13) and (14, 15, 16), which 12-15 and 13-16 also join."""
    edges = [(0, 1), (0, 2), (1, 2), (1, 3), (6, ends[0]), (2, 7), (10, ends[1])]
    for a in (3, 7):
        edges += [(a, a + 1), (a, a + 2), (a + 1, a + 2), (a + 1, a + 3), (a + 2, a + 3)]
    for a in (11, 14):
        edges += [(a, a + 1), (a, a + 2), (a + 1, a + 2)]
    return MultiGraph(17, edges + [(12, 15), (13, 16)])


@pytest.mark.parametrize(
    "ends, spliced",
    [((11, 14), (11, 6, 4, 5, 3, 7, 8, 9, 10, 14)), ((14, 11), (11, 10, 8, 9, 7, 3, 4, 5, 6, 14))],
    ids=["u-side-lower", "w-side-lower"],
)
def test_surgery_splices_strings_on_both_sides(ends, spliced):
    """x1 = 0's neighbours u = 1 and w = 2 each lead through a diamond, to
    triangles (11, 12, 13) and (14, 15, 16), which two edges also join.
    The splice runs from 11 through both diamonds to 14, its diamonds
    listed entry exterior, interiors ascending, exit exterior, whichever
    side 11 lies on."""
    comp = _splice_component(ends)
    local, slot, gadget = _surgery_and_reference(comp, [0])
    assert gadget == (1, 2, 3, 7)
    assert slot == (0, 1, 0) and local.walk[0] == spliced
    assert_valid(comp, color_root(comp, 0))


def test_completion_of_a_simple_graph_reads_no_multiplicity(monkeypatch):
    """On a simple G the completions read no multiplicity.

    Coloring the 50-diamond chain made 205 `multiplicity` calls when every
    edge a completion copied looked its multiplicity up, and 9 while each
    leaf's odd gadget checked two of G's pairs for an edge.  Completions
    cut from G's contraction read no pair of G, and with each H-edge named
    by its id the entry check's search of H was left with one call, for
    its bridge candidate.  The search now skips the id a vertex is reached
    by, so it makes none either.  With `MultiGraph.multiplicity` and
    `edge_pairs` gone, the copies of a pair are read only from `edge_list`
    or `slots`, and the coloring calls neither.
    """
    g = gen_bridged([("type3", 1)] + [("diamond", 2)] * 50 + [("type3", 1)], SplitMix64(50))
    calls = [0]

    def counted(real):
        def method(self):
            calls[0] += 1
            return real(self)

        return method

    for name in ("edge_list", "slots"):
        monkeypatch.setattr(MultiGraph, name, counted(getattr(MultiGraph, name)))
    assert_valid(g, color_claw_free_cubic(g))
    assert calls[0] == 0


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
    """No pair of a centre's 2,000 attachments is queried for an edge: the
    check reads each attachment's triangle, and nothing asks G for one.
    An edge test reads a list of G's, so G's lists are read whole a fixed
    number of times (`adjacency`), one vertex's at most once per bridge
    (`neighbors`), and never as edges (`edge_list`, `slots`)."""
    g = _ladder_star(2000)
    bt = decompose(g)
    assert max(len(xs) for xs in bt.degree2) == 2000
    calls = dict.fromkeys(("adjacency", "neighbors", "edge_list", "slots"), 0)

    def counted(name):
        real = getattr(MultiGraph, name)

        def method(self, *args):
            calls[name] += 1
            return real(self, *args)

        return method

    for name in calls:
        monkeypatch.setattr(MultiGraph, name, counted(name))
    coloring = color_claw_free_cubic(g)
    assert calls["adjacency"] <= 3 and calls["neighbors"] < len(bt.kinds), calls
    assert calls["edge_list"] == calls["slots"] == 0, calls
    assert_valid(g, coloring)
