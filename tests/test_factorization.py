import pytest
from hypothesis import given, settings, strategies as st

from clawcolor import (
    MultiGraph,
    color_claw_free_cubic,
    decompose,
    factorization,
    gen_cubic_multigraph,
)
from clawcolor.errors import InternalInvariantError
from clawcolor.factorization import (
    _complement,
    _matched_through,
    _max_matching_simple,
    _two_factor_through,
)
from clawcolor.recognition import _require_claw_free_cubic
from clawcolor.rng import SplitMix64

from conftest import _built
from brute import (
    all_perfect_matchings,
    relabeled,
    all_two_factors,
    factor_bytes,
    factor_from_matching_by_reattribution,
    h_of,
    matching_through_by_reattribution,
    max_matching_by_full_scans,
    two_factor_by_reattribution,
    two_factor_through_by_reattribution,
)


def k4():
    return MultiGraph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])


def two_factor(h):
    """`_complement` of h, its edges numbered in slot order."""
    return _complement(h.n, h.edge_list())


def forced(through, h, e):
    """`through` (`_two_factor_through` or `_matched_through`) of h at the
    slot e, its edges numbered in slot order."""
    return through(h.n, h.edge_list(), h.slots().index(e))


def on_cycles(h, way):
    """The slots of h whose 2-factor byte in way is not 0."""
    return frozenset(s for s, b in zip(h.slots(), way) if b)


def matched_slots(g):
    """The blossom search's matching as slots, each pair on its copy 0."""
    mate = _max_matching_simple(g.n, g.adjacency())
    return frozenset((v, w, 0) for v, w in enumerate(mate) if w > v)


def assert_valid_two_factor(g, way, banned=()):
    """way, one byte per id of g's edges in slot order, is a 2-factor as
    `_complement` gives it, no id in `banned` matched; returns its cycles'
    lengths, ascending.

    The 0s are a perfect matching, each on the lowest id of its pair not
    in `banned`.  Each other byte is 1 or 2, the edge leaving its lower or
    upper end, and each vertex has one such edge leaving it and one
    entering it.  Each cycle leaves its smallest vertex by the lower of
    that vertex's two cycle edges.
    """
    ends = g.edge_list()
    assert len(way) == len(ends) and set(way) <= {0, 1, 2}
    matched = [e for e, b in enumerate(way) if b == 0]
    assert sorted(v for e in matched for v in ends[e]) == list(range(g.n))
    for e in matched:
        assert e not in banned
        assert all(f in banned for f in range(e) if ends[f] == ends[e])
    out, into = [[] for _ in range(g.n)], [[] for _ in range(g.n)]
    for e, b in enumerate(way):
        if b:
            a, c = ends[e] if b == 1 else ends[e][::-1]
            out[a].append(e)
            into[c].append(e)
    assert all(len(o) == len(i) == 1 for o, i in zip(out, into))
    # each start is the smallest vertex of its cycle, as starts ascend
    lengths, seen = [], set()
    for start in range(g.n):
        if start in seen:
            continue
        assert out[start][0] < into[start][0]
        v, length = start, 0
        while v not in seen:
            seen.add(v)
            a, c = ends[out[v][0]]
            v, length = c if a == v else a, length + 1
        assert v == start
        lengths.append(length)
    return sorted(lengths)


def test_k4_perfect_matching():
    m = matched_slots(k4())
    assert len(m) == 2
    assert m in set(all_perfect_matchings(k4()))


def test_triple_edge_matching():
    g = MultiGraph(2, [(0, 1)] * 3)
    assert _max_matching_simple(g.n, g.adjacency()) == [1, 0]


def test_c5_has_no_perfect_matching():
    g = MultiGraph(5, [(i, (i + 1) % 5) for i in range(5)])
    mate = _max_matching_simple(g.n, g.adjacency())
    assert mate.count(-1) == 1
    assert len(matched_slots(g)) == 2


def test_two_factor_k4_is_hamiltonian():
    assert assert_valid_two_factor(k4(), two_factor(k4())) == [4]


def test_two_factor_h10_and_reference_factor(named_fixtures):
    g = named_fixtures["h10"]
    assert_valid_two_factor(g, two_factor(g))
    # a hand-picked complement matching for this fixture is itself perfect
    reference = frozenset(
        {(1, 3, 0), (2, 4, 0), (5, 6, 0), (0, 8, 0), (7, 9, 0)}
    )
    assert reference in set(all_perfect_matchings(g))
    # ... and its complement is the 4-cycle / digon / 4-cycle 2-factor
    complement = set(g.slots()) - reference
    cycles = {frozenset({0, 1, 2, 3}), frozenset({4, 5}), frozenset({6, 7, 8, 9})}
    comp_deg = {}
    for u, v, _ in complement:
        comp_deg[u] = comp_deg.get(u, 0) + 1
        comp_deg[v] = comp_deg.get(v, 0) + 1
    assert all(comp_deg[v] == 2 for v in range(10))
    assert {frozenset(c) for c in ({0, 1, 2, 3}, {4, 5}, {6, 7, 8, 9})} == cycles


def test_two_factor_petersen(named_fixtures):
    g = named_fixtures["petersen"]
    assert_valid_two_factor(g, two_factor(g))


def test_two_factor_rejects_bridged():
    """A bridged cubic graph without a perfect matching: Petersen's theorem
    does not apply, and the core reports the broken theorem as a bug."""
    with pytest.raises(InternalInvariantError, match="no perfect matching"):
        two_factor(_no_perfect_matching_cubic())


def test_two_factor_through_k4_every_edge():
    g = k4()
    for i, e in enumerate(g.slots()):
        way = forced(_two_factor_through, g, e)
        assert assert_valid_two_factor(g, way, (i, 1 if i == 0 else 0)) == [4]
        assert e in on_cycles(g, way)


def test_two_factor_through_triple_edge():
    g = MultiGraph(2, [(0, 1)] * 3)
    for i, e in enumerate(g.slots()):
        way = forced(_two_factor_through, g, e)
        assert assert_valid_two_factor(g, way, (i, 1 if i == 0 else 0)) == [2]
        assert e in on_cycles(g, way)


def test_two_factor_through_errors():
    """The forcing cores check no input; what they still raise is a bug."""
    with pytest.raises(InternalInvariantError, match="no perfect matching"):
        forced(_two_factor_through, _no_perfect_matching_cubic(), (0, 5, 0))


def test_matching_through_every_slot(named_fixtures):
    g = named_fixtures["h10"]
    for e in g.slots():
        way = forced(_matched_through, g, e)
        banned = [f for f, s in enumerate(g.slots()) if e[0] in s[:2] and s != e]
        assert_valid_two_factor(g, way, banned)
        m = set(g.slots()) - on_cycles(g, way)
        assert e in m
        assert frozenset(m) in set(all_perfect_matchings(g))


def test_blossom_agrees_with_brute_force_on_random_cubic():
    for seed in range(30):
        g = gen_cubic_multigraph((2, 4, 6, 8)[seed % 4], SplitMix64(0xF00 + seed))
        ours = matched_slots(g)
        brute = all_perfect_matchings(g)
        assert (2 * len(ours) == g.n) == bool(brute)
        if brute:
            assert ours in set(brute)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=9).flatmap(
        lambda n: st.builds(
            lambda pairs: MultiGraph(n, pairs),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=14,
            ),
        )
    )
)
def test_maximum_matching_size_matches_brute(g):
    ours = len(matched_slots(g))
    best = 0
    slots = g.slots()

    def rec(i, covered, size):
        nonlocal best
        best = max(best, size)
        if i == len(slots):
            return
        u, v, _ = slots[i]
        rec(i + 1, covered, size)
        if u not in covered and v not in covered:
            rec(i + 1, covered | {u, v}, size + 1)

    rec(0, frozenset(), 0)
    assert ours == best


def test_two_factor_through_on_decomposed_h(named_fixtures):
    # the 6-vertex H recovered from the big expansion: force each slot onto
    # a 2-factor and confirm against full enumeration
    from clawcolor import decompose

    h = h_of(decompose(named_fixtures["big_expansion"]))
    factors = set(all_two_factors(h))
    for e in h.slots():
        factor = on_cycles(h, forced(_two_factor_through, h, e))
        assert e in factor
        assert factor in factors


def test_two_factor_through_cross_checked_with_enumeration():
    # brute-force all 2-factors for small H and confirm membership
    for seed in range(12):
        g = gen_cubic_multigraph((4, 6, 8)[seed % 3], SplitMix64(0xC0DE + seed))
        factors = set(all_two_factors(g))
        assert factors, "a bridgeless cubic multigraph always has a 2-factor"
        for e in g.slots()[:4]:
            factor = on_cycles(g, forced(_two_factor_through, g, e))
            assert e in factor
            assert factor in factors


def _reference_graphs(named_fixtures):
    """h10, the H of big_expansion and 210 random H of order 2 to 40."""
    from clawcolor import decompose

    graphs = [named_fixtures["h10"], h_of(decompose(named_fixtures["big_expansion"]))]
    rng = SplitMix64(0xC0F1)
    graphs += [gen_cubic_multigraph(2 * (1 + i % 20), rng) for i in range(210)]
    return graphs


def test_complement_matches_reattribution_reference(named_fixtures):
    # the one complement core gives the 2-factors (cycles, start vertices,
    # matching) of the three cores it replaced, each as its bytes
    for h in _reference_graphs(named_fixtures):
        ends = h.edge_list()
        assert _complement(h.n, ends) == factor_bytes(h, two_factor_by_reattribution(h))
        for i, e in enumerate(h.slots()):
            want = factor_bytes(h, two_factor_through_by_reattribution(h, e))
            assert _two_factor_through(h.n, ends, i) == want
            m = matching_through_by_reattribution(h, e)
            want = factor_bytes(h, factor_from_matching_by_reattribution(h, m))
            assert _matched_through(h.n, ends, i) == want


def _matching_inputs(named_fixtures):
    """300 random H of order 4 to 120, every named fixture and its H, when
    it has one, and the H decomposed from expansions of H of order 32,
    1,024 and 4,096, seeds 1 to 3."""
    rng = SplitMix64(0x5EA2C)
    graphs = [gen_cubic_multigraph(2 * (2 + i % 59), rng) for i in range(300)]
    graphs += named_fixtures.values()
    # the others are K4, bridged, not claw-free, or an H themselves
    graphs += [h_of(decompose(named_fixtures[name])) for name in ("prism", "big_expansion")]
    for order in (32, 1024, 4096):
        graphs += [h_of(decompose(_built(order, SplitMix64(seed)))) for seed in (1, 2, 3)]
    return graphs


def test_search_matches_full_scan_reference(named_fixtures):
    """The blossom search gives the mate array of the search that allocated
    fresh n-lists per search and scanned all n vertices per blossom."""
    graphs = _matching_inputs(named_fixtures)
    assert sum(not g.is_simple() for g in graphs) > 100
    assert max(g.n for g in graphs) == 4096
    for g in graphs:
        n, adj = g.n, g.adjacency()
        assert _max_matching_simple(n, adj) == max_matching_by_full_scans(n, adj)


def test_banned_searches_match_full_scan_reference(named_fixtures, monkeypatch):
    """The adjacency lists a forced edge hands the search, its banned pairs
    removed, give the full-scan search's mate array too.  Every list the
    search is handed is sorted with one entry per pair, and with nothing
    banned the lists are the multigraph's own."""
    calls = [0]
    handed = []

    def both(n, adj):
        mate = max_matching_by_full_scans(n, adj)
        assert _max_matching_simple(n, adj) == mate
        assert all(a == sorted(set(a)) for a in adj)
        handed.append(adj)
        calls[0] += 1
        return mate

    monkeypatch.setattr(factorization, "_max_matching_simple", both)
    graphs = _reference_graphs(named_fixtures)
    for h in graphs:
        ends = h.edge_list()
        _complement(h.n, ends)
        assert handed[-1] == h.adjacency()
        for e in range(h.size):
            _two_factor_through(h.n, ends, e)
            _matched_through(h.n, ends, e)
    assert calls[0] == 2 * sum(h.size for h in graphs) + len(graphs)


def _random_cubic_pairing(n, rng):
    """A cubic multigraph from a random pairing of 3n half-edges, loops redrawn.

    Unlike `gen_cubic_multigraph` it may have bridges or several components.
    """
    while True:
        ends = [v for v in range(n) for _ in range(3)]
        rng.shuffle(ends)
        pairs = list(zip(ends[::2], ends[1::2]))
        if all(u != v for u, v in pairs):
            return MultiGraph(n, pairs)


def _no_perfect_matching_cubic():
    """16 vertices: a centre joined to three K4s with one edge subdivided."""
    edges = []
    for b in (1, 6, 11):
        a, c, d, e, x = range(b, b + 5)
        edges += [(a, c), (a, d), (c, d), (c, e), (d, e), (a, x), (x, e), (x, 0)]
    return MultiGraph(16, edges)


def test_matching_size_against_networkx():
    # relabelings of a graph with maximum matching 7 < 8, then random graphs
    nx = pytest.importorskip("networkx")
    rng = SplitMix64(0x4E7)
    graphs = []
    for _ in range(20):
        perm = list(range(16))
        rng.shuffle(perm)
        graphs.append(relabeled(_no_perfect_matching_cubic(), perm))
    graphs += [gen_cubic_multigraph(2 * (1 + i % 30), rng) for i in range(60)]
    graphs += [_random_cubic_pairing(2 * (1 + i % 30), rng) for i in range(240)]
    for g in graphs:
        ref = nx.Graph()
        ref.add_nodes_from(range(g.n))
        ref.add_edges_from(g.edge_list())
        size = len(nx.max_weight_matching(ref, maxcardinality=True))
        assert len(matched_slots(g)) == size



def test_the_coloring_path_reads_no_slots(named_fixtures, corpus, monkeypatch):
    """Coloring names each H-edge by its id, from the contraction to the
    coloring: no `slots` or `edge_list` call on any input, the entry check
    included, and they are all that reads the copies of a pair:
    `MultiGraph` has no `slots_at` or `edge_pairs` left to call.

    The entry check's search of H skips the id a vertex is reached by, so
    neither an H-bridge nor a parallel pair of H needs a pair looked up.
    The named fixtures include a bridged graph, and the corpus holds rings,
    built graphs with and without strings, and bridged trees.
    """
    assert not hasattr(MultiGraph, "slots_at") and not hasattr(MultiGraph, "edge_pairs")
    calls = {"slots": 0, "edge_list": 0}

    def counted(name):
        real = getattr(MultiGraph, name)

        def wrapper(self, *args):
            calls[name] += 1
            return real(self, *args)

        return wrapper

    graphs = [g for name, g in named_fixtures.items() if name not in ("h10", "petersen")]
    graphs += [g for _, g in corpus]
    kinds = []
    for g in graphs:
        h_bridges, local = _require_claw_free_cubic(g)
        simple = len(set(local.ends)) == len(local.ends)
        kinds.append("bridged" if h_bridges else "simple H" if simple else "parallel H")
    assert all(kinds.count(k) > 50 for k in ("bridged", "simple H", "parallel H"))
    for name in calls:
        monkeypatch.setattr(MultiGraph, name, counted(name))
    for g, kind in zip(graphs, kinds):
        color_claw_free_cubic(g)
        assert calls["edge_list"] == 0, kind
    assert calls["slots"] == 0, calls
