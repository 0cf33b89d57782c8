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
    cycle_slots,
    edge_pairs,
    factor_from_matching_by_reattribution,
    h_of,
    matching_through_by_reattribution,
    max_matching_by_full_scans,
    slot_form,
    two_factor_by_reattribution,
    two_factor_through_by_reattribution,
)


def k4():
    return MultiGraph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])


def two_factor(h):
    """`_complement` of h, its edges numbered in slot order, named by slots."""
    return slot_form(h, _complement(h.n, h.edge_list()))


def forced(through, h, e):
    """`through` (`_two_factor_through` or `_matched_through`) of h at the
    slot e, its edges numbered in slot order, named by slots."""
    return slot_form(h, through(h.n, h.edge_list(), h.slots().index(e)))


def matched_slots(g):
    """The blossom search's matching as slots, each pair on its copy 0."""
    mate = _max_matching_simple(g.n, g.adjacency())
    return frozenset((v, w, 0) for v, w in enumerate(mate) if w > v)


def assert_valid_two_factor(g, tf):
    factor = cycle_slots(tf)
    deg = [0] * g.n
    for s in factor:
        deg[s[0]] += 1
        deg[s[1]] += 1
    assert all(d == 2 for d in deg)
    # factor and matching partition the slot multiset
    assert factor | set(tf.matching) == set(g.slots())
    assert not (factor & set(tf.matching))
    mdeg = [0] * g.n
    for s in tf.matching:
        mdeg[s[0]] += 1
        mdeg[s[1]] += 1
    assert all(d == 1 for d in mdeg)
    # each cycle walks consecutive incident slots
    for cycle in tf.cycles:
        m = len(cycle)
        assert m >= 2
        for i, (v, slot) in enumerate(cycle):
            w = cycle[(i + 1) % m][0]
            assert {slot[0], slot[1]} == {v, w} or (v == w and slot[0] == slot[1])
            assert v in (slot[0], slot[1]) and w in (slot[0], slot[1])


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
    tf = two_factor(k4())
    assert_valid_two_factor(k4(), tf)
    assert len(tf.cycles) == 1 and len(tf.cycles[0]) == 4


def test_two_factor_h10_and_reference_factor(named_fixtures):
    g = named_fixtures["h10"]
    tf = two_factor(g)
    assert_valid_two_factor(g, tf)
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
    tf = two_factor(g)
    assert_valid_two_factor(g, tf)


def test_two_factor_rejects_bridged():
    """A bridged cubic graph without a perfect matching: Petersen's theorem
    does not apply, and the core reports the broken theorem as a bug."""
    with pytest.raises(InternalInvariantError, match="no perfect matching"):
        two_factor(_no_perfect_matching_cubic())


def test_two_factor_through_k4_every_edge():
    g = k4()
    for e in g.slots():
        tf = forced(_two_factor_through, g, e)
        assert_valid_two_factor(g, tf)
        assert e in cycle_slots(tf)
        assert len(tf.cycles[0]) == 4


def test_two_factor_through_triple_edge():
    g = MultiGraph(2, [(0, 1)] * 3)
    for e in g.slots():
        tf = forced(_two_factor_through, g, e)
        assert_valid_two_factor(g, tf)
        assert e in cycle_slots(tf)
        assert len(tf.cycles) == 1 and len(tf.cycles[0]) == 2


def test_two_factor_through_errors():
    """The forcing cores check no input; what they still raise is a bug."""
    with pytest.raises(InternalInvariantError, match="no perfect matching"):
        forced(_two_factor_through, _no_perfect_matching_cubic(), (0, 5, 0))


def test_matching_through_every_slot(named_fixtures):
    g = named_fixtures["h10"]
    for e in g.slots():
        m = forced(_matched_through, g, e).matching
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
        tf = forced(_two_factor_through, h, e)
        assert e in cycle_slots(tf)
        assert (e[0], e[1]) in {(u, v) for u, v, _ in cycle_slots(tf)}
        assert frozenset(cycle_slots(tf)) in factors


def test_two_factor_through_cross_checked_with_enumeration():
    # brute-force all 2-factors for small H and confirm membership
    for seed in range(12):
        g = gen_cubic_multigraph((4, 6, 8)[seed % 3], SplitMix64(0xC0DE + seed))
        factors = set(all_two_factors(g))
        assert factors, "a bridgeless cubic multigraph always has a 2-factor"
        for e in g.slots()[:4]:
            tf = forced(_two_factor_through, g, e)
            assert e in cycle_slots(tf)
            assert frozenset(cycle_slots(tf)) in factors


def _reference_graphs(named_fixtures):
    """h10, the H of big_expansion and 210 random H of order 2 to 40."""
    from clawcolor import decompose

    graphs = [named_fixtures["h10"], h_of(decompose(named_fixtures["big_expansion"]))]
    rng = SplitMix64(0xC0F1)
    graphs += [gen_cubic_multigraph(2 * (1 + i % 20), rng) for i in range(210)]
    return graphs


def test_complement_matches_reattribution_reference(named_fixtures):
    # the one complement core gives the same TwoFactor objects
    # (cycles, start vertices, sorted matching) as the three cores it replaced,
    # once its edge ids are mapped to the slots they number
    for h in _reference_graphs(named_fixtures):
        ends = h.edge_list()
        assert slot_form(h, _complement(h.n, ends)) == two_factor_by_reattribution(h)
        for i, e in enumerate(h.slots()):
            tf = slot_form(h, _two_factor_through(h.n, ends, i))
            assert tf == two_factor_through_by_reattribution(h, e)
            m = matching_through_by_reattribution(h, e)
            tf = slot_form(h, _matched_through(h.n, ends, i))
            assert tf == factor_from_matching_by_reattribution(h, m)


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
        ref.add_edges_from((u, v) for u, v, _ in edge_pairs(g))
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
