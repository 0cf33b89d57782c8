import tracemalloc
from collections import Counter

import pytest

from clawcolor import (
    ComponentKind,
    ExpansionSpec,
    MultiGraph,
    Variant,
    decompose,
    expand_to_clawfree,
    gen_cubic_multigraph,
    gen_ring_of_diamonds,
    is_claw_free,
    is_cubic,
    random_expansion_spec,
)
from clawcolor.errors import ClawcolorError, NotSimpleError
from clawcolor.recognition import _contract, _local_scan, _structure
from clawcolor.rng import SplitMix64

from brute import (
    completion_by_subgraphs,
    decompose_by_grouping,
    decompose_by_own_scan,
    h_of,
    induced,
    lift_slot,
    multigraph_isomorphic,
)
from test_golden import labeled_inputs


def k4():
    return MultiGraph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])


def test_k4_variant():
    assert decompose(k4()).variant is Variant.K4


def test_ring_variant():
    dec = decompose(gen_ring_of_diamonds(4))
    assert dec.variant is Variant.RING
    assert len(dec.walk[0]) // 4 == 4 and dec.string_lengths() == [4]


def test_prism_decomposition(named_fixtures):
    dec = decompose(named_fixtures["prism"])
    assert dec.variant is Variant.BUILT
    assert len(dec.triangles) == 2
    assert dec.ends == ((0, 1),) * 3
    assert dec.string_lengths() == []


def test_big_expansion_decomposition(named_fixtures):
    dec = decompose(named_fixtures["big_expansion"])
    assert dec.variant is Variant.BUILT
    assert len(dec.triangles) == 6
    # exactly one parallel pair in H
    assert sorted(Counter(dec.ends).values()) == [1, 1, 1, 1, 1, 1, 1, 2]
    assert dec.string_lengths() == [2, 2]


def test_decompose_hands_out_h_as_the_contraction_numbers_it(
    named_fixtures, large_graphs, monkeypatch
):
    """`decompose` builds no `MultiGraph` and lists no slot: H is handed out
    as the tuples of what `_contract` returns, `ends` and `walk` aligned by
    edge id, on the bridgeless fixtures and the 9,216-vertex built graph,
    and K4 as the ring of one diamond."""
    graphs = [named_fixtures["prism"], named_fixtures["big_expansion"]]
    graphs += [dict(large_graphs)["built-h1024"], named_fixtures["k4"]]
    contractions = [_contract(g, _local_scan(g)) if g.n > 4 else None for g in graphs]
    calls = dict.fromkeys(("__init__", "slots"), 0)

    def counted(name):
        real = getattr(MultiGraph, name)

        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return real(self, *args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(MultiGraph, name, counted(name))
    for g, local in zip(graphs, contractions):
        dec = decompose(g)
        assert calls == {"__init__": 0, "slots": 0}, (g.n, calls)
        if local is None:
            assert dec.variant is Variant.K4 and dec.ends == ()
            assert dec.walk == ((0, 2, 3, 1),)
            continue
        assert dec.variant is Variant.BUILT
        assert dec.ends == tuple(local.ends) and dec.walk == tuple(local.walk)
        assert dec.triangles == tuple(local.triangles)


def test_decompose_rejects_bridged(named_fixtures):
    """A bridged graph gets its bridge tree, beside an H with loops."""
    dec = decompose(named_fixtures["bridged_star"])
    assert len(dec.components) == 4 and dec.variant is Variant.BUILT
    assert sum(a == b for a, b in dec.ends) == 3


def test_decompose_rejects_multigraph(named_fixtures):
    with pytest.raises(NotSimpleError):
        decompose(named_fixtures["h10"])


def test_expansion_counts():
    h = MultiGraph(2, [(0, 1)] * 3)
    g = expand_to_clawfree(h)
    assert g.n == 6 and is_cubic(g) and is_claw_free(g)
    g2 = expand_to_clawfree(h, ExpansionSpec({(0, 1, 0): 3}))
    assert g2.n == 6 + 12


def _check_realizations(g, dec):
    """Each realization is laid out as `_walk` lists it and lifts back to its slot."""
    for slot, r in zip(h_of(dec).slots(), dec.walk):
        assert len(r) % 4 == 2
        # each end is a corner of the triangle its slot end names
        assert r[0] in dec.triangles[slot[0]]
        assert r[-1] in dec.triangles[slot[1]]
        # every connector edge is a G-edge and maps back to its slot
        for pair in zip(r[::4], r[1::4]):
            assert pair[1] in g.neighbors(pair[0])
            assert lift_slot(dec, pair) == slot
        # each diamond's interiors are ascending and adjacent
        for i1, i2 in zip(r[2::4], r[3::4]):
            assert i1 < i2 and i2 in g.neighbors(i1)


def test_expansion_attach_and_connectors():
    h = MultiGraph(2, [(0, 1)] * 3)
    g = expand_to_clawfree(h, ExpansionSpec({(0, 1, 1): 1}))
    dec = decompose(g)
    assert dec.variant is Variant.BUILT
    assert dec.string_lengths() == [1]
    _check_realizations(g, dec)


@pytest.mark.parametrize("seed", range(25))
def test_round_trip_h_recovery(seed):
    rng = SplitMix64(0xAB0 + seed)
    n_h = (2, 4, 6, 8, 10, 12)[seed % 6]
    h = gen_cubic_multigraph(n_h, rng)
    spec = random_expansion_spec(h, rng, max_string=2)
    g = expand_to_clawfree(h, spec, rng)
    assert is_cubic(g) and is_claw_free(g) and g.is_simple()
    dec = decompose(g)
    assert dec.variant is Variant.BUILT
    assert multigraph_isomorphic(h_of(dec), h)
    assert sorted(spec.string_lengths[s] for s in h.slots() if spec.string_lengths[s]) == dec.string_lengths()
    _check_realizations(g, dec)


def test_triangle_partition_covers_everything(named_fixtures):
    g = named_fixtures["big_expansion"]
    dec = decompose(g)
    covered = set()
    for tri in dec.triangles:
        covered |= set(tri)
    for r in dec.walk:
        covered |= set(r[1:-1])
    assert covered == set(range(g.n))


def test_decompose_peak_memory_per_vertex(large_graphs):
    """`_structure` of the 9,216-vertex built graph: the entry check, which
    numbers the H-edges as it contracts, with no slot filed and no H built,
    and the tree of one class that holds the contraction, not a copy.

    The entry check followed by a second numbering pass over its result
    peaked at 41.2 bytes per vertex (379,264 B).
    """
    g = dict(large_graphs)["built-h1024"]
    _structure(g)  # the first call's one-time allocations are no part of the peak
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        local = _structure(g).shares[0]
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert g.n == 9216 and len(local.walk) == 3 * len(local.triangles) // 2
    assert peak / g.n < 42, f"{peak / g.n:.1f} B/vertex"


# peak bytes per vertex of `decompose`: 35.0 and 48.8 on CPython 3.11; a
# ring's record that kept its scan and a named pair per diamond took 77.2
DECOMPOSE_PEAK_PER_VERTEX = {"built-h1024": 42, "ring-2500": 60}


@pytest.mark.parametrize("name", sorted(DECOMPOSE_PEAK_PER_VERTEX))
def test_decompose_record_peak_memory_per_vertex(large_graphs, name):
    """`decompose` of the 9,216-vertex built graph and the 2,500-diamond
    ring, after a warm-up call: the entry check, and a record that holds
    the contraction and a bridge tree of one component, but neither the
    scan's diamonds nor its per-vertex index."""
    g = dict(large_graphs)[name]
    decompose(g)  # the first call's one-time allocations are no part of the peak
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dec = decompose(g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert dec.components == (tuple(range(g.n)),)
    assert peak / g.n < DECOMPOSE_PEAK_PER_VERTEX[name], f"{peak / g.n:.1f} B/vertex"


def _record_edges(dec) -> list[tuple[int, int]]:
    """G's edges as `decompose`'s record gives them, each pair ascending:
    each triangle's three, each diamond's five, and the edges between
    them, zip(r[::4], r[1::4]) on a walk between two corners and
    (r[j - 1], r[j]) for j = 0, 4, ... on a ring's cyclic walk."""
    edges = [(a, b) for t in dec.triangles for a, b in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2]))]
    cyclic = not dec.triangles
    for r in dec.walk:
        if cyclic:
            edges += [(r[j - 1], r[j]) for j in range(0, len(r), 4)]
            diamonds = range(0, len(r), 4)
        else:
            edges += zip(r[::4], r[1::4])
            diamonds = range(1, len(r) - 1, 4)
        for j in diamonds:
            entry, i1, i2, exit_ = r[j:j + 4]
            edges += [(entry, i1), (entry, i2), (i1, i2), (i1, exit_), (i2, exit_)]
    return sorted((min(e), max(e)) for e in edges)


def test_the_record_rebuilds_g(
    named_fixtures, corpus, bridged_trees, random_bridged_trees, large_graphs
):
    """On every golden input `decompose` accepts, all but Petersen and the
    multigraph h10, the edges the record's `triangles` and `walk` give are
    G's, each once: H is G's own contraction for every graph, and `walk`
    is aligned with `ends` when there are triangles."""
    inputs = labeled_inputs(named_fixtures, corpus, bridged_trees, random_bridged_trees, large_graphs)
    kinds = Counter()
    for label, g in inputs:
        try:
            dec = decompose(g)
        except ClawcolorError:
            kinds["rejected"] += 1
            continue
        assert _record_edges(dec) == g.edge_list(), label
        if dec.triangles:
            assert len(dec.walk) == len(dec.ends), label
        else:
            assert len(dec.walk) == 1 and dec.ends == (), label
        kinds["bridged" if len(dec.components) > 1 else dec.variant.name] += 1
    assert kinds == {"bridged": 431, "BUILT": 374, "RING": 46, "K4": 11, "rejected": 2}, kinds


def test_decompose_of_a_diamond_chain_peak_memory_per_vertex(large_graphs):
    """`decompose` of the 2,000-diamond chain: the entry check, and the
    bridge tree read from its contraction, peak below 145 bytes per vertex.

    The tree needs the walk and ends through its build; holding the whole
    scan with them as well would take about 200.  The previous tree, built
    from a set of G's bridges after the scan was dropped, took 140.6.
    """
    g = dict(large_graphs)["chain-2000"]
    decompose(g)  # the first call's one-time allocations are no part of the peak
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        bt = decompose(g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert g.n == 8028 and len(bt.components) == 2002
    assert peak / g.n < 145, f"{peak / g.n:.1f} B/vertex"


def _assert_same_decomposition(got, expected):
    assert got == expected
    assert (got.ends, got.walk) == (expected.ends, expected.walk)


def test_decompose_matches_grouping_on_fixtures_built_graphs_and_rings(named_fixtures):
    graphs = [named_fixtures[name] for name in ("k4", "prism", "big_expansion")]
    graphs += [gen_ring_of_diamonds(k) for k in (2, 3, 5, 40)]
    rng = SplitMix64(0xDEC)
    for n_h in (2, 4, 6, 8, 16, 32, 64, 128):
        for max_string in (0, 1, 3):
            h = gen_cubic_multigraph(n_h, rng)
            graphs.append(expand_to_clawfree(h, random_expansion_spec(h, rng, max_string), rng))
    for g in graphs:
        _assert_same_decomposition(decompose_by_own_scan(g), decompose_by_grouping(g))
        _assert_same_decomposition(decompose(g), decompose_by_grouping(g))


def test_decompose_matches_grouping_on_every_tilde_completion(random_bridged_trees):
    """The completions of 200 bridged trees, built as graphs and each
    decomposed from its own scan, walk and contraction."""
    variants = set()
    for g in random_bridged_trees:
        bt = decompose(g)
        for comp, xs, kind in zip(bt.components, bt.degree2, bt.kinds):
            if kind is not ComponentKind.TYPE_III:
                continue
            sub, to_global = induced(g, comp)
            to_sub = {v: i for i, v in enumerate(to_global)}
            tilde, _ = completion_by_subgraphs(sub, [to_sub[x] for x in xs])
            dec = decompose_by_own_scan(tilde)
            _assert_same_decomposition(dec, decompose_by_grouping(tilde))
            variants.add(dec.variant)
    assert variants == {Variant.K4, Variant.RING, Variant.BUILT}
