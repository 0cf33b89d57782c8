import pytest

import clawcolor.colorer
from clawcolor import (
    C1A,
    C1B,
    C2A,
    C2B,
    SPEC_1122,
    MultiGraph,
    PackingColoring,
    Variant,
    color_claw_free_cubic,
    decompose,
    expand_to_clawfree,
    gen_ring_of_diamonds,
    verify,
)
from clawcolor.colorer import _canonical, _k4, _ring
from clawcolor.errors import InternalInvariantError, NotCubicError
from clawcolor.factorization import _complement, _matched_through, _two_factor_through
from clawcolor.recognition import _structure

from brute import (
    colored,
    find_diamonds,
    h_of,
    is_k4,
    lift_slot,
    light_support_property,
    ring_by_diamonds,
    transposed,
)

# frozen reference coloring of the big_expansion fixture: matching corners
# carry 2a/2b, cycle corners 1a/1b, strings per their two type rules
REFERENCE_BIG_EXPANSION = {
    0: "2a", 1: "1b", 2: "1a", 3: "2a", 4: "1b", 5: "1a", 6: "2a", 7: "1b",
    8: "1a", 9: "2b", 10: "1b", 11: "1a", 12: "2b", 13: "1a", 14: "1b",
    15: "2a", 16: "2b", 17: "1a", 18: "1b", 19: "2a", 20: "2b", 21: "1b",
    22: "1a", 23: "2b", 24: "1b", 25: "1a", 26: "2b", 27: "2a", 28: "1b",
    29: "1a", 30: "2a", 31: "2b", 32: "1b", 33: "1a",
}
LABEL_TO_IDX = {"1a": C1A, "1b": C1B, "2a": C2A, "2b": C2B}


def k4():
    return MultiGraph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])


def assert_valid(g, coloring):
    assert verify(g, SPEC_1122, coloring) == []


def test_color_k4():
    col = colored(4, _k4)
    assert sorted(col.assignment.values()) == [C1A, C1B, C2A, C2B]
    assert_valid(k4(), col)


def test_color_k4_rejects_c4():
    """C4 has K4's order but is not K4; the entry check rejects it."""
    c4 = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert not is_k4(c4)
    with pytest.raises(NotCubicError):
        color_claw_free_cubic(c4)


@pytest.mark.parametrize("k", [2, 3, 5, 10])
def test_ring_coloring(k):
    g = gen_ring_of_diamonds(k)
    col = colored(g.n, _ring, _structure(g).walk[0])
    assert_valid(g, col)
    # the rule read from the cyclic walk colors as the rule read from the diamonds
    assert col == ring_by_diamonds(g, decompose(g).ring_diamonds)
    # interiors carry the radius-2 classes, exteriors the radius-1 classes
    for d in find_diamonds(g):
        assert {col.assignment[v] for v in d.interiors} == {C2A, C2B}
        assert {col.assignment[v] for v in d.exteriors} <= {C1A, C1B}


def test_ring_coloring_rejects_k4():
    """K4 has no induced diamond: it decomposes as K4, not as a ring."""
    assert decompose(k4()).variant is Variant.K4


def test_reference_coloring_verifies(named_fixtures):
    g = named_fixtures["big_expansion"]
    col = PackingColoring(
        SPEC_1122, {v: LABEL_TO_IDX[l] for v, l in REFERENCE_BIG_EXPANSION.items()}
    )
    assert_valid(g, col)
    assert light_support_property(g, col)


def test_canonical_on_big_expansion(named_fixtures):
    g = named_fixtures["big_expansion"]
    local = _structure(g)
    col = colored(g.n, _canonical, local, _complement(len(local.triangles), local.ends))
    assert_valid(g, col)
    assert light_support_property(g, col)


def test_canonical_on_k4_expansion():
    g = expand_to_clawfree(k4())
    assert g.n == 12
    col = color_claw_free_cubic(g)
    assert_valid(g, col)
    # the matching of K4 has 2 edges: exactly 2 vertices per radius-2 class
    counts = [sum(1 for c in col.assignment.values() if c == i) for i in range(4)]
    assert counts == [4, 4, 2, 2]


def test_canonical_on_prism(named_fixtures):
    g = named_fixtures["prism"]
    col = color_claw_free_cubic(g)
    assert_valid(g, col)


def test_matched_pairs_get_heavy_colors(named_fixtures):
    g = named_fixtures["big_expansion"]
    local = _structure(g)
    factor = _complement(len(local.triangles), local.ends)
    col = colored(g.n, _canonical, local, factor)
    for e in factor.matching:
        r = local.walk[e]
        assert col.assignment[r[0]] == C2A
        assert col.assignment[r[-1]] == C2B
        if len(r) == 2:
            assert r[-1] in g.neighbors(r[0])


def with_edge(g, dec, edge):
    """The canonical coloring for a 2-factor through the H-image of `edge`."""
    return _forced(g, dec, edge, _two_factor_through)


def with_matched_edge(g, dec, edge):
    """The canonical coloring for a perfect matching through the H-image of `edge`."""
    return _forced(g, dec, edge, _matched_through)


def _forced(g, dec, edge, through):
    """The canonical coloring of g for `through` at the H-image of `edge`,
    whose id is its slot's index in slot order."""
    local = _structure(g)
    e = h_of(dec).slots().index(lift_slot(dec, edge))
    return colored(g.n, _canonical, local, through(len(local.triangles), local.ends, e))


def test_with_edge_endpoints_light(named_fixtures):
    g = named_fixtures["prism"]
    dec = decompose(g)
    for pair in ((0, 3), (1, 4), (2, 5)):
        col = with_edge(g, dec, pair)
        assert_valid(g, col)
        assert {col.assignment[pair[0]], col.assignment[pair[1]]} == {C1A, C1B}


def test_with_matched_edge_endpoints_heavy(named_fixtures):
    g = named_fixtures["prism"]
    dec = decompose(g)
    for pair in ((0, 3), (1, 4), (2, 5)):
        col = with_matched_edge(g, dec, pair)
        assert_valid(g, col)
        assert {col.assignment[pair[0]], col.assignment[pair[1]]} == {C2A, C2B}


def test_a_vertex_on_two_realizations_is_a_bug(named_fixtures, monkeypatch):
    """A string whose first diamond lists its smaller interior twice leaves
    the other uncolored.  The exit certificate reports the missing vertex
    as a bug, InternalInvariantError, not as the PartialColoringError
    `verify` raises on a user's file."""
    g = named_fixtures["big_expansion"]
    local = _structure(g)
    e, r = next((e, r) for e, r in enumerate(local.walk) if len(r) > 2)
    walk = [*local.walk[:e], r[:3] + r[2:3] + r[4:], *local.walk[e + 1:]]
    monkeypatch.setattr(clawcolor.colorer, "_structure", lambda g: local._replace(walk=walk))
    with pytest.raises(InternalInvariantError) as caught:
        color_claw_free_cubic(g)
    assert type(caught.value) is InternalInvariantError
    assert str(caught.value) == f"coloring domain mismatch on 1 vertices, e.g. [{r[3]}]"


def test_with_edge_on_string_connectors(named_fixtures):
    g = named_fixtures["big_expansion"]
    dec = decompose(g)
    string = next(r for r in dec.walk if len(r) > 2)
    for pair in zip(string[::4], string[1::4]):
        col = with_edge(g, dec, pair)
        assert_valid(g, col)
        assert {col.assignment[pair[0]], col.assignment[pair[1]]} == {C1A, C1B}


def test_transposition_preserves_validity(named_fixtures):
    g = named_fixtures["big_expansion"]
    col = color_claw_free_cubic(g)
    for i, j in ((C1A, C1B), (C2A, C2B)):
        assert_valid(g, transposed(col, i, j))


def test_support_property_rejects_bad_coloring(named_fixtures):
    g = named_fixtures["prism"]
    # all-1a is trivially invalid as a packing and also breaks the support
    # property: no 1b neighbors and the prism carries no diamond
    col = PackingColoring(SPEC_1122, {v: C1A for v in range(g.n)})
    assert not light_support_property(g, col)


def test_support_property_on_corpus(base_corpus):
    from clawcolor import find_bridges

    for _, g in base_corpus:
        if find_bridges(g):
            continue
        local = _structure(g)
        if not local.triangles:
            continue
        col = colored(g.n, _canonical, local, _complement(len(local.triangles), local.ends))
        assert light_support_property(g, col)
