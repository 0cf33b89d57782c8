import re
from itertools import product

import pytest

from clawcolor import (
    ComponentKind,
    ExpansionSpec,
    MultiGraph,
    Variant,
    decompose,
    expand_to_clawfree,
    find_bridges,
    fixtures,
    gen_bridged,
    gen_cubic_multigraph,
    gen_ring_of_diamonds,
    is_claw_free,
    is_connected,
    is_cubic,
    random_expansion_spec,
)
from clawcolor.errors import InfeasibleSpecError, KTooSmallError, OddOrderError
from clawcolor import generators
from clawcolor.generators import _parse_tree_spec
from clawcolor.rng import SplitMix64

from brute import edge_pairs


def test_ring_generator():
    assert gen_ring_of_diamonds(2).n == 8
    assert decompose(gen_ring_of_diamonds(2)).variant is Variant.RING
    assert gen_ring_of_diamonds(3).n == 12
    g = gen_ring_of_diamonds(10)
    assert g.n == 40 and not find_bridges(g)


def test_ring_too_small():
    with pytest.raises(KTooSmallError):
        gen_ring_of_diamonds(1)


def test_multigraph_n2_is_triple_edge():
    g = gen_cubic_multigraph(2, SplitMix64(0))
    assert edge_pairs(g) == [(0, 1, 3)]


def all_cubic_multigraphs_on_4() -> set:
    """Brute-force enumeration via multiplicity assignment on the 6 pairs."""
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    out = set()
    for mults in product(range(4), repeat=6):
        deg = [0] * 4
        for (u, v), m in zip(pairs, mults):
            deg[u] += m
            deg[v] += m
        if all(d == 3 for d in deg):
            edges = []
            for (u, v), m in zip(pairs, mults):
                edges += [(u, v)] * m
            out.add(MultiGraph(4, edges))
    return out


def test_multigraph_n4_in_enumerated_set():
    valid = all_cubic_multigraphs_on_4()
    assert valid
    for seed in range(25):
        g = gen_cubic_multigraph(4, SplitMix64(seed))
        assert g in valid


def test_multigraph_n10_properties():
    for seed in range(60):
        g = gen_cubic_multigraph(10, SplitMix64(seed))
        assert is_cubic(g) and is_connected(g) and not find_bridges(g)


def test_multigraph_rejects_odd():
    with pytest.raises(OddOrderError):
        gen_cubic_multigraph(5, SplitMix64(0))


def test_expansion_always_claw_free_cubic():
    for seed in range(60):
        rng = SplitMix64(0x9 + seed)
        h = gen_cubic_multigraph((2, 4, 6, 8)[seed % 4], rng)
        spec = random_expansion_spec(h, rng, max_string=2)
        g = expand_to_clawfree(h, spec, rng)
        assert is_cubic(g) and is_claw_free(g) and g.is_simple()
        assert g.n == 3 * h.n + 4 * sum(spec.string_lengths.values())
        assert not find_bridges(g)


def test_bridged_tree_shape_recovered():
    spec = [("k3", 3), ("type3", 1), ("type3", 1), ("type3", 1)]
    g = gen_bridged(spec, SplitMix64(11))
    bt = decompose(g)
    assert len(bt.components) == 4
    assert sorted(k.value for k in bt.kinds) == ["K3", "type3", "type3", "type3"]
    center = bt.kinds.index(ComponentKind.TRIANGLE)
    assert sorted(len(a) for a in bt.tree_adj) == [1, 1, 1, 3]
    assert len(bt.tree_adj[center]) == 3


def test_bridged_two_type3():
    g = gen_bridged([("type3", 1), ("type3", 1)], SplitMix64(5))
    bt = decompose(g)
    assert bt.tree_adj == ((1,), (0,))
    assert all(k is ComponentKind.TYPE_III for k in bt.kinds)


def test_bridged_with_diamond_chain():
    spec = [("type3", 1), ("diamond", 2), ("type3", 1)]
    g = gen_bridged(spec, SplitMix64(7))
    bt = decompose(g)
    assert sorted(k.value for k in bt.kinds) == ["diamond", "type3", "type3"]
    assert sorted(len(a) for a in bt.tree_adj) == [1, 1, 2]


def test_bridged_builds_one_graph_outside_its_type3_components(monkeypatch):
    """A K3 or a diamond component is a literal edge list, so `gen_bridged`
    constructs one `MultiGraph`, the assembly, whatever their number; only
    a Type III component builds graphs of its own, which are not counted."""
    real_init, real_component = MultiGraph.__init__, generators._gen_component
    built, in_type3 = [0], [False]

    def init(self, *args, **kwargs):
        built[0] += not in_type3[0]
        real_init(self, *args, **kwargs)

    def gen_component(kind, attach, rng):
        in_type3[0] = kind == "type3"
        try:
            return real_component(kind, attach, rng)
        finally:
            in_type3[0] = False

    monkeypatch.setattr(MultiGraph, "__init__", init)
    monkeypatch.setattr(generators, "_gen_component", gen_component)
    specs = [[("type3", 1)] + [("diamond", 2)] * k + [("type3", 1)] for k in (0, 1, 50)]
    specs += [[("k3", 3)] * k + [("type3", 1)] * (k + 2) for k in (1, 10)]
    specs.append([("k3", 3), ("type3", 3), ("diamond", 2)] + [("type3", 1)] * 4)
    for spec in specs:
        built[0] = 0
        g = gen_bridged(spec, SplitMix64(len(spec)))
        assert built[0] == 1, (len(spec), built[0])
        assert len(decompose(g).kinds) == len(spec)


def test_infeasible_specs():
    with pytest.raises(InfeasibleSpecError):
        gen_bridged([("diamond", 2), ("diamond", 2), ("diamond", 2)], SplitMix64(0))
    with pytest.raises(InfeasibleSpecError):
        gen_bridged([("k3", 2), ("type3", 1)], SplitMix64(0))
    with pytest.raises(InfeasibleSpecError):
        gen_bridged([("type3", 1)], SplitMix64(0))


@pytest.mark.parametrize(
    "spec, message",
    [
        ([("k3", 2), ("type3", 1), ("type3", 1)], "a K3 component has exactly 3 attachments"),
        ([("diamond", 1), ("type3", 1)], "a diamond component has exactly 2 attachments"),
        ([("k5", 1), ("type3", 1)], "unknown component kind 'k5'"),
        ([("type3", 0), ("type3", 2), ("type3", 1)], "every component needs at least one attachment"),
    ],
    ids=["k3-count", "diamond-count", "unknown-kind", "no-attachment"],
)
def test_bridged_spec_errors(spec, message):
    with pytest.raises(InfeasibleSpecError, match=f"^{message}$"):
        gen_bridged(spec, SplitMix64(0))


_BAD_KEY = "spec key {} is not an edge slot of H"


@pytest.mark.parametrize(
    "lengths, message",
    [
        ({(7, 9, 0): 3, (0, 0, 5): -2, "junk": 1}, _BAD_KEY.format("(7, 9, 0)")),
        ({(0, 0, 5): -2}, _BAD_KEY.format("(0, 0, 5)")),
        ({"junk": 1}, _BAD_KEY.format("'junk'")),
        ({(0, 2, 0): 1, (2, 0, 0): 1}, _BAD_KEY.format("(2, 0, 0)")),
        ({(0, 3, 1): 1, (0, 3, 2): 1}, _BAD_KEY.format("(0, 3, 2)")),
        ({(0, 2): 1}, _BAD_KEY.format("(0, 2)")),
        ({(1, 3, 0): -1, "junk": 1}, "string lengths must be non-negative"),
        ({"junk": 1, (1, 3, 0): -1}, _BAD_KEY.format("'junk'")),
    ],
    ids=[
        "three-bad-keys", "negative-loop", "not-a-tuple", "reversed-ends",
        "copy-past-multiplicity", "pair-not-slot", "negative-first", "junk-first",
    ],
)
def test_expansion_spec_key_errors(lengths, message, monkeypatch):
    """Each key of the spec must be a slot of H, and each length
    non-negative: the first key that is neither raises, naming that key,
    before any graph is built.  H is the seed-1 multigraph of order 4, with
    slots (0, 2, 0), (0, 3, 0), (0, 3, 1), (1, 2, 0), (1, 2, 1), (1, 3, 0)."""
    h = gen_cubic_multigraph(4, SplitMix64(1))
    assert expand_to_clawfree(h).n == 12
    built = [0]
    real_init = MultiGraph.__init__

    def init(self, *args):
        built[0] += 1
        real_init(self, *args)

    monkeypatch.setattr(MultiGraph, "__init__", init)
    with pytest.raises(InfeasibleSpecError, match=f"^{re.escape(message)}$"):
        expand_to_clawfree(h, ExpansionSpec(lengths))
    assert built[0] == 0


def test_random_expansion_specs_are_accepted():
    """`random_expansion_spec` keys each slot of H once, in slot order, so
    `expand_to_clawfree` accepts every spec it draws."""
    rng = SplitMix64(0x5EC)
    for i in range(60):
        h = gen_cubic_multigraph(2 * (1 + i % 12), rng)
        spec = random_expansion_spec(h, rng, max_string=i % 4)
        assert list(spec.string_lengths) == h.slots()
        g = expand_to_clawfree(h, spec, rng)
        assert g.n == 3 * h.n + 4 * sum(spec.string_lengths.values())


def test_tree_spec_skips_empty_parts():
    assert _parse_tree_spec(" type3:1,, diamond:2 ,type3:1,") == [
        ("type3", 1), ("diamond", 2), ("type3", 1)
    ]


def test_fixture_catalog():
    fx = fixtures()
    assert set(fx) == {"k4", "petersen", "prism", "h10", "big_expansion", "bridged_star"}
    assert fx["big_expansion"].n == 34
    assert fx["bridged_star"].n == 24
    assert len(find_bridges(fx["bridged_star"])) == 3
    assert not fx["h10"].is_simple()
    # petersen: triangle-free with girth 5
    from brute import all_pairs_distances

    pet = fx["petersen"]
    assert not is_claw_free(pet)
    d = all_pairs_distances(pet)
    assert max(max(r) for r in d) == 2
