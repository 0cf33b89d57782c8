import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from clawcolor import (
    C1A,
    C2A,
    SPEC_1122,
    MultiGraph,
    PackingColoring,
    SPackingSpec,
    color_claw_free_cubic,
    expand_to_clawfree,
    fixtures,
    gen_cubic_multigraph,
    gen_ring_of_diamonds,
    random_expansion_spec,
    solve_spacking,
    subdivide,
    verify,
)
from clawcolor import oracle
from clawcolor.coloring import UNCOLORED, Labels
from clawcolor.errors import CapExceededError, MalformedInputError, PartialColoringError

from brute import (
    bfs_distances,
    coloring_valid_brute,
    relabeled,
    solve_spacking_rescan,
    spacking_colorable_brute,
    verify_by_layers,
    violations_brute,
)
from clawcolor.rng import SplitMix64


def k4():
    return MultiGraph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])


def test_verify_k4_ok():
    col = PackingColoring(SPEC_1122, {0: 0, 1: 1, 2: 2, 3: 3})
    assert verify(k4(), SPEC_1122, col) == []


def test_verify_reports_violation():
    g = MultiGraph(3, [(0, 1), (1, 2)])
    col = PackingColoring(SPEC_1122, {0: C2A, 1: C1A, 2: C2A})
    violations = verify(g, SPEC_1122, col)
    assert len(violations) == 1
    v = violations[0]
    assert v.pair == (0, 2) and v.distance == 2 and v.label == "2a"


def test_verify_requires_total():
    with pytest.raises(PartialColoringError):
        verify(k4(), SPEC_1122, PackingColoring(SPEC_1122, {0: 0}))


@pytest.mark.parametrize(
    "assignment, mismatch, listed",
    [
        ({0: 0, 2: 1}, {1, 3}, "[1, 3]"),
        ({0: 0, 1: 1, 2: 2, 3: 3, 4: 0}, {4}, "[4]"),
        ({-1: 0, 0: 0, 1: 1, 2: 2, 3: 3}, {-1}, "[-1]"),
        ({0: 0, 1: 1, 2: 2, 4: 0}, {3}, "[3]"),
        ({0: 0, 1: 1, 2: 2, 3: 3, 2.5: 0}, {2.5}, "[2.5]"),
        ({0: 0, 1: 1, 2: 2, 3: 3, 2.5: 0, 7: 1}, {2.5, 7}, "[7, 2.5]"),
        ({0: 0, 1: 1, 2: 2, 3: 3, "a": 0, 7: 1}, {"a", 7}, "[7, 'a']"),
    ],
    ids=["missing", "extra", "negative", "missing-and-extra", "non-integer",
         "non-integer-and-extra", "non-numeric-and-extra"],
)
def test_verify_domain_mismatch(assignment, mismatch, listed):
    """The message lists integer keys in numeric order, then any others by repr."""
    with pytest.raises(PartialColoringError) as exc:
        verify(k4(), SPEC_1122, PackingColoring(SPEC_1122, assignment))
    assert exc.value.missing == mismatch
    assert str(exc.value) == f"coloring domain mismatch on {len(mismatch)} vertices, e.g. {listed}"


def _outcome(g, spec, assignment):
    """What `verify` returns for the assignment, or the type and message it raises."""
    try:
        return verify(g, spec, PackingColoring(spec, assignment))
    except (PartialColoringError, MalformedInputError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "spec", [SPEC_1122, SPackingSpec((1, 1, 2, 3)), SPackingSpec((1,) * 9)],
    ids=["bits", "bfs", "bits-past-a-byte"],
)
@pytest.mark.parametrize(
    "fault",
    [
        lambda b: b,
        lambda b: bytes(len(b)),
        lambda b: b[:2] + bytes([UNCOLORED]) + b[3:],
        lambda b: b[:-1],
        lambda b: b + b"\x00",
        lambda b: b[:1] + b"\x09" + b[2:],
        lambda b: b"\x09" + b[1:-1] + bytes([UNCOLORED]),
        lambda b: b"",
    ],
    ids=["valid", "all-one-class", "uncolored", "short", "long", "class-9",
         "class-9-and-uncolored", "empty"],
)
def test_labels_verify_as_the_dict_of_their_colored_bytes(spec, fault):
    """`_classes` reads a Labels of n bytes by one translate.  Whatever the
    bytes, `verify` returns or raises, message included, what it does for
    the dict of the vertices whose byte is not UNCOLORED."""
    g = fixtures()["prism"]
    data = fault(solve_spacking(g, spec).assignment.data)
    as_dict = {v: c for v, c in enumerate(data) if c != UNCOLORED}
    assert _outcome(g, spec, Labels(data)) == _outcome(g, spec, as_dict)


@pytest.mark.parametrize("spec", [SPEC_1122, SPackingSpec((1, 1, 2, 3))], ids=["bits", "bfs"])
@pytest.mark.parametrize(
    "old, new", [(3, -1), (2, -2), (3, -5), (3, 4), (0, 9), (1, "1b")],
    ids=["2b-as-minus-1", "2a-as-minus-2", "below-minus-r", "r", "above-r", "label"],
)
def test_verify_rejects_a_class_outside_the_spec(spec, old, new):
    """A class id outside range(r) raises, on the radius-at-most-2 bits
    path and on the BFS path: a list indexed by it would wrap a negative id
    around, so that every 2b written as -1 passed, or raise IndexError."""
    g = fixtures()["prism"]
    good = solve_spacking(g, spec).assignment
    assert verify(g, spec, PackingColoring(spec, good)) == []
    bad = {v: new if c == old else c for v, c in good.items()}
    v = min(v for v, c in good.items() if c == old)
    with pytest.raises(MalformedInputError) as exc:
        verify(g, spec, PackingColoring(spec, bad))
    assert str(exc.value) == f"vertex {v} has class {new!r}, outside the spec's 4 classes"


def test_verify_reports_a_missing_vertex_before_a_bad_class():
    with pytest.raises(PartialColoringError) as exc:
        verify(k4(), SPEC_1122, PackingColoring(SPEC_1122, {0: -1, 1: 1, 2: 2}))
    assert exc.value.missing == {3}


def _differential_graphs() -> list[tuple[str, MultiGraph]]:
    """Fixtures, built graphs, rings and a subdivision: varied radii reach."""
    out = list(fixtures().items())
    rng = SplitMix64(0xD1FF)
    for i in range(12):
        h = gen_cubic_multigraph(2 * (1 + i % 6), rng)
        out.append((f"built{i}", expand_to_clawfree(h, random_expansion_spec(h, rng), rng)))
    out.extend((f"ring{k}", gen_ring_of_diamonds(k)) for k in (2, 3, 5))
    out.append(("subdivided_petersen", subdivide(fixtures()["petersen"])))
    return out


DIFFERENTIAL_GRAPHS = _differential_graphs()


def _violation_tuples(g, spec, assignment):
    return [
        (vio.class_index, vio.label, vio.pair, vio.distance)
        for vio in verify(g, spec, PackingColoring(spec, assignment))
    ]


@pytest.mark.parametrize(
    "radii", [(1, 1, 2, 2), (1, 2, 3), (2, 2, 3, 3), (1, 1, 1), (3, 4)]
)
def test_verify_matches_definition(radii):
    """verify's violations equal the all-pairs definition, in order."""
    spec = SPackingSpec(radii)
    rng = SplitMix64(sum(radii) * 1009 + len(radii))
    total = 0
    for name, g in DIFFERENTIAL_GRAPHS:
        for _ in range(5):
            assignment = {v: rng.randrange(spec.r) for v in range(g.n)}
            got = _violation_tuples(g, spec, assignment)
            assert got == violations_brute(g, radii, assignment), name
            total += len(got)
    assert total > 0


def test_verify_matches_definition_near_valid(base_corpus):
    """Constructed colorings with one vertex moved: few, sparse violations."""
    rng = SplitMix64(0x1122)
    for name, g in base_corpus:
        assignment = dict(color_claw_free_cubic(g).assignment)
        assert violations_brute(g, SPEC_1122.radii, assignment) == []
        v = rng.randrange(g.n)
        assignment[v] = (assignment[v] + 1 + rng.randrange(3)) % 4
        got = _violation_tuples(g, SPEC_1122, assignment)
        assert got == violations_brute(g, SPEC_1122.radii, assignment), name


def test_verify_matches_layered_reference_on_large_graphs(large_graphs):
    """Constructed colorings, as built and with 50 vertices recolored."""
    rng = SplitMix64(0x5CA1E)
    total = 0
    for name, g in large_graphs:
        built = dict(color_claw_free_cubic(g).assignment)
        for spec in (SPEC_1122, SPackingSpec((1, 2, 3, 3))):
            recolored = dict(built)
            for _ in range(50):
                recolored[rng.randrange(g.n)] = rng.randrange(spec.r)
            for assignment in (built, recolored):
                coloring = PackingColoring(spec, assignment)
                got = verify(g, spec, coloring)
                assert got == verify_by_layers(g, spec, coloring), name
                total += len(got)
    assert total > 0


DECISION_SPECS = [(1,), (2,), (1, 1), (1, 2), (2, 2), (1, 1, 2, 2), (1, 2, 2, 2), (2, 2, 2, 2, 2)]


def _witness_graphs() -> list[tuple[str, MultiGraph]]:
    """Small graphs on which some of DECISION_SPECS have valid colorings."""
    prism = fixtures()["prism"]
    return [
        ("edgeless", MultiGraph(3)),
        ("c4_and_isolated_vertex", MultiGraph(5, [(0, 1), (1, 2), (2, 3), (3, 0)])),
        ("c4_with_parallel_pair", MultiGraph(4, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 0)])),
        ("path6", MultiGraph(6, [(i, i + 1) for i in range(5)])),
        ("k4", k4()),
        ("prism", prism),
        ("subdivided_k4", subdivide(k4())),
        ("subdivided_prism", subdivide(prism)),
        ("subdivided_triple_edge", subdivide(MultiGraph(2, [(0, 1)] * 3))),
    ]


WITNESS_GRAPHS = _witness_graphs()


def _decision_cases(base_corpus):
    """(name, graph, radii, assignment): valid colorings and one-vertex changes.

    The valid ones are solver witnesses on WITNESS_GRAPHS, each then
    changed at every vertex in turn, and the constructed colorings of the
    base corpus, each then changed at one vertex.
    """
    rng = SplitMix64(0xDEC1DE)
    for radii in DECISION_SPECS:
        spec = SPackingSpec(radii)
        for name, g in WITNESS_GRAPHS:
            col = solve_spacking(g, spec, cap=g.n)
            if col is None:
                continue
            yield name, g, radii, col.assignment
            for v in range(g.n) if spec.r > 1 else ():
                moved = dict(col.assignment)
                moved[v] = (moved[v] + 1 + rng.randrange(spec.r - 1)) % spec.r
                yield f"{name}@{v}", g, radii, moved
    for name, g in base_corpus:
        built = color_claw_free_cubic(g).assignment
        for radii in DECISION_SPECS:
            if len(radii) < 4:
                continue
            yield name, g, radii, built
            moved = dict(built)
            v = rng.randrange(g.n)
            moved[v] = (moved[v] + 1 + rng.randrange(len(radii) - 1)) % len(radii)
            yield f"{name}@{v}", g, radii, moved


def test_decision_pass_matches_definition(base_corpus, monkeypatch):
    """Radii <= 2: valid colorings return [] without the BFS; the rest list
    exactly the definition's violations."""
    bfs_runs = []
    bfs = oracle._violations

    def counted(adj, cls, spec):
        bfs_runs.append(spec)
        return bfs(adj, cls, spec)

    monkeypatch.setattr(oracle, "_violations", counted)
    valid_specs = set()
    invalid = 0
    for name, g, radii, assignment in _decision_cases(base_corpus):
        want = violations_brute(g, radii, assignment)
        bfs_runs.clear()
        assert _violation_tuples(g, SPackingSpec(radii), assignment) == want, (name, radii)
        assert len(bfs_runs) == (1 if want else 0), (name, radii)
        if want:
            invalid += 1
        else:
            valid_specs.add(radii)
    assert valid_specs == set(DECISION_SPECS)
    assert invalid > 0


def test_verify_lists_pairs_beyond_distance_two():
    """A coloring with no conflict within distance 2 is still checked at radius 3."""
    path = MultiGraph(4, [(0, 1), (1, 2), (2, 3)])
    spec = SPackingSpec((1, 1, 3))
    got = verify(path, spec, PackingColoring(spec, {0: 2, 1: 0, 2: 1, 3: 2}))
    assert [(vio.pair, vio.distance) for vio in got] == [((0, 3), 3)]
    total = 0
    for name, g in WITNESS_GRAPHS:
        col = solve_spacking(g, SPackingSpec((1, 1, 2)), cap=g.n)
        if col is None:
            continue
        for radii in ((1, 1, 3), (1, 2, 3)):
            got = _violation_tuples(g, SPackingSpec(radii), col.assignment)
            assert got == violations_brute(g, radii, col.assignment), name
            total += len(got)
    assert total > 0


def test_spec_validation():
    with pytest.raises(ValueError, match="^at least one radius required$"):
        SPackingSpec(())
    with pytest.raises(ValueError, match="^radii must be non-decreasing$"):
        SPackingSpec((2, 1))
    with pytest.raises(ValueError, match="^radii must be positive$"):
        SPackingSpec((0, 1))
    assert SPackingSpec((1, 2, 3)).labels() == ("c1", "c2", "c3")
    assert SPEC_1122.labels() == ("1a", "1b", "2a", "2b")


def test_petersen_unsat_fast(named_fixtures):
    start = time.perf_counter()
    assert solve_spacking(named_fixtures["petersen"], SPEC_1122) is None
    assert time.perf_counter() - start < 1.0


def test_c5_specs():
    c5 = MultiGraph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert solve_spacking(c5, SPackingSpec((1, 1))) is None
    col = solve_spacking(c5, SPackingSpec((1, 1, 2)))
    assert col is not None
    assert verify(c5, SPackingSpec((1, 1, 2)), col) == []


def test_k4_specs():
    assert solve_spacking(k4(), SPackingSpec((1,))) is None
    col = solve_spacking(k4(), SPEC_1122)
    assert col is not None and verify(k4(), SPEC_1122, col) == []


def test_cap():
    g = MultiGraph(5, [])
    with pytest.raises(CapExceededError):
        solve_spacking(g, SPEC_1122, cap=4)


def test_solver_output_valid_by_brute(named_fixtures):
    g = named_fixtures["prism"]
    col = solve_spacking(g, SPEC_1122)
    assert col is not None
    assert coloring_valid_brute(g, SPEC_1122.radii, col.assignment)


def test_unsat_stable_under_relabeling(named_fixtures):
    g = named_fixtures["petersen"]
    rng = SplitMix64(0xD15C)
    for _ in range(20):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert solve_spacking(relabeled(g, perm), SPEC_1122) is None


def test_solver_agrees_with_construction(base_corpus):
    for name, g in base_corpus:
        if g.n > 16:
            continue
        col = solve_spacking(g, SPEC_1122)
        assert col is not None, name
        assert verify(g, SPEC_1122, col) == []
        constructed = color_claw_free_cubic(g)
        assert verify(g, SPEC_1122, constructed) == []


def test_subdivide_k4():
    s = subdivide(k4())
    assert s.n == 10 and s.size == 12 and s.is_simple()
    # bipartite: original vertices vs subdivision vertices
    d = [bfs_distances(s.n, s.edge_list(), u) for u in range(4)]
    assert all(d[u][v] % 2 == 0 for u in range(4) for v in range(4) if d[u][v] != math.inf)


def test_subdivide_triple_edge():
    s = subdivide(MultiGraph(2, [(0, 1)] * 3))
    assert s.n == 5 and s.is_simple() and s.size == 6


def test_subdivide_triangle_gives_hexagon():
    s = subdivide(MultiGraph(3, [(0, 1), (1, 2), (0, 2)]))
    assert s.n == 6
    assert sorted(s.degrees()) == [2] * 6
    assert max(max(bfs_distances(s.n, s.edge_list(), u)) for u in range(s.n)) == 3


def test_subdivision_doubles_distances(base_corpus):
    checked = 0
    for _, g in base_corpus:
        if g.n > 14:
            continue
        s = subdivide(g)
        for u in range(g.n):
            dg = bfs_distances(g.n, g.edge_list(), u)
            ds = bfs_distances(s.n, s.edge_list(), u)
            assert ds[:g.n] == [2 * d for d in dg]
        checked += 1
    assert checked >= 5


def test_subdivided_k4_takes_five_classes():
    s = subdivide(k4())
    spec = SPackingSpec((1, 2, 3, 4, 5))
    col = solve_spacking(s, spec, cap=90)
    assert col is not None
    assert verify(s, spec, col) == []


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_solver_round_trip_small_random(seed):
    rng = SplitMix64(seed)
    n = 4 + rng.randrange(5)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.randrange(3) == 0:
                edges.append((u, v))
    g = MultiGraph(n, edges)
    col = solve_spacking(g, SPEC_1122)
    if col is not None:
        assert coloring_valid_brute(g, SPEC_1122.radii, col.assignment)


BRUTE_SPECS = [(1, 1), (1, 1, 2), (1, 2, 2), (1, 1, 2, 2), (2, 2, 2), (1, 2, 3)]


@pytest.mark.parametrize("radii", BRUTE_SPECS)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_solver_verdict_matches_exhaustive_search(radii, seed):
    """SAT and UNSAT alike agree with a search that has no ordering tricks."""
    rng = SplitMix64(seed)
    n = 1 + rng.randrange(9)
    density = 1 + rng.randrange(4)  # edge probability density/5
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.randrange(5) < density]
    g = MultiGraph(n, edges)
    col = solve_spacking(g, SPackingSpec(radii))
    assert (col is not None) == spacking_colorable_brute(n, edges, radii)
    if col is not None:
        assert coloring_valid_brute(g, radii, col.assignment)


def _same_tree_cases():
    rng = SplitMix64(0x7EE5)
    for radii in ((1, 2, 2, 2), (2, 2, 2, 2, 2)):
        for n in range(12, 32, 2):
            for k in range(2):
                yield f"cubic{n}.{k}{radii}", gen_cubic_multigraph(n, rng), radii
    for name, g in fixtures().items():
        for radii in ((1, 2, 2), (1, 2, 3, 3)):
            yield f"subdivided_{name}{radii}", subdivide(g), radii
    petersen = fixtures()["petersen"]
    for k in range(10):
        perm = list(range(petersen.n))
        rng.shuffle(perm)
        yield f"petersen.{k}", relabeled(petersen, perm), (1, 1, 2, 2)
    yield from _bit_sliced_edge_cases()


def _cycle(n):
    return MultiGraph(n, [(i, (i + 1) % n) for i in range(n)])


def _complete(n):
    return MultiGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def _disjoint_union(*graphs):
    n, edges = 0, []
    for g in graphs:
        edges += [(u + n, v + n) for u, v, _ in g.slots()]
        n += g.n
    return MultiGraph(n, edges)


def _bit_sliced_edge_cases():
    """Cases at the edges of the vertex masks and the saturation planes.

    r = 1, 2, 4, 7 and 8 classes fill 1, 2, 3, 3 and 4 planes, and K8
    under seven classes and K9 under eight drive a saturation to the top
    of its planes.  Radii of 3 to 6, n of 64 and 65, and disconnected
    graphs come last.
    """
    rng = SplitMix64(0xB175)
    yield "empty5", MultiGraph(5, []), (1,)
    yield "C8", _cycle(8), (1,)
    yield "C8", _cycle(8), (1, 1)
    yield "C9", _cycle(9), (1, 1)
    for k in (7, 8):
        yield f"K{k}", _complete(k), (1,) * 7
    for r in (8, 9):
        yield "K9", _complete(9), (1,) * r
    for n in (12, 16, 20):
        g = gen_cubic_multigraph(n, rng)
        for radii in (
            (1, 1, 2, 3),
            (1, 2, 2, 3, 3, 4, 4),
            (3, 3, 3, 3, 3, 3, 3),
            (2, 2, 2, 2, 2, 2, 2, 2),
        ):
            yield f"cubic{n}{radii}", g, radii
    for name in ("k4", "prism", "petersen"):
        s = subdivide(fixtures()[name])
        for radii in ((1, 2, 3, 4), (1, 2, 3, 4, 5), (3, 3, 4, 4, 5, 6)):
            yield f"subdivided_{name}{radii}", s, radii
    yield "C64", _cycle(64), (1, 1)
    yield "C65", _cycle(65), (1, 1)
    g = gen_cubic_multigraph(64, rng)
    for radii in ((1, 2, 2, 2, 2), (2, 2, 2, 2, 2), (2, 2, 2, 2, 2, 2)):
        yield f"cubic64{radii}", g, radii
    k1 = MultiGraph(1, [])
    yield "prism+K4+K1", _disjoint_union(fixtures()["prism"], k4(), k1), (1, 1, 2, 2)
    yield "petersen+C5", _disjoint_union(fixtures()["petersen"], _cycle(5)), (1, 1, 2, 2)
    yield "C5+C7", _disjoint_union(_cycle(5), _cycle(7)), (1, 1, 2)


def test_solver_walks_the_rescanning_search_tree():
    """The vertex masks and the counter planes change no decision."""
    verdicts = set()
    for name, g, radii in _same_tree_cases():
        spec = SPackingSpec(radii)
        got = solve_spacking(g, spec, cap=g.n)
        want = solve_spacking_rescan(g, spec, cap=g.n)
        assert (got is None) == (want is None), name
        if got is not None:
            assert got.assignment == want.assignment, name
        verdicts.add(got is None)
    assert verdicts == {True, False}
