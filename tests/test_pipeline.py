"""Validate once, certify once: the pipeline's single entry check and exit certificate.

`color_claw_free_cubic` checks its input at entry and runs `verify` once
on the glued coloring at exit; in between it calls unchecked cores.  The
entry's claw check is the local scan that `_contract` builds on, and its
connectivity and bridges come from a search of H.  It is the only public
constructor: a core that returns a wrong coloring is caught by its
certificate, and a core that finds a precondition false raises
InternalInvariantError, which the CLI reports as a bug (exit 5).
"""

import ast
import json
import pickle
import re
import sys
from itertools import chain
from pathlib import Path

import pytest

import clawcolor.colorer
from clawcolor import (
    C1A,
    C1B,
    C2A,
    C2B,
    SPEC_1122,
    ExpansionSpec,
    MultiGraph,
    PackingColoring,
    SPackingSpec,
    Violation,
    color_claw_free_cubic,
    decompose,
    emit_edgelist,
    expand_to_clawfree,
    find_bridges,
    gen_bridged,
    gen_cubic_multigraph,
    gen_ring_of_diamonds,
    random_expansion_spec,
    verify,
)
from clawcolor import multigraph, oracle, recognition
from clawcolor.cli import main
from clawcolor.coloring import UNCOLORED, Labels
from clawcolor.errors import (
    DisconnectedError,
    InternalInvariantError,
    NotClawFreeError,
    NotCubicError,
    NotSimpleError,
    VerificationFailedError,
)
from clawcolor.rng import SplitMix64

from test_cli import json_reports
from test_colorer import leaf_gadget

K4_EDGES = [(a, b) for a in range(4) for b in range(a + 1, 4)]


def _built():
    rng = SplitMix64(0xB17)
    h = gen_cubic_multigraph(16, rng)
    slots = h.slots()
    return expand_to_clawfree(
        h, ExpansionSpec({s: i % 3 for i, s in enumerate(slots)}), rng
    )


def _inputs(named_fixtures):
    return {
        "bridged_star": named_fixtures["bridged_star"],
        "chain50": gen_bridged(
            [("type3", 1)] + [("diamond", 2)] * 50 + [("type3", 1)], SplitMix64(50)
        ),
        # three Type III components, each completed and decomposed
        "type3_path": gen_bridged([("type3", 1), ("type3", 2), ("type3", 1)], SplitMix64(0)),
        "built": _built(),
        "prism": named_fixtures["prism"],
        "big_expansion": named_fixtures["big_expansion"],
        "ring": gen_ring_of_diamonds(7),
        "k4": MultiGraph(4, K4_EDGES),
    }


def _count_calls(monkeypatch, fn, when=lambda *args: True) -> list[int]:
    """Count calls to `fn`, those whose arguments pass `when`, through every
    clawcolor namespace that binds it."""
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += when(*args, **kwargs)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("clawcolor") and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counted)
    return calls


@pytest.mark.parametrize(
    "name", ["bridged_star", "chain50", "type3_path", "built", "prism", "big_expansion", "ring", "k4"]
)
def test_one_certificate_per_coloring(named_fixtures, monkeypatch, tmp_path, capsys, name):
    """One entry check, one local scan, one cubic check and one certificate
    per coloring, and at most one bridge search, on H.

    The bridges and connectivity come from H, the contraction of the
    entry's walk, never from a search of g; K4 and rings have no H and no
    search.  A completed Type III component is cut from that contraction,
    so no other graph is scanned, and no BFS runs only to decide
    connectivity.  Neither H nor a completion is searched for bridges or
    checked for being cubic again.
    """
    g = _inputs(named_fixtures)[name]
    bridged = bool(find_bridges(g))
    triangles = len(recognition._local_scan(g).triangles)
    verifies = _count_calls(monkeypatch, oracle.verify)
    entries = _count_calls(monkeypatch, recognition._require_claw_free_cubic)
    scans = _count_calls(monkeypatch, recognition._local_scan)
    connected = _count_calls(monkeypatch, multigraph.is_connected)
    claws = _count_calls(monkeypatch, recognition.find_claw)
    searched = []  # the order of each graph searched for bridges
    searches = _count_calls(
        monkeypatch, recognition._bridges, lambda n, ends: searched.append(n) or True
    )
    cubic = _count_calls(monkeypatch, multigraph.is_cubic)

    def counts():
        return (verifies[0], entries[0], scans[0], connected[0], claws[0], searches[0], cubic[0])

    h_searches = 0 if name in ("k4", "ring") else 1
    color_claw_free_cubic(g)
    assert counts() == (1, 1, 1, 0, 0, h_searches, 1)
    assert all(n != g.n and n == triangles for n in searched)

    path = tmp_path / f"{name}.el"
    path.write_text(emit_edgelist(g))
    assert main(["color", "--json", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["verified"] is True
    assert counts() == (2, 2, 2, 0, 0, 2 * h_searches, 2)
    assert all(n != g.n and n == triangles for n in searched)


def _diamond_chain(k):
    """A chain of k diamonds between two 7-vertex leaves whose completion is K4."""
    edges = leaf_gadget() + leaf_gadget(7 + 4 * k)
    for i in range(k):
        a, p, q, b = range(7 + 4 * i, 11 + 4 * i)
        edges += [(a, p), (a, q), (p, q), (p, b), (q, b), (a - 1 if i else 0, a)]
    edges.append((10 + 4 * (k - 1), 7 + 4 * k))
    return MultiGraph(14 + 4 * k, edges)


def test_the_coloring_path_builds_no_graph_and_reads_no_slot(named_fixtures, corpus, monkeypatch):
    """H is held only as its edge-id list from the entry check to the
    coloring: `color_claw_free_cubic` constructs no `MultiGraph` and calls
    no `edge_list` or `slots`, on any input, and `MultiGraph` has no
    `edge_pairs` or `slots_at` left to call.

    The bridge search of H skips the edge id a vertex is reached by, so a
    parallel pair of H needs no multiplicity.  A completion is cut from G's
    contraction, and K3 and diamond components are colored in place, so
    no graph is built for a diamond chain of 100 or 400 diamonds, whose
    leaves complete to K4, or of 50, whose leaves take a 2-factor.  The
    inputs are the named fixtures, the pipeline's inputs and the corpus:
    bridged graphs, rings, K4, and built graphs whose H is simple or has
    parallel edges.
    """
    graphs = [g for name, g in named_fixtures.items() if name not in ("h10", "petersen")]
    graphs += list(_inputs(named_fixtures).values()) + [_diamond_chain(k) for k in (100, 400)]
    graphs += [g for _, g in corpus]
    kinds = []
    for g in graphs:
        h_bridges, local = recognition._require_claw_free_cubic(g)
        if h_bridges:
            kinds.append("bridged")
        elif local.triangles:
            kinds.append("simple H" if len(set(local.ends)) == len(local.ends) else "parallel H")
        else:
            kinds.append("ring" if len(local.walk[0]) > 4 else "K4")  # K4: one diamond
    assert all(kinds.count(k) > 50 for k in ("bridged", "simple H", "parallel H")), kinds
    assert kinds.count("ring") > 1 and kinds.count("K4") > 1, kinds
    assert not hasattr(MultiGraph, "edge_pairs") and not hasattr(MultiGraph, "slots_at")
    calls = dict.fromkeys(("__init__", "edge_list", "slots"), 0)

    def counted(name):
        real = getattr(MultiGraph, name)

        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return real(self, *args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(MultiGraph, name, counted(name))
    for g, kind in zip(graphs, kinds):
        color_claw_free_cubic(g)
        assert not any(calls.values()), (kind, calls)


def test_graphs_built_per_coloring_do_not_grow_with_the_chain(monkeypatch):
    """K3 and diamond components are colored in place.

    Only the two Type III leaves of a diamond chain are completed, and a
    completion is cut from G's contraction, not built as a graph.  H is
    held as its edge-id list, so a coloring builds no graph at all, for
    400 diamonds as for 100.  Both leaves are the same gadget, one
    triangle with an H-loop of one diamond, whose completion is K4.
    """
    chains = [_diamond_chain(k) for k in (100, 400)]
    real = MultiGraph.__init__
    built = [0]

    def counted(self, *args, **kwargs):
        built[0] += 1
        real(self, *args, **kwargs)

    monkeypatch.setattr(MultiGraph, "__init__", counted)
    counts = []
    for g in chains:
        built[0] = 0
        color_claw_free_cubic(g)
        counts.append(built[0])
    assert counts[0] == counts[1] == 0, counts


def _moved(g: MultiGraph, labels: bytearray, written: list[int]) -> None:
    """One vertex the core colored moves into a neighbor's radius-1 class."""
    ours = set(written)
    v, w = next(
        (v, w) for v in written for w in g.neighbors(v) if w in ours and labels[w] in (C1A, C1B)
    )
    labels[v] = labels[w]


def _break_in_place(monkeypatch, g):
    """A K3 or diamond component whose up vertex takes its neighbor's 1a.

    Every non-root component is forced 1a.  A Type III one only exchanges
    its 2a and 2b and stays valid; one colored in place puts 1a on x1,
    next to the vertex that gets 1a.
    """
    monkeypatch.setattr(clawcolor.colorer, "_free_two_color", lambda g, labels, q: C1A)


def _break_free_class(monkeypatch, g):
    """`_free_two_color` returns a radius-2 class already present around
    the attachment, which the vertex next to it then repeats."""

    def present(g, labels, q):
        around = [labels[v] for v in (q, *g.neighbors(q))]
        return next(c for c in (C2A, C2B) if c in around)

    monkeypatch.setattr(clawcolor.colorer, "_free_two_color", present)


def _dropped(g: MultiGraph, labels: bytearray, written: list[int]) -> None:
    """One vertex the core colored is left uncolored."""
    labels[written[-1]] = UNCOLORED


def _outside(g: MultiGraph, labels: bytearray, written: list[int]) -> None:
    """Vertex g.n, which g does not have, is colored too."""
    labels.append(C1A)


def _unknown_class(g: MultiGraph, labels: bytearray, written: list[int]) -> None:
    """One vertex the core colored takes class 7, which (1,1,2,2) does not have."""
    labels[written[0]] = 7


def _break_core(module, core: str, fault=_moved):
    """A breaker for the core named `core` in `module`, where its caller looks it up.

    Every core writes its colors into the label array it is given, in g's
    ids.  The broken core runs the real one and then applies `fault` to
    that array, given g, the graph being colored, and the vertices whose
    label the real core wrote.  By default one vertex moves into a
    neighbor's radius-1 class.
    """

    def break_layer(monkeypatch, g):
        real = getattr(module, core)

        def broken(labels, *args):
            before = bytes(labels)
            real(labels, *args)
            fault(g, labels, [v for v, c in enumerate(before) if c != labels[v]])

        monkeypatch.setattr(module, core, broken)

    return break_layer


colorer = clawcolor.colorer

# a built coloring that does not fit g, on each route: (core, victim, healthy),
# healthy None where every input reaches the core
MISFIT_ROUTES = {
    "bridged": ("_color_tree", "bridged_star", None),
    "canonical": ("_canonical", "big_expansion", "ring"),
    "ring": ("_ring", "ring", "prism"),
}
MISFITS = {"dropped": _dropped, "outside": _outside, "unknown_class": _unknown_class}


@pytest.mark.parametrize(
    "break_layer, victim, healthy, expected",
    [
        # the class colorer, on a bridged graph's classes and on a 2-edge-connected graph
        (_break_core(colorer, "_color_class"), "bridged_star", None, VerificationFailedError),
        (_break_core(colorer, "_color_class"), "prism", None, VerificationFailedError),
        (_break_in_place, "chain50", "prism", VerificationFailedError),
        (_break_in_place, "bridged_star", "prism", VerificationFailedError),
        (_break_free_class, "bridged_star", "prism", VerificationFailedError),
        # K4 is a ring of one diamond
        (_break_core(colorer, "_ring"), "k4", "prism", VerificationFailedError),
        (_break_core(colorer, "_ring"), "ring", "prism", VerificationFailedError),
        # one `_canonical` serves both routes, and the ring never reaches it
        (_break_core(colorer, "_canonical"), "big_expansion", "ring", VerificationFailedError),
        (_break_core(colorer, "_canonical"), "type3_path", "ring", VerificationFailedError),
        *(
            (_break_core(colorer, core, fault), victim, healthy, InternalInvariantError)
            for core, victim, healthy in MISFIT_ROUTES.values()
            for fault in MISFITS.values()
        ),
    ],
    ids=["color_type3", "two_edge_connected", "in_place_diamond", "in_place_k3", "free_class",
         "k4", "ring", "canonical", "type3_canonical",
         *(f"{route}_{fault}" for route in MISFIT_ROUTES for fault in MISFITS)],
)
def test_a_bug_in_any_layer_is_still_caught(
    named_fixtures, monkeypatch, tmp_path, capsys, break_layer, victim, healthy, expected
):
    """A broken core is a bug whatever it breaks.  A violation raises
    VerificationFailedError; a coloring that misses a vertex of g, names
    one outside it or uses a class outside the spec raises exactly
    InternalInvariantError, never the input errors `verify` raises on a
    user's file.  Either way the CLI exits 5 with kind `internal`.  Where
    a healthy input avoids the broken core, a batch puts the victim between
    two copies of it, and both are colored; every input reaches the class
    walk and the class colorer, so those are checked on the victim alone."""
    graphs = {**named_fixtures, **_inputs(named_fixtures)}
    break_layer(monkeypatch, graphs[victim])
    with pytest.raises(InternalInvariantError) as caught:
        color_claw_free_cubic(graphs[victim])
    assert type(caught.value) is expected

    paths = []
    for i, name in enumerate((victim,) if healthy is None else (healthy, victim, healthy)):
        path = tmp_path / f"{i}-{name}.el"
        path.write_text(emit_edgelist(graphs[name]))
        paths.append(str(path))
    assert main(["color", "--json", *paths]) == 5
    reports = json_reports(capsys.readouterr().out)
    bad = reports.pop(len(paths) // 2)
    assert [(r["exit"], r["outcome"]) for r in reports] == [(0, "colored")] * (len(paths) - 1)
    assert bad["exit"] == 5 and bad["error"]["kind"] == "internal"
    assert bad["error"]["message"].startswith(f"{expected.__name__}: ")

    victim_path = paths[len(paths) // 2]
    assert main(["color", victim_path]) == 5
    assert capsys.readouterr().err.startswith(
        f"{victim_path}: error (internal): {expected.__name__}: "
    )


def test_a_failed_precondition_after_the_entry_check_is_a_bug(
    named_fixtures, monkeypatch, tmp_path, capsys
):
    """Past the entry check every component comes from a valid graph.

    A completion coloring that puts 2a on every vertex leaves s and y
    without 1a and 1b, so the odd gadget copies 2a onto u and w, which is
    the pipeline's fault, not the input's: the exit certificate catches
    it and the CLI exits 5 with kind `internal`.  Both completion routes
    are broken in turn: `_canonical` on the path of three Type III
    components, rooted at a leaf with one attachment whose completion is
    built from H, and `_ring` on the bridged star, whose root completes
    to K4.
    """

    def all_2a(vertices):
        """A core that puts 2a on each vertex `vertices` reads from its arguments."""

        def core(labels, *args):
            for v in vertices(*args):
                labels[v] = C2A

        return core

    graphs = {**named_fixtures, **_inputs(named_fixtures)}
    for core, name, vertices in (
        ("_canonical", "type3_path", lambda local, factor: chain.from_iterable(local.walk)),
        ("_ring", "bridged_star", lambda ring: ring),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(clawcolor.colorer, core, all_2a(vertices))
            path = tmp_path / f"{name}.el"
            path.write_text(emit_edgelist(graphs[name]))
            assert main(["color", "--json", str(path)]) == 5
        (report,) = json_reports(capsys.readouterr().out)
        assert report["exit"] == 5 and report["error"]["kind"] == "internal"
        assert report["error"]["message"].startswith("VerificationFailedError")


def test_a_broken_bridge_tree_is_a_bug_in_decompose(
    named_fixtures, monkeypatch, tmp_path, capsys
):
    """A set of H's bridges that fails the tree's component count is exit 5, not 2.

    The set gains the ids of the first pair of H's ends that is no
    bridge: on the path of three Type III components, H's two parallel
    edges (0, 1), whose realizations carry a diamond each.  They lift to
    four G-edges that are no bridges, so G minus the 6 lifted edges has 5
    components, not 7.
    """
    real = recognition._class_tree

    def with_a_non_bridge(h_bridges, local):
        pair = next(e for i, e in enumerate(local.ends) if i not in h_bridges)
        return real(h_bridges | {i for i, e in enumerate(local.ends) if e == pair}, local)

    monkeypatch.setattr(recognition, "_class_tree", with_a_non_bridge)
    path = tmp_path / "type3_path.el"
    path.write_text(emit_edgelist(_inputs(named_fixtures)["type3_path"]))
    assert main(["decompose", str(path)]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error (internal): InternalInvariantError: "
        "5 components for 6 bridges; tree property violated\n"
    )


# seeds of `_seeded_built` whose broken contraction the certificate catches
MUTANT_SEEDS = [1, 4, 5, 12, 17, 30, 38, 45]


def _seeded_built(seed: int) -> MultiGraph:
    """A built graph over H of order 2 to 32, strings of length 0 to 2."""
    rng = SplitMix64(0x3A7 + seed)
    h = gen_cubic_multigraph((2, 4, 6, 8, 16, 32)[seed % 6], rng)
    return expand_to_clawfree(h, random_expansion_spec(h, rng, 2), rng)


@pytest.mark.parametrize("seed", MUTANT_SEEDS)
def test_a_broken_contraction_is_caught_by_the_certificate(monkeypatch, seed):
    """`_contract` does not check H, so a wrong contraction must still fail.

    The mutant swaps the first corners of the first two realizations.  H itself
    is unchanged, and the coloring still covers every vertex; only the exit
    certificate can tell.  Over seeds 0 to 61 it catches 51 of the 62
    graphs; on the other 11, and on the prism and big_expansion fixtures,
    the swapped coloring happens to stay valid.
    """
    real = clawcolor.colorer._structure

    def swapped_corners(g):
        tree = real(g)
        numbered = tree.shares[0]
        r0, r1, *rest = numbered.walk
        tree.shares[0] = numbered._replace(walk=[(r1[0],) + r0[1:], (r0[0],) + r1[1:], *rest])
        return tree

    monkeypatch.setattr(clawcolor.colorer, "_structure", swapped_corners)
    with pytest.raises(InternalInvariantError) as caught:
        color_claw_free_cubic(_seeded_built(seed))
    assert type(caught.value) is VerificationFailedError


def _two_k4s(fx):
    return MultiGraph(8, K4_EDGES + [(u + 4, v + 4) for u, v in K4_EDGES])


def _diamond(fx):
    return MultiGraph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])


def _null(fx):
    return MultiGraph(0)


def _k4_and_isolated_vertex(fx):
    """A DFS from 0 covers its own component but misses vertex 4."""
    return MultiGraph(5, K4_EDGES)


def _petersen(fx):
    return fx["petersen"]


def _union(*graphs: MultiGraph) -> MultiGraph:
    """The disjoint union, each graph's ids shifted past the ones before it."""
    edges, n = [], 0
    for g in graphs:
        edges += [(u + n, v + n) for u, v in g.edge_list()]
        n += g.n
    return MultiGraph(n, edges)


def _two_rings(fx):
    """No triangle: the ring through the first diamond misses the others."""
    return _union(gen_ring_of_diamonds(3), gen_ring_of_diamonds(4))


# `decompose` replaced the public wrappers `build_bridge_tree` and
# `oum_decompose`.  The rows written for them run through `decompose` and
# keep those names in their test ids, so that the ids stay stable.
ENTRIES = {
    "color_claw_free_cubic": color_claw_free_cubic,
    "build_bridge_tree": decompose,
    "oum_decompose": decompose,
    "find_bridges": find_bridges,
}


def _entry_ids(rows) -> list[str]:
    return [f"{label}-{make.__name__.strip('_')}" for label, make, *_ in rows]


# (entry, input, error class): the cases no other test covers
WRAPPER_CASES = [
    ("build_bridge_tree", _petersen, NotClawFreeError),
    ("build_bridge_tree", _diamond, NotCubicError),
    ("build_bridge_tree", _two_k4s, DisconnectedError),
    ("oum_decompose", _petersen, NotClawFreeError),
    ("oum_decompose", _diamond, NotCubicError),
    ("oum_decompose", _two_k4s, DisconnectedError),
    ("find_bridges", _k4_and_isolated_vertex, DisconnectedError),
]


@pytest.mark.parametrize("entry, make, error", WRAPPER_CASES, ids=_entry_ids(WRAPPER_CASES))
def test_public_wrappers_keep_their_guarantees(named_fixtures, entry, make, error):
    with pytest.raises(error):
        ENTRIES[entry](make(named_fixtures))


def _h10(fx):
    return fx["h10"]


def _digon_and_k4(fx):
    return MultiGraph(6, [(0, 1), (0, 1)] + [(u + 2, v + 2) for u, v in K4_EDGES])


def _two_triangles(fx):
    return MultiGraph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])


def _k33(fx):
    return MultiGraph(6, [(u, v) for u in range(3) for v in range(3, 6)])


def _k33_with_a_triangle(fx):
    """K3,3 with one vertex replaced by the triangle 0, 1, 2: the first claw
    center is 3, not 0."""
    triangle = [(0, 1), (0, 2), (1, 2), (0, 5), (1, 6), (2, 7)]
    return MultiGraph(8, triangle + [(u, v) for u in (3, 4) for v in (5, 6, 7)])


def _ring_and_prism(fx):
    """The walks from the prism's corners reach none of the ring's diamonds."""
    return _union(gen_ring_of_diamonds(3), fx["prism"])


def _prism_and_big_expansion(fx):
    """Every diamond is walked, but H is disconnected."""
    return _union(fx["prism"], fx["big_expansion"])


def _prism_and_k4(fx):
    """K4's vertices are on no triangle or diamond of the scan."""
    return _union(fx["prism"], MultiGraph(4, K4_EDGES))


def _petersen_and_k4(fx):
    """A claw, in a disconnected graph."""
    return _union(fx["petersen"], MultiGraph(4, K4_EDGES))


def _bridged_star_and_ring(fx):
    """H-loops and bridges, and a ring the walks miss."""
    return _union(fx["bridged_star"], gen_ring_of_diamonds(3))


DISCONNECTED_CLAW_FREE_OR_NOT = [
    _two_rings,
    _ring_and_prism,
    _prism_and_big_expansion,
    _prism_and_k4,
    _petersen_and_k4,
    _bridged_star_and_ring,
]

# (entry, input, error class, message): every way the entry check rejects,
# with the class and message it has always given
ENTRY_REJECTIONS = [
    ("color_claw_free_cubic", _h10, NotSimpleError, "input must be a simple graph"),
    ("color_claw_free_cubic", _digon_and_k4, NotSimpleError, "input must be a simple graph"),
    ("color_claw_free_cubic", _null, DisconnectedError, "input graph has no vertices"),
    ("color_claw_free_cubic", _two_k4s, DisconnectedError, "input graph is disconnected"),
    ("color_claw_free_cubic", _k4_and_isolated_vertex, DisconnectedError, "input graph is disconnected"),
    ("color_claw_free_cubic", _two_triangles, DisconnectedError, "input graph is disconnected"),
    ("color_claw_free_cubic", _diamond, NotCubicError, "input graph is not cubic"),
    ("color_claw_free_cubic", _petersen, NotClawFreeError, "claw with center 0 and leaves 1, 4, 5"),
    ("color_claw_free_cubic", _k33, NotClawFreeError, "claw with center 0 and leaves 3, 4, 5"),
    ("color_claw_free_cubic", _k33_with_a_triangle, NotClawFreeError, "claw with center 3 and leaves 5, 6, 7"),
    ("build_bridge_tree", _h10, NotSimpleError, "input must be a simple graph"),
    ("build_bridge_tree", _k4_and_isolated_vertex, DisconnectedError, "input graph is disconnected"),
    ("build_bridge_tree", _diamond, NotCubicError, "input graph is not cubic"),
    ("build_bridge_tree", _k33_with_a_triangle, NotClawFreeError, "claw with center 3 and leaves 5, 6, 7"),
    ("oum_decompose", _h10, NotSimpleError, "input must be a simple graph"),
    ("oum_decompose", _two_triangles, DisconnectedError, "input graph is disconnected"),
    ("oum_decompose", _diamond, NotCubicError, "input graph is not cubic"),
    ("oum_decompose", _k33_with_a_triangle, NotClawFreeError, "claw with center 3 and leaves 5, 6, 7"),
    *[
        (entry, make, DisconnectedError, "input graph is disconnected")
        for make in DISCONNECTED_CLAW_FREE_OR_NOT
        for entry in ("color_claw_free_cubic", "oum_decompose")
    ],
]


@pytest.mark.parametrize(
    "entry, make, error, message", ENTRY_REJECTIONS, ids=_entry_ids(ENTRY_REJECTIONS)
)
def test_entry_rejections_keep_class_and_message(named_fixtures, entry, make, error, message):
    with pytest.raises(error) as caught:
        ENTRIES[entry](make(named_fixtures))
    assert type(caught.value) is error
    assert str(caught.value) == message


def _readme_api_names() -> list[str]:
    """The public names README lists under "Public API by layer", in order.

    The list runs from that heading to the first blank line after it; a
    name is a backticked identifier, so `Decomposition.walk` or
    `multiplicity(u, v)` in the prose is not one.
    """
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\nPublic API by layer:\n\n", 1)[1].split("\n\n", 1)[0]
    return re.findall(r"`([A-Za-z]\w*)`", section)


def test_the_public_names_are_the_ones_readme_lists():
    listed = _readme_api_names()
    assert len(clawcolor.__all__) == len(set(clawcolor.__all__)) == 35
    assert sorted(set(listed)) == sorted(clawcolor.__all__)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda fx: SPackingSpec((1, 1, 2, 2)), "radii"),
        (lambda fx: PackingColoring(SPEC_1122, {0: C1A}), "assignment"),
        (lambda fx: Violation(0, "1a", (0, 1), 1), "distance"),
        (lambda fx: ExpansionSpec({(0, 1, 0): 2}), "string_lengths"),
        (lambda fx: decompose(fx["big_expansion"]), "walk"),
        (lambda fx: decompose(fx["k4"]), "variant"),
        (lambda fx: decompose(fx["bridged_star"]), "root"),
    ],
    ids=[
        "SPackingSpec",
        "PackingColoring",
        "Violation",
        "ExpansionSpec",
        "Decomposition-built",
        "Decomposition-K4",
        "Decomposition-bridged",
    ],
)
def test_public_value_types_are_frozen_and_compared_by_value(named_fixtures, build, field):
    one, two = build(named_fixtures), build(named_fixtures)
    assert one is not two and one == two
    with pytest.raises(AttributeError):
        setattr(one, field, getattr(two, field))


def test_built_colorings_hold_their_labels_as_a_read_only_byte_mapping(named_fixtures):
    """The constructor and the solver return a `Labels`: a mapping of each
    vertex to its class over one immutable byte each, equal to the dict
    of its items, that pickles and has no item assignment.  A spec of 255
    classes or more has classes no byte holds, so its witness is a dict."""
    g = named_fixtures["bridged_star"]
    for coloring in (color_claw_free_cubic(g), oracle.solve_spacking(g, SPEC_1122)):
        labels = coloring.assignment
        assert type(labels) is Labels and type(labels.data) is bytes
        as_dict = dict(enumerate(labels.data))
        assert labels == as_dict and as_dict == labels and labels != {**as_dict, 0: 9}
        assert list(labels.items()) == list(as_dict.items())
        assert list(labels.values()) == list(as_dict.values())
        assert list(labels) == list(labels.keys()) == list(range(g.n)) and len(labels) == g.n
        assert [labels[v] for v in range(g.n)] == [labels.get(v, -1) for v in range(g.n)]
        for key in (-1, g.n, "0", 0.5, None):
            assert key not in labels and labels.get(key, -1) == -1
            with pytest.raises(KeyError):
                labels[key]
        assert pickle.loads(pickle.dumps(coloring)) == coloring
        assert repr(labels) == f"Labels({as_dict!r})"
        with pytest.raises(TypeError):
            labels[0] = C1A
    assert oracle.solve_spacking(MultiGraph(0, []), SPEC_1122).assignment == {}
    wide = oracle.solve_spacking(named_fixtures["k4"], SPackingSpec((1,) * 255))
    assert type(wide.assignment) is dict and verify(named_fixtures["k4"], wide.spec, wide) == []


def test_every_function_in_src_is_public_or_named_in_src():
    """No dead code: each non-dunder top-level function and method of the
    package is in `clawcolor.__all__` or is named, as a Name or an
    Attribute, somewhere in the package's source.  Its own definition and
    an import of it do not count.  A dunder, such as a module's PEP 562
    `__getattr__`, is called by the interpreter."""
    trees = [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(clawcolor.__file__).parent.glob("*.py"))
    ]
    defined, named = set(), set(clawcolor.__all__)
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
                defined.add(node.name)
            elif isinstance(node, ast.ClassDef):
                defined.update(
                    f.name
                    for f in node.body
                    if isinstance(f, ast.FunctionDef) and not f.name.startswith("__")
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    assert sorted(defined - named) == []
