"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the suite is also part of the default pytest run.
"""

import time
from collections import Counter

from clawcolor import (
    SPEC_1122,
    PackingColoring,
    SPackingSpec,
    Variant,
    color_claw_free_cubic,
    decompose,
    emit_edgelist,
    find_bridges,
    gen_cubic_multigraph,
    expand_to_clawfree,
    random_expansion_spec,
    solve_spacking,
    subdivide,
    verify,
)
from clawcolor.colorer import _canonical
from clawcolor.cli import main as cli_main
from clawcolor.factorization import _complement, _two_factor_through
from clawcolor.recognition import _structure
from clawcolor.rng import SplitMix64

from brute import (
    colored,
    all_two_factors,
    h_of,
    light_support_property,
    multigraph_isomorphic,
    relabeled,
)
from test_canonical import LABEL_TO_IDX, REFERENCE_BIG_EXPANSION


def test_criterion_1_existence_desk_scale(corpus, tmp_path, capsys):
    """Every corpus graph colors and verifies; zero failures in < 60 s."""
    assert len(corpus) >= 500
    assert all(g.n <= 24 for _, g in corpus)
    start = time.perf_counter()
    failures = []
    for name, g in corpus:
        try:
            coloring = color_claw_free_cubic(g)
            if verify(g, SPEC_1122, coloring):
                failures.append(name)
        except Exception as exc:  # noqa: BLE001 - acceptance counts any failure
            failures.append(f"{name}: {exc}")
    elapsed = time.perf_counter() - start
    assert not failures, failures[:5]
    assert elapsed < 60.0, f"{elapsed:.1f}s"
    # the CLI front-end agrees on a sample
    for name, g in corpus[:5]:
        p = tmp_path / "g.el"
        p.write_text(emit_edgelist(g))
        assert cli_main(["color", str(p)]) == 0
        assert capsys.readouterr().out.strip().endswith("VERIFIED")
    print(
        f"\n[PASS] criterion 1: {len(corpus)} corpus graphs (n <= 24) "
        f"colored and verified, 0 failures, {elapsed:.1f}s"
    )


def test_criterion_2_petersen_negative_control(named_fixtures):
    """The Petersen graph admits no (1,1,2,2)-coloring; decided in < 1 s."""
    start = time.perf_counter()
    result = solve_spacking(named_fixtures["petersen"], SPEC_1122)
    elapsed = time.perf_counter() - start
    assert result is None
    assert elapsed < 1.0
    print(f"\n[PASS] criterion 2: Petersen UNSAT for (1,1,2,2) in {elapsed:.3f}s")


def test_criterion_3_oracle_agreement(corpus):
    """Solver SAT on 100 small corpus graphs; validity survives relabeling."""
    small = [(n, g) for n, g in corpus if g.n <= 16][:100]
    assert len(small) == 100
    for name, g in small:
        sat = solve_spacking(g, SPEC_1122)
        assert sat is not None, name
        assert verify(g, SPEC_1122, sat) == []
        constructed = color_claw_free_cubic(g)
        assert verify(g, SPEC_1122, constructed) == []
    rng = SplitMix64(0xACC3)
    for i in range(50):
        name, g = small[i % len(small)]
        coloring = color_claw_free_cubic(g)
        perm = list(range(g.n))
        rng.shuffle(perm)
        gp = relabeled(g, perm)
        cp = PackingColoring(
            SPEC_1122, {perm[v]: c for v, c in coloring.assignment.items()}
        )
        assert verify(gp, SPEC_1122, cp) == []
    print(
        "\n[PASS] criterion 3: solver SAT and constructive validity on 100 "
        "graphs (n <= 16); validity preserved under 50 relabelings"
    )


def test_criterion_4_structure_round_trip():
    """decompose inverts expand_to_clawfree for 200 random pairs."""
    failures = 0
    for seed in range(200):
        rng = SplitMix64(0x47 + seed)
        n_h = (2, 4, 6, 8, 10, 12)[seed % 6]
        h = gen_cubic_multigraph(n_h, rng)
        spec = random_expansion_spec(h, rng, max_string=2)
        g = expand_to_clawfree(h, spec, rng)
        dec = decompose(g)
        if dec.variant is not Variant.BUILT or not multigraph_isomorphic(h_of(dec), h):
            failures += 1
    assert failures == 0
    print(
        "\n[PASS] criterion 4: H recovered up to isomorphism for 200 random "
        "(H, expansion) pairs with n(H) <= 12, 0 failures"
    )


def test_criterion_5_two_factor_through():
    """Forced edge always lands on the 2-factor; enumeration cross-check."""
    checked = 0
    brute_checked = 0
    seed = 0
    while checked < 100:
        rng = SplitMix64(0x2F + seed)
        seed += 1
        n_h = (2, 4, 6, 8, 10)[seed % 5]
        h = gen_cubic_multigraph(n_h, rng)
        slots = h.slots()
        i = rng.randrange(len(slots))
        e = slots[i]
        # the core names H's edges by their index in slot order, and its
        # byte for an edge on the 2-factor is not 0
        way = _two_factor_through(h.n, h.edge_list(), i)
        factor = frozenset(s for s, b in zip(slots, way) if b)
        assert e in factor
        deg = [0] * h.n
        for s in factor:
            deg[s[0]] += 1
            deg[s[1]] += 1
        assert all(d == 2 for d in deg)
        if h.n <= 8:
            assert factor in set(all_two_factors(h))
            brute_checked += 1
        checked += 1
    assert brute_checked > 0
    print(
        f"\n[PASS] criterion 5: 100 random (H, e) pairs contain e in a valid "
        f"2-factor; {brute_checked} cross-checked against full enumeration"
    )


def test_criterion_6_figure_fixtures(named_fixtures, capsys):
    """Reference coloring verifies; fixture decompositions are exact."""
    g = named_fixtures["big_expansion"]
    reference = PackingColoring(
        SPEC_1122, {v: LABEL_TO_IDX[l] for v, l in REFERENCE_BIG_EXPANSION.items()}
    )
    assert verify(g, SPEC_1122, reference) == []
    dec = decompose(g)
    assert dec.variant is Variant.BUILT
    assert len(dec.triangles) == 6
    assert list(Counter(dec.ends).values()).count(2) == 1
    # one string of 2 diamonds on a matching edge, one of 2 on a cycle edge
    assert dec.string_lengths() == [2, 2]
    bt = decompose(named_fixtures["bridged_star"])
    assert len(bt.components) == 4
    assert sorted(len(a) for a in bt.tree_adj) == [1, 1, 1, 3]
    print(
        "\n[PASS] criterion 6: reference coloring verifies; decomposition "
        "reports H = 6 vertices with one double edge and strings [2, 2]; "
        "bridged fixture tree is the 3-leaf star"
    )


def test_criterion_7_support_property(corpus):
    """Canonical outputs: every radius-1 vertex has two partner-class
    neighbors or sits on a diamond."""
    scanned = 0
    for name, g in corpus:
        if find_bridges(g):
            continue
        dec = decompose(g)
        if dec.variant is not Variant.BUILT:
            continue
        local = _structure(g).shares[0]
        coloring = colored(g.n, _canonical, local, _complement(len(local.triangles), local.ends))
        assert verify(g, SPEC_1122, coloring) == [], name
        assert light_support_property(g, coloring), name
        scanned += 1
    assert scanned >= 100
    print(
        f"\n[PASS] criterion 7: support property holds on all {scanned} "
        "canonical colorings scanned"
    )


def test_criterion_8_subdivision_colorings(corpus):
    """Subdivisions of 25 small corpus graphs take (1,2,3,4,5); < 30 s each."""
    small = [(n, g) for n, g in corpus if g.n <= 16][:25]
    assert len(small) == 25
    spec = SPackingSpec((1, 2, 3, 4, 5))
    worst = 0.0
    for name, g in small:
        s = subdivide(g)
        start = time.perf_counter()
        coloring = solve_spacking(s, spec, cap=90)
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        assert coloring is not None, name
        assert verify(s, spec, coloring) == []
        assert elapsed < 30.0, f"{name}: {elapsed:.1f}s"
    print(
        f"\n[PASS] criterion 8: 25 subdivided graphs are (1,2,3,4,5)-colorable, "
        f"worst instance {worst:.2f}s"
    )
