"""Shared corpus of claw-free cubic test graphs.

The corpus is deterministic (seeded SplitMix64) and spans the shapes the
algorithms branch on: K4, rings, triangle expansions with and without
diamond strings over small multigraphs (including digon and triple-edge
H), and bridged assemblies with K3 / diamond / Type III components.
"""

from __future__ import annotations

import pytest

from clawcolor import (
    ExpansionSpec,
    MultiGraph,
    expand_to_clawfree,
    fixtures,
    gen_bridged,
    gen_cubic_multigraph,
    gen_ring_of_diamonds,
)
from clawcolor.rng import SplitMix64

from brute import relabeled

MAX_CORPUS_N = 24


def _bounded_spec(h: MultiGraph, rng: SplitMix64, budget: int) -> ExpansionSpec:
    """Random string lengths with a bounded total, spread over the slots."""
    lengths = {s: 0 for s in h.slots()}
    slots = list(lengths)
    while budget > 0 and rng.randrange(3):
        lengths[slots[rng.randrange(len(slots))]] += 1
        budget -= 1
    return ExpansionSpec(lengths)


def _build_base_corpus() -> list[tuple[str, MultiGraph]]:
    out: list[tuple[str, MultiGraph]] = []
    fx = fixtures()
    out.append(("k4", fx["k4"]))
    out.append(("prism", fx["prism"]))
    out.append(("bridged_star", fx["bridged_star"]))

    for k in range(2, 7):
        out.append((f"ring{k}", gen_ring_of_diamonds(k)))

    # triangle expansions over random H, total size capped at MAX_CORPUS_N
    for i, (n_h, seed) in enumerate(
        (n_h, seed) for seed in range(10) for n_h in (2, 4, 6, 8)
    ):
        rng = SplitMix64(0xE0 + seed * 37 + n_h)
        h = gen_cubic_multigraph(n_h, rng)
        budget = (MAX_CORPUS_N - 3 * n_h) // 4
        g = expand_to_clawfree(h, _bounded_spec(h, rng, budget), rng)
        assert g.n <= MAX_CORPUS_N
        out.append((f"expansion{i}_h{n_h}", g))

    # bridged assemblies, keeping only results that fit the size cap
    specs = [
        ("two_leaves", [("type3", 1), ("type3", 1)]),
        ("leaf_diamond_leaf", [("type3", 1), ("diamond", 2), ("type3", 1)]),
        ("k3_star", [("k3", 3), ("type3", 1), ("type3", 1), ("type3", 1)]),
        ("leaf_t2_leaf", [("type3", 1), ("type3", 2), ("type3", 1)]),
        (
            "diamond_chain",
            [("type3", 1), ("diamond", 2), ("diamond", 2), ("type3", 1)],
        ),
    ]
    for label, spec in specs:
        found = 0
        for seed in range(160):
            g = gen_bridged(spec, SplitMix64(0xB000 + seed))
            if g.n <= MAX_CORPUS_N:
                out.append((f"{label}_{found}", g))
                found += 1
            if found == 6:
                break
        assert found > 0, f"no small instance for {label}"
    return out


def _with_relabelings(
    base: list[tuple[str, MultiGraph]], copies: int
) -> list[tuple[str, MultiGraph]]:
    out = list(base)
    rng = SplitMix64(0x5EED)
    for name, g in base:
        for j in range(copies):
            perm = list(range(g.n))
            rng.shuffle(perm)
            out.append((f"{name}_relabel{j}", relabeled(g, perm)))
    return out


def _tree_degrees(rng: SplitMix64, k: int) -> list[int]:
    """A random degree sequence of a tree on k >= 2 nodes, degrees <= 4."""
    degrees = [1] * k
    for _ in range(k - 2):
        low = [i for i, d in enumerate(degrees) if d < 4]
        degrees[rng.choice(low)] += 1
    return degrees


def _random_tree_spec(rng: SplitMix64) -> list[tuple[str, int]]:
    """Kinds and attachment counts of a random tree of 2 to 10 components."""
    degrees = _tree_degrees(rng, 2 + rng.randrange(9))
    kinds = {2: "diamond", 3: "k3"}
    return [(kinds[d] if d in kinds and rng.randrange(2) else "type3", d) for d in degrees]


def _build_bridged_trees() -> list[tuple[str, MultiGraph]]:
    """Bridged assemblies with 1 to 60 components, half of them relabeled.

    Families: paths of diamonds and two-attachment Type III components,
    stars around a Type III or K3 centre, K3 trees with Type III leaves, and
    mixed trees from random degree sequences.  The one-component cases are
    bridgeless graphs.
    """
    fx = fixtures()
    rng = SplitMix64(0xB7EE)
    specs: list[tuple[str, list[tuple[str, int]]]] = []
    for i in range(12):
        mid = [rng.choice([("diamond", 2), ("type3", 2)]) for _ in range(5 * i)]
        specs.append((f"path{len(mid) + 2}", [("type3", 1)] + mid + [("type3", 1)]))
        r = 2 + i % 5
        specs.append((f"star{r}", [("type3", r)] + [("type3", 1)] * r))
        t = 1 + rng.randrange(29)
        specs.append((f"k3tree{t}", [("k3", 3)] * t + [("type3", 1)] * (t + 2)))
        k = 2 + rng.randrange(59)
        kinds = {1: "type3", 2: "diamond", 3: "k3"}
        specs.append((f"mixed{k}", [
            (kinds[d] if d <= 3 and rng.randrange(2) else "type3", d)
            for d in _tree_degrees(rng, k)
        ]))
    specs.append(("star3-k3", [("k3", 3)] + [("type3", 1)] * 3))
    out = [("k4", fx["k4"]), ("prism", fx["prism"]), ("big_expansion", fx["big_expansion"])]
    for name, spec in specs:
        g = gen_bridged(spec, rng)
        if rng.randrange(2):
            perm = list(range(g.n))
            rng.shuffle(perm)
            g, name = relabeled(g, perm), f"{name}_relabel"
        out.append((name, g))
    return out


@pytest.fixture(scope="session")
def bridged_trees():
    return _build_bridged_trees()


def _build_random_bridged_trees() -> list[MultiGraph]:
    """200 `gen_bridged` trees of 2 to 10 random components, from one seed."""
    rng = SplitMix64(0x7117DE)
    return [gen_bridged(_random_tree_spec(rng), rng) for _ in range(200)]


@pytest.fixture(scope="session")
def random_bridged_trees():
    return _build_random_bridged_trees()


def _built(h_order: int, rng: SplitMix64) -> MultiGraph:
    """A triangle expansion of a random H, string lengths 0, 1 and 2 in equal shares."""
    h = gen_cubic_multigraph(h_order, rng)
    slots = h.slots()
    lengths = [i % 3 for i in range(len(slots))]
    rng.shuffle(lengths)
    return expand_to_clawfree(h, ExpansionSpec(dict(zip(slots, lengths))), rng)


def _build_large_graphs() -> list[tuple[str, MultiGraph]]:
    """Three graphs far past MAX_CORPUS_N, each of about 8,000 to 10,000 vertices.

    A triangle expansion of a random H of order 1,024 with string lengths
    0, 1 and 2 in equal shares, a chain of 2,000 diamonds between two Type
    III leaves (a DFS over it runs about n deep), and a ring of 2,500
    diamonds.
    """
    rng = SplitMix64(0x1A46E)
    built = _built(1024, rng)
    chain = gen_bridged([("type3", 1)] + [("diamond", 2)] * 2000 + [("type3", 1)], rng)
    return [("built-h1024", built), ("chain-2000", chain), ("ring-2500", gen_ring_of_diamonds(2500))]


@pytest.fixture(scope="session")
def large_graphs():
    return _build_large_graphs()


@pytest.fixture(scope="session")
def named_fixtures():
    return fixtures()


@pytest.fixture(scope="session")
def base_corpus():
    return _build_base_corpus()


def _build_corpus(base: list[tuple[str, MultiGraph]]) -> list[tuple[str, MultiGraph]]:
    """At least 500 claw-free cubic graphs with n <= MAX_CORPUS_N."""
    copies = max(1, (520 + len(base) - 1) // len(base))
    full = _with_relabelings(base, copies)
    assert len(full) >= 500
    return full


@pytest.fixture(scope="session")
def corpus(base_corpus):
    return _build_corpus(base_corpus)
