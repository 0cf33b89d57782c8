"""Seeded inputs of the four workloads: the benchmark's set-up phase.

`make_inputs(workload, seed, workdir)` writes `manifest.json` (and, for
cli-batch, the edge-list files) under `workdir`.  The same seed gives the
same inputs.  Only `clawcolor.generators`, `clawcolor.rng` and, for the
batch files, `clawcolor.formats.emit_edgelist` run here, so their cost is
set-up time, never timed-phase time.

Each item of the manifest carries the timed input as `edges`.  A
solve-exact item also carries `relabeled`, the same graph under a seeded
permutation of its vertex ids, which is solved once after the timed phase
and must keep the frozen verdict.  The timed solves use the frozen labeling
because backtracking time depends on vertex order far more than on the
seed's other choices: over seeded relabelings the pool's solve time spread
by more than 30% between runs, which would hide any real change.
"""

from __future__ import annotations

import json
import os

from clawcolor import (
    ExpansionSpec,
    MultiGraph,
    SplitMix64,
    expand_to_clawfree,
    fixtures,
    gen_bridged,
    gen_cubic_multigraph,
    gen_ring_of_diamonds,
)
from clawcolor.formats import emit_edgelist

BUILT_H_ORDERS = (32, 64, 128, 256)
RING_DIAMONDS = 150
BRIDGED_PATH_DIAMONDS = (50, 100, 200, 400)
CATERPILLAR_K3 = 50
K3_TREE_SEED = 2409
POOL_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pool.json")

K4_EDGES = [(a, b) for a in range(4) for b in range(a + 1, 4)]


def relabel(n: int, edges, rng: SplitMix64) -> MultiGraph:
    perm = list(range(n))
    rng.shuffle(perm)
    return MultiGraph(n, [(perm[u], perm[v]) for u, v in edges])


def _edges(g: MultiGraph) -> list[list[int]]:
    return [list(e) for e in g.edge_list()]


def _item(name, g, *, sweep=False, expect="colored", **extra):
    return {"name": name, "n": g.n, "sweep": sweep, "expect": expect,
            "edges": _edges(g), **extra}


def _built(h_order: int, rng: SplitMix64, max_string: int = 2) -> MultiGraph:
    """Triangles over a random H; string lengths 0..max_string in equal shares.

    Equal shares fix n at 3 n(H) + 4 * (sum of lengths), so the sweep's sizes
    do not move with the seed; only the structure does.
    """
    h = gen_cubic_multigraph(h_order, rng)
    slots = h.slots()
    lengths = [i % (max_string + 1) for i in range(len(slots))]
    rng.shuffle(lengths)
    return expand_to_clawfree(h, ExpansionSpec(dict(zip(slots, lengths))), rng)


def _chain(diamonds: int, rng: SplitMix64) -> MultiGraph:
    return gen_bridged([("type3", 1)] + [("diamond", 2)] * diamonds + [("type3", 1)], rng)


def _k3_tree(k3: int, rng: SplitMix64) -> MultiGraph:
    """k3 K3 components and k3 + 2 Type III leaves on a tree, ids from `rng`.

    The assembly is drawn once from a fixed stream and the seed permutes its
    vertex ids.  Drawn per seed, its random leaves moved n by 13% either way
    and the whole pass's time by about 8%.
    """
    g = gen_bridged([("k3", 3)] * k3 + [("type3", 1)] * (k3 + 2), SplitMix64(K3_TREE_SEED))
    return relabel(g.n, g.edge_list(), rng)


def _built_sweep(rng):
    items = [_item(f"built-h{h}", _built(h, rng), sweep=True) for h in BUILT_H_ORDERS]
    items.append(_item(f"ring-{RING_DIAMONDS}", gen_ring_of_diamonds(RING_DIAMONDS)))
    items.append(_item("k4", MultiGraph(4, K4_EDGES)))
    return items


def _bridged_sweep(rng):
    items = [_item(f"chain-{k}", _chain(k, rng), sweep=True) for k in BRIDGED_PATH_DIAMONDS]
    items.append(_item(f"k3-tree-{CATERPILLAR_K3}", _k3_tree(CATERPILLAR_K3, rng)))
    return items


def _cli_batch(rng, workdir):
    """300 small inputs, n <= about 100, in a seeded order.

    Each family's sizes are a fixed list, so the seed changes the graphs'
    structure and order but hardly the total work.  Small inputs keep one
    pass near half a second, so a run holds many passes, and let the fixed
    per-call costs show.
    """
    petersen = fixtures()["petersen"]
    graphs = []
    graphs += [("ring", gen_ring_of_diamonds(2 + i % 8)) for i in range(60)]
    graphs += [("built", _built(2 * (1 + i % 3), rng)) for i in range(90)]
    graphs += [("chain", _chain(1 + i % 5, rng)) for i in range(60)]
    graphs += [("star", gen_bridged([("k3", 3)] + [("type3", 1)] * 3, rng)) for _ in range(45)]
    graphs += [("k4", MultiGraph(4, K4_EDGES))] * 30
    graphs += [("petersen", petersen)] * 15
    rng.shuffle(graphs)
    files = os.path.join(workdir, "batch")
    os.makedirs(files, exist_ok=True)
    items = []
    for i, (kind, g) in enumerate(graphs):
        path = os.path.join(files, f"{i:03d}-{kind}.el")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(emit_edgelist(g))
        expect = "not-claw-free" if kind == "petersen" else "colored"
        # K4 is a fixed-cost probe; at n = 4 it would dominate the size fit
        items.append(_item(f"{i:03d}-{kind}", g, sweep=kind not in ("petersen", "k4"),
                           expect=expect, path=path))
    return items


def _solve_exact(rng):
    with open(POOL_FILE, encoding="utf-8") as fh:
        pool = json.load(fh)
    items = []
    for entry in pool:
        n, edges = entry["n"], entry["edges"]
        items.append(_item(entry["name"], MultiGraph(n, edges), sweep=True,
                           expect=entry["verdict"], spec=entry["spec"],
                           relabeled=_edges(relabel(n, edges, rng))))
    return items


def make_inputs(workload: str, seed: int, workdir: str) -> dict:
    rng = SplitMix64(seed)
    if workload == "built-sweep":
        items = _built_sweep(rng)
    elif workload == "bridged-sweep":
        items = _bridged_sweep(rng)
    elif workload == "cli-batch":
        items = _cli_batch(rng, workdir)
    elif workload == "solve-exact":
        items = _solve_exact(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    manifest = {"workload": workload, "seed": seed, "items": items}
    with open(os.path.join(workdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    return manifest
