"""Tests of the benchmark's own checks; not part of the package's test suite.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
sys.path[:0] = [BENCH, SRC]

from certify import adjacency, claw_problems, packing_problems  # noqa: E402
from workloads import POOL_FILE, make_inputs  # noqa: E402

import clawcolor  # noqa: E402

C2A = 2


def _distances(adj, src):
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    return dist


def test_certificate_flags_a_2a_vertex_moved_next_to_another():
    rng = clawcolor.SplitMix64(5)
    h = clawcolor.gen_cubic_multigraph(8, rng)
    g = clawcolor.expand_to_clawfree(h, clawcolor.random_expansion_spec(h, rng), rng)
    edges = g.edge_list()
    coloring = clawcolor.color_claw_free_cubic(g)
    colors = [coloring.assignment[v] for v in range(g.n)]
    assert packing_problems(g.n, edges, (1, 1, 2, 2), colors) == []

    adj = adjacency(g.n, edges)
    v = colors.index(C2A)
    w = next(x for x, d in _distances(adj, v).items() if d == 2 and colors[x] != C2A)
    u = next(x for x in range(g.n) if colors[x] == C2A and x != v)
    moved = list(colors)
    moved[u], moved[w] = moved[w], C2A

    problems = packing_problems(g.n, edges, (1, 1, 2, 2), moved)
    assert f"class {C2A}: {min(v, w)} and {max(v, w)} at distance 2" in problems
    assert clawcolor.verify(g, clawcolor.SPEC_1122, clawcolor.PackingColoring(
        clawcolor.SPEC_1122, dict(enumerate(moved))))


def test_certificate_rejects_incomplete_or_unknown_classes():
    edges = [(0, 1), (1, 2), (0, 2)]
    assert packing_problems(3, edges, (1, 1, 1), [0, 1]) != []
    assert packing_problems(3, edges, (1, 1, 1), [0, 1, 3]) != []
    assert packing_problems(3, edges, (1, 1, 1), [0, 1, 2]) == []


def test_claw_witness_check():
    petersen = clawcolor.fixtures()["petersen"]
    edges = petersen.edge_list()
    witness = clawcolor.find_claw(petersen)
    assert claw_problems(petersen.n, edges, list(witness)) == []
    centre, a, b, c = witness
    assert claw_problems(petersen.n, edges, [a, centre, b, c]) != []
    k4 = [(x, y) for x in range(4) for y in range(x + 1, 4)]
    assert claw_problems(4, k4, [0, 1, 2, 3]) == ["leaves 1 and 2 are adjacent",
                                                  "leaves 1 and 3 are adjacent",
                                                  "leaves 2 and 3 are adjacent"]


def test_setup_repeats_exactly(tmp_path):
    first = make_inputs("bridged-sweep", 3, str(tmp_path))
    second = make_inputs("bridged-sweep", 3, str(tmp_path))
    assert first == second
    assert make_inputs("bridged-sweep", 4, str(tmp_path)) != first


def _milp_feasible(n, edges, radii):
    """S-packing colorability as a 0/1 program solved by HiGHS."""
    np = pytest.importorskip("numpy")
    optimize = pytest.importorskip("scipy.optimize")
    sparse = pytest.importorskip("scipy.sparse")

    r = len(radii)
    adj = adjacency(n, edges)
    rows, cols, lower, upper = [], [], [], []

    def constraint(variables, lo, hi):
        row = len(lower)
        rows.extend([row] * len(variables))
        cols.extend(variables)
        lower.append(lo)
        upper.append(hi)

    for v in range(n):
        constraint([v * r + c for c in range(r)], 1, 1)
    for u in range(n):
        dist = _distances(adj, u)
        for v, d in dist.items():
            if v > u:
                for c in range(r):
                    if d <= radii[c]:
                        constraint([u * r + c, v * r + c], 0, 1)
    a = sparse.csr_array((np.ones(len(rows)), (rows, cols)), shape=(len(lower), n * r))
    res = optimize.milp(
        c=np.zeros(n * r),
        constraints=optimize.LinearConstraint(a, lower, upper),
        integrality=np.ones(n * r),
        bounds=optimize.Bounds(0, 1),
        options={"time_limit": 120},
    )
    assert res.status in (0, 2), res.message
    return res.status == 0


def _pool():
    with open(POOL_FILE, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("entry", _pool(), ids=lambda e: e["name"])
def test_milp_rederives_pool_verdict(entry):
    feasible = _milp_feasible(entry["n"], entry["edges"], tuple(entry["spec"]))
    assert ("SAT" if feasible else "UNSAT") == entry["verdict"]


def test_pool_shape():
    pool = _pool()
    assert len(pool) >= 20
    assert {"SAT", "UNSAT"} == {e["verdict"] for e in pool}
    assert any(e["name"].startswith("petersen") and e["verdict"] == "UNSAT" for e in pool)


_TRACE_PROBE = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
import clawcolor, clawcolor.canonical, clawcolor.cli, clawcolor.oracle
from tracer import Tracer, layer_totals
t = Tracer()
t.install(("oracle.verify", "oracle.no_such_function", "nosuchmodule.f",
           "multigraph.MultiGraph.induced"))
assert clawcolor.canonical.verify is clawcolor.oracle.verify is clawcolor.cli.verify
assert clawcolor.verify is clawcolor.oracle.verify
clawcolor.color_claw_free_cubic(clawcolor.fixtures()["bridged_star"])
totals = layer_totals(t.spans)
print(t.installed, totals["oracle.verify"][0], totals["multigraph.MultiGraph.induced"][0])
"""


def test_tracer_rebinds_everywhere_and_skips_missing_functions():
    code = _TRACE_PROBE.format(bench=BENCH, src=SRC)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60).stdout.split("\n")[0]
    # bridged_star, a K3 with three Type III leaves: each of the four
    # components is verified, then the whole graph; each component is
    # induced once and each leaf once more for its odd completion
    assert out == "['oracle.verify', 'multigraph.MultiGraph.induced'] 5 7"
