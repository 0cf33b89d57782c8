"""Every colouring and decomposition matches the committed digests.

`tests/golden/outputs.json` holds, per input label `<fixture>/<index>:<name>`,
the sha256 of the colouring `[assignment[v] for v in range(n)]` and of
`repr(decompose(g))`, or `error: <Class>: <message>` for an input that
raises.  `tests/golden/workloads.json` holds, per workload of
`bench/run.py` and seed 1 to 3, the sha256 of the inputs
`make_inputs` writes.  A change that moves any output or benchmark input
fails here; regenerate the files with `tests/golden/regenerate.py --reason
TEXT` only when the change is meant.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
from pathlib import Path

from clawcolor import MultiGraph, color_claw_free_cubic, decompose

GOLDEN = Path(__file__).parent / "golden" / "outputs.json"
WORKLOAD_GOLDEN = Path(__file__).parent / "golden" / "workloads.json"
BENCH = Path(__file__).resolve().parent.parent / "bench"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def labeled_inputs(
    named_fixtures: dict[str, MultiGraph],
    corpus: list[tuple[str, MultiGraph]],
    bridged_trees: list[tuple[str, MultiGraph]],
    random_bridged_trees: list[MultiGraph],
    large_graphs: list[tuple[str, MultiGraph]],
) -> list[tuple[str, MultiGraph]]:
    """Each input under its label; an unnamed random tree is named by its order."""
    groups = {
        "named_fixtures": list(named_fixtures.items()),
        "corpus": corpus,
        "bridged_trees": bridged_trees,
        "random_bridged_trees": [(f"n{g.n}", g) for g in random_bridged_trees],
        "large_graphs": large_graphs,
    }
    return [
        (f"{fixture}/{i}:{name}", g)
        for fixture, graphs in groups.items()
        for i, (name, g) in enumerate(graphs)
    ]


def output_digests(inputs: list[tuple[str, MultiGraph]]) -> dict[str, dict[str, str]]:
    """The digest entry of each labeled input."""
    out = {}
    for label, g in inputs:
        try:
            structure = decompose(g)
            assignment = color_claw_free_cubic(g).assignment
        except Exception as e:
            out[label] = {"error": f"{type(e).__name__}: {e}"}
            continue
        out[label] = {
            "coloring": _sha(repr([assignment[v] for v in range(g.n)])),
            "decompose": _sha(repr(structure)),
        }
    return out


def _bench_module(name: str):
    """bench/<name>.py, loaded without putting bench/ on the path."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def workload_digests(workdir: Path) -> dict[str, str]:
    """Per workload of `bench/run.py` and `<seed>`, the sha256 of the manifest
    `make_inputs` writes under workdir, each batch file's path made relative,
    then of each batch file's bytes in manifest order."""
    workloads = _bench_module("workloads")
    out = {}
    for name in _bench_module("run").WORKLOADS:
        for seed in (1, 2, 3):
            d = workdir / f"{name}-{seed}"
            d.mkdir()
            manifest = workloads.make_inputs(name, seed, str(d))
            files = [item["path"] for item in manifest["items"] if "path" in item]
            for item in manifest["items"]:
                if "path" in item:
                    item["path"] = os.path.relpath(item["path"], d)
            h = hashlib.sha256(json.dumps(manifest, sort_keys=True).encode())
            for path in files:
                h.update(Path(path).read_bytes())
            out[f"{name}/{seed}"] = h.hexdigest()
    return out


def test_outputs_match_the_committed_digests(
    named_fixtures, corpus, bridged_trees, random_bridged_trees, large_graphs
):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert golden["reason"]
    got = output_digests(
        labeled_inputs(named_fixtures, corpus, bridged_trees, random_bridged_trees, large_graphs)
    )
    want = golden["digests"]
    assert got.keys() == want.keys()
    changed = [label for label in want if got[label] != want[label]]
    assert not changed, f"{len(changed)} outputs changed, first {changed[:5]}"


def test_benchmark_inputs_match_the_committed_digests(tmp_path):
    golden = json.loads(WORKLOAD_GOLDEN.read_text(encoding="utf-8"))
    assert golden["reason"]
    assert workload_digests(tmp_path) == golden["digests"]
