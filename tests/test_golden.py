"""Every colouring and decomposition matches the committed digests.

`tests/golden/outputs.json` holds, per input label `<fixture>/<index>:<name>`,
the sha256 of the colouring `[assignment[v] for v in range(n)]` and of
`repr(decompose(g))`, or `error: <Class>: <message>` for an input that
raises.  A change that moves any output fails here; regenerate the file
with `tests/golden/regenerate.py --reason TEXT` only when the change is meant.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from clawcolor import MultiGraph, color_claw_free_cubic, decompose

GOLDEN = Path(__file__).parent / "golden" / "outputs.json"


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
