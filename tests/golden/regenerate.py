"""Rewrite tests/golden/outputs.json and workloads.json from the current code.

Usage: python tests/golden/regenerate.py --reason TEXT

The reason, why the outputs are meant to change, is stored in each file
next to its digests.  The script refuses to run without one.  A file whose
digests did not move is left as it is, reason included.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(TESTS), str(TESTS.parent / "src")]

from clawcolor import fixtures  # noqa: E402
from conftest import (  # noqa: E402
    _build_base_corpus,
    _build_bridged_trees,
    _build_corpus,
    _build_large_graphs,
    _build_random_bridged_trees,
)
from test_golden import (  # noqa: E402
    GOLDEN,
    WORKLOAD_GOLDEN,
    labeled_inputs,
    output_digests,
    workload_digests,
)


def _write(path: Path, reason: str, digests: dict) -> None:
    if path.exists() and json.loads(path.read_text(encoding="utf-8"))["digests"] == digests:
        print(f"{len(digests)} digests unchanged in {path}")
        return
    golden = {"reason": reason, "digests": digests}
    path.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"{len(digests)} digests written to {path}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reason", required=True, help="why the outputs change")
    reason = parser.parse_args().reason.strip()
    if not reason:
        parser.error("--reason must not be empty")
    inputs = labeled_inputs(
        fixtures(),
        _build_corpus(_build_base_corpus()),
        _build_bridged_trees(),
        _build_random_bridged_trees(),
        _build_large_graphs(),
    )
    _write(GOLDEN, reason, output_digests(inputs))
    with tempfile.TemporaryDirectory() as workdir:
        _write(WORKLOAD_GOLDEN, reason, workload_digests(Path(workdir)))


if __name__ == "__main__":
    main()
