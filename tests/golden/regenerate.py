"""Rewrite tests/golden/outputs.json from the current code.

Usage: python tests/golden/regenerate.py --reason TEXT

The reason, why the outputs are meant to change, is stored in the file
next to the digests.  The script refuses to run without one.
"""

from __future__ import annotations

import argparse
import json
import sys
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
from test_golden import GOLDEN, labeled_inputs, output_digests  # noqa: E402


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
    golden = {"reason": reason, "digests": output_digests(inputs)}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"{len(inputs)} inputs written to {GOLDEN}")


if __name__ == "__main__":
    main()
