"""clawcolor: certified (1,1,2,2)-packing colorings of claw-free cubic graphs.

The constructive pipeline decomposes the input (bridge tree, triangle and
diamond-string structure), builds a coloring from a 2-factor of the
underlying cubic multigraph, and verifies the result.  An independent
exact backtracking solver serves as the oracle.
"""

from .coloring import (
    C1A,
    C1B,
    C2A,
    C2B,
    SPEC_1122,
    PackingColoring,
    SPackingSpec,
    parse_coloring_lines,
)
from .colorer import color_claw_free_cubic
from .formats import (
    emit_edgelist,
    emit_graph6,
    parse_edgelist,
    parse_graph6,
)
from .multigraph import MultiGraph, is_connected, is_cubic
from .oracle import Violation, solve_spacking, subdivide, verify
from .recognition import (
    BridgeTree,
    ComponentKind,
    Decomposition,
    Diamond,
    Variant,
    decompose,
    find_bridges,
    find_claw,
    is_claw_free,
)
from .rng import SplitMix64

__version__ = "0.1.0"

# served by `__getattr__`, so that a command that generates no graph, such
# as `clawcolor color`, does not load `generators` at start-up
_GENERATORS = frozenset({
    "ExpansionSpec",
    "expand_to_clawfree",
    "fixtures",
    "gen_bridged",
    "gen_cubic_multigraph",
    "gen_ring_of_diamonds",
    "random_expansion_spec",
})


def __getattr__(name: str):
    """The generator names, loaded on first use (PEP 562)."""
    if name in _GENERATORS:
        from . import generators

        return getattr(generators, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "C1A",
    "C1B",
    "C2A",
    "C2B",
    "SPEC_1122",
    "BridgeTree",
    "ComponentKind",
    "Decomposition",
    "Diamond",
    "ExpansionSpec",
    "MultiGraph",
    "PackingColoring",
    "SPackingSpec",
    "SplitMix64",
    "Variant",
    "Violation",
    "color_claw_free_cubic",
    "decompose",
    "emit_edgelist",
    "emit_graph6",
    "expand_to_clawfree",
    "find_bridges",
    "find_claw",
    "fixtures",
    "gen_bridged",
    "gen_cubic_multigraph",
    "gen_ring_of_diamonds",
    "is_claw_free",
    "is_connected",
    "is_cubic",
    "parse_coloring_lines",
    "parse_edgelist",
    "parse_graph6",
    "random_expansion_spec",
    "solve_spacking",
    "subdivide",
    "verify",
]
