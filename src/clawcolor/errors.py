"""Exception hierarchy for clawcolor.

Errors are grouped by the layer that raises them: graph construction and
parsing, structural preconditions, coloring, the exact solver, and
generators.  Errors that indicate an internal contradiction
(something a theorem guarantees cannot happen) derive from
InternalInvariantError so callers can distinguish "bad input" from "bug".
"""

from __future__ import annotations


class ClawcolorError(Exception):
    """Base class for every error raised by this package."""


# graph construction / parsing

class LoopEdgeError(ClawcolorError):
    def __init__(self, vertex: int):
        super().__init__(f"loop edge at vertex {vertex} is not allowed")
        self.vertex = vertex


class VertexOutOfRangeError(ClawcolorError):
    def __init__(self, vertex: int, n: int):
        super().__init__(f"vertex {vertex} out of range for graph on {n} vertices")
        self.vertex = vertex
        self.n = n


class MalformedInputError(ClawcolorError):
    def __init__(self, message: str, line: int | None = None):
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")
        self.line = line


class Graph6MultiedgeError(ClawcolorError):
    """graph6 encodes simple graphs only."""


# structural preconditions

class DisconnectedError(ClawcolorError):
    pass


class NotCubicError(ClawcolorError):
    pass


class NotClawFreeError(ClawcolorError):
    def __init__(self, witness: tuple[int, int, int, int]):
        center, a, b, c = witness
        super().__init__(
            f"claw with center {center} and leaves {a}, {b}, {c}"
        )
        self.witness = witness


class NotSimpleError(ClawcolorError):
    pass


class NotTwoEdgeConnectedError(ClawcolorError):
    pass


# coloring

class InternalInvariantError(ClawcolorError):
    """A fact the construction relies on was found false; indicates a bug."""


class ClaimViolatedError(InternalInvariantError):
    """Both radius-2 colors appear in a closed neighborhood that must be free."""


class VerificationFailedError(InternalInvariantError):
    def __init__(self, violations):
        first = violations[0]
        super().__init__(
            f"coloring verification failed: {len(violations)} violation(s), "
            f"first is class {first.label} on pair {first.pair} at distance {first.distance}"
        )
        self.violations = violations


# oracle

class PartialColoringError(ClawcolorError):
    def __init__(self, missing):
        # ints in numeric order, then the rest by repr: those may not compare
        ints = sorted(v for v in missing if isinstance(v, int))
        others = sorted((v for v in missing if not isinstance(v, int)), key=repr)
        super().__init__(
            f"coloring domain mismatch on {len(missing)} vertices, "
            f"e.g. {(ints + others)[:5]}"
        )
        self.missing = missing


class CapExceededError(ClawcolorError):
    def __init__(self, n: int, cap: int):
        super().__init__(f"instance has {n} vertices, solver cap is {cap}")
        self.n = n
        self.cap = cap


# generators

class KTooSmallError(ClawcolorError):
    pass


class OddOrderError(ClawcolorError):
    pass


class RetryLimitError(ClawcolorError):
    pass


class InfeasibleSpecError(ClawcolorError):
    pass
