"""Packing-coloring value types shared by the constructors and the oracle.

A coloring the package builds, by `colorer.color_claw_free_cubic` or
`oracle.solve_spacking`, holds one class byte per vertex: its
`PackingColoring.assignment` is a `Labels`, a read-only mapping over
immutable bytes.  A coloring file may be partial, so
`parse_coloring_lines` gives a dict.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from typing import NamedTuple

from .errors import MalformedInputError
from .formats import parse_int


class SPackingSpec(NamedTuple("_Radii", [("radii", tuple[int, ...])])):
    """A non-decreasing sequence of exclusion radii, one per color class."""

    __slots__ = ()

    def __new__(cls, radii: tuple[int, ...]):
        if not radii:
            raise ValueError("at least one radius required")
        if any(r < 1 for r in radii):
            raise ValueError("radii must be positive")
        if any(a > b for a, b in zip(radii, radii[1:])):
            raise ValueError("radii must be non-decreasing")
        return super().__new__(cls, radii)

    @property
    def r(self) -> int:
        return len(self.radii)

    def labels(self) -> tuple[str, ...]:
        if self.radii == (1, 1, 2, 2):
            return ("1a", "1b", "2a", "2b")
        return tuple(f"c{i + 1}" for i in range(self.r))


SPEC_1122 = SPackingSpec((1, 1, 2, 2))

# class indices for the (1,1,2,2) instance
C1A, C1B, C2A, C2B = 0, 1, 2, 3


# the byte the colorer leaves on a vertex it has not colored
UNCOLORED = 0xFF


class Labels(Mapping):
    """Vertex v -> class `data[v]`, for each v in range(len(data)): a
    read-only coloring held as one byte per vertex.

    `items` and `values` enumerate and iterate the bytes at C speed.  It
    compares equal to a dict with the same items.  A byte UNCOLORED is
    still an item here; the certificate (`oracle._classes`) reports its
    vertex as uncolored.
    """

    __slots__ = ("data",)

    def __init__(self, data: Iterable[int] = b"") -> None:
        self.data = bytes(data)

    def get(self, v, default=None):
        try:
            return self.data[v] if v >= 0 else default
        except (IndexError, TypeError):
            return default

    def __getitem__(self, v: int) -> int:
        if isinstance(v, int) and 0 <= v < len(self.data):
            return self.data[v]
        raise KeyError(v)

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self.data)))

    def __len__(self) -> int:
        return len(self.data)

    def items(self) -> Iterator[tuple[int, int]]:
        return enumerate(self.data)

    def values(self) -> Iterator[int]:
        return iter(self.data)

    def __repr__(self) -> str:
        return f"Labels({dict(self.items())!r})"


class PackingColoring(NamedTuple):
    """An assignment of vertices to color-class indices: a `Labels` for a
    built coloring, a dict for one read from a file."""

    spec: SPackingSpec
    assignment: Mapping[int, int]

    def as_lines(self) -> str:
        """One "vertex label" line per vertex, ascending; "" when none is colored."""
        labels = self.spec.labels()
        return "".join(f"{v} {labels[c]}\n" for v, c in sorted(self.assignment.items()))


def parse_coloring_lines(text: str, spec: SPackingSpec) -> PackingColoring:
    """Parse "vertex label" lines into a coloring for the given spec.

    A line that does not parse, or that lists a vertex an earlier line
    listed, raises MalformedInputError naming its number.
    """
    label_to_idx = {lab: i for i, lab in enumerate(spec.labels())}
    assignment: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise MalformedInputError(f"line {lineno}: expected 'vertex label', got {line!r}")
        try:
            v = parse_int(fields[0])
        except ValueError:
            raise MalformedInputError(f"line {lineno}: bad vertex {fields[0]!r}") from None
        except OverflowError as exc:
            raise MalformedInputError(f"line {lineno}: vertex {exc} out of range") from None
        if fields[1] not in label_to_idx:
            raise MalformedInputError(f"line {lineno}: unknown label {fields[1]!r}")
        if v in assignment:
            raise MalformedInputError(f"line {lineno}: vertex {v} listed twice")
        assignment[v] = label_to_idx[fields[1]]
    return PackingColoring(spec, assignment)
