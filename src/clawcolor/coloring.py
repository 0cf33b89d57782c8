"""Packing-coloring value types shared by the constructors and the oracle."""

from __future__ import annotations

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


class PackingColoring(NamedTuple):
    """A total assignment of vertices to color-class indices."""

    spec: SPackingSpec
    assignment: dict[int, int]

    def as_lines(self) -> str:
        labels = self.spec.labels()
        return "\n".join(
            f"{v} {labels[self.assignment[v]]}" for v in sorted(self.assignment)
        ) + "\n"


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
