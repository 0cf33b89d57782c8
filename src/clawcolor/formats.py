"""Text formats: edge-list (multigraph-capable) and graph6 (simple only).

Edge-list format: first non-comment line is the vertex count, then one
"u v" pair per line; a repeated line raises that pair's multiplicity.
Lines starting with '#' and blank lines are ignored.  Text with no '#',
one token on its first line and two on every other line is converted in
bulk, all tokens at once; any other text, or a token that is not an
integer or a negative count, is read line by line, and only that reader
raises the errors that name a line.

graph6 follows the de-facto standard: 63-offset ASCII bytes, the upper
triangle of the adjacency matrix packed column by column in 6-bit groups.
"""

from __future__ import annotations

from itertools import islice
from math import isqrt

from .errors import (
    CapExceededError,
    Graph6MultiedgeError,
    LoopEdgeError,
    MalformedInputError,
    NotCubicError,
    VertexOutOfRangeError,
)
from .multigraph import MultiGraph


def parse_edgelist(
    text: str, *, cubic: bool = False, max_n: int | None = None
) -> MultiGraph:
    """Decode edge-list text.

    With cubic=True, an edge count other than 3n/2 raises NotCubicError
    before the graph is built, so a huge vertex-count header cannot
    allocate more than the text itself holds.  With max_n, a vertex count
    above it raises CapExceededError as soon as the header is read.
    """
    n, edges = _read_in_bulk(text, max_n) or _read_by_line(text, max_n)
    if cubic and 2 * len(edges) != 3 * n:
        raise NotCubicError(
            f"edge list has {len(edges)} edges; a cubic graph on {n} vertices has 3n/2"
        )
    try:
        return MultiGraph(n, edges)
    except (LoopEdgeError, VertexOutOfRangeError) as exc:
        raise MalformedInputError(str(exc)) from exc


def _read_in_bulk(text: str, max_n: int | None) -> tuple[int, list[tuple[int, int]]] | None:
    """(n, edges) from all tokens of `text` at once, or None where the text
    must be read line by line (see the module docstring)."""
    if "#" in text:
        return None
    lines = text.splitlines()
    if not lines or len(lines[0].split()) != 1:
        return None
    if not set(map(len, map(str.split, islice(lines, 1, None)))) <= {2}:
        return None
    del lines  # the token list costs about twice their memory
    tokens = map(int, text.split())
    try:
        n = next(tokens)
        if n < 0:
            return None
        if max_n is not None and n > max_n:
            raise CapExceededError(n, max_n)
        return n, list(zip(tokens, tokens))
    except ValueError:
        return None


def _read_by_line(text: str, max_n: int | None) -> tuple[int, list[tuple[int, int]]]:
    """(n, edges) read one line at a time; a malformed line raises with its number."""
    n: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 1:
                raise MalformedInputError("expected vertex count on first line", lineno)
            try:
                n = int(fields[0])
            except ValueError:
                raise MalformedInputError(f"bad vertex count {fields[0]!r}", lineno) from None
            if n < 0:
                raise MalformedInputError("vertex count must be non-negative", lineno)
            if max_n is not None and n > max_n:
                raise CapExceededError(n, max_n)
            continue
        if len(fields) != 2:
            raise MalformedInputError(f"expected 'u v', got {line!r}", lineno)
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise MalformedInputError(f"non-integer endpoint in {line!r}", lineno) from None
        edges.append((u, v))
    if n is None:
        raise MalformedInputError("empty input")
    return n, edges


def emit_edgelist(g: MultiGraph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edge_list())
    return "\n".join(lines) + "\n"


def _g6_decode_n(data: bytes) -> tuple[int, int]:
    """Return (n, index of first adjacency byte)."""
    if not data:
        raise MalformedInputError("empty graph6 string")
    if data[0] != 126:
        return data[0] - 63, 1
    if len(data) >= 2 and data[1] != 126:
        if len(data) < 4:
            raise MalformedInputError("truncated graph6 vertex count")
        n = 0
        for b in data[1:4]:
            n = (n << 6) | (b - 63)
        return n, 4
    if len(data) < 8:
        raise MalformedInputError("truncated graph6 vertex count")
    n = 0
    for b in data[2:8]:
        n = (n << 6) | (b - 63)
    return n, 8


def parse_graph6(text: str) -> MultiGraph:
    """Decode one graph6 line into a simple MultiGraph."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):].strip()
    for ch in s:
        if not "?" <= ch <= "~":
            raise MalformedInputError(f"byte {ord(ch)} outside graph6 range")
    data = s.encode("ascii")
    n, at = _g6_decode_n(data)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    body = data[at:]
    if len(body) != need:
        raise MalformedInputError(
            f"graph6 body has {len(body)} bytes, expected {need} for n={n}"
        )
    # bit i of the body is pair (u, v), u < v, with i = v(v-1)/2 + u;
    # set bits past the last pair are padding and are ignored
    edges = []
    for j, b in enumerate(body):
        if b == 63:
            continue
        for k in range(6):
            i = 6 * j + k
            if (b - 63) >> (5 - k) & 1 and i < nbits:
                v = (1 + isqrt(1 + 8 * i)) // 2
                edges.append((i - v * (v - 1) // 2, v))
    return MultiGraph(n, edges)


def emit_graph6(g: MultiGraph) -> str:
    """Encode a simple graph as one graph6 line."""
    if not g.is_simple():
        raise Graph6MultiedgeError("graph has parallel edges; graph6 is simple-only")
    n = g.n
    out = bytearray()
    if n <= 62:
        out.append(n + 63)
    elif n <= 258047:
        out.append(126)
        out.extend(((n >> shift) & 63) + 63 for shift in (12, 6, 0))
    else:
        out.extend((126, 126))
        out.extend(((n >> shift) & 63) + 63 for shift in (30, 24, 18, 12, 6, 0))
    body = bytearray((n * (n - 1) // 2 + 5) // 6)
    for v in range(n):
        for u in g.neighbors(v):
            if u < v:
                i = v * (v - 1) // 2 + u
                body[i // 6] |= 32 >> (i % 6)
    out.extend(b + 63 for b in body)
    return out.decode("ascii")
