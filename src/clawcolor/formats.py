"""Text formats: edge-list (multigraph-capable) and graph6 (simple only).

Edge-list format: first non-comment line is the vertex count, then one
"u v" pair per line; a repeated line raises that pair's multiplicity.
Blank lines and lines whose first field starts with '#' are ignored.
The text is read in one pass, one line at a time; a malformed line
raises an error that names its 1-based line number, while a vertex out of
range or a loop is found once every line is read and names none.

Every integer in a text input (edge-list counts and endpoints, colouring
file vertices, `--spec` radii and `--tree` attachment counts) is read by
`parse_int`: an optional '-' and then 1 to `INT_DIGITS` ASCII digits.  A
'+', an '_' or a non-ASCII digit makes the token malformed, and a longer
digit string is out of range.

graph6 follows the de-facto standard: 63-offset ASCII bytes, the upper
triangle of the adjacency matrix packed column by column in 6-bit groups.
"""

from __future__ import annotations

from math import isqrt

from .errors import (
    CapExceededError,
    ClawcolorError,
    Graph6MultiedgeError,
    LoopEdgeError,
    MalformedInputError,
    NotCubicError,
    VertexOutOfRangeError,
)
from .multigraph import MultiGraph

# the largest graph `emit_graph6` encodes: its line is 22 MB
GRAPH6_MAX_N = 16_384

# the most digits `parse_int` reads: CPython's default `int()` limit, so
# every digit string `int()` reads by default reads the same
INT_DIGITS = 4300

# byte b of a graph6 body is written as b + 63; a body byte holds 6 bits
_GRAPH6_OFFSET = bytes((b + 63) & 255 for b in range(256))


def parse_int(token: str) -> int:
    """The integer an optional '-' and 1 to INT_DIGITS ASCII digits spell,
    with white space around them ignored, as `int()` ignores it.

    Any other token raises ValueError with `int()`'s message, and a longer
    digit string OverflowError, whose message shows its first 20 digits.
    A bare digit token, the common case, is converted at once.
    """
    if token.isdigit() and token.isascii() and len(token) <= INT_DIGITS:
        return int(token)
    digits = token.strip().removeprefix("-")
    if not (digits.isdigit() and digits.isascii()):
        raise ValueError(f"invalid literal for int() with base 10: {token!r}")
    if len(digits) > INT_DIGITS:
        raise OverflowError(f"{digits[:20]}... ({len(digits)} digits)")
    return int(token)


def parse_edgelist(
    text: str, *, cubic: bool = False, max_n: int | None = None
) -> MultiGraph:
    """Decode edge-list text.

    With cubic=True, an edge count other than 3n/2 raises NotCubicError
    before the graph is built, so a huge vertex-count header cannot
    allocate more than the text itself holds.  With max_n, a vertex count
    above it raises CapExceededError as soon as the header is read.
    """
    n, edges = _read_by_line(text, max_n)
    if cubic and 2 * len(edges) != 3 * n:
        raise NotCubicError(
            f"edge list has {len(edges)} edges; a cubic graph on {n} vertices has 3n/2"
        )
    try:
        return MultiGraph(n, edges)
    except (LoopEdgeError, VertexOutOfRangeError) as exc:
        raise MalformedInputError(str(exc)) from exc


def _read_by_line(text: str, max_n: int | None) -> tuple[int, list[tuple[int, int]]]:
    """(n, edges) read one line at a time; a malformed line raises with its number.

    An edge line costs one split and two `parse_int` calls: a two-field
    line after the header is converted first, and only a failed conversion
    or another field count is looked at again.
    """
    n: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if len(fields) == 2 and n is not None:
            try:
                edges.append((parse_int(fields[0]), parse_int(fields[1])))
            except ValueError:
                if not fields[0].startswith("#"):
                    raise MalformedInputError(
                        f"non-integer endpoint in {raw.strip()!r}", lineno
                    ) from None
            except OverflowError as exc:
                raise MalformedInputError(f"vertex {exc} out of range", lineno) from None
            continue
        if not fields or fields[0].startswith("#"):
            continue
        if n is None:
            if len(fields) != 1:
                raise MalformedInputError("expected vertex count on first line", lineno)
            try:
                n = parse_int(fields[0])
            except ValueError:
                raise MalformedInputError(f"bad vertex count {fields[0]!r}", lineno) from None
            except OverflowError as exc:
                raise MalformedInputError(f"vertex count {exc} out of range", lineno) from None
            if n < 0:
                raise MalformedInputError("vertex count must be non-negative", lineno)
            if max_n is not None and n > max_n:
                raise CapExceededError(n, max_n)
            continue
        raise MalformedInputError(f"expected 'u v', got {raw.strip()!r}", lineno)
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
    """Encode a simple graph of at most GRAPH6_MAX_N vertices as one graph6 line.

    The line holds n(n-1)/12 bytes, so a larger graph is refused before
    any of them is allocated.
    """
    n = g.n
    if n > GRAPH6_MAX_N:
        raise ClawcolorError(
            f"graph6 output holds at most {GRAPH6_MAX_N} vertices; the graph has {n}; "
            "write it as an edge list"
        )
    if not g.is_simple():
        raise Graph6MultiedgeError("graph has parallel edges; graph6 is simple-only")
    out = bytearray()
    if n <= 62:
        out.append(n + 63)
    else:
        out.append(126)
        out.extend(((n >> shift) & 63) + 63 for shift in (12, 6, 0))
    body = bytearray((n * (n - 1) // 2 + 5) // 6)
    for v in range(n):
        for u in g.neighbors(v):
            if u < v:
                i = v * (v - 1) // 2 + u
                body[i // 6] |= 32 >> (i % 6)
    out += body.translate(_GRAPH6_OFFSET)
    return out.decode("ascii")
