import random
import tracemalloc

import pytest
from hypothesis import assume, given, seed, settings, strategies as st

from clawcolor import (
    MultiGraph,
    emit_edgelist,
    emit_graph6,
    fixtures,
    parse_edgelist,
    parse_graph6,
)
from clawcolor.errors import (
    CapExceededError,
    ClawcolorError,
    Graph6MultiedgeError,
    MalformedInputError,
    NotCubicError,
)

from clawcolor.formats import GRAPH6_MAX_N, INT_DIGITS, parse_int

from brute import ref_graph6_decode


def test_parse_k4_edgelist():
    text = "4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
    g = parse_edgelist(text)
    assert g.n == 4 and g.size == 6 and g.is_simple()


def test_cubic_edge_count_checked_before_building():
    k4 = "4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
    assert parse_edgelist(k4, cubic=True) == parse_edgelist(k4)
    with pytest.raises(NotCubicError):
        parse_edgelist("1000000000000\n", cubic=True)
    with pytest.raises(NotCubicError):
        parse_edgelist("3\n0 1\n1 2\n", cubic=True)
    assert parse_edgelist("3\n0 1\n1 2\n").size == 2


def test_multiplicity_via_repeats():
    g = parse_edgelist("2\n0 1\n0 1\n0 1\n")
    assert g.edge_list() == [(0, 1)] * 3


def test_edgelist_round_trip_is_identity():
    text = "5\n0 1\n0 1\n1 2\n2 3\n3 4\n"
    assert emit_edgelist(parse_edgelist(text)) == text


def test_malformed_inputs():
    for bad in ("", "x", "3\n0", "3\n0 1 2", "3\na b", "2\n0 5", "2\n1 1"):
        with pytest.raises(MalformedInputError):
            parse_edgelist(bad)


@pytest.mark.parametrize(
    "text, message, line",
    [
        ("", "empty input", None),
        ("# only a comment\n\n", "empty input", None),
        ("x", "bad vertex count 'x' (line 1)", 1),
        ("# header\n\n 2 3 \n", "expected vertex count on first line (line 3)", 3),
        ("-1\n", "vertex count must be non-negative (line 1)", 1),
        ("3\n0", "expected 'u v', got '0' (line 2)", 2),
        ("3\n0 1 2", "expected 'u v', got '0 1 2' (line 2)", 2),
        ("3\n# note\n0 1\n\n  a b  \n", "non-integer endpoint in 'a b' (line 5)", 5),
        ("3\n0 1\n1 2.0\n", "non-integer endpoint in '1 2.0' (line 3)", 3),
        ("2\n0 5", "vertex 5 out of range for graph on 2 vertices", None),
        ("2\n-1 0", "vertex -1 out of range for graph on 2 vertices", None),
        ("2\n1 1", "loop edge at vertex 1 is not allowed", None),
        ("4\n0 1\n0 1 2\n1 2\n3\n", "expected 'u v', got '0 1 2' (line 3)", 3),
        ("6\n0 1\n0 2\n0 3\n1 2\n1 4\n2 5\n3 4\n3 5\n4 x\n",
         "non-integer endpoint in '4 x' (line 10)", 10),
        ("-1\n0 1\n1 2\n", "vertex count must be non-negative (line 1)", 1),
        ("3\n0 1\n0 #1\n", "non-integer endpoint in '0 #1' (line 3)", 3),
        ("3\n0 1\n+1 2\n", "non-integer endpoint in '+1 2' (line 3)", 3),
        ("3\n1_0 2\n", "non-integer endpoint in '1_0 2' (line 2)", 2),
        ("3\n0 \u0662\n", "non-integer endpoint in '0 \u0662' (line 2)", 2),
        ("3\n\uff11 2\n", "non-integer endpoint in '\uff11 2' (line 2)", 2),
        ("3\n0 " + "9" * 5000 + "\n", f"vertex {'9' * 20}... (5000 digits) out of range (line 2)", 2),
        ("+3\n0 1\n", "bad vertex count '+3' (line 1)", 1),
        ("1_1\n0 1\n", "bad vertex count '1_1' (line 1)", 1),
        ("9" * 5000 + "\n", f"vertex count {'9' * 20}... (5000 digits) out of range (line 1)", 1),
    ],
    ids=[
        "empty",
        "comment-only",
        "bad-count",
        "two-field-header",
        "negative-count",
        "short-line",
        "long-line",
        "non-integer",
        "float-endpoint",
        "out-of-range",
        "negative-endpoint",
        "loop",
        "long-then-short-line",
        "late-bad-line",
        "negative-count-with-edges",
        "hash-in-second-field",
        "plus-endpoint",
        "underscore-endpoint",
        "arabic-indic-endpoint",
        "full-width-endpoint",
        "5000-digit-endpoint",
        "plus-count",
        "underscore-count",
        "5000-digit-count",
    ],
)
def test_edgelist_error_messages_and_line_numbers(text, message, line):
    """Each edge-list rejection keeps its message and the 1-based line it names.

    Comments and blank lines count toward the line number; a range or loop
    error is found once the whole text is read, so it names no line.
    """
    with pytest.raises(MalformedInputError) as caught:
        parse_edgelist(text)
    assert str(caught.value) == message
    assert caught.value.line == line


_K4_EDGES = "0 1\n0 2\n0 3\n1 2\n1 3\n"


@pytest.mark.parametrize(
    "text, kwargs, error, message",
    [
        ("10\n0 1\n0 1 2\n", {"max_n": 5}, CapExceededError,
         "instance has 10 vertices, solver cap is 5"),
        ("10\n0 1\n0 x\n", {"max_n": 5}, CapExceededError,
         "instance has 10 vertices, solver cap is 5"),
        ("4\n" + _K4_EDGES + "3 3\n", {"cubic": True}, MalformedInputError,
         "loop edge at vertex 3 is not allowed"),
        ("4\n" + _K4_EDGES + "2 4\n", {"cubic": True}, MalformedInputError,
         "vertex 4 out of range for graph on 4 vertices"),
    ],
    ids=["cap-before-long-line", "cap-before-bad-token", "cubic-loop", "cubic-out-of-range"],
)
def test_edgelist_errors_under_cap_and_cubic(text, kwargs, error, message):
    """A header over max_n wins over any later malformed line, and under
    cubic=True a text with 3n/2 edges still names its loop or bad vertex."""
    with pytest.raises(error) as caught:
        parse_edgelist(text, **kwargs)
    assert type(caught.value) is error
    assert str(caught.value) == message


def _variants(text: str) -> dict[str, str]:
    """`text` with comments, blank lines, CRLF endings, tabs and padding."""
    head, _, body = text.partition("\n")
    lines = text.splitlines()
    middle = len(lines) // 2
    return {
        "clean": text,
        "comment-line": "\n".join(lines[:middle] + ["# a comment"] + lines[middle:]) + "\n",
        "blank-lines": f"{head}\n\n{body}\n\n",
        "crlf": text.replace("\n", "\r\n"),
        "tabs": text.replace(" ", "\t"),
        "padded": "".join(f"  {line} \t\n" for line in lines),
        "comment-before-header": "# a graph\n" + text,
        "two-field-comments": f"{head}\n#0 1\n# 5\n{body}",
    }


def test_edgelist_syntax_variants_parse_alike(
    named_fixtures, corpus, bridged_trees, random_bridged_trees, large_graphs
):
    """Every fixture and golden input reads back as the same graph from its
    plain edge list and from each variant of its syntax."""
    graphs = [*named_fixtures.values(), *random_bridged_trees]
    graphs += [g for _, g in corpus + bridged_trees + large_graphs]
    for g in graphs:
        for name, text in _variants(emit_edgelist(g)).items():
            assert parse_edgelist(text) == g, name


def test_edgelist_reader_peak_memory_per_vertex(large_graphs):
    """After a warm-up call, reading a large cubic edge list peaks below
    300 B per vertex, the graph it builds included.  It reads about 283 on
    CPython 3.10 to 3.12; the edge tuples with the graph built from them
    are most of it.
    """
    for name, g in large_graphs:
        text = emit_edgelist(g)
        parse_edgelist(text, cubic=True)
        tracemalloc.start()
        try:
            parse_edgelist(text, cubic=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / g.n < 300, (name, peak / g.n)


def test_parse_int_reads_up_to_int_digits_digits():
    """A token of INT_DIGITS digits reads, bare, signed or padded; one more
    digit is out of range either way.  A non-ASCII digit, a '+' or an '_'
    is malformed, though `str.isdigit` or `int()` accepts it."""
    top = "9" * INT_DIGITS
    assert parse_int(top) == int(top)
    assert parse_int(f"-{top}") == -int(top)
    assert parse_int(f" {top}\n") == int(top)
    for token in (top + "9", f"-{top}9", f" {top}9\n"):
        with pytest.raises(OverflowError, match=rf"^9{{20}}\.\.\. \({INT_DIGITS + 1} digits\)$"):
            parse_int(token)
    for token in ("\u0663", "\u00b2", "+1", "1_0", ""):
        with pytest.raises(ValueError, match="^invalid literal for int"):
            parse_int(token)


_INTS = st.integers(0, 99).map(str)
# tokens int() rejects; "#1" joins them only past the first field, where
# it makes no comment
_NON_INTS = st.sampled_from(["x", "a1", "2.0", "1e3", "0x1", "--1", "½"])
_FIELDS = st.one_of(_INTS, _NON_INTS)
_LATER_FIELDS = _FIELDS | st.just("#1")
# the digits 0 to 9 of scripts other than ASCII: Arabic-Indic, Devanagari
# and full-width; int() reads them, the edge-list reader does not
_NON_ASCII_DIGITS = st.sampled_from(["٠١٢٣٤٥٦٧٨٩", "०१२३४५६७८९", "０１２３４５６７８９"]).map(
    lambda digits: str.maketrans("0123456789", digits)
)


@st.composite
def _malformed_line(draw) -> tuple[bool, list[str], str]:
    """(whether it stands for the header, its fields, its message less the
    line text) for one line of each kind the edge-list reader names."""
    kind = draw(st.sampled_from(["two-field-header", "bad-count", "negative-count",
                                 "field-count", "non-integer", "non-ascii"]))
    if kind == "two-field-header":
        fields = draw(st.lists(_INTS, min_size=2, max_size=3))
        return True, fields, "expected vertex count on first line"
    if kind == "bad-count":
        return True, [draw(_NON_INTS)], "bad vertex count {0!r}"
    if kind == "negative-count":
        return True, [f"-{draw(st.integers(1, 9))}"], "vertex count must be non-negative"
    if kind == "field-count":
        rest = draw(st.lists(_LATER_FIELDS, max_size=3).filter(lambda r: len(r) != 1))
        return False, [draw(_FIELDS), *rest], "expected 'u v', got {1!r}"
    if kind == "non-ascii":
        fields = [draw(_INTS), draw(_INTS)]
        at = draw(st.integers(0, 1))
        fields[at] = fields[at].translate(draw(_NON_ASCII_DIGITS))
        return False, fields, "non-integer endpoint in {1!r}"
    fields = [draw(_FIELDS), draw(_LATER_FIELDS)]
    assume(not all(f.isdecimal() for f in fields))
    return False, fields, "non-integer endpoint in {1!r}"


# lines that read as nothing
_NOISE = ["", "  ", "\t", "# a comment", "#0 1", "# 5", " \t# 1 2 3"]


@seed(1)
@settings(max_examples=30, deadline=None)
@given(st.data(), _malformed_line(), st.integers(0, 2**32))
def test_edgelist_one_malformed_line_in_a_large_text(large_graphs, data, malformed, noise_seed):
    """One malformed line among noise, tabs and CRLF endings in a large
    edge list is named by its message and its 1-based line number."""
    stands_for_header, fields, message = malformed
    header, *edges = emit_edgelist(data.draw(st.sampled_from(large_graphs))[1]).splitlines()
    # the bad line takes the header's place or goes in before rows[at],
    # the closing None included
    rows = [None if stands_for_header else header, *edges, None]
    at = 0 if stands_for_header else data.draw(st.integers(1, len(edges) + 1))
    rng = random.Random(noise_seed)
    lines: list[str] = []
    for i, row in enumerate(rows):
        while rng.random() < 0.05:
            lines.append(rng.choice(_NOISE))
        if i == at:
            body = rng.choice([" ", "\t", " \t "]).join(fields)
            lines.append(rng.choice(["", " ", "\t"]) + body + rng.choice(["", "  "]))
            bad_line, expected = len(lines), message.format(fields[0], body)
        if row is not None:
            lines.append(row.replace(" ", rng.choice([" ", "\t"])))
    text = "".join(line + rng.choice(["\n", "\r\n"]) for line in lines)
    with pytest.raises(MalformedInputError) as caught:
        parse_edgelist(text)
    assert str(caught.value) == f"{expected} (line {bad_line})"
    assert caught.value.line == bad_line


def test_graph6_k4():
    # "C~" is the standard graph6 encoding of the 4-clique
    g = parse_graph6("C~")
    assert g.n == 4 and g.size == 6
    assert g.edge_list() == [(u, v) for u in range(4) for v in range(u + 1, 4)]
    assert emit_graph6(g) == "C~"


def test_graph6_header_tolerated():
    assert parse_graph6(">>graph6<<C~").n == 4


@pytest.mark.parametrize("text", ["Cé", "C\udce9"], ids=["non-ascii", "lone-surrogate"])
def test_graph6_rejects_characters_outside_its_range(text):
    with pytest.raises(MalformedInputError):
        parse_graph6(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty graph6 string"),
        ("~??", "truncated graph6 vertex count"),
        ("~~???", "truncated graph6 vertex count"),
        ("C~~", "graph6 body has 2 bytes, expected 1 for n=4"),
    ],
    ids=["empty", "4-byte-header", "8-byte-header", "body-length"],
)
def test_graph6_malformed_messages(text, message):
    with pytest.raises(MalformedInputError, match=f"^{message}$"):
        parse_graph6(text)


@pytest.mark.parametrize("text", ["~??A?", "~~?????A?"], ids=["4-byte-header", "8-byte-header"])
def test_graph6_long_headers_decode(text):
    """n = 2 in the 4- and 8-byte forms of the header, no edge."""
    assert parse_graph6(text) == MultiGraph(2)


def test_graph6_refuses_a_graph_over_the_limit_before_allocating():
    """The line of n vertices holds n(n-1)/12 bytes, 22 MB at the limit."""
    with pytest.raises(ClawcolorError) as exc:
        emit_graph6(MultiGraph(GRAPH6_MAX_N + 1, []))
    assert type(exc.value) is ClawcolorError
    assert str(exc.value) == (
        f"graph6 output holds at most {GRAPH6_MAX_N} vertices; the graph has "
        f"{GRAPH6_MAX_N + 1}; write it as an edge list"
    )
    with pytest.raises(ClawcolorError, match="the graph has 258048;"):
        emit_graph6(MultiGraph(258_048, []))


def test_graph6_rejects_multigraph():
    with pytest.raises(Graph6MultiedgeError):
        emit_graph6(MultiGraph(2, [(0, 1), (0, 1)]))


def test_graph6_fixtures_cross_checked_against_reference_decoder():
    for name, g in fixtures().items():
        if not g.is_simple():
            continue
        s = emit_graph6(g)
        n, edges = ref_graph6_decode(s)
        assert n == g.n
        assert edges == set(g.edge_list())


def test_graph6_against_networkx_if_available():
    nx = pytest.importorskip("networkx")
    for name, g in fixtures().items():
        if not g.is_simple():
            continue
        ref = nx.from_graph6_bytes(emit_graph6(g).encode("ascii"))
        assert set(ref.nodes) == set(range(g.n))
        assert {tuple(sorted(e)) for e in ref.edges} == set(g.edge_list())


simple_graphs = st.integers(min_value=1, max_value=70).flatmap(
    lambda n: st.builds(
        lambda pairs: MultiGraph(n, pairs),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            .filter(lambda e: e[0] != e[1])
            .map(lambda e: (min(e), max(e))),
            unique=True,
            max_size=60,
        ),
    )
)


@given(simple_graphs)
def test_graph6_round_trip(g):
    s = emit_graph6(g)
    assert parse_graph6(s) == g
    n, edges = ref_graph6_decode(s)
    assert n == g.n and edges == set(g.edge_list())


@given(simple_graphs)
def test_edgelist_round_trip_property(g):
    assert parse_edgelist(emit_edgelist(g)) == g
