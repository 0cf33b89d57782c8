import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import clawcolor.cli
import clawcolor.generators
from clawcolor import (
    MultiGraph,
    PackingColoring,
    SPackingSpec,
    color_claw_free_cubic,
    emit_edgelist,
    emit_graph6,
    fixtures,
    gen_ring_of_diamonds,
    parse_coloring_lines,
    verify,
)
from clawcolor.cli import build_parser, main
from clawcolor.errors import (
    InternalInvariantError,
    MalformedInputError,
    NotClawFreeError,
    NotCubicError,
    VerificationFailedError,
)
from clawcolor.oracle import DEFAULT_SOLVER_CAP, Violation


@pytest.fixture(scope="module")
def fixture_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("graphs")
    paths = {}
    for name, g in fixtures().items():
        p = root / f"{name}.el"
        p.write_text(emit_edgelist(g))
        paths[name] = str(p)
    return paths


def test_color_bridged_star(fixture_files, capsys):
    code = main(["color", fixture_files["bridged_star"]])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip().endswith("VERIFIED")
    assert len([ln for ln in out.splitlines() if ln and ln != "VERIFIED"]) == 24


def test_color_petersen_exit2(fixture_files, capsys):
    code = main(["color", fixture_files["petersen"]])
    err = capsys.readouterr().err
    assert code == 2
    assert "not-claw-free" in err and "witness" in err


def test_color_malformed_exit1(tmp_path, capsys):
    p = tmp_path / "bad.el"
    p.write_text("not a graph\n")
    assert main(["color", str(p)]) == 1


def test_color_missing_file_exit1(capsys):
    assert main(["color", "/nonexistent/file.el"]) == 1


@pytest.mark.parametrize("name", ["missing.g6", "empty.g6"])
def test_color_graph6_file_missing_or_empty_is_an_io_error(tmp_path, capsys, name):
    (tmp_path / "empty.g6").write_text("")
    path = str(tmp_path / name)
    message = (
        f"[Errno 2] No such file or directory: {path!r}" if name == "missing.g6"
        else "empty graph6 string"
    )
    assert main(["color", path]) == 1
    assert capsys.readouterr() == ("", f"{path}: error (io): {message}\n")
    assert main(["color", "--json", path]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report == {"error": {"kind": "io", "message": message}, "exit": 1,
                      "input": path, "outcome": "error"}


def test_color_json_report(fixture_files, capsys):
    code = main(["color", "--json", fixture_files["prism"]])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["outcome"] == "colored"
    assert report["verified"] is True
    assert set(report["coloring"]) == {str(v) for v in range(6)}


def test_color_multiple_files_with_jobs(fixture_files, capsys):
    code = main(["color", "--jobs", "2", fixture_files["k4"], fixture_files["prism"]])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("VERIFIED") == 2


def test_jobs_never_asks_for_more_workers_than_files_or_cpus(
    fixture_files, capsys, monkeypatch
):
    import concurrent.futures
    import os

    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    paths = [fixture_files[name] for name in ("k4", "prism", "bridged_star")]
    assert main(["color", "--jobs", "100000", *paths]) == 0
    assert main(["color", "--jobs", "2", *paths]) == 0
    assert capsys.readouterr().out.count("VERIFIED") == 6
    cpus = os.cpu_count() or 1
    assert asked == [min(3, cpus), min(2, cpus)]


def test_color_null_graph_is_a_precondition_error(tmp_path, capsys):
    p = tmp_path / "null.el"
    p.write_text("0\n")
    assert main(["color", "--json", str(p)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == {"kind": "precondition", "message": "input graph has no vertices"}


def json_reports(text):
    """The concatenated JSON reports `color --json` prints, in order."""
    decoder = json.JSONDecoder()
    reports, at = [], 0
    while text[at:].strip():
        at += len(text[at:]) - len(text[at:].lstrip())
        report, at = decoder.raw_decode(text, at)
        reports.append(report)
    return reports


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize(
    "crash, message",
    [
        (VerificationFailedError([Violation(2, "2a", (0, 3), 2)]), "VerificationFailedError: coloring verification failed"),
        (ZeroDivisionError("division by zero"), "ZeroDivisionError: division by zero"),
    ],
    ids=["invariant", "foreign"],
)
def test_color_bug_is_internal_exit5_and_batch_continues(
    fixture_files, capsys, monkeypatch, jobs, crash, message
):
    def crash_on_prism(g):
        if g.n == 6:
            raise crash
        return color_claw_free_cubic(g)

    monkeypatch.setattr(clawcolor.cli, "color_claw_free_cubic", crash_on_prism)
    paths = [fixture_files["k4"], fixture_files["prism"], fixture_files["bridged_star"]]
    assert main(["color", "--json", "--jobs", jobs, *paths]) == 5
    k4, prism, star = json_reports(capsys.readouterr().out)
    assert k4["outcome"] == star["outcome"] == "colored"
    assert k4["exit"] == star["exit"] == 0
    assert prism["outcome"] == "error" and prism["exit"] == 5
    assert prism["error"]["kind"] == "internal"
    assert prism["error"]["message"].startswith(message)
    assert "crash_on_prism" in prism["error"]["traceback"]


def test_color_bug_text_mode_names_internal(fixture_files, capsys, monkeypatch):
    def crash(g):
        raise KeyError(7)

    monkeypatch.setattr(clawcolor.cli, "color_claw_free_cubic", crash)
    assert main(["color", fixture_files["k4"]]) == 5
    assert "error (internal): KeyError: 7" in capsys.readouterr().err


def test_color_rejects_huge_header_before_building(tmp_path, capsys):
    p = tmp_path / "huge.el"
    p.write_text("1000000000000\n")
    assert main(["color", "--json", str(p)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["outcome"] == "error" and report["exit"] == 2
    assert report["error"]["kind"] == "precondition"
    assert "3n/2" in report["error"]["message"]
    assert "n" not in report


def test_color_rejects_edge_count_mismatch(tmp_path, capsys):
    p = tmp_path / "k4_minus_edge.el"
    p.write_text("4\n0 1\n0 2\n0 3\n1 2\n1 3\n")
    assert main(["color", str(p)]) == 2
    assert "error (precondition)" in capsys.readouterr().err


def test_non_cubic_graphs_still_accepted_outside_color(tmp_path, capsys):
    p = tmp_path / "path.el"
    p.write_text("3\n0 1\n1 2\n")
    assert main(["solve", str(p)]) == 0
    assert capsys.readouterr().out.strip().endswith("SAT")
    c = tmp_path / "path.col"
    c.write_text("0 1a\n1 1b\n2 2a\n")
    assert main(["verify", str(p), str(c)]) == 0
    assert capsys.readouterr().out.strip() == "OK"
    # decompose parses it and rejects it later, in structure recognition
    assert main(["decompose", str(p)]) == 2
    assert "3n/2" not in capsys.readouterr().err


def test_solve_petersen_unsat(fixture_files, capsys):
    code = main(["solve", fixture_files["petersen"], "--spec", "1,1,2,2"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "UNSAT"


def test_solve_k4_sat(fixture_files, capsys):
    code = main(["solve", fixture_files["k4"], "--spec", "1,1,2,2"])
    assert code == 0
    assert capsys.readouterr().out.strip().endswith("SAT")


def test_solve_k4_single_class_unsat(fixture_files, capsys):
    code = main(["solve", fixture_files["k4"], "--spec", "1"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "UNSAT"


def test_solve_on_the_empty_graph_prints_sat_alone(tmp_path, capsys):
    """The graph on no vertices has the empty coloring, which has no line."""
    p = tmp_path / "empty.el"
    p.write_text("0\n")
    assert main(["solve", str(p)]) == 0
    assert capsys.readouterr().out == "SAT\n"


def test_solve_cap_exit3(fixture_files, capsys):
    assert main(["solve", fixture_files["big_expansion"], "--cap", "10"]) == 3


def test_solve_checks_the_cap_before_building(tmp_path, capsys):
    """A header of 10^6 vertices over --cap exits 3 without building the graph."""
    p = tmp_path / "huge.el"
    p.write_text("1000000\n")
    tracemalloc.start()
    try:
        code = main(["solve", str(p)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert capsys.readouterr().err == (
        f"error: instance has 1000000 vertices, solver cap is {DEFAULT_SOLVER_CAP}\n"
    )
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "command, code, message",
    [
        pytest.param("decompose", 2, "input graph is disconnected", id="decompose"),
        pytest.param("verify", 1, "graph has 1000000 vertices, coloring has 0", id="verify"),
    ],
)
def test_a_header_past_what_the_text_allows_fails_before_building(
    tmp_path, capsys, command, code, message
):
    """A header of 10^6 vertices alone in its file fails without building the graph.

    `decompose` bounds n by the line count, since a connected graph on n
    vertices has at least n - 1 edges.  `verify` bounds it by the
    coloring's size, since every vertex must be colored.
    """
    p = tmp_path / "huge.el"
    p.write_text("1000000\n")
    c = tmp_path / "empty.col"
    c.write_text("")
    argv = [command, str(p)] + ([str(c)] if command == "verify" else [])
    tracemalloc.start()
    try:
        exit_code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exit_code == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "witness, message",
    [
        (lambda n: dict.fromkeys(range(n), 0), "VerificationFailedError: coloring verification"),
        (lambda n: dict.fromkeys(range(n - 1), 0),
         "InternalInvariantError: coloring domain mismatch on 1 vertices, e.g. [3]"),
        (lambda n: dict.fromkeys(range(n), 4),
         "InternalInvariantError: vertex 0 has class 4, outside the spec's 4 classes"),
    ],
    ids=["one_class", "missing_vertex", "class_outside_spec"],
)
def test_solve_certifies_its_witness(fixture_files, capsys, monkeypatch, witness, message):
    """A witness the solver got wrong is a bug, exit 5, however it is wrong:
    a violation, a vertex it misses or a class the spec lacks."""
    monkeypatch.setattr(
        clawcolor.cli, "solve_spacking", lambda g, spec, cap: PackingColoring(spec, witness(g.n))
    )
    assert main(["solve", fixture_files["k4"]]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error (internal): {message}")


def test_solve_long_path_needs_no_deep_recursion(tmp_path, capsys):
    """1,200 search levels: past the interpreter's default recursion limit."""
    path = MultiGraph(1200, [(v, v + 1) for v in range(1199)])
    p = tmp_path / "path.el"
    p.write_text(emit_edgelist(path))
    assert main(["solve", str(p), "--spec", "1,1", "--cap", "5000"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("SAT\n")
    spec = SPackingSpec((1, 1))
    assert verify(path, spec, parse_coloring_lines(out.removesuffix("SAT\n"), spec)) == []


def test_solve_cap_default_is_the_solver_default():
    assert build_parser().parse_args(["solve", "g.el"]).cap == DEFAULT_SOLVER_CAP


@pytest.mark.parametrize("command", ["solve", "verify", "decompose"])
def test_graph_file_not_utf8_is_io_error(tmp_path, capsys, command):
    p = tmp_path / "bom.el"
    p.write_bytes(b"\xff\xfe4\n0 1\n")
    c = tmp_path / "k4.col"
    c.write_text("0 1a\n1 1b\n2 2a\n3 2b\n")
    argv = [command, str(p)] + ([str(c)] if command == "verify" else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_verify_round_trip(fixture_files, tmp_path, capsys):
    code = main(["color", fixture_files["big_expansion"]])
    out = capsys.readouterr().out
    assert code == 0
    coloring_text = "\n".join(
        ln for ln in out.splitlines() if ln and ln != "VERIFIED"
    )
    cpath = tmp_path / "coloring.txt"
    cpath.write_text(coloring_text + "\n")
    assert main(["verify", fixture_files["big_expansion"], str(cpath)]) == 0
    assert capsys.readouterr().out.strip() == "OK"


def test_verify_detects_swap(fixture_files, tmp_path, capsys):
    code = main(["color", fixture_files["big_expansion"]])
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln and ln != "VERIFIED"]
    # force a collision: recolor some vertex into the other radius-2 class
    heavy = [i for i, ln in enumerate(lines) if ln.endswith("2a")]
    v, _ = lines[heavy[0]].split()
    lines[heavy[0]] = f"{v} 2b"
    cpath = tmp_path / "bad.txt"
    cpath.write_text("\n".join(lines) + "\n")
    code = main(["verify", fixture_files["big_expansion"], str(cpath)])
    out = capsys.readouterr().out
    assert code == 4
    assert "violation" in out


def test_verify_partial_exit1(fixture_files, tmp_path, capsys):
    cpath = tmp_path / "partial.txt"
    cpath.write_text("0 1a\n1 1b\n")
    assert main(["verify", fixture_files["k4"], str(cpath)]) == 1


def test_verify_coloring_outside_the_graph_exit1(fixture_files, tmp_path, capsys):
    cpath = tmp_path / "extra.txt"
    cpath.write_text("0 1a\n1 1b\n2 2a\n3 2b\n9 1a\n")
    assert main(["verify", fixture_files["k4"], str(cpath)]) == 1
    assert capsys.readouterr().err == "error: coloring domain mismatch on 1 vertices, e.g. [9]\n"


def test_color_multigraph_is_a_precondition_error(fixture_files, capsys):
    assert main(["color", "--json", fixture_files["h10"]]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == {"kind": "precondition", "message": "input must be a simple graph"}


def test_generate_ring(tmp_path, capsys):
    out = tmp_path / "ring.el"
    assert main(["generate", "ring", "--k", "4", "-o", str(out)]) == 0
    text = out.read_text()
    assert text.splitlines()[0] == "16"
    assert main(["color", str(out)]) == 0


def test_generate_bridged_and_color(tmp_path, capsys):
    out = tmp_path / "b.el"
    code = main(
        ["generate", "bridged", "--tree", "k3:3,type3:1,type3:1,type3:1",
         "--seed", "3", "-o", str(out)]
    )
    assert code == 0
    assert main(["color", str(out)]) == 0


def test_generate_infeasible_exit2(capsys):
    assert main(["generate", "bridged", "--tree", "diamond:2,diamond:2,diamond:2"]) == 2


def test_generate_negative_string_length_exit2(capsys):
    assert main(["generate", "expansion", "--n", "4", "--max-string", "-1"]) == 2
    assert capsys.readouterr().err == "error: string lengths must be non-negative\n"


_CORES = {
    "color": "color_claw_free_cubic",
    "solve": "solve_spacking",
    "verify": "verify",
    "decompose": "decompose",
    "generate": "gen_ring_of_diamonds",
}
_CRASHES = [  # (exception, exit code, error kind)
    (IndexError("list index out of range"), 5, "internal"),
    (InternalInvariantError("boom"), 5, "internal"),
    (NotCubicError("boom"), 2, "precondition"),
    (OSError("boom"), 1, "io"),
]


def _exit_matrix():
    """Every command's core crossed with each crash.

    An IndexError case's id names only the command and its core.  The extra
    rows: a ValueError in `verify`'s core is a bug, a parse error
    from `decompose`'s core an I/O error, and `generate` writing into a
    missing directory (nothing patched) an I/O error.
    """
    for command, core in _CORES.items():
        for crash, code, kind in _CRASHES:
            name = "" if isinstance(crash, IndexError) else f"-{type(crash).__name__}"
            yield pytest.param(command, core, crash, code, kind, id=f"{command}-{core}{name}")
    yield pytest.param("verify", "verify", ValueError("boom"), 5, "internal",
                       id="verify-verify-ValueError")
    yield pytest.param("decompose", "decompose", MalformedInputError("boom"), 1, "io",
                       id="decompose-decompose-MalformedInputError")
    yield pytest.param("generate", None, None, 1, "io", id="generate-missing-directory")


@pytest.mark.parametrize("command, core, crash, code, kind", _exit_matrix())
def test_a_bug_in_any_command_is_internal_exit5(
    fixture_files, tmp_path, capsys, monkeypatch, command, core, crash, code, kind
):
    """One exit-code table: a bug exits 5, an input or I/O error keeps its code."""
    def raise_crash(*args, **kwargs):
        raise crash

    if core is not None:
        # `generate` imports its generators when it runs
        module = clawcolor.generators if command == "generate" else clawcolor.cli
        monkeypatch.setattr(module, core, raise_crash)
    k4 = fixture_files["k4"]
    coloring = tmp_path / "k4.col"
    coloring.write_text("0 1a\n1 1b\n2 2a\n3 2b\n")
    output = tmp_path / "missing" / "ring.el"
    argv = {
        "color": ["color", k4],
        "solve": ["solve", k4],
        "verify": ["verify", k4, str(coloring)],
        "decompose": ["decompose", k4],
        "generate": ["generate", "ring", "-o", str(output)],
    }[command]
    if crash is None:
        message = f"[Errno 2] No such file or directory: {str(output)!r}"
    elif code == 5:
        message = f"{type(crash).__name__}: {crash}"
    else:
        message = str(crash)
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    if command == "color":
        assert captured.err == f"{k4}: error ({kind}): {message}\n"
        assert main(["color", "--json", k4]) == code
        report = json.loads(capsys.readouterr().out)
        assert (report["exit"], report["error"]["kind"]) == (code, kind)
    elif code == 5:
        assert captured.err == f"error (internal): {message}\n"
    else:
        assert captured.err == f"error: {message}\n"


def test_generate_multigraph_as_graph6_is_a_precondition_error(capsys):
    # seed 1 draws a multigraph with parallel edges, which graph6 cannot hold
    assert main(["generate", "multigraph", "--n", "4", "--seed", "1", "--graph6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: graph has parallel edges; graph6 is simple-only\n"


def test_generate_a_graph_too_large_for_graph6_is_a_precondition_error(capsys):
    # a ring of 4,097 diamonds has 16,388 vertices, past GRAPH6_MAX_N
    assert main(["generate", "ring", "--k", "4097", "--graph6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: graph6 output holds at most 16384 vertices; the graph has 16388; "
        "write it as an edge list\n"
    )


def test_generate_bad_tree_spec_exit2(capsys):
    assert main(["generate", "bridged", "--tree", "k3"]) == 2
    assert capsys.readouterr().err == "error: bad component spec 'k3', want kind:attachments\n"
    assert main(["generate", "bridged", "--tree", "k3:x"]) == 2
    assert capsys.readouterr().err == "error: bad attachment count in 'k3:x'\n"
    # an attachment count is an optional '-' and ASCII digits
    for part in ("k3:+3", "type3:1_0", "k3:\u0663", "k3:\uff13"):
        assert main(["generate", "bridged", "--tree", f"{part},type3:1"]) == 2
        assert capsys.readouterr().err == f"error: bad attachment count in {part!r}\n"
    assert main(["generate", "bridged", "--tree", "k3:" + "9" * 5000]) == 2
    assert capsys.readouterr().err == (
        f"error: attachment count {'9' * 20}... (5000 digits) out of range\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "k4", "--spec", "x"], "bad spec 'x': invalid literal for int() with base 10: 'x'"),
        (["solve", "k4", "--spec", "0,1"], "bad spec '0,1': radii must be positive"),
        (["verify", "k4", "k4", "--spec", "2,1"], "bad spec '2,1': radii must be non-decreasing"),
        (["solve", "k4", "--spec", " +1,1,2,2"],
         "bad spec ' +1,1,2,2': invalid literal for int() with base 10: ' +1'"),
        (["solve", "k4", "--spec", "1,1,2_2"],
         "bad spec '1,1,2_2': invalid literal for int() with base 10: '2_2'"),
        (["solve", "k4", "--spec", "1,1,\u0662,2"],
         "bad spec '1,1,\u0662,2': invalid literal for int() with base 10: '\u0662'"),
        (["solve", "k4", "--spec", "1,1,2,\uff12"],
         "bad spec '1,1,2,\uff12': invalid literal for int() with base 10: '\uff12'"),
        (["solve", "k4", "--spec", "1,1,2," + "9" * 5000],
         f"bad spec: radius {'9' * 20}... (5000 digits) out of range"),
    ],
    ids=["solve-not-an-int", "solve-zero-radius", "verify-decreasing", "solve-plus-radius",
         "solve-underscore-radius", "solve-arabic-indic-radius", "solve-full-width-radius",
         "solve-5000-digit-radius"],
)
def test_malformed_spec_exit2(fixture_files, capsys, argv, message):
    """A bad --spec is a bad option value, exit 2 like a bad --tree."""
    argv = [fixture_files.get(a, a) for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_verify_bad_coloring_line_is_a_parse_error(fixture_files, tmp_path, capsys):
    cpath = tmp_path / "bad.col"
    cpath.write_text("0 1a\nx 1b\n")
    assert main(["verify", fixture_files["k4"], str(cpath)]) == 1
    assert capsys.readouterr().err == "error: line 2: bad vertex 'x'\n"
    with pytest.raises(MalformedInputError, match="^line 2: bad vertex 'x'$"):
        parse_coloring_lines(cpath.read_text(), SPackingSpec((1, 1, 2, 2)))


@pytest.mark.parametrize(
    "text, code, out, err",
    [
        ("0 1a\n1 1b\n2 2a 3\n", 1, "", "error: line 3: expected 'vertex label', got '2 2a 3'\n"),
        ("0 1a\n1 1b\n2 2c\n3 2b\n", 1, "", "error: line 3: unknown label '2c'\n"),
        ("# a comment\n\n0 1a\n1 1b\n   \n2 2a\n# another\n3 2b\n", 0, "OK\n", ""),
        ("0 2b\n0 1a\n1 1b\n2 2a\n3 2b\n", 1, "", "error: line 2: vertex 0 listed twice\n"),
        ("0 1a\n+1 1b\n2 2a\n3 2b\n", 1, "", "error: line 2: bad vertex '+1'\n"),
        ("0 1a\n1 1b\n2 2a\n0_3 2b\n", 1, "", "error: line 4: bad vertex '0_3'\n"),
        ("\u0660 1a\n1 1b\n2 2a\n3 2b\n", 1, "", "error: line 1: bad vertex '\u0660'\n"),
        ("0 1a\n1 1b\n\uff12 2a\n3 2b\n", 1, "", "error: line 3: bad vertex '\uff12'\n"),
        ("0 1a\n" + "9" * 5000 + " 1b\n2 2a\n3 2b\n", 1, "",
         f"error: line 2: vertex {'9' * 20}... (5000 digits) out of range\n"),
    ],
    ids=["three-fields", "unknown-label", "comments-and-blanks", "vertex-listed-twice",
         "plus-vertex", "underscore-vertex", "arabic-indic-vertex", "full-width-vertex",
         "5000-digit-vertex"],
)
def test_verify_coloring_lines(fixture_files, tmp_path, capsys, text, code, out, err):
    cpath = tmp_path / "k4.col"
    cpath.write_text(text)
    assert main(["verify", fixture_files["k4"], str(cpath)]) == code
    assert capsys.readouterr() == (out, err)
    if code == 1:
        with pytest.raises(MalformedInputError, match=f"^{re.escape(err.removeprefix('error: ').rstrip())}$"):
            parse_coloring_lines(text, SPackingSpec((1, 1, 2, 2)))


def test_generate_writes_to_stdout_when_run_as_a_module(monkeypatch, capsys):
    """`python -m clawcolor.cli generate` with no -o prints the edge list."""
    import runpy

    monkeypatch.delitem(sys.modules, "clawcolor.cli")  # run the module afresh, as -m does
    monkeypatch.setattr(sys, "argv", ["clawcolor", "generate", "ring", "--k", "2"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("clawcolor.cli", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out == emit_edgelist(gen_ring_of_diamonds(2))


@pytest.mark.parametrize(
    "tree, shape",
    [
        ("type3:1,type3:1", "K_2 (root component 0)"),
        ("type3:1,diamond:2,diamond:2,type3:1", "P_4 (root component 0)"),
        ("k3:3,type3:2,type3:1,type3:1,type3:1",
         "tree on 5 nodes, degrees [1, 1, 1, 2, 3] (root component 2)"),
    ],
    ids=["K2", "P4", "tree"],
)
def test_decompose_names_the_bridge_tree_shape(tmp_path, capsys, tree, shape):
    path = str(tmp_path / "g.el")
    assert main(["generate", "bridged", "--tree", tree, "--seed", "1", "-o", path]) == 0
    assert main(["decompose", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == f"bridge tree: {shape}"
    assert len(lines) == 2 + len(tree.split(","))


def test_decompose_big_expansion(fixture_files, capsys):
    assert main(["decompose", fixture_files["big_expansion"]]) == 0
    out = capsys.readouterr().out
    assert "built from H with 6 vertices" in out
    assert "1 parallel pair" in out
    assert "[2, 2]" in out


def test_decompose_bridged_star(fixture_files, capsys):
    assert main(["decompose", fixture_files["bridged_star"]]) == 0
    out = capsys.readouterr().out
    assert "bridges: 3" in out
    assert "K_{1,3}" in out
    assert out.count("TypeIII") == 3
    assert out.count("K3,") == 1


def test_decompose_ring(tmp_path, capsys):
    out = tmp_path / "ring.el"
    main(["generate", "ring", "--k", "5", "-o", str(out)])
    capsys.readouterr()
    assert main(["decompose", str(out)]) == 0
    assert "ring of 5 diamonds" in capsys.readouterr().out


def test_stdin_input(fixture_files, capsys, monkeypatch):
    import io

    with open(fixture_files["k4"]) as fh:
        text = fh.read()
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["color", "-"]) == 0
    assert "VERIFIED" in capsys.readouterr().out


def test_graph6_input(tmp_path, capsys):
    p = tmp_path / "k4.g6"
    p.write_text("C~\n")
    assert main(["color", str(p)]) == 0
    assert "VERIFIED" in capsys.readouterr().out


@pytest.fixture
def multi_g6(tmp_path):
    """K4, a blank line, the prism, a bad line and Petersen, one per line."""
    fx = fixtures()
    p = tmp_path / "batch.g6"
    p.write_text(f"C~\n\n{emit_graph6(fx['prism'])}\n!!\n{emit_graph6(fx['petersen'])}\n")
    return str(p)


def test_color_graph6_file_colors_every_line(multi_g6, capsys):
    assert main(["color", "--json", multi_g6]) == 2
    reports = json_reports(capsys.readouterr().out)
    assert [r["input"] for r in reports] == [f"{multi_g6}:{i}" for i in (1, 3, 4, 5)]
    k4, prism, bad, petersen = reports
    assert k4["outcome"] == prism["outcome"] == "colored"
    assert (k4["n"], prism["n"]) == (4, 6)
    assert bad["exit"] == 1 and bad["error"]["kind"] == "io"
    assert petersen["exit"] == 2 and petersen["error"]["kind"] == "not-claw-free"


def test_color_graph6_lines_text_mode(multi_g6, capsys):
    assert main(["color", multi_g6]) == 2
    captured = capsys.readouterr()
    assert f"# {multi_g6}:1" in captured.out and f"# {multi_g6}:3" in captured.out
    assert captured.out.count("VERIFIED") == 2
    assert f"{multi_g6}:4: error (io)" in captured.err
    assert f"{multi_g6}:5: error (not-claw-free)" in captured.err


def test_color_non_ascii_graph6_is_an_io_error(tmp_path, capsys):
    p = tmp_path / "x.g6"
    p.write_text("Cé\n", encoding="utf-8")
    assert main(["color", "--json", str(p)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["error"]["kind"] == "io"
    assert report["exit"] == 1


@pytest.mark.parametrize("command", ["solve", "decompose"])
def test_non_ascii_graph6_is_an_io_error(tmp_path, capsys, command):
    p = tmp_path / "x.g6"
    p.write_text("Cé\n", encoding="utf-8")
    assert main([command, str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["solve", "verify", "decompose"])
def test_single_graph_commands_reject_multi_graph6(tmp_path, capsys, command):
    p = tmp_path / "two.g6"
    p.write_text("C~\nC~\n")
    c = tmp_path / "k4.col"
    c.write_text("0 1a\n1 1b\n2 2a\n3 2b\n")
    argv = [command, str(p)] + ([str(c)] if command == "verify" else [])
    assert main(argv) == 1
    assert "holds 2 graph6 graphs" in capsys.readouterr().err
    # one graph in the same format is still accepted
    p.write_text("C~\n")
    assert main(argv) == 0


_TWO_K4 = "8\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n4 5\n4 6\n4 7\n5 6\n5 7\n6 7\n"
_C5 = "5\n0 1\n1 2\n2 3\n3 4\n4 0\n"


@pytest.mark.parametrize(
    "source, message",
    [
        pytest.param(_TWO_K4, "input graph is disconnected", id="disconnected"),
        pytest.param("h10", "input must be a simple graph", id="non-simple"),
        pytest.param(_C5, "input graph is not cubic", id="non-cubic"),
        pytest.param("petersen", "claw with center 0 and leaves 1, 4, 5", id="petersen"),
    ],
)
def test_decompose_rejections_pin_exit_and_message(
    fixture_files, tmp_path, capsys, source, message
):
    path = fixture_files.get(source)
    if path is None:
        path = tmp_path / "graph.el"
        path.write_text(source)
    assert main(["decompose", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("name", ["bridged_star", "big_expansion", "k4"])
def test_decompose_validates_once(fixture_files, capsys, monkeypatch, name):
    import clawcolor.recognition as recognition

    g = fixtures()[name]
    searched, scanned = [], []
    bridges, local_scan = recognition._bridges, recognition._local_scan
    monkeypatch.setattr(
        recognition, "_bridges", lambda n, ends: searched.append(n) or bridges(n, ends)
    )
    monkeypatch.setattr(recognition, "_local_scan", lambda h: scanned.append(h) or local_scan(h))
    assert main(["decompose", fixture_files[name]]) == 0
    # one local scan of the input and one bridge search of its H (none for K4)
    triangles = len(local_scan(g).triangles)
    assert searched == ([] if name == "k4" else [triangles])
    assert all(n != g.n for n in searched)
    assert scanned == [g]


# `color` stdout as the batch-at-once printer wrote it, pinned byte for byte.
_K4_OUT = "0 1a\n1 1b\n2 2a\n3 2b\nVERIFIED\n"
_PRISM_OUT = "0 2a\n1 1b\n2 1a\n3 2b\n4 1a\n5 1b\nVERIFIED\n"
_K4_PRISM_OUT = "# k4.el\n" + _K4_OUT + "# prism.el\n" + _PRISM_OUT
_K4_PRISM_JSON = """\
{
  "coloring": {
    "0": "1a",
    "1": "1b",
    "2": "2a",
    "3": "2b"
  },
  "elapsed_s": 0,
  "exit": 0,
  "input": "k4.el",
  "n": 4,
  "outcome": "colored",
  "verified": true
}
{
  "coloring": {
    "0": "2a",
    "1": "1b",
    "2": "1a",
    "3": "2b",
    "4": "1a",
    "5": "1b"
  },
  "elapsed_s": 0,
  "exit": 0,
  "input": "prism.el",
  "n": 6,
  "outcome": "colored",
  "verified": true
}
"""


@pytest.fixture
def batch_dir(tmp_path, monkeypatch):
    """K4, the prism and Petersen as edge lists; K4 alone and K4, prism, K4 as graph6."""
    fx = fixtures()
    for name in ("k4", "prism", "petersen"):
        (tmp_path / f"{name}.el").write_text(emit_edgelist(fx[name]))
    (tmp_path / "k4.g6").write_text("C~\n")
    (tmp_path / "three.g6").write_text(f"C~\n{emit_graph6(fx['prism'])}\nC~\n")
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize(
    "argv, code, out",
    [
        (["k4.el"], 0, _K4_OUT),
        (["k4.el", "prism.el"], 0, _K4_PRISM_OUT),
        (["k4.g6"], 0, _K4_OUT),
        (
            ["three.g6"],
            0,
            "# three.g6:1\n" + _K4_OUT + "# three.g6:2\n" + _PRISM_OUT + "# three.g6:3\n" + _K4_OUT,
        ),
        (["--jobs", "2", "k4.el", "prism.el"], 0, _K4_PRISM_OUT),
        (["k4.el", "petersen.el"], 2, "# k4.el\n" + _K4_OUT),
        (["--json", "k4.el", "prism.el"], 0, _K4_PRISM_JSON),
    ],
    ids=["one-file", "two-files", "one-graph-g6", "three-graph-g6", "jobs-2", "rejection", "json"],
)
def test_color_stdout_is_pinned(batch_dir, capsys, argv, code, out):
    assert main(["color", *argv]) == code
    printed = capsys.readouterr().out
    assert re.sub(r'"elapsed_s": [^,]+', '"elapsed_s": 0', printed) == out


def _expected_report(path: str, g: MultiGraph) -> dict:
    """The `color --json` report of `g` rebuilt from the library, `elapsed_s` masked."""
    report = {"input": path, "n": g.n, "outcome": "error", "exit": 2}
    try:
        coloring = color_claw_free_cubic(g)
    except NotClawFreeError as exc:
        report["error"] = {"kind": "not-claw-free", "message": str(exc), "witness": list(exc.witness)}
        return report
    labels = coloring.spec.labels()
    report.update(outcome="colored", exit=0, elapsed_s=0, verified=True,
                  coloring={str(v): labels[c] for v, c in coloring.assignment.items()})
    return report


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_color_json_is_the_stdlib_layout(
    named_fixtures, corpus, bridged_trees, tmp_path, capsys, monkeypatch, jobs
):
    """`color --json` writes each report as `json.dumps(report, indent=2,
    sort_keys=True)` does, where vertex ids sort as strings ("10" before
    "2"): the simple named fixtures, Petersen's witness included, golden
    inputs with n >= 11, and a bug's report with its traceback, on the prism."""
    graphs = [g for g in named_fixtures.values() if g.is_simple()]  # h10 is a multigraph
    graphs += [g for _, g in corpus[::25] if g.n >= 11] + [g for _, g in bridged_trees[3::5]]
    paths = []
    for i, g in enumerate(graphs):
        paths.append(str(tmp_path / f"{i}.el"))
        Path(paths[-1]).write_text(emit_edgelist(g))

    def crash_on_prism(g):
        if g.n == 6:
            raise ZeroDivisionError("division by zero")
        return color_claw_free_cubic(g)

    monkeypatch.setattr(clawcolor.cli, "color_claw_free_cubic", crash_on_prism)
    assert main(["color", "--json", "--jobs", jobs, *paths]) == 5
    printed = re.sub(r'"elapsed_s": [^,]+', '"elapsed_s": 0', capsys.readouterr().out)
    expected = [_expected_report(p, g) for p, g in zip(paths, graphs)]
    (crashed,) = [i for i, g in enumerate(graphs) if g.n == 6]
    traceback = json_reports(printed)[crashed]["error"]["traceback"]
    assert "crash_on_prism" in traceback
    expected[crashed] = {"input": paths[crashed], "n": 6, "outcome": "error", "exit": 5, "error": {
        "kind": "internal", "message": "ZeroDivisionError: division by zero", "traceback": traceback,
    }}
    assert any(g.n >= 11 for g in graphs) and any(r["outcome"] == "error" for r in expected)
    assert printed == "".join(json.dumps(r, indent=2, sort_keys=True) + "\n" for r in expected)


def test_color_prints_each_report_before_reading_the_next_file(batch_dir, capsys, monkeypatch):
    read = clawcolor.cli._read_text
    printed_before = {}

    def read_and_look(path):
        printed_before[path] = capsys.readouterr().out
        return read(path)

    monkeypatch.setattr(clawcolor.cli, "_read_text", read_and_look)
    assert main(["color", "k4.el", "prism.el"]) == 0
    assert printed_before == {"k4.el": "", "prism.el": "# k4.el\n" + _K4_OUT}
    assert capsys.readouterr().out == "# prism.el\n" + _PRISM_OUT


# where the prism's report starts in _K4_PRISM_JSON
_JSON_CUT = _K4_PRISM_JSON.index("}\n{") + 2


@pytest.mark.parametrize(
    "argv, out",
    [
        (["k4.el", "prism.el"], ["# k4.el\n" + _K4_OUT, "# prism.el\n" + _PRISM_OUT]),
        (["k4.el", "petersen.el"], ["# k4.el\n" + _K4_OUT]),
        (["--json", "k4.el", "prism.el"], [_K4_PRISM_JSON[:_JSON_CUT], _K4_PRISM_JSON[_JSON_CUT:]]),
    ],
    ids=["text", "rejection", "json"],
)
def test_color_writes_each_report_to_stdout_once(batch_dir, monkeypatch, argv, out):
    """One `sys.stdout.write` per report: unbuffered, each write is a system call."""
    writes = []

    class Recorder(io.StringIO):
        def write(self, text):
            writes.append(re.sub(r'"elapsed_s": [^,]+', '"elapsed_s": 0', text))
            return super().write(text)

    monkeypatch.setattr(sys, "stdout", Recorder())
    main(["color", *argv])
    assert writes == out


_STARTUP_PROBE = """
import sys, clawcolor.cli
heavy = ("dataclasses", "inspect", "traceback", "importlib.resources", "clawcolor.generators")
print([m for m in heavy if m in sys.modules])
print(sorted(clawcolor.fixtures()))
print("clawcolor.generators" in sys.modules)
"""


def test_startup_imports_no_heavy_stdlib_module():
    """`import clawcolor.cli` on a bare interpreter (`-S`, no site hooks)
    loads none of the modules only a bug report, `generate` or the
    fixtures need, and the fixtures, with the generators, still load once
    asked for."""
    src = str(Path(clawcolor.cli.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-S", "-c", _STARTUP_PROBE],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.splitlines() == [
        "[]",
        str(["big_expansion", "bridged_star", "h10", "k4", "petersen", "prism"]),
        "True",
    ]
