"""Command-line front-end.

`_EXITS` maps each exception that ends a command, or one input of a
`color` batch, to its exit code and error kind.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections.abc import Iterator
from itertools import chain, islice

from . import __version__
from .coloring import SPackingSpec, parse_coloring_lines
from .colorer import color_claw_free_cubic
from .errors import (
    CapExceededError,
    ClawcolorError,
    DisconnectedError,
    InfeasibleSpecError,
    InternalInvariantError,
    MalformedInputError,
    NotClawFreeError,
    NotCubicError,
    NotSimpleError,
    PartialColoringError,
)
from .formats import emit_edgelist, emit_graph6, parse_edgelist, parse_graph6, parse_int
from .multigraph import MultiGraph
from .oracle import DEFAULT_SOLVER_CAP, _certified, solve_spacking, verify
from .recognition import _DISCONNECTED, ComponentKind, Variant, decompose

EXIT_OK = 0
EXIT_IO = 1
EXIT_PRECONDITION = 2
EXIT_CAP = 3
EXIT_INVALID_COLORING = 4
EXIT_INTERNAL = 5

# (exit code, error kind) per exception class.  An exception takes the row of
# the first class in its MRO that has one, so the last row makes any other
# exception a bug.  A kind of None reports the class name.
_EXITS: dict[type, tuple[int, str | None]] = {
    OSError: (EXIT_IO, "io"),
    UnicodeDecodeError: (EXIT_IO, "io"),
    MalformedInputError: (EXIT_IO, "io"),
    PartialColoringError: (EXIT_IO, "io"),
    CapExceededError: (EXIT_CAP, None),
    NotClawFreeError: (EXIT_PRECONDITION, "not-claw-free"),
    NotCubicError: (EXIT_PRECONDITION, "precondition"),
    DisconnectedError: (EXIT_PRECONDITION, "precondition"),
    NotSimpleError: (EXIT_PRECONDITION, "precondition"),
    InternalInvariantError: (EXIT_INTERNAL, "internal"),
    ClawcolorError: (EXIT_PRECONDITION, None),
    Exception: (EXIT_INTERNAL, "internal"),
}


def _classify(exc: Exception) -> tuple[int, str, str]:
    """(exit code, error kind, message) for `exc`, from its row in `_EXITS`."""
    code, kind = next(_EXITS[cls] for cls in type(exc).__mro__ if cls in _EXITS)
    if code == EXIT_INTERNAL:
        return code, kind, f"{type(exc).__name__}: {exc}"
    return code, kind or type(exc).__name__, str(exc)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _is_graph6(path: str, fmt: str) -> bool:
    return fmt == "graph6" or (fmt == "auto" and path.endswith((".g6", ".graph6")))


def _graph6_lines(text: str) -> list[tuple[int, str]]:
    """(1-based line number, line) for each non-empty line: one graph each."""
    return [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]


def _load_graph(path: str, text: str, fmt: str, max_n: int | None = None) -> MultiGraph:
    """The one graph in `text`, read from `path`; several graph6 lines are rejected.

    An edge-list header above max_n raises CapExceededError before any
    adjacency is built.  A graph6 line spells out its whole adjacency
    matrix, so the text already bounds what it builds.
    """
    if not _is_graph6(path, fmt):
        return parse_edgelist(text, max_n=max_n)
    lines = _graph6_lines(text)
    if len(lines) > 1:
        raise MalformedInputError(
            f"{path} holds {len(lines)} graph6 graphs; this command takes one"
        )
    return parse_graph6(lines[0][1] if lines else "")


def _parse_spec(text: str) -> SPackingSpec:
    try:
        radii = tuple(parse_int(x) for x in text.split(","))
        return SPackingSpec(radii)
    except ValueError as exc:
        raise InfeasibleSpecError(f"bad spec {text!r}: {exc}") from exc
    except OverflowError as exc:
        raise InfeasibleSpecError(f"bad spec: radius {exc} out of range") from None


def _failed(report: dict, exc: Exception) -> dict:
    code, kind, message = _classify(exc)
    report["error"] = {"kind": kind, "message": message}
    if isinstance(exc, NotClawFreeError):
        report["error"]["witness"] = list(exc.witness)
    if code == EXIT_INTERNAL:
        import traceback

        report["error"]["traceback"] = "".join(traceback.format_exception(exc))
    report["exit"] = code
    return report


def _color_file(path: str, fmt: str) -> Iterator[dict]:
    """One report per graph in the file, each as soon as its graph is done.

    Each non-empty graph6 line is one graph.
    """
    if not _is_graph6(path, fmt):
        yield _color_one(path, lambda: parse_edgelist(_read_text(path), cubic=True))
        return
    try:
        lines = _graph6_lines(_read_text(path))
    except (OSError, UnicodeDecodeError) as exc:
        yield _failed({"input": path, "outcome": "error"}, exc)
        return
    if not lines:
        yield _color_one(path, lambda: parse_graph6(""))
    for i, ln in lines:
        yield _color_one(f"{path}:{i}", lambda ln=ln: parse_graph6(ln))


def _color_file_at_once(path: str, fmt: str) -> list[dict]:
    """`_color_file` as one list: what a worker process sends back."""
    return list(_color_file(path, fmt))


def _color_one(label: str, parse) -> dict:
    """Parse, color and certify one graph; every failure becomes an error report."""
    started = time.perf_counter()
    report: dict = {"input": label, "outcome": "error"}
    try:
        g = parse()
        report["n"] = g.n
        coloring = color_claw_free_cubic(g)  # certified before it returns
    except Exception as exc:  # report this input, keep the batch going
        return _failed(report, exc)
    report["elapsed_s"] = round(time.perf_counter() - started, 6)
    report["outcome"] = "colored"
    report["coloring"] = coloring  # `cmd_color` writes it out
    report["verified"] = True
    report["exit"] = EXIT_OK
    return report


def _reports(paths: list[str], fmt: str, jobs: int) -> Iterator[dict]:
    """Every report of the batch in input order, each as soon as it is done."""
    if jobs > 1 and len(paths) > 1 and "-" not in paths:
        # imported only here: loading it adds to every run's start-up time
        from concurrent.futures import ProcessPoolExecutor

        # under fork the pool starts all its workers at the first submit
        workers = min(jobs, len(paths), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for batch in pool.map(_color_file_at_once, paths, [fmt] * len(paths)):
                yield from batch
    else:
        for path in paths:
            yield from _color_file(path, fmt)


def cmd_color(args) -> int:
    reports = _reports(args.paths, args.format, args.jobs)
    # `# <input>` headers go out when the batch has more than one report.
    # Every path gives at least one, so only a single path leaves that
    # open: its first report waits for a second one or for the end.
    several = len(args.paths) > 1
    head = list(islice(reports, 1 if several else 2))
    several = several or len(head) > 1
    worst = EXIT_OK
    for report in chain(head, reports):
        # each report goes out in one write: an unbuffered stdout makes
        # every write a system call
        coloring = report.pop("coloring", None)
        if args.json:
            if coloring:
                # the lines `json.dumps(..., indent=2, sort_keys=True)` would
                # write: "coloring" is the first key, and ids sort as strings,
                # which sorting whole lines does since '"' sorts below digits.
                # The other values are scalars, so the C encoder, which runs
                # only without indent, writes their lines with these separators
                labels = coloring.spec.labels()
                lines = sorted(f'    "{v}": "{labels[c]}"' for v, c in coloring.assignment.items())
                rest = json.dumps(report, sort_keys=True, separators=(",\n  ", ": "))
                text = '{\n  "coloring": {\n' + ",\n".join(lines)
                text += "\n  },\n  " + rest[1:-1] + "\n}\n"
            else:
                text = json.dumps(report, indent=2, sort_keys=True) + "\n"
            sys.stdout.write(text)
        elif coloring:
            header = f"# {report['input']}\n" if several else ""
            sys.stdout.write(f"{header}{coloring.as_lines()}VERIFIED\n")
        else:
            err = report["error"]
            msg = f"error ({err['kind']}): {err['message']}"
            if "witness" in err:
                msg += f" [witness: {err['witness']}]"
            print(f"{report['input']}: {msg}", file=sys.stderr)
        worst = max(worst, report["exit"])
    return worst


def cmd_solve(args) -> int:
    spec = _parse_spec(args.spec)
    g = _load_graph(args.path, _read_text(args.path), args.format, max_n=args.cap)
    coloring = solve_spacking(g, spec, cap=args.cap)
    if coloring is None:
        print("UNSAT")
        return EXIT_OK
    _certified(g, spec, coloring)  # a fault is a bug: `main` reports it
    sys.stdout.write(coloring.as_lines())
    print("SAT")
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = _parse_spec(args.spec)
    coloring = parse_coloring_lines(_read_text(args.coloring), spec)
    # every vertex 0..n-1 must be colored, so a larger header fails
    # before the graph is built
    try:
        g = _load_graph(args.graph, _read_text(args.graph), args.format,
                        max_n=len(coloring.assignment))
    except CapExceededError as exc:
        raise MalformedInputError(f"graph has {exc.n} vertices, coloring has {exc.cap}") from None
    violations = verify(g, spec, coloring)
    if not violations:
        print("OK")
        return EXIT_OK
    for vio in violations:
        print(
            f"violation: class {vio.label} vertices {vio.pair[0]} and "
            f"{vio.pair[1]} at distance {vio.distance}"
        )
    return EXIT_INVALID_COLORING


def cmd_generate(args) -> int:
    # imported only here: no other command generates a graph
    from .generators import (
        _parse_tree_spec,
        expand_to_clawfree,
        gen_bridged,
        gen_cubic_multigraph,
        gen_ring_of_diamonds,
        random_expansion_spec,
    )
    from .rng import SplitMix64

    rng = SplitMix64(args.seed)
    if args.kind == "ring":
        g = gen_ring_of_diamonds(args.k)
    elif args.kind == "multigraph":
        g = gen_cubic_multigraph(args.n, rng)
    elif args.kind == "expansion":
        h = gen_cubic_multigraph(args.n, rng)
        g = expand_to_clawfree(h, random_expansion_spec(h, rng, args.max_string), rng)
    else:  # bridged; argparse's choices admit no other kind
        g = gen_bridged(_parse_tree_spec(args.tree), rng)
    text = emit_graph6(g) + "\n" if args.graph6 else emit_edgelist(g)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_OK


def _tree_shape(adj: tuple[tuple[int, ...], ...]) -> str:
    n = len(adj)  # a bridge tree has at least two nodes
    if n == 2:
        return "K_2"
    degs = sorted(len(a) for a in adj)
    if degs[-1] == n - 1:
        return f"K_{{1,{n - 1}}}"
    if degs[-1] <= 2:
        return f"P_{n}"
    return f"tree on {n} nodes, degrees {degs}"


def cmd_decompose(args) -> int:
    text = _read_text(args.path)
    # a connected graph on n vertices has n - 1 edges, one per line
    try:
        g = _load_graph(args.path, text, args.format, max_n=len(text.splitlines()) + 1)
    except CapExceededError:
        raise DisconnectedError(_DISCONNECTED) from None
    d = decompose(g)
    if len(d.components) > 1:
        print(f"bridges: {len(d.components) - 1}")
        print(f"bridge tree: {_tree_shape(d.tree_adj)} (root component {d.root})")
        kind_names = {
            ComponentKind.TRIANGLE: "K3",
            ComponentKind.DIAMOND: "diamond",
            ComponentKind.TYPE_III: "TypeIII",
        }
        for i, comp in enumerate(d.components):
            tag = " (root)" if i == d.root else ""
            print(
                f"component {i}: {kind_names[d.kinds[i]]}, {len(comp)} vertices, "
                f"depth {d.depth[i]}{tag}"
            )
    elif d.variant is Variant.K4:
        print("2-edge-connected: K4")
    elif d.variant is Variant.RING:
        print(f"2-edge-connected: ring of {len(d.walk[0]) // 4} diamonds")
    else:
        ends = d.ends  # sorted, so parallel H-edges are neighbours
        doubles = len({e for e, f in zip(ends, ends[1:]) if e == f})
        lengths = d.string_lengths()
        print(
            f"2-edge-connected: built from H with {len(d.triangles)} vertices, "
            f"{len(ends)} edges ({doubles} parallel pair(s)), "
            f"strings: {lengths if lengths else 'none'}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clawcolor",
        description="(1,1,2,2)-packing colorings of claw-free cubic graphs",
    )
    parser.add_argument("--version", action="version", version=f"clawcolor {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("color", help="construct and verify a (1,1,2,2)-coloring")
    p.add_argument("paths", nargs="+", help="input file(s); '-' for stdin")
    p.add_argument("--format", choices=("auto", "edgelist", "graph6"), default="auto")
    p.add_argument("--json", action="store_true", help="emit one JSON report per input")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers over input files")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("solve", help="decide S-packing colorability exactly")
    p.add_argument("path")
    p.add_argument("--format", choices=("auto", "edgelist", "graph6"), default="auto")
    p.add_argument("--spec", default="1,1,2,2", help="comma-separated radii")
    p.add_argument("--cap", type=int, default=DEFAULT_SOLVER_CAP, help="vertex-count cap")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a coloring file against a graph")
    p.add_argument("graph")
    p.add_argument("coloring")
    p.add_argument("--format", choices=("auto", "edgelist", "graph6"), default="auto")
    p.add_argument("--spec", default="1,1,2,2")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("generate", help="write a generated graph")
    p.add_argument("kind", choices=("ring", "multigraph", "expansion", "bridged"))
    p.add_argument("--k", type=int, default=3, help="ring: diamond count")
    p.add_argument("--n", type=int, default=6, help="multigraph/expansion: H order")
    p.add_argument("--max-string", type=int, default=2, dest="max_string")
    p.add_argument("--tree", default="type3:1,type3:1", help="bridged: kind:attach list")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--graph6", action="store_true")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("decompose", help="report bridge tree / structure variant")
    p.add_argument("path")
    p.add_argument("--format", choices=("auto", "edgelist", "graph6"), default="auto")
    p.set_defaults(func=cmd_decompose)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        code, _, message = _classify(exc)
        print(f"error (internal): {message}" if code == EXIT_INTERNAL else f"error: {message}",
              file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
