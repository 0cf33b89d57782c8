"""Count the code lines and parser tokens of each `src/clawcolor` module,
and of the test-side modules `tests/brute.py` and `tests/conftest.py`.

A code line holds at least one token that is not a comment and not part
of a docstring; blank lines, comment lines and docstring lines do not
count.  A docstring is the string statement that opens a module, class or
function body.  The parser tokens are the `tokenize` tokens less
COMMENT, NL and ENCODING, docstrings included, which is what CPython's
parser holds when it compiles the module.

It prints a total for each side, so that code moved from `src/` into a
test-side copy shows as moved, not removed.

Exits 1 when a `src/clawcolor` module reaches `TOKEN_LIMIT` parser
tokens; the test-side modules are counted, not limited.  The parser
doubles its token array and allocates every slot of it, so compiling a
module past that count peaks about 0.25 MiB higher at once; a process
that compiles the package, as `clawcolor color` run from a checkout
without bytecode does, pays for it.  Stdlib only.

    python tests/code_lines.py [package_dir]
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

# tokens that make no line a code line
_SKIP = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}
# tokens CPython's parser does not keep
_UNPARSED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
TOKEN_LIMIT = 4096
TESTS = Path(__file__).resolve().parent
TEST_SIDE = ("brute.py", "conftest.py")


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every docstring in the module."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(path: Path) -> tuple[int, int]:
    """The code lines and the parser tokens of one Python source file."""
    source = path.read_text(encoding="utf-8")
    docstrings = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    tokens = 0
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            tokens += tok.type not in _UNPARSED
            if tok.type in _SKIP:
                continue
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docstrings)
    return len(lines), tokens


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else TESTS.parent / "src" / "clawcolor"
    total, over = 0, []
    print(f"{'lines':>6}  {'tokens':>6}  module")
    for path in sorted(root.glob("*.py")):
        count, tokens = counts(path)
        total += count
        print(f"{count:6d}  {tokens:6d}  {path.name}")
        if tokens >= TOKEN_LIMIT:
            over.append(path.name)
    print(f"{total:6d}  {'':6}  total")
    side = 0
    for name in TEST_SIDE:
        count, tokens = counts(TESTS / name)
        side += count
        print(f"{count:6d}  {tokens:6d}  tests/{name}")
    print(f"{side:6d}  {'':6}  test-side total")
    for name in over:
        print(f"{name} has {TOKEN_LIMIT} or more parser tokens", file=sys.stderr)
    return 1 if over else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
