"""List each `if` in src/clawcolor whose body or other exit tier-1 never takes.

Usage: PYTHONPATH=src:tests python tests/branch_audit.py

Runs the tier-1 suite in this process under `sys.settrace`, with
`--hypothesis-seed=0` so that every run draws the same examples.  Each
`if` statement is read from the source with `ast` first.  The tracer then
follows the line events of every function, class body or module of
src/clawcolor that holds an `if`, and reads the line after each line of
an `if` test.  A line in the body takes the body; any other line takes the
other exit: the `else` branch, the next statement or a loop's head, and so
does the frame returning.  An exception breaks the chain, so a test that
raises takes neither.  Comprehensions and lambdas are not traced, so their
lines inside a test are not read as an exit of it.  A code object stops
being traced once every `if` in it has taken both sides.  Tests that run
the CLI in a subprocess are not traced.

Each branch never taken is printed as `file:line | statement | side`,
where side is `body`, `else` (the other exit) or `unreached` (the test
never ran).  `tests/branch_audit_allow.txt` names the branches kept on
purpose by `file | statement | side | reason`, the statement being the
`if` line's text (with ` #k` for the k-th of several alike), and the
reason `bug-detector` (a raise that only a bug reaches), `api-input` (a
check on input from a public call) or `rejection` (a retry of a random
draw).  The script exits 1 when tier-1 fails or a
branch never taken is not on that list, or when an entry of that list
matches no branch never taken (a tested or deleted branch, or a ` #k`
that shifted).
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import time
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "clawcolor"
ALLOW = TESTS / "branch_audit_allow.txt"
REASONS = ("bug-detector", "api-input", "rejection")


class IfStatement:
    """One `if` (or `elif`): where its test and body lie, and the sides taken."""

    __slots__ = ("file", "line", "text", "test", "body", "body_taken", "else_taken")

    def __init__(self, path: Path, node: ast.If, text: str):
        self.file, self.line, self.text = path.name, node.lineno, text
        self.test = range(node.lineno, node.test.end_lineno + 1)
        self.body = range(node.body[0].lineno, node.body[-1].end_lineno + 1)
        self.body_taken = self.else_taken = False

    def sides_never_taken(self) -> list[str]:
        if not (self.body_taken or self.else_taken):
            return ["unreached"]
        return [s for s, taken in (("body", self.body_taken), ("else", self.else_taken)) if not taken]


def if_statements(path: Path) -> dict[tuple[str, int, str], list[IfStatement]]:
    """The `if` statements of a source file by the code object that runs them.

    A code object is keyed by (file, first line, name), the first line of
    a decorated function or class being its first decorator's.  A
    statement is named by its `if` line's text, followed by ` #k` for the
    k-th of several `if` lines of that text in the file.
    """
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    out: dict[tuple[str, int, str], list[IfStatement]] = {}
    seen: dict[str, list[IfStatement]] = {}

    def visit(node, key):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                visit(child, (str(path), first, child.name))
            elif not isinstance(child, ast.Lambda):
                if isinstance(child, ast.If):
                    statement = IfStatement(path, child, lines[child.lineno - 1].strip())
                    out.setdefault(key, []).append(statement)
                    seen.setdefault(statement.text, []).append(statement)
                visit(child, key)

    visit(ast.parse(source), (str(path), 1, "<module>"))
    for same in seen.values():
        if len(same) > 1:
            for k, statement in enumerate(sorted(same, key=lambda s: s.line), start=1):
                statement.text += f" #{k}"
    return out


def trace_ifs(run, statements: dict[tuple[str, int, str], list[IfStatement]]):
    """Call `run()` under the tracer, marking the sides of `statements` it takes."""
    # per traced code object, each test line -> the statement it belongs to
    tests = {
        key: {line: s for s in ifs for line in s.test} for key, ifs in statements.items()
    }
    pending = {key: len(ifs) for key, ifs in statements.items()}
    keys: dict[object, tuple | None] = {}

    def settle(s: IfStatement, line: int | None) -> bool:
        """Record the line after s's test (None: the frame returned); True
        when that completes s, which had not taken both sides before."""
        was_done = s.body_taken and s.else_taken
        if line is not None and line in s.body:
            s.body_taken = True
        else:
            s.else_taken = True
        return not was_done and s.body_taken and s.else_taken

    def on_call(frame, event, arg):
        code = frame.f_code
        if code not in keys:
            key = (os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name)
            keys[code] = key if key in tests else None
        key = keys[code]
        if key is None or not pending[key]:
            return None
        at_test = tests[key]
        prev = None

        def on_event(frame, event, arg):
            nonlocal prev
            if event == "line":
                line = frame.f_lineno
                s = at_test.get(prev)
                if s is not None and line not in s.test and settle(s, line):
                    pending[key] -= 1
                    if not pending[key]:
                        frame.f_trace_lines = False
                prev = line
            elif event == "exception":
                prev = None
            elif event == "return":
                s = at_test.get(prev)
                if s is not None and settle(s, None):
                    pending[key] -= 1
            return on_event

        return on_event

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        return run()
    finally:
        sys.settrace(None)
        threading.settrace(None)


def read_allow_list(path: Path = ALLOW) -> dict[tuple[str, str, str], str]:
    """(file, statement, side) -> reason, from `file | statement | side | reason` lines."""
    allowed = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(" | ")]
        if len(fields) != 4 or fields[3] not in REASONS:
            raise SystemExit(f"{path.name}:{lineno}: want 'file | statement | side | reason'")
        allowed[tuple(fields[:3])] = fields[3]
    return allowed


def main() -> int:
    import pytest

    statements = {}
    for path in sorted(SRC.glob("*.py")):
        statements.update(if_statements(path.resolve()))
    args = ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", str(TESTS)]
    start = time.perf_counter()
    code = trace_ifs(lambda: pytest.main(args), statements)
    elapsed = time.perf_counter() - start
    allowed = read_allow_list()
    missing, matched = 0, set()
    ifs = sorted((s for group in statements.values() for s in group), key=lambda s: (s.file, s.line))
    print(f"\n{len(ifs)} if statements in {SRC.name}/, traced under tier-1 in {elapsed:.0f} s; never taken:")
    for s in ifs:
        for side in s.sides_never_taken():
            reason = allowed.get((s.file, s.text, side))
            if reason is None:
                missing += 1
            else:
                matched.add((s.file, s.text, side))
            print(f"  {s.file}:{s.line} | {s.text} | {side} | {reason or 'NOT ALLOWED'}")
    stale = sorted(allowed.keys() - matched)
    for entry in stale:
        print(f"allow-list entry matches no branch never taken: {' | '.join(entry)}")
    if code != 0:
        print(f"tier-1 failed under the tracer, pytest exit code {int(code)}")
        return 1
    if missing:
        print(f"{missing} branch(es) never taken and not in {ALLOW.name}")
        return 1
    if stale:
        print(f"{len(stale)} entr(ies) of {ALLOW.name} match no branch never taken")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
