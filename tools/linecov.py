"""Statements of `src/freecert` that no tier-1 test runs.

    python3 tools/linecov.py [PYTEST ARGS ...]

Runs pytest in this process over `tests/` (or over PYTEST ARGS, e.g.
`tests -k "not criterion_02"`) under a `sys.settrace` line tracer, the
standard library's only line hook, and prints each statement of the
package that no test ran as `path:line: source`, then their count.  A
statement is an `ast` statement whose first line carries bytecode, so a
docstring is none, and it ran when the tracer saw a line event on that
line or a call of the code object that starts there.  Only frames of
the package's files are traced line by line.

Lines that only a subprocess runs (`python -m freecert ...` in
`tests/test_cli.py`) are not seen and are listed too.  Timed tests may
fail under the tracer's slowdown; their failures are reported by pytest
and do not stop the listing.  Hypothesis runs from one fixed seed, so
two listings of the same tree are equal.  The exit code is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "freecert"


def statement_lines(path: Path) -> set[int]:
    """First lines of the statements of `path` that have bytecode."""
    text = path.read_text(encoding="utf-8")
    code_lines: set[int] = set()
    todo = [compile(text, str(path), "exec")]
    while todo:
        code = todo.pop()
        code_lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    stmts = {node.lineno for node in ast.walk(ast.parse(text)) if isinstance(node, ast.stmt)}
    return stmts & code_lines


def main(argv: list[str]) -> int:
    import pytest

    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    ran: dict[str, set[int]] = {f: set() for f in files}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        hits = ran.get(frame.f_code.co_filename)
        if hits is None:
            return None
        hits.add(frame.f_code.co_firstlineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    os.chdir(ROOT)
    threading.settrace(call)
    sys.settrace(call)
    try:
        # one Hypothesis seed, so two listings of one tree compare line by line
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", *(argv or ["tests"])])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for name, path in files.items():
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(statement_lines(path) - ran[name]):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} statements of src/freecert no test ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
