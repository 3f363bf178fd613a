"""Run the test suite under a line tracer; fail on a failed test or an unreached statement.

    python tools/reach.py [pytest options]

A module's statements are the lines that the code objects compiled from
``src/storyfactors/*.py`` map to (``co_lines``); a statement whose first
line carries ``# pragma: no cover`` is exempt with all its lines.  Each
unreached statement is printed as ``path:line``, and the exit status is 1.
Needs only the standard library and pytest.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parent.parent


def statements(path: Path) -> set[int]:
    text = path.read_text(encoding="utf-8")
    lines, codes = set(), [compile(text, str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(const for const in code.co_consts if isinstance(const, CodeType))
    source = text.splitlines()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.stmt) and "# pragma: no cover" in source[node.lineno - 1]:
            lines.difference_update(range(node.lineno, node.end_lineno + 1))
    return lines


def main(args: list[str]) -> int:
    modules = {str(path): statements(path) for path in sorted(ROOT.glob("src/storyfactors/*.py"))}
    reached = {name: set() for name in modules}

    def record(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return record

    def trace(frame, event, arg):  # line events from the package's frames only
        return record if frame.f_code.co_filename in modules else None

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main([str(ROOT / "tests"), *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    unreached = [f"{Path(name).relative_to(ROOT)}:{line}"
                 for name, lines in modules.items() for line in sorted(lines - reached[name])]
    print("unreached:", *unreached or ["none"], sep="\n")
    return 1 if status != 0 or unreached else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
