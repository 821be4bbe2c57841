"""Print the total and code lines of Python modules.

A code line is a line that holds a token, less blank lines, comment-only
lines and the lines of module, class and function docstrings.  Lines are
counted with ``tokenize`` and ``ast``.

Usage: python tools/code_lines.py PATH [PATH ...]

Each PATH is a module or a directory, whose ``*.py`` files are counted.
One line per module, then a total line when more than one is counted.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SILENT = {
    tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SILENT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None) if isinstance(node, _SCOPES) else None
        first = body[0] if body else None
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(
            first.value.value, str
        ):
            lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(source.splitlines()), len(lines)


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python tools/code_lines.py PATH [PATH ...]", file=sys.stderr)
        return 2
    files = []
    for arg in map(Path, argv):
        files += sorted(arg.glob("*.py")) if arg.is_dir() else [arg]
    totals = [0, 0]
    for path in files:
        total, code = code_lines(path.read_text())
        totals = [totals[0] + total, totals[1] + code]
        print(f"{path}\t{total}\t{code}")
    if len(files) > 1:
        print(f"total\t{totals[0]}\t{totals[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
