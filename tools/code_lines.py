"""Print the total lines, code lines and parser tokens of Python modules.

A code line is a line that holds a token, less blank lines, comment-only
lines and the lines of module, class and function docstrings.  Lines are
counted with ``tokenize`` and ``ast``.  Parser tokens are ``tokenize``'s,
less comments and non-logical newlines (NL): the tokens ``compile`` reads.

Usage: python tools/code_lines.py PATH [PATH ...]

Each PATH is a module or a directory, whose ``*.py`` files are counted.
One line per module (path, total lines, code lines, tokens), then a total
line when more than one is counted.
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
    for tok in _tokens(source):
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


def parser_tokens(source: str) -> int:
    """The number of tokens of one module's source, less comments and NL."""
    return sum(tok.type not in (tokenize.COMMENT, tokenize.NL) for tok in _tokens(source))


def _tokens(source: str):
    return tokenize.generate_tokens(io.StringIO(source).readline)


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python tools/code_lines.py PATH [PATH ...]", file=sys.stderr)
        return 2
    files = []
    for arg in map(Path, argv):
        files += sorted(arg.glob("*.py")) if arg.is_dir() else [arg]
    totals = [0, 0, 0]
    for path in files:
        source = path.read_text()
        counts = (*code_lines(source), parser_tokens(source))
        totals = [a + b for a, b in zip(totals, counts)]
        print(path, *counts, sep="\t")
    if len(files) > 1:
        print("total", *totals, sep="\t")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
