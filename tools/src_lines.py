"""Physical lines and code lines of each src/qvarsched module, and their totals.

A code line holds a token that is neither a comment nor whitespace and lies
outside every module, class and function docstring; a token that spans
lines (a multi-line string) makes each of its lines a code line. Standard
library only:

    python3 tools/src_lines.py
"""
from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qvarsched"
_BLANK = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring in tree."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(physical lines, code lines) of one module's source."""
    docstrings = docstring_lines(ast.parse(text))
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _BLANK:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code - docstrings)


def main() -> None:
    rows = [(path.name, *count(path.read_text())) for path in sorted(PACKAGE.glob("*.py"))]
    rows.append(("total", sum(row[1] for row in rows), sum(row[2] for row in rows)))
    width = max(len(row[0]) for row in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>6}  {code:>6}")


if __name__ == "__main__":
    main()
