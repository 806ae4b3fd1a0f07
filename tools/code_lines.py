"""Count the code lines of a Python package: lines with a token, less docstrings and comments.

A line counts when tokenize finds a token on it other than a comment,
an indent, a dedent or a line break, and no docstring covers it.  A
docstring is a string literal that stands alone as the first statement
of a module, class or function.  Blank lines therefore never count.

Usage: python tools/code_lines.py [package directory, default src/umebkit]
prints one line per module, the largest first, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    docstrings = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    package = Path(argv[1] if len(argv) > 1 else "src/umebkit")
    counts = {path.stem: code_lines(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    for stem, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{stem:<12} {count:5d}")
    print(f"{'total':<12} {sum(counts.values()):5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
