"""List the statements inside the functions of a package that a test run never executed.

pytest runs in this process on the tests directory, under a sys.settrace
hook that records the line events of the package's own frames and of no
other.  A statement inside a function (a method and a nested function
included) ran when one of its own lines, the lines before its body for a
compound statement, had a line event, or when a statement in its body
ran.  A docstring, a bare constant and a global or nonlocal statement
make no bytecode, so they are not listed; module and class bodies run on
import, and are not listed either.

Usage: python tools/unrun_lines.py [package directory, default src/umebkit] [tests directory, default tests]
prints one `file:line: source` per statement that never ran, in file and
line order, after pytest's own report, and exits with pytest's status.
The package's parent directory goes first on sys.path, so the tests
import the package from the directory given.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import pytest

def _silent(node: ast.stmt) -> bool:
    """Whether node makes no bytecode: a docstring or other bare constant, or a global or nonlocal statement."""
    return isinstance(node, (ast.Global, ast.Nonlocal)) or (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))


def _own_lines(node: ast.stmt) -> range:
    """The lines of node outside its body: a compound statement's header, decorators included, or all of a simple one."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
    return range(first, max(first, last) + 1)


def _children(node: ast.AST) -> list[ast.stmt]:
    """The statements directly inside node: its body, handlers, else, finally and match cases."""
    out = [child for field in ("body", "orelse", "finalbody") for child in getattr(node, field, [])]
    for part in getattr(node, "handlers", []) + getattr(node, "cases", []):
        out += part.body
    return [child for child in out if not _silent(child)]


def unrun(source: str, ran: set[int]) -> list[int]:
    """The first lines of the statements inside the functions of source that ran holds no line of, in order."""
    missed = []

    def visit(node: ast.stmt) -> bool:
        """Whether node ran, recording every statement under it that did not."""
        inner = [visit(child) for child in _children(node)]
        went = any(inner) or any(line in ran for line in _own_lines(node))
        if not went:
            missed.append(node.lineno)
        return went

    def functions(node: ast.AST):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child
            else:
                yield from functions(child)

    for function in functions(ast.parse(source)):
        for child in _children(function):
            visit(child)
    return sorted(set(missed))


def main(argv: list[str]) -> int:
    package = Path(argv[1] if len(argv) > 1 else "src/umebkit")
    tests = Path(argv[2] if len(argv) > 2 else "tests")
    paths = {os.path.realpath(path): path for path in sorted(package.glob("*.py"))}
    lines = {real: set() for real in paths}
    tracers = {}  # co_filename -> the line tracer of its module, or None outside the package

    def tracer(seen: set[int]):
        def on_line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return on_line

        return on_line

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in tracers:
            real = os.path.realpath(name)
            tracers[name] = tracer(lines[real]) if real in lines else None
        return tracers[name]

    sys.path.insert(0, str(package.resolve().parent))
    sys.settrace(on_call)
    try:
        status = pytest.main([str(tests), "-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
    for real, path in paths.items():
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        for line in unrun(source, lines[real]):
            print(f"{path}:{line}: {text[line - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
