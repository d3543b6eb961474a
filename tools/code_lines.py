"""Count the code lines of Python files.

A code line holds a token other than a comment and is not part of a module,
class or function docstring; blank lines, comment lines and docstrings do not
count.  A token that spans lines (a multi-line string or a bracketed
expression's continuation) counts every line it touches.  Give files or
directories, which are searched for ``*.py`` files; the default is
``src/hetsched``:

    python3 tools/code_lines.py [PATH ...]

One line per file gives its count, and a last line the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """Where each module, class and function docstring starts."""
    return {
        (node.body[0].lineno, node.body[0].col_offset)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
    }


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    docstrings = _docstring_starts(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def _files(paths: list[str]) -> list[Path]:
    found = []
    for path in map(Path, paths):
        found.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return found


def main(argv: list[str]) -> int:
    total = 0
    for path in _files(argv or ["src/hetsched"]):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:>7}  {path}")
    print(f"{total:>7}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
