"""Every name a module of the package imports is used there or re-exported.

No linter runs with the tests, and code moves between modules often enough
that a stale import would otherwise go unseen.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hetsched"
MODULES = sorted(SRC.rglob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name each import binds -> the line it is imported on."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``.
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
    return out


def _used(tree: ast.Module) -> set[str]:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree).items() if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"
