"""Every name a module of the package imports is used there or re-exported,
and every private module-level name is referenced somewhere in the package.

No linter runs with the tests, and code moves between modules often enough
that a stale import or a leftover helper would otherwise go unseen.
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


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level ``_name`` functions, classes and assignments -> their line."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                out[name] = node.lineno
    return out


def _referenced(tree: ast.Module) -> set[str]:
    """Names a module reads, looks up as an attribute or imports by name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_every_private_name_is_referenced():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    referenced = set().union(*map(_referenced, trees.values()))
    unreferenced = [
        f"{path.relative_to(SRC)}:{line} {name}"
        for path, tree in trees.items()
        for name, line in _private_definitions(tree).items()
        if name not in referenced
    ]
    assert not unreferenced, "private names no module references: " + ", ".join(unreferenced)
