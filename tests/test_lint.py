"""Static checks on the package source, with the standard library only.

They catch what a deletion leaves behind: an import that nothing uses any
more, and a private module-level name that no module of the package
reads.
"""

import ast
from pathlib import Path

import pytest

import torsob

PACKAGE = Path(torsob.__file__).parent
SOURCES = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
TREES = {name: ast.parse(text, filename=name) for name, text in SOURCES.items()}


def _read_names(tree: ast.AST) -> set[str]:
    """Names a module reads: loaded names, attributes, and the strings of
    its __all__."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(
                elt.value for elt in ast.walk(node.value)
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            )
    return names


def _imported_names(tree: ast.Module, lines: list[str]) -> list[str]:
    """Names a module binds by import, less those of an import marked
    ``# noqa`` (one kept for its side effect)."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and "# noqa" in lines[node.lineno - 1]:
            continue
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names if a.name != "*"]
    return names


def _private_definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


@pytest.mark.parametrize("name", sorted(TREES))
def test_every_import_is_used(name):
    tree = TREES[name]
    unused = set(_imported_names(tree, SOURCES[name].splitlines())) - _read_names(tree)
    assert not unused, f"{name} imports but never uses {sorted(unused)}"


def test_every_private_module_name_is_read():
    read = set().union(*map(_read_names, TREES.values()))
    unread = [
        f"{name}:{private}"
        for name, tree in sorted(TREES.items())
        for private in _private_definitions(tree)
        if private not in read
    ]
    assert not unread, f"private names that no module reads: {unread}"
