"""Dead code in the library is an error, and the oracles stay independent.

Every import of a `src/pathreach` module must be used in it (the
re-exports of `__init__.py` and `__future__` imports aside), and every
private module-level name and private method must be referenced from some
other line of the package.  `testkit` imports from no package module but
`graph` and `decomposition`.  So its oracles share with the engine
(`reach`) only the argument check `WalkDecomposition._universe`, and no
answer code with it or with the cover (`dagcover`).
"""

import ast
from pathlib import Path

import pytest

import pathreach

SOURCES = sorted(Path(pathreach.__file__).parent.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}


def _references():
    """(module, line, name) for every name read or attribute taken in the
    package, and every name imported from one of its modules."""
    for module, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield module, node.lineno, node.id
            elif isinstance(node, ast.Attribute):
                yield module, node.lineno, node.attr
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    yield module, node.lineno, alias.name


def _definitions():
    """(module, line, name) for every module-level function, class or
    assigned name, and every method."""
    for module, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield module, node.lineno, node.name
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        yield module, node.lineno, target.id
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef):
                        yield module, member.lineno, member.name


@pytest.mark.parametrize("module", [name for name in TREES if name != "__init__.py"])
def test_no_unused_import(module):
    tree = TREES[module]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                if bound not in used:
                    unused.append(f"line {node.lineno}: {bound}")
    assert not unused, f"{module} imports names it never uses: {unused}"


def test_every_private_name_is_referenced():
    references = {}
    for module, line, name in _references():
        references.setdefault(name, set()).add((module, line))
    dead = [f"{module}:{line}: {name}" for module, line, name in _definitions()
            if name.startswith("_") and not name.endswith("__")  # dunders are called implicitly
            and not references.get(name, set()) - {(module, line)}]
    assert not dead, f"private names no other line of the package references: {dead}"


def test_testkit_imports_only_graph_and_decomposition():
    imported = set()
    for node in ast.walk(TREES["testkit.py"]):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # a relative import names a module of the package
                module = f"pathreach.{module}".rstrip(".")
            if module == "pathreach":
                imported.update(f"pathreach.{alias.name}" for alias in node.names)
            else:
                imported.add(module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    package = {name for name in imported if name.partition(".")[0] == "pathreach"}
    assert package <= {"pathreach.graph", "pathreach.decomposition"}, package
