"""Every module-level function and class of the library is reached by a caller.

A name defined at module level in src/sievekit/*.py counts as reached when
code outside its own definition uses it: another part of the library, the
benchmark scripts (bench/*.py) or the acceptance suite.  Re-exports in
__init__.py and a name's own unit tests do not count, so a function that
only its tests call fails here and should be deleted or given a caller.
Public and private names are checked alike, so a refactor that leaves a
helper behind is caught too.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted(p for p in (ROOT / "src" / "sievekit").glob("*.py")
                 if p.name != "__init__.py")
CALLERS = LIBRARY + sorted((ROOT / "bench").glob("*.py")) + [
    ROOT / "tests" / "test_acceptance.py"]


def _uses(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names and attribute names used in tree, outside the subtree skip."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def unreached_names(private: bool) -> list[str]:
    """The unreached module-level names, private (leading _) or public."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in CALLERS}
    used_anywhere = {path: _uses(tree) for path, tree in trees.items()}
    out = []
    for path in LIBRARY:
        for node in trees[path].body:
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") == private):
                continue
            if any(node.name in (_uses(tree, skip=node) if other == path
                                 else used_anywhere[other])
                   for other, tree in trees.items()):
                continue
            out.append(f"{path.stem}.{node.name}")
    return out


def test_every_public_library_name_has_a_caller():
    assert unreached_names(private=False) == []


def test_every_private_library_name_has_a_caller():
    assert unreached_names(private=True) == []
