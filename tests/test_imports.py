"""Every name a skeinlab module imports is used in that module, and every
module-level private name is used somewhere in the package.

No linter ships with the project, so these stdlib `ast` checks stand in
for unused-import and unused-definition rules.  `__future__` imports and
the package `__init__.py` (whose imports are re-exports) are exempt from
the first.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "skeinlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_checker_flags_an_unused_import():
    assert unused_imports("import cmath\nimport math\nx = math.pi\n") == ["cmath (line 1)"]
    assert unused_imports("from a import B as C\ndef f(x: C): pass\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def private_definitions(source: str) -> set[str]:
    """Module-level `_x` names a source defines (dunders excluded)."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def references(source: str) -> set[str]:
    """Names a source reads, bare or as an attribute."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_checker_flags_an_orphaned_private_name():
    source = "_A = 1\n_B = _A\ndef _f(): pass\nclass _C: pass\n__all__ = []\n"
    assert sorted(private_definitions(source) - references(source)) == ["_B", "_C", "_f"]
    assert "_f" in references("import m\nm._f()\n")


def test_every_private_name_is_used_in_the_package():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    used = set().union(*map(references, sources))
    defined = set().union(*map(private_definitions, sources))
    assert sorted(defined - used) == []
