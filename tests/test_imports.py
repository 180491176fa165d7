"""Every name a skeinlab, test or tool module imports is used in that
module, every module-level private name is used somewhere in the package,
every exception class of `errors` is raised or caught in the package and
every `Tolerance` class constant is read there, every parameter of a function or lambda is read in its body, no module
but `scalar` writes a threshold-sized float literal (or a factor of 1e3 or
more), no module but `scalar` and `cli` reads `eq_tol`, so `--tol` moves
the PASS limits and no number, every import is relative, of the standard
library or of numpy,
the one runtime dependency, every private `_name` or dotted
`module.name` a docstring puts in backticks names something that exists,
and so does every backticked README name with a private part.

No linter ships with the project, so these stdlib `ast` checks stand in
for unused-import, unused-definition and unused-argument rules and for
the tolerance policy: every threshold is a `scalar.Tolerance` field or
constant.
`__future__` imports and the package `__init__.py` (whose imports are
re-exports) are exempt from the first.
"""

import ast
import dataclasses
import importlib
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "skeinlab"
README = ROOT / "README.md"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "tools").glob("*.py")])


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


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports_in_tests_and_tools(path):
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


def _dotted_name(node) -> str | None:
    """`X` of a name `X` or an attribute `m.X`."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def raised_or_caught(source: str) -> set[str]:
    """Names of the exception classes a source raises or catches."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            out.add(_dotted_name(exc))
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            out.update(map(_dotted_name, types))
    return out


def tolerance_constants(source: str) -> set[str]:
    """The `ClassVar` names of the class `Tolerance` in a source."""
    return {
        node.target.id
        for cls in ast.parse(source).body
        if isinstance(cls, ast.ClassDef) and cls.name == "Tolerance"
        for node in cls.body
        if isinstance(node, ast.AnnAssign)
        and isinstance(node.annotation, ast.Subscript)
        and _dotted_name(node.annotation.value) == "ClassVar"
    }


def orphans(errors: str, scalar: str, package: list[str]) -> list[str]:
    """The exception classes `errors` defines that no source of `package`
    raises or catches, and the `Tolerance` constants of `scalar` that none
    reads (a definition is no read)."""
    handled = set().union(*map(raised_or_caught, package))
    read = set().union(*map(references, package))
    classes = {node.name for node in ast.parse(errors).body if isinstance(node, ast.ClassDef)}
    return sorted(
        [name for name in classes if name not in handled]
        + [f"Tolerance.{name}" for name in tolerance_constants(scalar) if name not in read]
    )


def test_checker_flags_an_orphaned_error_or_constant():
    errors = "class Raised(Exception): pass\nclass Caught(Raised): pass\nclass Orphan(Raised): pass\n"
    scalar = (
        "from typing import ClassVar\n"
        "class Tolerance:\n    eq_tol: float = 1.0\n    READ: ClassVar[float] = 1.0\n"
        "    BAND: ClassVar[float] = 2.0\n    def f(self):\n        return self.READ\n"
    )
    user = "def g(x):\n    try:\n        raise errors.Raised(x)\n    except (ValueError, Caught):\n        raise\n"
    assert orphans(errors, scalar, [errors, scalar, user]) == ["Orphan", "Tolerance.BAND"]


def test_every_error_is_raised_or_caught_and_every_constant_read():
    """A deleted check leaves no exception class or threshold behind."""
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert orphans((SRC / "errors.py").read_text(), (SRC / "scalar.py").read_text(), sources) == []


def unread_parameters(source: str) -> list[str]:
    """The parameters of each function and lambda that its body (nested
    functions included) never reads; `self`, `cls` and `_`-prefixed names
    are exempt."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        params += [p for p in (args.vararg, args.kwarg) if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        found += [
            f"{name}({p.arg}) (line {node.lineno})"
            for p in params
            if p.arg not in read and p.arg not in ("self", "cls") and not p.arg.startswith("_")
        ]
    return sorted(found)


def test_checker_flags_an_unread_parameter():
    source = (
        "def f(x, tol, *args, key=None, **kw):\n    return x + len(args) + g(**kw)\n"
        "def g(self, _unused, cls, y):\n    def h():\n        return y\n    return h\n"
        "k = lambda a, b: a\n"
        "class C:\n    def m(self, z):\n        return self\n"
    )
    assert unread_parameters(source) == [
        "<lambda>(b) (line 7)",
        "f(key) (line 1)",
        "f(tol) (line 1)",
        "m(z) (line 9)",
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []


def _is_number(node) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def threshold_literals(source: str) -> list[str]:
    """Float literals x with 0 < |x| <= 1e-3, the size of a threshold, or
    |x| >= 1e3, the size of a threshold's factor; and a number literal
    raised to a negative literal power, a threshold written as 10 ** -9."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Constant)
            and type(node.value) is float
            and (0.0 < abs(node.value) <= 1e-3 or abs(node.value) >= 1e3)
        ):
            found.append(f"{node.value!r} (line {node.lineno})")
        elif (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Pow)
            and _is_number(node.left)
            and isinstance(node.right, ast.UnaryOp)
            and isinstance(node.right.op, ast.USub)
            and _is_number(node.right.operand)
        ):
            found.append(f"{ast.unparse(node)} (line {node.lineno})")
    return sorted(found)


def test_checker_flags_a_threshold_literal():
    source = "def f(x, tol):\n    return abs(x) < 1e-9 or x > -2e-4 or x == 0.5 or abs(x) <= tol.eq_tol * 1e-3\n"
    assert threshold_literals(source) == ["0.0002 (line 2)", "0.001 (line 2)", "1e-09 (line 2)"]
    assert threshold_literals("x = 0.0 + 1e3 + 4.0 - 2e5 + 999.0 + 1000\n") == [
        "1000.0 (line 1)",
        "200000.0 (line 1)",
    ]
    source = "eps = 2.0 ** -53\ntol = 10 ** (-9)\nx = y ** -1 + 2 ** 3 + (2 * u) ** (-1 / 3)\n"
    assert threshold_literals(source) == ["10 ** (-9) (line 2)", "2.0 ** (-53) (line 1)"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "scalar.py"], ids=lambda p: p.name)
def test_no_threshold_literals_outside_scalar(path):
    assert threshold_literals(path.read_text()) == []


def eq_tol_reads(source: str) -> list[str]:
    """Each read of an attribute `eq_tol`, by line."""
    return sorted(
        f"eq_tol (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "eq_tol" and isinstance(node.ctx, ast.Load)
    )


def test_checker_flags_an_eq_tol_read():
    source = "def f(x, tol):\n    return x < tol.eq_tol or x < tol.limits['r1']\nt.eq_tol = 1\n"
    assert eq_tol_reads(source) == ["eq_tol (line 2)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_scalar_and_cli_read_eq_tol(path):
    """`scalar` derives the limits from eq_tol and `cli` reports it; any
    other reader would let --tol move a number."""
    reads = eq_tol_reads(path.read_text())
    assert reads == [] or path.name in ("scalar.py", "cli.py"), reads


RUNTIME_DEPENDENCIES = sys.stdlib_module_names | {"numpy"}


def foreign_imports(source: str) -> list[str]:
    """Absolute imports of a top-level package outside the standard library
    and numpy."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"{n} (line {node.lineno})" for n in names if n.split(".")[0] not in RUNTIME_DEPENDENCIES]
    return sorted(found)


def test_checker_flags_a_foreign_import():
    source = (
        "from __future__ import annotations\nimport scipy\nfrom sympy import S\n"
        "import numpy.linalg, os.path\nfrom . import shapes\nfrom .twobox import PLUS\n"
    )
    assert foreign_imports(source) == ["scipy (line 2)", "sympy (line 3)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_the_standard_library_and_numpy_are_imported(path):
    assert foreign_imports(path.read_text()) == []


PACKAGE = {p.stem: importlib.import_module(f"skeinlab.{p.stem}") for p in MODULES}
BACKTICKED = re.compile(r"`([A-Za-z_]\w*(?:\.\w+)*)`")


def resolves(name: str, namespace: dict) -> bool:
    """Whether a dotted name reads an attribute path from `namespace`, or
    from a skeinlab module named by its first part.  A dataclass field set
    in __post_init__ (`field(init=False)`) has no class attribute, and
    counts as its last part."""
    first, *rest = name.split(".")
    if first not in namespace and first not in PACKAGE:
        return False
    obj = namespace.get(first, PACKAGE.get(first))
    for k, part in enumerate(rest, 1):
        if hasattr(obj, part):
            obj = getattr(obj, part)
        elif not (
            k == len(rest)
            and dataclasses.is_dataclass(obj)
            and part in {f.name for f in dataclasses.fields(obj)}
        ):
            return False
    return True


def stale_names(source: str, namespace: dict) -> list[str]:
    """The private `_name`s and dotted names in backticks in the source's
    docstrings that do not resolve in `namespace`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            for name in BACKTICKED.findall(ast.get_docstring(node, clean=False) or ""):
                private = name.startswith("_") and not name.startswith("__")
                if (private or "." in name) and not resolves(name, namespace):
                    found.add(name)
    return sorted(found)


def test_checker_flags_a_stale_docstring_name():
    from skeinlab.scalar import Tolerance

    source = (
        '"""`_gone`, `skein._missing`, `skein._run`, `_here`, `Tolerance.limits`,\n'
        '`Tolerance.limits.x`, `math.pi`, `plain`, `__init__` and `a + b`."""\n'
        "def f():\n    \"\"\"`twobox.nowhere`\"\"\"\n"
    )
    namespace = {"_here": 1, "Tolerance": Tolerance, "math": __import__("math")}
    assert stale_names(source, namespace) == [
        "Tolerance.limits.x",
        "_gone",
        "skein._missing",
        "twobox.nowhere",
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_docstrings_name_what_exists(path):
    module = PACKAGE.get(path.stem) or importlib.import_module("skeinlab")
    assert stale_names(path.read_text(), vars(module)) == []


def stale_readme_names(text: str, namespace: dict) -> list[str]:
    """The backticked names in `text` with a private part, a leading
    `skeinlab.` dropped, that do not resolve in `namespace`."""
    found = set()
    for name in BACKTICKED.findall(text):
        name = name.removeprefix("skeinlab.")
        private = any(p.startswith("_") and not p.startswith("__") for p in name.split("."))
        if private and not resolves(name, namespace):
            found.add(name)
    return sorted(found)


def test_checker_flags_a_stale_readme_name():
    text = "`_gone`, `skein._run`, `skeinlab.skein._missing`, `_here`, `twobox.nowhere`, `__init__`"
    assert stale_readme_names(text, {"_here": 1}) == ["_gone", "skein._missing"]


def test_the_readme_names_what_exists():
    """A bare private name resolves in any skeinlab module, a dotted one
    from the module that it names."""
    namespace = {k: v for module in PACKAGE.values() for k, v in vars(module).items()}
    assert stale_readme_names(README.read_text(), namespace) == []
