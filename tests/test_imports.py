"""Source hygiene: every module-level import in the package is used, the
release gate's module imports no scipy, and the package exports exactly
the error classes it defines.

A name counts as used when the module reads it anywhere or lists it in
`__all__`.  An import whose statement carries `# noqa: F401` is exempt;
`tdo.minimum`'s `quad` is one, kept for a harness that wraps it by name.
"""

import ast
import inspect
from pathlib import Path

import pytest

import tdo
from tdo import errors

SRC = Path(__file__).resolve().parent.parent / "src" / "tdo"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source):
    """Names bound by the module-level imports of `source` that it never
    reads, except those re-exported through __all__ or marked noqa: F401."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    assert unused_imports("import math\nfrom x import (a,\n    b)\n"
                          "from y import c  # noqa: F401\n"
                          "__all__ = ['b']\n") == [(1, "math"), (2, "a")]


def imported_modules(source):
    """Every module an import statement of `source` names, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return names


def test_the_release_gate_imports_no_scipy():
    assert imported_modules("import scipy.special as s\n"
                            "def f():\n    from scipy import integrate\n"
                            "from . import dopri\n") == {"scipy.special",
                                                         "scipy"}
    modules = imported_modules((SRC / "verify.py").read_text())
    assert not {m for m in modules if m.split(".")[0] == "scipy"}


def test_the_package_exports_exactly_the_error_classes():
    defined = {name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and obj.__module__ == errors.__name__}
    exported = {name for name in tdo.__all__
                if inspect.isclass(getattr(tdo, name))}
    assert exported == defined
