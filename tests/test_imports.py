"""Source hygiene: every module-level import in the package is used, the
package imports scipy in one place only, every function it defines has a
caller among the CLI and the demos, and the package exports exactly the
error classes it defines.

A name counts as used when the module reads it anywhere or lists it in
`__all__`.  An import whose statement carries `# noqa: F401` is exempt;
`tdo.minimum`'s `quad` is one, kept for a harness that wraps it by name.
"""

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tdo
from tdo import errors

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tdo"
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
    # nor does any module of the package but tdo.minimum, for its unused
    # `quad`, which a benchmark harness wraps by name; that import goes
    # once the harness stops needing it (ROADMAP items 1 and 2)
    assert imported_modules("import scipy.special as s\n"
                            "def f():\n    from scipy import integrate\n"
                            "from . import dopri\n") == {"scipy.special",
                                                         "scipy"}
    found = []
    for path in MODULES:
        source = path.read_text()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                    m.split(".")[0] == "scipy"
                    for m in imported_modules(ast.unparse(node))):
                found.append((path.stem,
                              source.splitlines()[node.lineno - 1]))
    assert found == [("minimum",
                      "from scipy.integrate import quad  # noqa: F401")]


# A fresh interpreter runs the CLI in-process on every command and the five
# demos under sys.setprofile, and prints the (file, first line) of every
# code object of the package it entered.  It starts tracing before `import
# tdo`, so the tables a module builds on import count as calls.
_REACH = r"""
import contextlib, io, json, os, runpy, sys, tempfile
root = sys.argv[1]
src = os.path.join(root, "src", "tdo", "")
reached = set()


def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(src):
        reached.add((code.co_filename, code.co_firstlineno))


sys.setprofile(profile)
from tdo import cli, models

windows = {"tsquared": ("0.5", "2"), "bessel_type": ("0.5", "0.8")}
calls = [[command, "--model", name, "--t0", t0, "--t1", t1, *extra]
         for name in models.CATALOG_NAMES
         for t0, t1 in [windows.get(name, ("0", "1"))]
         for command in ("solve", "uncertainty")
         for extra in ([], ["--K", "0"],
                       ["--sigma0", "1.3", "--format", "json"])]
with tempfile.TemporaryDirectory() as tmp:
    out = os.path.join(tmp, "x.csv")
    calls += [
        ["uncertainty", "--model", "exp_frequency", "--t0", "0", "--t1", "1",
         "--sweep", "hbar=1:2:2", "--out", out],
        ["uncertainty", "--model", "bessel_type", "--t0", "0.1", "--t1",
         "0.8", "--sweep", "sigma0=0.3:0.4:2", "--out", out],
        ["check-min", "--model", "exp_frequency"],
        ["catalog"], ["catalog", "--format", "csv"],
        ["series", "--lambda", "2"], ["verify", "--suite", "all"],
        ["--help"], ["solve", "--help"],
        ["solve", "--model", "harmonic"]]  # no window: a config error
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        codes = [cli.main(argv) for argv in calls]
        for demo in sorted(os.listdir(os.path.join(root, "demos"))):
            if demo.endswith(".py"):
                runpy.run_path(os.path.join(root, "demos", demo),
                               run_name="__main__")
sys.setprofile(None)
print(json.dumps({"codes": codes, "reached": sorted(reached)}))
"""

# functions only tests call, each kept for a reason of its own
NO_PRODUCT_CALLER = {
    # the reference of test_superposition_matches_integration_on_damped_model,
    # and the oscillating twin of fit_hyperbolic, which the gate calls
    "ermakov.fit_oscillating",
    # keeps a misprint of the paper's appendix on record (see its test)
    "series.appendix_a3_candidates",
    # the exact coefficients behind symbolic_residual's float path
    "series.AlphaSeries.full_coefficients",
}


def defined_functions(path):
    """{(file, first line): dotted name} of the module-level functions and
    class methods defined in `path`; a decorated function's code starts at
    its first decorator."""
    found = {}
    for node in ast.parse(path.read_text()).body:
        members = [(node.name + ".", item) for item in node.body] \
            if isinstance(node, ast.ClassDef) else [("", node)]
        for prefix, item in members:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([item.lineno]
                            + [d.lineno for d in item.decorator_list])
                found[(str(path), first)] = \
                    f"{path.stem}.{prefix}{item.name}"
    return found


def test_the_check_sees_methods_and_decorators(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import functools\n\n\n@functools.cache\ndef f():\n"
                    "    def inner():\n        pass\n\n\nclass A:\n"
                    "    @property\n    def p(self):\n        pass\n")
    assert defined_functions(path) == {(str(path), 4): "mod.f",
                                       (str(path), 11): "mod.A.p"}


def test_every_function_has_a_product_caller():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _REACH, str(ROOT)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * (len(result["codes"]) - 1) + [2]
    defined = {}
    for path in MODULES:
        defined.update(defined_functions(path))
    reached = {tuple(key) for key in result["reached"]}
    unreached = {name for key, name in defined.items() if key not in reached}
    assert unreached == NO_PRODUCT_CALLER


def test_the_package_exports_exactly_the_error_classes():
    defined = {name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and obj.__module__ == errors.__name__}
    exported = {name for name in tdo.__all__
                if inspect.isclass(getattr(tdo, name))}
    assert exported == defined
