"""Every name a kernsense module or test module imports is used there,
`import kernsense` loads only the library's core modules, the
estimators in empirics leave every loss kind's formulas to losses, and
the sweep engine and its command-line front import in one direction.

A stdlib-ast stand-in for a linter's unused-import rule.  The package's
__init__.py is exempt (its imports are the re-exports), and so are
`from __future__` imports.  A name counts as used when it appears as a
name anywhere in the module, as the root of an attribute chain, or as an
entry of __all__.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "kernsense"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
MODULES += sorted(TESTS.glob("*.py"))


def unused_imports(source: str) -> list:
    """(line, name) of each imported name the module never uses."""
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(c.value for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant))
    return [(line, name) for line, name in imported if name not in used]


def test_finds_an_unused_import():
    src = ("from __future__ import annotations\n"
           "import math, os.path\n"
           "from json import dumps, loads as ld\n"
           "__all__ = ['dumps']\n"
           "def f():\n"
           "    return os.path.sep\n")
    assert unused_imports(src) == [(2, "math"), (3, "ld")]


# What a module must not touch to branch on the loss kind: the kind tag,
# the kind constants, or a per-kind assembly that losses keeps to itself.
LOSS_KIND_NAMES = {"kind", "MSE", "KERNEL", "COMBINED", "_mix"}


def loss_kind_uses(source: str) -> list:
    """(line, name) of each import of a LOSS_KIND_NAMES name and of each
    attribute read of one (spec.kind, losses.MSE)."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            out += [(node.lineno, a.name) for a in node.names
                    if a.name in LOSS_KIND_NAMES]
        elif isinstance(node, ast.Attribute) and node.attr in LOSS_KIND_NAMES:
            out.append((node.lineno, node.attr))
    return out


def test_finds_a_loss_kind_use():
    src = ("from .losses import MSE, LossSpec, grad_residual\n"
           "import kernsense.losses as L\n"
           "def f(spec, r):\n"
           "    if spec.kind == MSE or spec is L.KERNEL:\n"
           "        return 2.0 * r\n"
           "    return grad_residual(spec, r)\n")
    assert sorted(loss_kind_uses(src)) == [(1, "MSE"), (4, "KERNEL"),
                                           (4, "kind")]


def test_empirics_leaves_loss_kinds_to_losses():
    # Each loss kind's residual gradient and Hessian-vector product are
    # assembled in losses (_derivative); an estimator that branched on the
    # kind would write a second definition of a loss.
    assert loss_kind_uses((SRC / "empirics.py").read_text()) == []


def package_imports(source: str) -> set:
    """Names of the package modules a kernsense module imports (relative
    imports, as the package writes them)."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.update([node.module] if node.module
                       else [a.name for a in node.names])
    return out


def test_finds_package_imports():
    src = ("import numpy as np\n"
           "from . import bounds as bd\n"
           "from .sweep import SweepConfig\n"
           "def f():\n"
           "    from .verify import run_verification\n")
    assert package_imports(src) == {"bounds", "sweep", "verify"}


def test_sweep_and_cli_import_in_one_direction():
    # cli is a front end over the library: the sweep engine must not reach
    # back into it, and cli reaches the estimators only through sweep.
    assert "cli" not in package_imports((SRC / "sweep.py").read_text())
    assert "empirics" not in package_imports((SRC / "cli.py").read_text())


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_package_import_loads_only_the_library_core():
    # `import kernsense` compiles and runs every module it loads, in every
    # fresh interpreter; bounds, cli, sweep and verify load only when asked
    # for.
    code = ("import sys, kernsense; print(' '.join(sorted("
            "m for m in sys.modules if m.split('.')[0] == 'kernsense')))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == ["kernsense", "kernsense.empirics", "kernsense.losses",
                   "kernsense.model", "kernsense.optimize"]
