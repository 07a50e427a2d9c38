"""No module of the package imports a name it never uses; __init__.py, whose
imports are re-exports, is exempt.  The CLI loads no stdlib module that only
its records would need."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import kjuggle

PACKAGE = Path(kjuggle.__file__).parent


def _unused_imports(tree) -> list:
    """The names bound by import statements that no expression reads."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_no_module_imports_an_unused_name():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    for path in modules:
        assert _unused_imports(ast.parse(path.read_text())) == [], path.name


def test_the_guard_sees_a_planted_breach():
    planted = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from .bijection import gamma, gamma_inverse\n"
        "from .closedforms import catalan as cat\n"
        "def f(x) -> js.JSONDecoder:\n"
        "    return gamma(x, (), 1)\n")
    assert _unused_imports(planted) == ["os", "gamma_inverse", "cat"]


def test_the_cli_loads_neither_dataclasses_nor_inspect():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    probe = ("import sys, kjuggle.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
