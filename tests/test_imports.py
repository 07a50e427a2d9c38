"""No module of the package imports a name it never reads; a name that
__init__.py lists in __all__ is a re-export, read by its importers.  The
CLI loads no stdlib module that only its records would need."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import kjuggle

PACKAGE = Path(kjuggle.__file__).parent


def _unused_imports(tree) -> list:
    """The names bound by import statements that no expression reads (a name
    only rebound or deleted is not read), less the module's __all__."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:  # what __all__ names is read by the module's importers
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "__init__.py" in modules
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
    planted = ast.parse(
        "from itertools import accumulate, groupby, repeat\n"
        "from .errors import DomainError, InvariantViolation\n"
        "__all__ = ['DomainError']\n"
        "repeat = groupby\n"
        "del accumulate\n")
    assert _unused_imports(planted) == ["accumulate", "repeat", "InvariantViolation"]


def test_the_cli_loads_neither_dataclasses_nor_inspect():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    probe = ("import sys, kjuggle.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
