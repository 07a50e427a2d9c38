"""The partition side and the juggling side are checked against each other,
so neither may borrow from the other: kostant.py and juggling.py import
nothing from each other, and no listing function calls a count."""

import ast
from pathlib import Path

import kjuggle

PACKAGE = Path(kjuggle.__file__).parent
ENGINES = ("kostant", "juggling")


def _imported_modules(tree) -> set:
    """The last dotted component of every module and name an import brings in."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.rsplit(".", 1)[-1] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                found.add(node.module.rsplit(".", 1)[-1])
            found |= {alias.name for alias in node.names}
    return found


def _counts_called_by_listings(tree) -> list:
    """(listing function, called name) for each count_* call inside an enumerate_* function."""
    calls = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("enumerate_"):
            for inner in ast.walk(node):
                if isinstance(inner, ast.Call):
                    func = inner.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                    if name.startswith("count_"):
                        calls.append((node.name, name))
    return calls


def _tree(module: str):
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def test_engines_import_nothing_from_each_other():
    for module, other in (ENGINES, ENGINES[::-1]):
        assert other not in _imported_modules(_tree(module)), (module, other)


def test_listings_call_no_count():
    for module in ENGINES:
        assert _counts_called_by_listings(_tree(module)) == [], module


def test_the_guards_see_a_planted_breach():
    planted = ast.parse(
        "from .juggling import count_sequences\n"
        "from . import kostant\n"
        "def enumerate_things(x):\n"
        "    def inner():\n"
        "        return kostant.count_partitions(x, ())\n"
        "    return count_sequences(x, x, 1) + inner()\n")
    assert {"juggling", "kostant"} <= _imported_modules(planted)
    assert sorted(_counts_called_by_listings(planted)) == [
        ("enumerate_things", "count_partitions"), ("enumerate_things", "count_sequences")]
