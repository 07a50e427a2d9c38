"""No per-process cache can grow without bound on arbitrary input.

Every `functools.lru_cache` or `functools.cache` in the package must have a
finite maxsize, a literal or a module-level int constant, unless it is one
of the tables keyed by a type and rank (there are only so many of those a
process can ask for) or its function takes no arguments (one entry).  A
cache keyed by root sets, weights or other open-ended input must be bounded.
"""

import ast
from pathlib import Path

import kjuggle

PACKAGE = Path(kjuggle.__file__).parent
KEYED_BY_TYPE_AND_RANK = {("roots", "positive_roots"), ("bcd", "_walked_steps"),
                          ("closedforms", "_lidskii_table")}


def _name(node) -> str:
    """The called or referenced name: `lru_cache`, `functools.lru_cache`."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")


def _unbounded_caches(module: str, source: str) -> list:
    """(module, function) of each cache in the source that may grow without
    bound and is not allowed to; a cache built outside a decorator counts
    with the function name '?'."""
    tree = ast.parse(source)
    constants = {target.id: node.value.value for node in tree.body
                 if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
                 for target in node.targets if isinstance(target, ast.Name)}

    def bounded(call) -> bool:
        if _name(call.func) == "cache":
            return False
        size = next((kw.value for kw in call.keywords if kw.arg == "maxsize"),
                    call.args[0] if call.args else ast.Constant(128))
        if isinstance(size, ast.Name):
            size = ast.Constant(constants.get(size.id))
        return isinstance(size, ast.Constant) and isinstance(size.value, int)

    found, decorators = [], set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for deco in node.decorator_list:
            decorators.add(id(deco))
            if _name(deco.func if isinstance(deco, ast.Call) else deco) not in ("lru_cache",
                                                                               "cache"):
                continue
            if isinstance(deco, ast.Call):
                ok = bounded(deco)
            else:  # bare @lru_cache holds 128 entries; bare @cache has no bound
                ok = _name(deco) == "lru_cache"
            args = node.args
            no_args = not (args.posonlyargs or args.args or args.vararg or args.kwonlyargs
                           or args.kwarg)
            if not (ok or no_args or (module, node.name) in KEYED_BY_TYPE_AND_RANK):
                found.append((module, node.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and id(node) not in decorators
                and _name(node.func) in ("lru_cache", "cache") and not bounded(node)):
            found.append((module, "?"))
    return found


def test_every_cache_is_bounded_or_keyed_by_type_and_rank():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += _unbounded_caches(path.stem, path.read_text())
    assert found == []


def test_the_guard_catches_an_unbounded_cache():
    planted = '''
from functools import cache, lru_cache
import functools

LIMIT = 64

@lru_cache(maxsize=None)
def by_root_set(roots): ...

@functools.lru_cache(None)
def by_weight(weight): ...

@cache
def by_anything(x): ...

@lru_cache(maxsize=LIMIT)
def bounded_by_constant(x): ...

@lru_cache(16)
def bounded(x): ...

@lru_cache
def default_bound(x): ...

@cache
def one_entry(): ...

@lru_cache(maxsize=None)
def positive_roots(lie_type, rank): ...

table = lru_cache(maxsize=None)(len)
'''
    assert _unbounded_caches("roots", planted) == [
        ("roots", "by_root_set"), ("roots", "by_weight"), ("roots", "by_anything"),
        ("roots", "?")]
    assert ("kostant", "positive_roots") in _unbounded_caches("kostant", planted)
