"""The partition side and the juggling side are checked against each other,
so neither may borrow from the other: kostant.py and juggling.py import
nothing from each other, and no listing function calls a count.  The
juggling count and listings read an instance through one check,
`_instance`, which reaches no count.  The partition count and listing
read the dead-residual rule and the copy bound from one sweep plan,
`_plan`, and pack a target in one place, `_pack`.  The listing's forward
walk is the count's `_sweep`, but it never reads the count: every `_sweep`
call it reaches is a bare statement, so the listed-vs-counted checks
(`kostant --enumerate`, `verify_correspondence`) still test the backward
pass and the emission.  The B/C/D reduction is checked
against the direct count, so it reaches no count_partitions call and
counts its leaves in one place only; a closed form's value, a dilation
fit and a Lidskii expansion are checked against a partition count, so
they reach none.  Every walk is a loop: no
function calls itself, so none needs its closure deleted by hand and no
walk's depth is bounded by the interpreter's recursion limit."""

import ast
from pathlib import Path

import kjuggle

PACKAGE = Path(kjuggle.__file__).parent
ENGINES = ("kostant", "juggling")
PARTITION_COUNTS = {"count_partitions", "count_capacity_restricted"}
JUGGLING_ENTRIES = ("count_sequences", "enumerate_sequences", "enumerate_labeled_sequences")
PARTITION_WALKS = ("count_weighted", "count_capacity_restricted", "enumerate_partitions")


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
    """(function, called name) for each count_* call in a top-level function
    that an enumerate_* function can reach, the listing itself included."""
    counts = {name for name in _called_names(tree) if name.startswith("count_")}
    return sorted({call for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name.startswith("enumerate_")
                   for call in _calls_reached(tree, node.name, counts)})


def _called_names(node) -> set:
    """The names called anywhere inside node, as plain names or attributes."""
    return {inner.func.id if isinstance(inner.func, ast.Name) else getattr(inner.func, "attr", "")
            for inner in ast.walk(node) if isinstance(inner, ast.Call)}


def _reached_functions(tree, start: str) -> set:
    """The module's top-level functions that a call to start can reach."""
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    reached, todo = set(), [start]
    while todo:
        name = todo.pop()
        if name in functions and name not in reached:
            reached.add(name)
            todo.extend(_called_names(functions[name]))
    return reached


def _calls_reached(tree, start: str, names) -> list:
    """(function, name) for each of names called in a top-level function that
    a call to start can reach."""
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    return sorted((f, name) for f in _reached_functions(tree, start)
                  for name in set(names) & _called_names(functions[f]))


def _functions_naming(tree, name: str) -> set:
    """The top-level functions whose bodies mention name."""
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)
            and any(isinstance(inner, ast.Name) and inner.id == name
                    for inner in ast.walk(node))}


def _self_calling(tree) -> list:
    """The functions, top-level or nested, that call their own name as a
    plain-name call (an attribute call such as object.__new__ is not one)."""
    return sorted(node.name for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and any(isinstance(inner, ast.Call) and isinstance(inner.func, ast.Name)
                          and inner.func.id == node.name for inner in ast.walk(node)))


def _tree(module: str):
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def test_engines_import_nothing_from_each_other():
    for module, other in (ENGINES, ENGINES[::-1]):
        assert other not in _imported_modules(_tree(module)), (module, other)


def test_listings_call_no_count():
    for module in ENGINES:
        assert _counts_called_by_listings(_tree(module)) == [], module


def _instance_readers(tree) -> list:
    """Of the juggling entry points, those whose calls never reach `_instance`,
    or reach a count_* call from it."""
    counts = {name for name in _called_names(tree) if name.startswith("count_")}
    return [name for name in JUGGLING_ENTRIES
            if "_instance" not in _reached_functions(tree, name)
            or _calls_reached(tree, "_instance", counts)]


def test_juggling_entries_share_one_instance_check():
    assert _instance_readers(_tree("juggling")) == []


def _unplanned_walks(tree) -> list:
    """Of the partition walks, those whose calls miss `_plan` or `_pack`."""
    return [name for name in PARTITION_WALKS
            if not {"_plan", "_pack"} <= _reached_functions(tree, name)]


def test_partition_walks_share_one_sweep_plan():
    assert _unplanned_walks(_tree("kostant")) == []


def _read_sweeps(tree) -> list:
    """(function, line) for each `_sweep` call, in a function the partition
    listing reaches, that is not a bare expression statement."""
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    found = []
    for name in _reached_functions(tree, "enumerate_partitions"):
        nodes = list(ast.walk(functions[name]))
        bare = {id(node.value) for node in nodes if isinstance(node, ast.Expr)}
        found += [(name, call.lineno) for call in nodes if isinstance(call, ast.Call)
                  and "_sweep" in (getattr(call.func, "id", None), getattr(call.func, "attr", None))
                  and id(call) not in bare]
    return sorted(found)


def test_the_listing_never_reads_the_sweeps_count():
    tree = _tree("kostant")
    assert "_sweep" in _reached_functions(tree, "enumerate_partitions")
    assert _read_sweeps(tree) == []


def test_the_reduction_reaches_no_direct_count():
    tree = _tree("bcd")
    reached = _reached_functions(tree, "schmidt_bincer_count")
    assert {"_reduction", "_leaves"} <= reached
    assert _calls_reached(tree, "schmidt_bincer_count", {"count_partitions"}) == []
    assert _functions_naming(tree, "count_weighted") == {"_reduction"}


def test_closed_form_values_reach_no_partition_count():
    tree = _tree("closedforms")
    assert "gf_coefficients" in _reached_functions(tree, "closed_form_value")
    assert _calls_reached(tree, "closed_form_value", PARTITION_COUNTS) == []
    assert _calls_reached(tree, "closed_form_check", PARTITION_COUNTS) == [
        ("closed_form_check", "count_capacity_restricted")]
    # the dilation fit and the Lidskii expansion are checked against
    # count_partitions by their callers, so they reach the juggling count only
    for fast in ("ehrhart_fit", "lidskii_count"):
        assert _calls_reached(tree, fast, PARTITION_COUNTS) == [], fast
        assert _calls_reached(tree, fast, {"count_sequences"}), fast


def test_no_function_calls_itself():
    for path in sorted(PACKAGE.glob("*.py")):
        assert _self_calling(ast.parse(path.read_text())) == [], path.name


def test_the_guards_see_a_planted_breach():
    planted = ast.parse(
        "from .juggling import count_sequences\n"
        "from . import kostant\n"
        "def enumerate_things(x):\n"
        "    def inner():\n"
        "        return kostant.count_partitions(x, ())\n"
        "    return count_sequences(x, x, 1) + inner()\n")
    assert {"juggling", "kostant"} <= _imported_modules(planted)
    assert _counts_called_by_listings(planted) == [
        ("enumerate_things", "count_partitions"), ("enumerate_things", "count_sequences")]
    planted = ast.parse(
        "def enumerate_things(x):\n"
        "    return _walk(x)\n"
        "def _walk(x):\n"
        "    return count_sequences(x, x, 1)\n"
        "def count_things(x):\n"
        "    return count_weighted({x: 1}, ())\n")
    assert _counts_called_by_listings(planted) == [("_walk", "count_sequences")]
    planted = ast.parse(
        "def top(x):\n"
        "    return middle(x)\n"
        "def middle(x):\n"
        "    return kostant.count_partitions(x, count_weighted)\n"
        "def unrelated(x):\n"
        "    return count_weighted({x: 1}, ())\n")
    assert _reached_functions(planted, "top") == {"top", "middle"}
    assert "count_partitions" in _called_names(planted.body[1])
    assert _calls_reached(planted, "top", PARTITION_COUNTS) == [("middle", "count_partitions")]
    assert _functions_naming(planted, "count_weighted") == {"middle", "unrelated"}
    planted = ast.parse(
        "def closed_form_value(which, r):\n"
        "    return _seed(which) + gf_coefficients(which, r)[-1]\n"
        "def _seed(which):\n"
        "    return kostant.count_capacity_restricted(which, (), (), 2)\n")
    assert _calls_reached(planted, "closed_form_value", PARTITION_COUNTS) == [
        ("_seed", "count_capacity_restricted")]
    planted = ast.parse(
        "def _instance(a, b, n, capacity):\n"
        "    return (a, b, n, n)\n"
        "def _walk(instance):\n"
        "    return [instance]\n"
        "def count_sequences(a, b, n, capacity=None):\n"
        "    return len(_walk(_instance(a, b, n, capacity)))\n"
        "def enumerate_sequences(a, b, n, capacity=None):\n"
        "    return _walk((a, b, n, n))\n"
        "def enumerate_labeled_sequences(a, b, n):\n"
        "    return [_walk(_instance(a, b, n, None))]\n")
    assert _instance_readers(planted) == ["enumerate_sequences"]
    planted = ast.parse(
        "def _instance(a, b, n, capacity):\n"
        "    return _check(a, b) and (a, b, n, n)\n"
        "def _check(a, b):\n"
        "    return count_sequences(a, b, 0)\n"
        "def count_sequences(a, b, n, capacity=None):\n"
        "    return _instance(a, b, n, capacity)\n"
        "def enumerate_sequences(a, b, n, capacity=None):\n"
        "    return _instance(a, b, n, capacity)\n"
        "def enumerate_labeled_sequences(a, b, n):\n"
        "    return _instance(a, b, n, None)\n")
    assert _instance_readers(planted) == list(JUGGLING_ENTRIES)
    planted = ast.parse(
        "def _plan(roots, bits, length):\n"
        "    return bits, ()\n"
        "def _pack(target, pure, bits, bias):\n"
        "    return bias\n"
        "def _sweep(targets, roots):\n"
        "    return [_pack(t, True, 2, _plan(roots, 2, 1)[0]) for t in targets]\n"
        "def count_weighted(targets, allowed):\n"
        "    return _sweep(targets, allowed)\n"
        "def count_capacity_restricted(target, allowed, initial, capacity):\n"
        "    return _plan(allowed, 2, 1)\n"
        "def enumerate_partitions(target, allowed):\n"
        "    return [w for w in target if min(w) >= 0]\n")
    assert _unplanned_walks(planted) == ["count_capacity_restricted", "enumerate_partitions"]
    planted = ast.parse(
        "def _sweep(targets, roots, reach=None):\n"
        "    return 0\n"
        "def enumerate_partitions(target, allowed):\n"
        "    reach = []\n"
        "    _sweep({target: 1}, allowed, reach=reach)\n"
        "    n = _sweep({target: 1}, allowed, reach=reach)\n"
        "    return _emit(reach)[:n]\n"
        "def _emit(reach):\n"
        "    if kostant._sweep({}, (), reach=reach):\n"
        "        return []\n"
        "    return reach\n"
        "def count_weighted(targets, allowed):\n"
        "    return _sweep(targets, allowed)\n")
    assert _read_sweeps(planted) == [("_emit", 9), ("enumerate_partitions", 6)]
    planted = ast.parse(
        "class Root:\n"
        "    def __new__(cls):\n"
        "        return object.__new__(cls)\n"
        "def walk(entries):\n"
        "    def rec(node):\n"
        "        return [rec(child) for child in node]\n"
        "    return rec(entries)\n"
        "async def descend(n):\n"
        "    return n and await descend(n - 1)\n")
    assert _self_calling(planted) == ["descend", "rec"]
