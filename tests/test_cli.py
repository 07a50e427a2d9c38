import ast
import io
import json
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kjuggle
from kjuggle import acceptance, bcd, cli, closedforms
from kjuggle.cli import dispatch
from kjuggle.errors import DomainError, InvariantViolation
from kjuggle.kostant import enumerate_partitions


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def test_kostant_count(capsys):
    code, out, _ = run(capsys, "kostant", "--type", "A", "--rank", "3",
                       "--weight-alpha", "1,2,1")
    assert code == 0 and out.strip() == "5"


def test_kostant_unreachable_weight_prints_zero(capsys):
    code, out, _ = run(capsys, "kostant", "--type", "A", "--rank", "1",
                       "--weight-alpha", "-1")
    assert code == 0 and out.strip() == "0"


def test_kostant_json_roundtrips_byte_identical(capsys):
    code, out, _ = run(capsys, "kostant", "--type", "A", "--rank", "3",
                       "--weight-alpha", "1,2,1", "--enumerate", "--json")
    assert code == 0
    line = out.strip()
    payload = json.loads(line)
    assert canonical(payload) == line
    assert payload["count"] == "5"
    assert len(payload["partitions"]) == 5
    assert payload["partitions"][0] == [["1-2", 1], ["2-3", 1], ["2-4", 1]]


def test_kostant_enumerate_text_lists_each_partition_once(capsys, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return enumerate_partitions(*args)

    monkeypatch.setattr(cli, "enumerate_partitions", counted)
    code, out, _ = run(capsys, "kostant", "--type", "A", "--rank", "3",
                       "--weight-alpha", "1,2,1", "--enumerate")
    lines = out.splitlines()
    assert code == 0 and lines[0] == "5"
    assert len(lines) == int(lines[0]) + 1
    assert len(set(lines[1:])) == 5
    assert len(calls) == 1


def test_kostant_enumerate_checks_the_listing_against_the_count(capsys, monkeypatch):
    monkeypatch.setattr(cli, "enumerate_partitions", lambda *a: enumerate_partitions(*a)[1:])
    code, out, err = run(capsys, "kostant", "--type", "A", "--rank", "3",
                         "--weight-alpha", "1,2,1", "--enumerate")
    assert code == 1 and out == ""
    assert err == ("internal invariant violated: 4 partitions listed, 5 counted, for weight "
                   "[1, 1, -1, -1] over 1-2 1-3 1-4 2-3 2-4 3-4\n")


def _count_calls(monkeypatch, fn, *modules):
    """Patch fn's name in each module with a wrapper; returns the list of calls."""
    calls = []

    def counted(*args):
        calls.append(args)
        return fn(*args)

    for module in modules:
        monkeypatch.setattr(module, fn.__name__, counted)
    return calls


def test_bcd_count_runs_each_route_once(capsys, monkeypatch):
    partitions = _count_calls(monkeypatch, bcd.count_partitions, cli, bcd)
    reductions = _count_calls(monkeypatch, bcd.schmidt_bincer_count, cli, bcd)
    assert run(capsys, "bcd", "count", "--type", "B", "--rank", "3", "--highest-root")[0] == 0
    assert len(partitions) == len(reductions) == 1


def test_lidskii_expands_once(capsys, monkeypatch):
    expansions = _count_calls(monkeypatch, closedforms.lidskii_count, cli)
    assert run(capsys, "lidskii", "--weight-eps", "2,1,1,0,-4")[0] == 0
    assert len(expansions) == 1


def test_closedform_runs_the_oracle_once(capsys, monkeypatch):
    oracles = _count_calls(monkeypatch, closedforms.count_capacity_restricted, closedforms)
    assert run(capsys, "closedform", "--which", "c46", "--r", "5")[0] == 0
    assert len(oracles) == 1


def test_js_count_and_enum(capsys):
    code, out, _ = run(capsys, "js", "count", "--initial", "1", "--terminal", "1",
                       "--length", "3")
    assert code == 0 and out.strip() == "4"
    code, out, _ = run(capsys, "js", "enum", "--initial", "1,1,0,-1", "--terminal", "1",
                       "--length", "4", "--throws", "heights=1,3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == "4"
    assert [[1, 1, 0, -1], [1], [1], [1], [1]] in [s["states"] for s in payload["sequences"]]


def test_js_capacity_flag(capsys):
    code, out, _ = run(capsys, "js", "count", "--initial", "1,1", "--terminal", "1,1",
                       "--length", "3", "--capacity", "2")
    assert code == 0 and out.strip() == "11"


def test_js_throws_file(tmp_path, capsys):
    path = tmp_path / "throws.txt"
    path.write_text("1:1\n1:2\n2:1\n2:2\n3:1\n3:2\n# comment\n")
    code, out, _ = run(capsys, "js", "count", "--initial", "1", "--terminal", "1",
                       "--length", "3", "--throws-file", str(path))
    assert code == 0 and out.strip() == "3"


def test_single_result_listings_take_no_frame_per_root_or_time(capsys):
    # B_32 has 1,024 roots and the sequence 3,000 steps, both past the
    # default recursion limit; each listing has exactly one result.
    code, out, _ = run(capsys, "kostant", "--type", "B", "--rank", "32",
                       "--weight-eps", ",".join(["0"] * 31 + ["1"]), "--enumerate")
    assert code == 0 and out == "1\n32\n"
    code, out, _ = run(capsys, "js", "enum", "--initial", "1", "--terminal", "1",
                       "--length", "3000", "--capacity", "1", "--throws", "heights=1")
    assert code == 0 and out == " -> ".join(["1"] * 3001) + "\n# 1 sequences\n"


def test_closed_stdout_ends_without_a_traceback():
    env = dict(os.environ, PYTHONPATH=str(Path(kjuggle.__file__).resolve().parent.parent))
    proc = subprocess.Popen(
        [sys.executable, "-m", "kjuggle.cli", "js", "enum", "--initial", "1,1",
         "--terminal", "1,1", "--length", "9"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # the reader is gone before the first write, as with `| head`
    try:
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == b""


def test_roots_listing_and_file_use(tmp_path, capsys):
    code, out, _ = run(capsys, "roots", "--type", "B", "--rank", "2", "--quiet")
    assert code == 0
    assert out.split() == ["1-2", "1+2", "1", "2"]
    path = tmp_path / "lam.txt"
    path.write_text("1-2\n1-3\n2-3\n2-4\n3-4\n")
    code, out, _ = run(capsys, "kostant", "--type", "A", "--rank", "3",
                       "--weight-alpha", "1,1,1", "--roots", str(path))
    assert code == 0 and out.strip() == "3"


def test_permdet_with_roots_file(tmp_path, capsys):
    path = tmp_path / "lam.txt"
    path.write_text("1-2\n1-3\n2-3\n2-4\n3-4\n3-5\n4-5\n")
    code, out, _ = run(capsys, "permdet", "--rank", "4", "--roots", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["permanent"] == payload["determinant"] == payload["kostant"] == "5"


# Exact output of the commands that cross-check a count by two routes, as
# printed before each route was made to run once.
PINNED = [
    ("permdet --rank 7 --json",
     '{"agree":true,"determinant":"64","kostant":"64","permanent":"64"}\n'),
    ("permdet --rank 7", "permanent:   64\ndeterminant: 64\npartitions:  64\n"),
    ("permdet --rank 4 --roots @roots --json",
     '{"agree":true,"determinant":"5","kostant":"5","permanent":"5"}\n'),
    ("permdet --rank 4 --roots @roots", "permanent:   5\ndeterminant: 5\npartitions:  5\n"),
    ("lidskii --weight-eps 2,1,1,0,-4 --json",
     '{"agree":true,"oracle":"138","values":{"binomial":"138","multiset":"138"},'
     '"weight":[2,1,1,0,-4]}\n'),
    ("lidskii --weight-eps 2,1,1,0,-4", "binomial: 138\nmultiset: 138\noracle: 138\n"),
    ("lidskii --weight-eps 2,1,1,0,-4 --variant binomial --json",
     '{"agree":true,"oracle":"138","values":{"binomial":"138"},"weight":[2,1,1,0,-4]}\n'),
    ("lidskii --weight-eps 2,1,1,0,-4 --variant multiset", "multiset: 138\noracle: 138\n"),
    ("ehrhart --weight-eps 1,1,1,-3", "(2/3)t^3 + (5/2)t^2 + (17/6)t + 1\n"),
    ("closedform --which c46 --r 5 --json",
     '{"oracle":"40","r":5,"surd":"40","surd_matches":true,"value":"40","which":"c46"}\n'),
    ("closedform --which c48 --r 6 --json",
     '{"oracle":"105","r":6,"surd":"105","surd_matches":true,"value":"105","which":"c48"}\n'),
    ("closedform --which c45 --r 8 --json",
     '{"r":8,"surd":"5875","surd_matches":true,"value":"5875","which":"c45"}\n'),
    ("closedform --which c46 --r 5", "40\n# exact surd value: 40\n"),
    ("bcd count --type B --rank 3 --highest-root --json",
     '{"agree":true,"methods":{"juggling":"11","literal_schmidt_bincer":"0","oracle":"11",'
     '"schmidt_bincer":"11"},"rank":3,"type":"B","weight":[1,1,0]}\n'),
    ("bcd count --type C --rank 4 --highest-root --json",
     '{"agree":true,"methods":{"juggling":"35","literal_schmidt_bincer":"0","oracle":"35",'
     '"schmidt_bincer":"35"},"rank":4,"type":"C","weight":[2,0,0,0]}\n'),
    ("bcd count --type D --rank 5 --highest-root --json",
     '{"agree":true,"methods":{"juggling":"55","literal_schmidt_bincer":"0","oracle":"55",'
     '"schmidt_bincer":"55"},"rank":5,"type":"D","weight":[1,1,0,0,0]}\n'),
    ("bcd count --type C --rank 4 --highest-root",
     "juggling: 35\nliteral_schmidt_bincer: 0\noracle: 35\nschmidt_bincer: 35\n"
     "# methods agree: True\n"),
    ("bcd count --type B --rank 3 --highest-root --method juggling", "juggling: 11\n"),
    ("bcd count --type B --rank 3 --weight-eps 1,1,0",
     "juggling: 11\nliteral_schmidt_bincer: 0\noracle: 11\nschmidt_bincer: 11\n"
     "# methods agree: True\n"),
    # a zero-sum weight, on which the literal reading walks the e_i - e_j roots
    ("bcd count --type B --rank 9 --weight-eps 2,1,0,0,0,0,0,-1,-2",
     "literal_schmidt_bincer: 285784650\noracle: 103264\nschmidt_bincer: 103264\n"
     "# methods agree: True\n"),
]


@pytest.mark.parametrize("command, expected", PINNED)
def test_cross_checked_output_is_pinned(command, expected, tmp_path, capsys):
    roots = tmp_path / "lam.txt"
    roots.write_text("1-2\n1-3\n2-3\n2-4\n3-4\n3-5\n4-5\n")
    argv = [str(roots) if arg == "@roots" else arg for arg in command.split()]
    assert run(capsys, *argv) == (0, expected, "")


def test_bijection_roundtrip(capsys):
    code, out, _ = run(capsys, "bijection", "roundtrip", "--weight-eps", "1,1,-1,-1")
    assert code == 0 and "ok" in out


def test_bijection_to_juggling(tmp_path, capsys):
    path = tmp_path / "part.txt"
    path.write_text("1-2\n2-3 2\n3-4\n")
    code, out, _ = run(capsys, "bijection", "to-juggling", "--partition", str(path),
                       "--initial", "1,1,-1", "--length", "3")
    assert code == 0
    assert out.strip() == "1,1,-1 -> 2,-1 -> 1 -> 1"


def test_bcd_count_all_methods(capsys):
    code, out, _ = run(capsys, "bcd", "count", "--type", "D", "--rank", "4",
                       "--highest-root", "--method", "all", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["methods"]["oracle"] == "15"
    assert payload["methods"]["juggling"] == "15"
    assert payload["methods"]["schmidt_bincer"] == "15"
    assert payload["methods"]["literal_schmidt_bincer"] == "0"
    assert payload["agree"] is True


def test_bcd_count_accepts_simple_root_weights(capsys):
    code, out, _ = run(capsys, "bcd", "count", "--type", "B", "--rank", "2",
                       "--weight-alpha", "1,2", "--method", "oracle")
    assert code == 0 and out.strip() == "oracle: 3"


@pytest.mark.parametrize("argv, message", [
    (["kostant", "--type", "A", "--rank", "2", "--weight-alpha", "1,1", "--weight-eps", "5,0,-5"],
     "kjuggle kostant: error: argument --weight-eps: not allowed with argument --weight-alpha"),
    (["bcd", "count", "--type", "B", "--rank", "2", "--weight-alpha", "1,1",
      "--weight-eps", "1,1"],
     "kjuggle bcd count: error: argument --weight-eps: not allowed with argument --weight-alpha"),
    (["bcd", "count", "--type", "B", "--rank", "2", "--highest-root", "--weight-eps", "9,9"],
     "kjuggle bcd count: error: argument --weight-eps: not allowed with argument --highest-root"),
    (["bcd", "count", "--type", "C", "--rank", "3", "--highest-root", "--weight-alpha", "1,1,1"],
     "kjuggle bcd count: error: argument --weight-alpha: not allowed with argument "
     "--highest-root"),
    # before, --dot printed the cover graph and ignored --json
    (["poset", "charpoly", "--initial", "1", "--terminal", "1", "--length", "3", "--dot",
      "--json"],
     "kjuggle poset: error: argument --json: not allowed with argument --dot"),
], ids=["kostant-alpha-eps", "bcd-alpha-eps", "bcd-highest-eps", "bcd-highest-alpha",
        "poset-dot-json"])
def test_a_second_weight_is_refused_not_ignored(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"{message}\n")


@pytest.mark.parametrize("command, message", [
    # before, bcd count ignored --which and --partition and printed its counts
    ("bcd count --type B --rank 2 --highest-root --which c2a --partition nothing",
     "unrecognized arguments: --which c2a --partition nothing"),
    ("bcd map --which c2a --rank 3 --partition nothing --method oracle",
     "unrecognized arguments: --method oracle"),
    ("bcd map --which c2a --rank 3 --partition nothing --weight-eps 1,2,3",
     "unrecognized arguments: --weight-eps 1,2,3"),
    ("bijection roundtrip --weight-eps 1,1,-1,-1 --partition nothing",
     "unrecognized arguments: --partition nothing"),
    ("bijection to-juggling --partition nothing --initial 1,1,-1 --length 3 --capacity 2",
     "unrecognized arguments: --capacity 2"),
])
def test_an_action_refuses_the_other_actions_flags(capsys, monkeypatch, command, message):
    reads = _count_calls(monkeypatch, cli._read_lines, cli)
    assert run(capsys, *command.split()) == (2, "", f"kjuggle: error: {message}\n")
    assert reads == []


@pytest.mark.parametrize("command, message", [
    ("js count --initial 1,1 --terminal 1,1 --length 2 --throws=",
     "malformed throw spec ''"),
    ("js enum --initial 1,1 --terminal 1,1 --length 2 --throws-file=",
     "cannot read throws file "),
    ("kostant --type A --rank 2 --weight-alpha 1,1 --roots=", "cannot read roots file "),
    ("bijection roundtrip --weight-eps 1,1,-1,-1 --roots=", "cannot read roots file "),
    ("permdet --rank 3 --roots=", "cannot read roots file "),
])
def test_an_empty_flag_value_is_read_not_dropped(capsys, command, message):
    code, out, err = run(capsys, *command.split())
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert err.startswith(f"error: {message}")


def test_a_partition_line_has_at_most_two_fields(tmp_path):
    path = tmp_path / "part.txt"
    path.write_text("1-2\n1-3 1 junk\n")
    with pytest.raises(DomainError, match=r"^malformed partition line '1-3 1 junk'"):
        cli._load_partition(str(path))
    path.write_text("1-2\n1-3 2\n")
    assert cli.partition_label(cli._load_partition(str(path))) == "1-2 1-3 1-3"


def test_bcd_juggling_method_needs_highest_root(capsys):
    code, _, err = run(capsys, "bcd", "count", "--type", "B", "--rank", "2",
                       "--weight-eps", "0,1", "--method", "juggling")
    assert code == 1 and "highest" in err


def test_bcd_map(tmp_path, capsys):
    path = tmp_path / "part.txt"
    path.write_text("1+2\n")
    code, out, _ = run(capsys, "bcd", "map", "--which", "b2a", "--rank", "2",
                       "--partition", str(path), "--quiet")
    assert code == 0 and out.strip() == "1-4 2-3"


def test_bcd_map_violation_names_the_instance(tmp_path, capsys, monkeypatch):
    path = tmp_path / "part.txt"
    path.write_text("1-2\n2\n2\n")
    monkeypatch.setattr(cli, "b_to_a_inverse", lambda image, rank: image)
    code, out, err = run(capsys, "bcd", "map", "--which", "b2a", "--rank", "2",
                         "--partition", str(path))
    assert code == 1 and out == ""
    assert err == ("internal invariant violated: map roundtrip failed for --which b2a "
                   "--rank 2 on partition 1-2 2 2\n")


def test_poset_charpoly_and_dot(capsys):
    code, out, _ = run(capsys, "poset", "charpoly", "--initial", "1,1,1",
                       "--terminal", "3", "--length", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"] == ["-1", "3", "-3", "1"]
    assert payload["factored"] == "(q - 1)^3"
    code, out, _ = run(capsys, "poset", "charpoly", "--initial", "1", "--terminal", "1",
                       "--length", "3", "--dot")
    assert code == 0 and out.startswith("digraph")


def test_poset_two_minima_reported_but_dot_still_works(capsys):
    code, _, err = run(capsys, "poset", "charpoly", "--initial", "1,1",
                       "--terminal", "1,1", "--length", "2")
    assert (code, err) == (1, "error: poset has 2 minimal elements: 1-3 2-4, 1-4 2-3\n")
    code, out, _ = run(capsys, "poset", "charpoly", "--initial", "1,1",
                       "--terminal", "1,1", "--length", "2", "--dot")
    assert code == 0 and out.startswith("digraph")


def test_lidskii_cli(capsys):
    code, out, _ = run(capsys, "lidskii", "--weight-eps", "1,1,1,-3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["values"] == {"binomial": "7", "multiset": "7"}
    assert payload["oracle"] == "7" and payload["agree"] is True


def test_gf_cli(capsys):
    code, out, _ = run(capsys, "gf", "--row", "2|2", "--upto", "4", "--quiet")
    assert code == 0 and out.split() == ["1", "3", "10", "35"]


def test_gf_checks_the_recurrence_against_direct_counts_once(capsys, monkeypatch):
    calls = _count_calls(monkeypatch, closedforms.gf_direct_count, closedforms)
    code, out, _ = run(capsys, "gf", "--row", "2|2", "--upto", "8")
    assert code == 0
    assert out == "1 3 10 35 125 450 1625 5875\n# direct counts (n <= 6) agree: True\n"
    assert [n for _, n in calls] == [1, 2, 3, 4, 5, 6]

    monkeypatch.setattr(closedforms, "gf_direct_count", lambda row, n: 7)
    code, out, err = run(capsys, "gf", "--row", "2|2", "--upto", "2", "--json")
    assert code == 1 and out == ""
    assert err == "internal invariant violated: row 2|2: [1, 3] vs direct [7, 7]\n"
    with pytest.raises(InvariantViolation, match=r"vs direct \[7, 7, 7, 7, 7, 7\]"):
        acceptance.criterion_generating_functions()


def test_closedform_cli(capsys):
    code, out, _ = run(capsys, "closedform", "--which", "c45", "--r", "6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == payload["oracle"] == "450"
    assert payload["surd_matches"] is True


def test_catalan_cli(capsys):
    code, out, _ = run(capsys, "catalan", "--r", "7")
    assert code == 0 and out.strip() == "5880"


def test_ehrhart_cli(capsys):
    code, out, _ = run(capsys, "ehrhart", "--weight-eps", "1,0,-1", "--extra", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"] == ["1", "1"]


@pytest.mark.parametrize("command, flag, value", [
    (["kostant", "--type", "A", "--rank", "1"], "--weight-eps", "-1,1"),
    (["kostant", "--type", "A", "--rank", "2"], "--weight-alpha", "-1,2"),
    (["bcd", "count", "--type", "B", "--rank", "2"], "--weight-alpha", "-1,1"),
    (["bcd", "count", "--type", "B", "--rank", "2"], "--weight-eps", "-2,1"),
    (["lidskii"], "--weight-eps", "-1,0,1"),
    (["js", "count", "--terminal", "2", "--length", "3"], "--initial", "-1,3"),
    (["js", "count", "--initial", "1,1", "--length", "2"], "--terminal", "-1,3"),
    (["poset", "charpoly", "--terminal", "1", "--length", "2"], "--initial", "-1,2"),
    (["poset", "charpoly", "--initial", "1", "--length", "2"], "--terminal", "-1"),
])
def test_negative_leading_list_reads_the_same_spaced_or_joined(capsys, command, flag, value):
    spaced = run(capsys, *command, flag, value)
    assert spaced == run(capsys, *command, f"{flag}={value}")
    assert spaced[0] in (0, 1)


def test_only_a_list_option_joins_its_negative_value():
    assert cli._join_negative_lists(["js", "--initial", "-1", "--terminal", "1"]) == [
        "js", "--initial=-1", "--terminal", "1"]
    for argv in (["js", "--initial", "--terminal", "1"], ["js", "--length", "-1"],
                 ["js", "--", "--initial", "-1"], ["js", "--initial"]):
        assert cli._join_negative_lists(argv) == argv


def test_usage_errors_exit_two(capsys):
    assert dispatch(["not-a-command"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith("kjuggle: error: ")
    assert dispatch(["js", "count", "--initial", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("kjuggle js: error: the following arguments are required")


def test_parser_is_built_once(capsys, monkeypatch):
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    first = run(capsys, "roots", "--type", "A", "--rank", "2", "--json")
    assert dispatch(["roots", "--rank", "2"]) == 2
    capsys.readouterr()
    assert run(capsys, "roots", "--type", "A", "--rank", "2", "--json") == first
    assert run(capsys, "roots", "--type", "B", "--rank", "2")[0] == 0
    assert builds == [1]


# The functions of cli.py that may make or write the output decision; a
# print with file= writes to stderr and is not counted.
OUTPUT_READERS = {"args.json": {"dispatch"}, "_emit_json": {"dispatch"},
                  "print": {"dispatch", "_emit_json"}, "args.quiet": {"dispatch", "_cmd_selftest"}}


def _output_use(node):
    """"args.json", "args.quiet", "_emit_json" or "print" where node reads
    that flag or makes that call to stdout, else None."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "args" and node.attr in ("json", "quiet")):
        return f"args.{node.attr}"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id == "_emit_json" or (
                node.func.id == "print" and all(k.arg != "file" for k in node.keywords)):
            return node.func.id
    return None


def _output_breaches(tree) -> list:
    """(function, use) for each output use in a top-level function that
    OUTPUT_READERS does not allow there."""
    return sorted({(func.name, use) for func in tree.body if isinstance(func, ast.FunctionDef)
                   for use in map(_output_use, ast.walk(func))
                   if use and func.name not in OUTPUT_READERS[use]})


def test_only_dispatch_decides_and_writes_the_output():
    """Handlers return their result; dispatch alone reads --json and
    --quiet and writes stdout, and selftest alone reads --quiet too."""
    assert _output_breaches(ast.parse(Path(cli.__file__).read_text())) == []
    planted = ast.parse(
        "def _cmd_x(args):\n"
        "    if args.json:\n"
        "        _emit_json({})\n"
        "    elif not args.quiet:\n"
        "        print('# note')\n"
        "    print('error', file=sys.stderr)\n"
        "def dispatch(argv):\n"
        "    if args.json and not args.quiet:\n"
        "        _emit_json(print(1))\n"
        "def _cmd_selftest(args):\n"
        "    return args.quiet\n"
        "def _emit_json(payload):\n"
        "    print(payload)\n")
    assert _output_breaches(planted) == [("_cmd_x", "_emit_json"), ("_cmd_x", "args.json"),
                                         ("_cmd_x", "args.quiet"), ("_cmd_x", "print")]


def test_domain_errors_exit_one(capsys):
    code, _, err = run(capsys, "kostant", "--type", "D", "--rank", "3",
                       "--weight-eps", "1,1,0")
    assert code == 1 and "rank" in err
    code, _, err = run(capsys, "js", "count", "--initial", "1,x", "--terminal", "1",
                       "--length", "2")
    assert code == 1 and "1,x" in err
    code, _, err = run(capsys, "kostant", "--type", "A", "--rank", "2",
                       "--weight-eps", "1,0,-1", "--roots", "/nonexistent/file")
    assert code == 1 and "roots file" in err


def test_selftest_json(capsys):
    code, out, _ = run(capsys, "selftest", "--json")
    assert code == 0
    assert run(capsys, "selftest", "--json")[1] == out  # two runs, the same bytes
    payload = json.loads(out)
    assert payload["failed"] == "0"
    assert len(payload["criteria"]) == 15
    assert not any("seconds" in c for c in payload["criteria"])


JS_STATES = ["0", "1", "2", "3", "1,1", "0,1", "2,1", "1,0,1", "2,0,-1", "-1,1", "1,-1,1",
             "", "1,,1", "a", "1.5"]
JS_LENGTHS = [None, "0", "1", "2", "3", "4", "-1", "x"]
JS_CAPACITIES = [None, "1", "2", "3", "0", "-2", "y"]
JS_THROWS = [None, "heights=1,2", "heights=2", "heights=0", "heights=", "foo"]


def _ends_cleanly(argv, as_json):
    """Run argv and assert that it ends cleanly: no traceback; status 0 with
    nothing on stderr (and one line of JSON with --json), or status 1 or 2
    with one error line on stderr and nothing on stdout."""
    if as_json:
        argv = argv + ["--json"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = dispatch(argv)
    lines = err.getvalue().splitlines()
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert lines == []
        if as_json:
            assert out.getvalue().count("\n") == 1
    elif code == 1:
        assert len(lines) == 1 and lines[0].startswith("error: ") and out.getvalue() == ""
    else:
        assert code == 2 and out.getvalue() == ""
        assert len(lines) == 1 and lines[0].startswith((
            f"kjuggle {argv[0]}: error: ", f"kjuggle {' '.join(argv[:2])}: error: ",
            "kjuggle: error: unrecognized arguments: "))
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(initial=st.sampled_from(JS_STATES), terminal=st.sampled_from(JS_STATES),
       length=st.sampled_from(JS_LENGTHS), capacity=st.sampled_from(JS_CAPACITIES),
       throws=st.sampled_from(JS_THROWS),
       as_json=st.booleans())
def test_js_count_inputs_end_cleanly(initial, terminal, length, capacity, throws, as_json):
    """js count and js enum end alike on the same inputs: the same status
    and error, and on success as many sequences listed as counted."""
    flags = ["--initial", initial, "--terminal", terminal]
    for flag, value in (("--length", length), ("--capacity", capacity), ("--throws", throws)):
        if value is not None:
            flags += [flag, value]
    code, count_out, err = _ends_cleanly(["js", "count"] + flags, as_json)
    enum_code, enum_out, enum_err = _ends_cleanly(["js", "enum"] + flags, as_json)
    assert (enum_code, enum_err) == (code, err)
    if code == 0:
        assert count_out.count("\n") == 1
        if as_json:
            assert json.loads(enum_out)["count"] == json.loads(count_out)["count"]
        else:
            assert enum_out.splitlines()[-1] == f"# {count_out.strip()} sequences"


# Partition files, by name; "" leaves the flag out, "missing" names no file.
PARTITION_FILES = {"a3": "1-3\n2-4\n", "a3b": "1-2 1\n2-3 1\n2-4 1\n", "b3": "1+2\n",
                   "b4": "1\n2\n", "c3": "21\n", "c3b": "1-2\n1+2\n", "bad": "zz\n",
                   "zero": "1-2 0\n", "three": "1-3 1 junk\n", "empty": ""}
PARTITIONS = ["", "missing"] + sorted(PARTITION_FILES)
CLI_WEIGHTS = [None, "1,1,-1,-1", "2,0,-1,-1", "1,-1", "1,1,1", "0", "", "x"]
CLI_RANKS = ["-1", "0", "1", "2", "3", "4", "z"]


def _file_dir(tmp_path_factory, name, files):
    path = tmp_path_factory.mktemp(name)
    for file, text in files.items():
        (path / file).write_text(text)
    return path


def _file_flag(flag, directory, name) -> list:
    """flag and the named file of directory; nothing for the name ""."""
    return [flag, str(directory / name)] if name else []


@pytest.fixture(scope="module")
def partition_dir(tmp_path_factory):
    return _file_dir(tmp_path_factory, "partitions", PARTITION_FILES)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(action=st.sampled_from(("roundtrip", "to-juggling")),
       weight=st.sampled_from(CLI_WEIGHTS), capacity=st.sampled_from(JS_CAPACITIES),
       roots=st.sampled_from(["", "a3", "b3", "bad", "missing"]),
       partition=st.sampled_from(PARTITIONS), initial=st.sampled_from(JS_STATES + [None]),
       length=st.sampled_from(JS_LENGTHS), as_json=st.booleans())
def test_bijection_inputs_end_cleanly(partition_dir, action, weight, capacity, roots,
                                      partition, initial, length, as_json):
    # each action gets only its own flags; another action's flag is
    # test_an_action_refuses_the_other_actions_flags
    if action == "roundtrip":
        argv = _flags(("--weight-eps", weight), ("--capacity", capacity))
        argv += _file_flag("--roots", partition_dir, roots)
    else:
        argv = _flags(("--initial", initial), ("--length", length))
        argv += _file_flag("--partition", partition_dir, partition)
    _ends_cleanly(["bijection", action] + argv, as_json)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(action=st.sampled_from(("count", "map")),
       lie_type=st.sampled_from([None, "A", "B", "C", "D", "E"]),
       rank=st.sampled_from(CLI_RANKS),
       weight=st.sampled_from([None, ("--highest-root",)]
                              + [("--weight-eps", w) for w in CLI_WEIGHTS[1:]]
                              + [("--weight-alpha", w) for w in ("1,1", "1,2,1", "1,-1")]),
       method=st.sampled_from([None, "oracle", "juggling", "schmidt-bincer", "all"]),
       which=st.sampled_from([None, "b2a", "c2a"]),
       partition=st.sampled_from(PARTITIONS), as_json=st.booleans())
def test_bcd_inputs_end_cleanly(partition_dir, action, lie_type, rank, weight, method, which,
                                partition, as_json):
    if action == "count":
        argv = list(weight or ()) + _flags(("--type", lie_type), ("--method", method))
    else:
        argv = _flags(("--which", which)) + _file_flag("--partition", partition_dir, partition)
    _ends_cleanly(["bcd", action, "--rank", rank] + argv, as_json)


# Roots and throws files, by name; "" leaves the flag out, "missing" names no
# file.  "21" reads as 2e_1 and "20" is rejected as ambiguous.
ROOT_FILES = {"a2": "1-2\n2-3\n", "a4": "1-2\n1-3\n2-3\n2-4\n3-4\n3-5\n4-5\n",
              "b2": "1-2\n1+2\n1\n2\n", "c2": "21\n1-2\n", "ambiguous": "20\n",
              "bad": "1-\n", "junk": "zz\n", "blank": "\n# no roots\n\n", "empty": ""}
ROOT_FLAGS = ["", "", "", "missing"] + sorted(ROOT_FILES)
THROW_FILES = {"good": "1:1\n1:2\n2:1\n2:3\n# note\n", "all": "1:1\n1:2\n2:1\n2:2\n3:1\n",
               "zero": "1:0\n", "letter": "2:x\n", "nocolon": "12\n", "blank": "\n",
               "empty": ""}
# Mostly valid values, so that most runs get past the parser.
CLI_TYPES = ["A", "B", "C", "D"] * 2 + [None, "E"]
SMALL_RANKS = ["1", "2", "3", "4", "5"] * 2 + ["-1", "0", "z"]
SMALL_LENGTHS = ["0", "1", "2", "3", "4"] * 2 + [None, "-1", "x"]
SMALL_STATES = ["1", "2", "1,1", "0,1", "2,1", "1,0,1", "2,0,-1", "3"] * 2 + JS_STATES
MALFORMED = ["", "x", "1,,1", "1.5"]


@st.composite
def _weight_flags(draw, lie_type, rank, top):
    """--weight-eps or --weight-alpha, mostly of the length the type and rank
    need with entries in -top..top, else one entry too many, malformed, or no
    weight at all."""
    flag = draw(st.sampled_from(["--weight-eps"] * 3 + ["--weight-alpha"] * 2 + [None]))
    if flag is None:
        return []
    shape = draw(st.sampled_from(["fits", "fits", "fits", "long", "malformed"]))
    if shape == "malformed":
        return [f"{flag}={draw(st.sampled_from(MALFORMED))}"]
    size = int(rank) if rank.lstrip("-").isdigit() else 2
    length = max(size + (lie_type == "A" and flag == "--weight-eps") + (shape == "long"), 0)
    # with "=", a value starting with "-" is not taken for an option
    return [f"{flag}=" + ",".join(str(draw(st.integers(-top, top))) for _ in range(length))]


@pytest.fixture(scope="module")
def roots_dir(tmp_path_factory):
    return _file_dir(tmp_path_factory, "roots", ROOT_FILES)


@pytest.fixture(scope="module")
def throws_dir(tmp_path_factory):
    return _file_dir(tmp_path_factory, "throws", THROW_FILES)


def _flags(*pairs) -> list:
    """The flag and its value for each pair whose value is not None."""
    return [arg for flag, value in pairs if value is not None for arg in (flag, value)]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data(), lie_type=st.sampled_from(CLI_TYPES), rank=st.sampled_from(SMALL_RANKS),
       roots=st.sampled_from(ROOT_FLAGS), enumerate_=st.booleans(), as_json=st.booleans())
def test_kostant_inputs_end_cleanly(roots_dir, data, lie_type, rank, roots, enumerate_,
                                    as_json):
    # entries up to 1 when listing: B_5 at (3,3,3,3,3) has 10^7 partitions
    weight = data.draw(_weight_flags(lie_type, rank, 1 if enumerate_ else 3))
    argv = ["kostant"] + _flags(("--type", lie_type), ("--rank", rank)) + weight
    argv += _file_flag("--roots", roots_dir, roots) + ["--enumerate"] * enumerate_
    code, out, _ = _ends_cleanly(argv, as_json)
    if code == 0 and enumerate_ and not as_json:
        assert len(out.splitlines()) == 1 + int(out.splitlines()[0])


@settings(derandomize=True, deadline=None, max_examples=150)
@given(initial=st.sampled_from(SMALL_STATES), terminal=st.sampled_from(SMALL_STATES),
       length=st.sampled_from(SMALL_LENGTHS), capacity=st.sampled_from(JS_CAPACITIES),
       throws=st.sampled_from(["missing"] + sorted(THROW_FILES)),
       spec=st.sampled_from([None, None, "heights=1,2"]), as_json=st.booleans())
def test_js_throws_file_inputs_end_cleanly(throws_dir, initial, terminal, length, capacity,
                                           throws, spec, as_json):
    flags = ["--initial", initial, "--terminal", terminal, "--throws-file",
             str(throws_dir / throws)]
    flags += _flags(("--length", length), ("--capacity", capacity), ("--throws", spec))
    code, _, err = _ends_cleanly(["js", "count"] + flags, as_json)
    assert _ends_cleanly(["js", "enum"] + flags, as_json)[::2] == (code, err)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(rank=st.sampled_from(SMALL_RANKS), roots=st.sampled_from(ROOT_FLAGS),
       as_json=st.booleans())
def test_permdet_inputs_end_cleanly(roots_dir, rank, roots, as_json):
    _ends_cleanly(["permdet", "--rank", rank] + _file_flag("--roots", roots_dir, roots), as_json)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(initial=st.sampled_from(SMALL_STATES), terminal=st.sampled_from(SMALL_STATES),
       length=st.sampled_from(SMALL_LENGTHS), capacity=st.sampled_from(JS_CAPACITIES),
       dot=st.booleans(), as_json=st.booleans())
def test_poset_inputs_end_cleanly(initial, terminal, length, capacity, dot, as_json):
    argv = ["poset", "charpoly", "--initial", initial, "--terminal", terminal]
    argv += _flags(("--length", length), ("--capacity", capacity))
    code, out, _ = _ends_cleanly(argv + ["--dot"] * dot, as_json)
    if code == 0 and dot:
        assert out.startswith("digraph")


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data(),
       command=st.sampled_from(["gf", "lidskii", "closedform", "catalan", "ehrhart", "roots"]),
       row=st.sampled_from(["2|2", "22|2", "3|3", "11|2", None, "zz"]),
       upto=st.sampled_from(SMALL_LENGTHS),
       variant=st.sampled_from([None, "binomial", "multiset", "both", "other"]),
       which=st.sampled_from(["c45", "c46", "c47", "c48", None, "c99"]),
       rank=st.sampled_from(SMALL_RANKS), extra=st.sampled_from([None, "1", "3", "0", "-1", "x"]),
       lie_type=st.sampled_from(CLI_TYPES), as_json=st.booleans(), quiet=st.booleans())
def test_small_commands_end_cleanly(data, command, row, upto, variant, which, rank, extra,
                                    lie_type, as_json, quiet):
    weight = [arg.replace("alpha", "eps") for arg in data.draw(_weight_flags("A", rank, 3))]
    argv = [command] + _flags(*{
        "gf": [("--row", row), ("--upto", upto)],
        "lidskii": [("--variant", variant)],
        "closedform": [("--which", which), ("--r", rank)],
        "catalan": [("--r", rank)],
        "ehrhart": [("--extra", extra)],
        "roots": [("--type", lie_type), ("--rank", rank)],
    }[command])
    if command in ("lidskii", "ehrhart"):
        argv += weight
    _ends_cleanly(argv + ["--quiet"] * quiet, as_json)


# The files the README's command-line tour names.
TOUR_FILES = {"lam.txt": "1-2\n1-3\n2-3\n2-4\n3-4\n", "part.txt": "1-2\n2-3 2\n3-4\n",
              "part_c3.txt": "1-2\n1+2\n"}


def _tour_lines() -> list:
    readme = Path(__file__).resolve().parent.parent / "README.md"
    tour = readme.read_text().split("## Command-line tour", 1)[1]
    block = tour.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("kjuggle ")]


@pytest.mark.parametrize("line", _tour_lines())
def test_readme_tour_runs(line, tmp_path, monkeypatch, capsys):
    """Each tour line runs as given; with --json it prints one canonical
    JSON line (--dot refuses --json), and with --quiet its text without the
    "# " commentary lines."""
    for name, text in TOUR_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(line, comments=True)[1:]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    if "# -> " in line:
        assert out.splitlines()[0] == line.split("# -> ")[1].strip()
    json_code, json_out, _ = run(capsys, *argv, "--json")
    if "--dot" in argv:
        assert (json_code, json_out) == (2, "")
    else:
        assert (json_code, json_out) == (code, canonical(json.loads(json_out)) + "\n")
    plain = "".join(text for text in out.splitlines(keepends=True) if not text.startswith("# "))
    assert run(capsys, *argv, "--quiet") == (code, plain, "")
