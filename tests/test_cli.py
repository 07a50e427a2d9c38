import io
import json
import os
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
from kjuggle.errors import InvariantViolation
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
    assert code == 1 and "minimal elements" in err
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
    payload = json.loads(out)
    assert payload["failed"] == "0"
    assert len(payload["criteria"]) == 15
    assert all(float(c["seconds"]) >= 0 for c in payload["criteria"])


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
        assert len(lines) == 1 and lines[0].startswith(f"kjuggle {argv[0]}: error: ")
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
                   "zero": "1-2 0\n", "empty": ""}
PARTITIONS = ["", "missing"] + sorted(PARTITION_FILES)
CLI_WEIGHTS = [None, "1,1,-1,-1", "2,0,-1,-1", "1,-1", "1,1,1", "0", "", "x"]
CLI_RANKS = ["-1", "0", "1", "2", "3", "4", "z"]


@pytest.fixture(scope="module")
def partition_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("partitions")
    for name, text in PARTITION_FILES.items():
        (path / name).write_text(text)
    return path


def _partition_flag(partition_dir, name) -> list:
    return ["--partition", str(partition_dir / name)] if name else []


@settings(derandomize=True, deadline=None, max_examples=200)
@given(action=st.sampled_from(("roundtrip", "to-juggling")),
       weight=st.sampled_from(CLI_WEIGHTS), capacity=st.sampled_from(JS_CAPACITIES),
       roots=st.sampled_from(["", "a3", "b3", "bad", "missing"]),
       partition=st.sampled_from(PARTITIONS), initial=st.sampled_from(JS_STATES + [None]),
       length=st.sampled_from(JS_LENGTHS), as_json=st.booleans())
def test_bijection_inputs_end_cleanly(partition_dir, action, weight, capacity, roots,
                                      partition, initial, length, as_json):
    argv = ["bijection", action]
    for flag, value in (("--weight-eps", weight), ("--capacity", capacity),
                        ("--initial", initial), ("--length", length)):
        if value is not None:
            argv += [flag, value]
    if roots:
        argv += ["--roots", str(partition_dir / roots)]
    _ends_cleanly(argv + _partition_flag(partition_dir, partition), as_json)


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
    argv = ["bcd", action, "--rank", rank] + list(weight or ())
    for flag, value in (("--type", lie_type), ("--method", method), ("--which", which)):
        if value is not None:
            argv += [flag, value]
    _ends_cleanly(argv + _partition_flag(partition_dir, partition), as_json)
