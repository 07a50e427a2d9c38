"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402
from worker import Checker, load_reference, timed_call  # noqa: E402

DIGEST = ("import sys, workloads; from pathlib import Path; "
          "w = workloads.build(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])); "
          "print(w.digest); w.close()")


def _digest(name: str, seed: int, hashseed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hashseed,
               PYTHONPATH=os.pathsep.join([str(BENCH), str(ROOT / "src")]))
    out = subprocess.run([sys.executable, "-c", DIGEST, name, str(seed), str(ROOT)],
                         env=env, capture_output=True, text=True, check=True, timeout=60)
    return out.stdout.strip()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_input_digest_ignores_hash_seed(name):
    first = _digest(name, 7, "0")
    assert first == _digest(name, 7, "4242")
    assert first != _digest(name, 8, "0")


@pytest.fixture
def grid_sample():
    workload = workloads.build("grid", workloads.DEFAULT_SEED, ROOT)
    yield workload.rounds[0][:60]
    workload.close()


def test_reference_holds_at_default_seed(grid_sample):
    checker = Checker(load_reference("grid"))
    checker.round(grid_sample, timed_call)
    assert checker.failed == 0, checker.errors


def test_corrupted_reference_value_is_a_failure(grid_sample):
    queries = grid_sample
    reference = load_reference("grid")
    key = queries[0].key
    reference[key] = reference[key] + "1"
    checker = Checker(reference)
    checker.round(queries, timed_call)
    assert checker.failed / checker.attempted > 0
    assert any(err.startswith(key) for err in checker.errors)


def test_disagreeing_routes_are_failures():
    pair = workloads._type_a_pair((2, 1, 0, -3))
    broken = [pair[0], workloads.Query(pair[1].key, lambda: 0, group=pair[1].group)]
    checker = Checker({})
    checker.round(broken, timed_call)
    assert checker.failed == 2


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run([sys.executable, *command[1:], "--workload", "grid", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
