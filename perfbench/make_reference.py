"""Regenerate perfbench/reference/<workload>.json at the default seed.

    PYTHONPATH=src python3 perfbench/make_reference.py [workload ...]

Runs every distinct query of the default seed's schedule once and stores its
value.  Refuses to write a reference when any query fails its own checks, so
every stored value has passed its partner route or its law.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads
from worker import ROOT, Checker, timed_call

OUT = Path(__file__).resolve().parent / "reference"


def reference_values(name: str) -> dict:
    workload = workloads.build(name, workloads.DEFAULT_SEED, ROOT)
    try:
        checker = Checker({})
        values = {}
        for rnd in workload.rounds:
            fresh = [q for q in rnd if q.key not in values]
            results = {}

            def call(query):
                result, error, seconds = timed_call(query)
                results[query.key] = (query, result, error)
                return result, error, seconds

            # Whole groups are rerun together so their agreement is checked.
            groups = {q.group for q in fresh if q.group is not None}
            checker.round([q for q in rnd if q.key not in values or q.group in groups], call)
            if checker.failed:
                raise SystemExit(f"{name}: {checker.errors}")
            for key, (query, result, _) in results.items():
                values[key] = query.value(result)
        return dict(sorted(values.items()))
    finally:
        workload.close()


def main(names):
    for name in names or workloads.WORKLOADS:
        values = reference_values(name)
        path = OUT / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({"seed": workloads.DEFAULT_SEED, "values": values},
                                   indent=0, sort_keys=True) + "\n")
        print(f"{path.relative_to(ROOT)}: {len(values)} values")


if __name__ == "__main__":
    main(sys.argv[1:])
