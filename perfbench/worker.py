"""One fresh interpreter running one workload; started by run.py.

Modes:
  setup   build the workload and exit (a set-up time sample)
  timed   then run whole rounds until --seconds have passed
  trace   run rounds untraced for a third of --seconds, then the same rounds
          again under the tracer

Prints one JSON line.  `ready` is time.monotonic() when set-up ended; run.py
took the same clock just before starting this process.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from array import array
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

import kjuggle.cli  # noqa: E402,F401  (imports every layer: part of set-up)

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def load_reference(name: str) -> dict:
    path = Path(__file__).resolve().parent / "reference" / f"{name}.json"
    return json.loads(path.read_text())["values"]


class Checker:
    """Counts queries and failures: exceptions, reference mismatches, failed
    verify hooks and disagreeing groups."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def _fail(self, query, why):
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"{query.key}: {why}")

    def round(self, queries, call):
        """Run one round; `call(query)` returns (result, error, seconds).
        Returns the (key, seconds) of every query."""
        latencies = []
        groups = {}
        for q in queries:
            result, error, seconds = call(q)
            latencies.append((q.key, seconds))
            self.attempted += 1
            if error is not None:
                self._fail(q, f"{type(error).__name__}: {error}")
                continue
            value = q.value(result)
            want = self.reference.get(q.key)
            if want is not None and value != want:
                self._fail(q, f"value {value} != reference {want}")
                continue
            if q.verify is not None:
                why = q.verify(result)
                if why:
                    self._fail(q, why)
                    continue
            if q.group is not None:
                groups.setdefault(q.group, []).append(
                    (q, (q.agree or q.value)(result)))
        for members in groups.values():
            if len({v for _, v in members}) > 1:
                for q, _ in members:
                    self._fail(q, "routes disagree: " + ", ".join(v for _, v in members))
        return latencies


def timed_call(query, tracer=None):
    """Run one query, under a root span when tracing."""
    t0 = time.perf_counter()
    try:
        result = query.run() if tracer is None else tracer.query(query.run)
    except Exception as exc:  # every failure is counted, none stops the run
        return None, exc, time.perf_counter() - t0
    return result, None, time.perf_counter() - t0


def cpu_seconds() -> float:
    """user+sys CPU time of this process."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_phase(rounds, checker, call, seconds=None, count=None):
    """Run whole rounds, cycling the schedule, for `seconds` or `count` rounds.
    Latencies are kept as 8-byte floats, so peak memory barely depends on how
    many queries a run gets through."""
    latencies = array("d")
    dispatch = array("d")  # the latencies of in-process CLI queries
    done = 0
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    while True:
        for key, seconds_taken in checker.round(rounds[done % len(rounds)], call):
            latencies.append(seconds_taken)
            if key.startswith(workloads.CLI_PREFIX):
                dispatch.append(seconds_taken)
        done += 1
        elapsed = time.perf_counter() - t0
        if (count is not None and done >= count) or (seconds is not None and elapsed >= seconds):
            break
    return {"rounds": done, "wall": elapsed, "cpu": cpu_seconds() - cpu0,
            "latencies": latencies, "dispatch": dispatch}


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, int(-(-q * len(ordered) // 1)) - 1))
    return ordered[k]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "trace"))
    parser.add_argument("--spans", help="where the trace mode writes its spans")
    args = parser.parse_args()

    expected = ROOT / "src" / "kjuggle"
    if Path(kjuggle.__file__).resolve().parent != expected:
        sys.exit(f"kjuggle was imported from {kjuggle.__file__}, not {expected}")

    workload = workloads.build(args.workload, args.seed, ROOT)
    try:
        checker = Checker(load_reference(args.workload))
        for call in workload.warmup:
            call()
        ready = time.monotonic()
        out = {"ready": ready, "inputs_sha256": workload.digest}
        if args.mode == "timed":
            phase = run_phase(workload.rounds, checker, timed_call, seconds=args.seconds)
            lat = phase["latencies"]
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            out.update({
                "rounds": phase["rounds"],
                "wall_s": phase["wall"],
                "queries_per_s": len(lat) / phase["wall"],
                "cpu_s": phase["cpu"] / phase["rounds"],
                "latency_p50_ms": percentile(lat, 0.50) * 1e3,
                "latency_p90_ms": percentile(lat, 0.90) * 1e3,
                "latency_p99_ms": percentile(lat, 0.99) * 1e3,
                "peak_rss_mb": rss_kb / 1024,
            })
        elif args.mode == "trace":
            rounds = workload.rounds
            plain = run_phase(rounds, checker, timed_call, seconds=args.seconds / 3)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_phase(rounds, checker, partial(timed_call, tracer=tracer),
                                   count=plain["rounds"])
            finally:
                tracer.uninstall()
            per_layer = tracer.layer_metrics(traced["rounds"])
            plain_qps = len(plain["latencies"]) / plain["wall"]
            traced_qps = len(traced["latencies"]) / traced["wall"]
            per_layer["trace.untraced_queries_per_s"] = (plain_qps, "1/s")
            per_layer["trace.queries_per_s"] = (traced_qps, "1/s")
            per_layer["trace.overhead"] = (plain_qps / traced_qps, "ratio")
            dispatch = plain["dispatch"]
            per_layer["cli.dispatch_s"] = (percentile(dispatch, 0.5) if dispatch else 0.0, "s")
            out.update({"rounds": traced["rounds"], "per_layer": per_layer})
            if args.spans:
                tracer.write(Path(args.spans))
        out.update({"attempted": checker.attempted, "failed": checker.failed,
                    "errors": checker.errors})
    finally:
        workload.close()
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
