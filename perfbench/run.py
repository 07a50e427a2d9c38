"""The kjuggle benchmark: one seeded workload, measured end to end or traced.

    python3 perfbench/run.py --workload deep|grid --seed N --seconds S --trace 0|1

Run from the root of a checkout; kjuggle is imported from its src/.  One
client, one query in flight, no threads (a closed loop), pinned to the CPU
that is fastest when the run starts.  Every query's answer is checked (see
workloads.py); failures are counted, never skipped.

--trace 0: start the workload's interpreter SETUP_SAMPLES times; each start
is a set-up sample (interpreter start, `import kjuggle.cli`, input
generation, warm-up) and the last one also runs the timed phase.
--trace 1: measure import time per kjuggle module with `-X importtime`, then
run the workload untraced and traced, and report the per-layer metrics.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  The line before it is the run record (interpreter,
CPUs, load, commit, seed, input digest) with every figure of the run,
including the ones that are not gated metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 7
IMPORT_MODULES = ("kjuggle", "errors", "roots", "kostant", "juggling", "bijection", "bcd",
                  "poset", "closedforms", "acceptance", "cli")
# latency_p99_ms needs at least 1000 samples to have ten beyond it.
P99_MIN_QUERIES = 1000


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv, deadline: float) -> tuple[float, str, str]:
    """Run a child to completion; returns (monotonic start, stdout, stderr)."""
    start = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{' '.join(argv[1:3])} did not finish in time") from None
    if proc.returncode:
        raise BenchError(f"{' '.join(argv[1:])} exited {proc.returncode}:\n{err.strip()}")
    return start, out, err


def worker(args, mode: str, deadline: float, extra=()) -> tuple[float, dict]:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode, *extra]
    start, out, _ = run_child(argv, deadline)
    result = json.loads(out.strip().splitlines()[-1])
    return result["ready"] - start, result


def import_times(deadline: float) -> dict:
    """Median self time of each kjuggle module's import, from -X importtime."""
    samples = {m: [] for m in IMPORT_MODULES}
    for _ in range(IMPORT_SAMPLES):
        _, _, err = run_child([sys.executable, "-X", "importtime", "-c", "import kjuggle.cli"],
                              deadline)
        for line in err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, _, name = (part.strip() for part in line[len("import time:"):].split("|"))
            short = name.strip().removeprefix("kjuggle.")
            if name.strip().startswith("kjuggle") and short in samples and self_us.isdigit():
                samples[short].append(int(self_us) / 1e6)
    missing = [m for m, v in samples.items() if not v]
    if missing:
        raise BenchError(f"-X importtime reported no time for {', '.join(missing)}")
    return {f"import.{m}.self_s": (statistics.median(v), "s") for m, v in samples.items()}


def _spin() -> int:
    total = 0
    for i in range(100_000):
        total += i * i
    return total


def pin_fastest_cpu() -> dict:
    """Pin this process, and so every child, to the CPU that runs a fixed
    pure-Python loop fastest right now.  On a shared host the CPUs of one
    machine can differ twofold in speed, and a process placed at random
    between them makes every figure bimodal."""
    cpus = sorted(os.sched_getaffinity(0))
    probe = {c: [] for c in cpus}
    for _ in range(5):
        for c in cpus:
            os.sched_setaffinity(0, {c})
            t0 = time.perf_counter()
            _spin()
            probe[c].append(time.perf_counter() - t0)
    speed = {c: statistics.median(v) for c, v in probe.items()}
    best = min(cpus, key=speed.get)
    os.sched_setaffinity(0, {best})
    return {"cpu": best, "probe_s": {str(c): v for c, v in speed.items()}}


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                capture_output=True, text=True, timeout=30).stdout
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": None, "dirty": None}
    return {"commit": commit, "dirty": bool(status.strip())}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "kjuggle" / "cli.py").is_file():
        print(f"error: no kjuggle sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    deadline = time.monotonic() + 170
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(), **git_state(), "pinned": pin_fastest_cpu(),
    }
    try:
        if args.trace:
            metrics = import_times(deadline)
            spans = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.csv.gz"
            _, result = worker(args, "trace", deadline, ("--spans", str(spans)))
            metrics.update({k: tuple(v) for k, v in result["per_layer"].items()})
            record["spans_file"] = str(spans.relative_to(ROOT))
        else:
            setups = [worker(args, "setup", deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
            setup, result = worker(args, "timed", deadline)
            setups.append(setup)
            result["setup_s"] = statistics.median(setups)
            metrics = {k: (result[k], unit) for k, unit in wanted.items()}
            record["setup_samples_s"] = setups
            record["rounds"] = result["rounds"]
            record["timed_wall_s"] = result["wall_s"]
        if {k: u for k, (_, u) in metrics.items()} != wanted:
            raise BenchError("reported metrics differ from BENCHMARK.json")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    record["inputs_sha256"] = result["inputs_sha256"]
    record["loadavg_end"] = os.getloadavg()
    report = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    extra = {"queries": (attempted, "count"), "failed_frac": (failed / attempted, "ratio")}
    if not args.trace and attempted >= P99_MIN_QUERIES:
        extra["latency_p99_ms"] = (result["latency_p99_ms"], "ms")
    record["figures"] = {**report, **{k: {"value": v, "unit": u} for k, (v, u) in extra.items()}}
    record["errors"] = result["errors"]
    for err in result["errors"]:
        print(f"FAILED {err}", file=sys.stderr)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
