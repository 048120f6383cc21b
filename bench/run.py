"""The ppring benchmark: fresh-process CLI runs of a fixed workload.

    python3 bench/run.py --workload verify --seed 0 --seconds 50 --trace 0

With ``--trace 0`` it times fresh ``python -m ppring.cli`` processes, one at
a time in a closed loop, and reports the end-to-end metrics.  With
``--trace 1`` it runs ``trace.py`` instead and reports the per-layer
metrics.  The metric names and units come from ``BENCHMARK.json`` at the
root of the checkout; ``README.md`` beside this file says what each means.

Every call passes the gate in ``workloads.py`` or counts as failed; the last
line of stdout is one JSON object, and the exit code is nonzero if any call
failed.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import WORKLOADS, calls, child_env

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

# Each call pays for starting an interpreter, importing the CLI and parsing
# its group.  That set-up is timed this many times before each call, so that
# its samples spread over the run like the calls' own.
SETUP_REPEATS = 5
SETUP_SNIPPET = ("import sys\nfrom ppring.cli import parse_group_spec\n"
                 "parse_group_spec(sys.argv[1])\n")


class Child:
    """One finished child process with its resource usage from wait4."""

    def __init__(self, argv: list, env: dict, stdout_path: str):
        with open(stdout_path, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=out,
                                    stderr=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.exit_code = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
        with open(stdout_path, "rb") as fh:
            self.stdout = fh.read()


def per_call(runs: dict, attr: str, combine=sum) -> float:
    """The median of each call's runs, combined over the calls."""
    return combine(statistics.median(getattr(c, attr) for c in done)
                   for done in runs.values())


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    workload_calls = calls(workload)
    env = child_env(ROOT, seed)
    failures: dict = {}
    setups = {call.label: [] for call in workload_calls}
    runs = {call.label: [] for call in workload_calls}
    with tempfile.TemporaryDirectory(prefix=".run-", dir=BENCH_DIR) as tmp:
        out = os.path.join(tmp, "stdout")
        Child([sys.executable, "-c", SETUP_SNIPPET, "C2"], env, out)  # compiles bytecode
        start = time.perf_counter()
        # Cycle through the calls, one process at a time; after the first pass,
        # stop at the first call not expected to end within the time.
        for i in itertools.count():
            call = workload_calls[i % len(workload_calls)]
            done = runs[call.label]
            if i >= len(workload_calls) and time.perf_counter() - start + \
                    statistics.median(c.wall_s for c in done) > seconds:
                break
            for _ in range(SETUP_REPEATS):
                child = Child([sys.executable, "-c", SETUP_SNIPPET, call.group], env, out)
                if child.exit_code != 0:
                    raise SystemExit(f"set-up of {call.group} exited {child.exit_code}")
                setups[call.label].append(child)
            child = Child([sys.executable, "-m", "ppring.cli"] + call.argv, env, out)
            kind = call.gate(child.exit_code, child.stdout)
            if kind is not None:
                failures[kind] = failures.get(kind, 0) + 1
                print(f"FAILED {call.label}: {kind}", file=sys.stderr)
            done.append(child)
    metrics = {
        "wall_s": per_call(runs, "wall_s"),
        "cpu_s": per_call(runs, "cpu_s"),
        "peak_rss_mb": per_call(runs, "peak_rss_mb", max),
        "setup_s": per_call(setups, "wall_s"),
    }
    context = {
        "attempted": sum(len(done) for done in runs.values()),
        "gate_failures": failures,
        "wall_s_per_call": {label: [round(c.wall_s, 4) for c in done]
                            for label, done in runs.items()},
    }
    return metrics, context


def traced(workload: str, seed: int) -> tuple[dict, dict]:
    env = child_env(ROOT, seed)
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "trace.py"), "--workload", workload],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"traced run failed with exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    context = {k: v for k, v in result.items() if k != "metrics"}
    return result["metrics"], context


def run_context(seed: int) -> dict:
    """What a result needs beside it to be compared with another."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                text=True, capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    sources = hashlib.sha256()
    src = os.path.join(ROOT, "src", "ppring")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                sources.update(name.encode() + b"\0" + fh.read())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit, "sources_sha256": sources.hexdigest(), "seed": seed}


def main() -> int:
    parser = argparse.ArgumentParser(description="ppring benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "ppring", "cli.py")):
        print("error: no ppring sources under src/ in this checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    context = run_context(args.seed)
    if args.trace:
        measured, extra = traced(args.workload, args.seed)
        declared = spec["per_layer"]
    else:
        measured, extra = end_to_end(args.workload, args.seed, args.seconds)
        declared = spec["end_to_end"]
    context.update(extra)
    failed = sum(context["gate_failures"].values())
    attempted = context["attempted"]

    metrics = {}
    for m in declared:
        if m["name"] not in measured:
            raise SystemExit(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": measured.pop(m["name"]), "unit": m["unit"]}
    if measured:  # such as the counters of a cache added after BENCHMARK.json
        context["undeclared_metrics"] = measured
    print(json.dumps({"context": context}))
    for name, m in metrics.items():
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        print(f"{args.workload} {name} = {value} {m['unit']}")
    print(f"{args.workload} error_rate = {failed / attempted:.6g} "
          f"({failed} of {attempted} calls failed the gate)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
