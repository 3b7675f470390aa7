#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark for one workload.

Usage (from the repository root):

  python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S \
      --trace {0|1}

WORKLOAD is one of publish_1m_mem, publish_1m_sharded, publish_1m_disk,
query_hot and serve_churn.

The benchmark is compiled from source into .bench_build/perfbench on first
use (the repository's own CMake project plus the perfbench target), then run.
Build output goes to stderr. The workload's human-readable report goes to
stdout, and the last stdout line is one JSON object with the keys "correct",
"attempted", "failed" and "metrics": the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. A traced
run also exports a Chrome trace, which tools/validate_trace.py must accept.

Exits non-zero without a result line if the build or the run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("publish_1m_mem", "publish_1m_sharded", "publish_1m_disk",
             "query_hot", "serve_churn")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_child(cmd, timeout, **kwargs):
    """subprocess.run that also stops the child when this script is killed."""
    with subprocess.Popen(cmd, cwd=ROOT, **kwargs) as child:
        def stop(signum, _frame):
            child.kill()
            child.wait()
            sys.exit(128 + signum)
        signal.signal(signal.SIGTERM, stop)
        signal.signal(signal.SIGINT, stop)
        try:
            out, err = child.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            raise
        finally:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            signal.signal(signal.SIGINT, signal.SIG_DFL)
    return subprocess.CompletedProcess(cmd, child.returncode, out, err)


def build():
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
              "-j", jobs]]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            done = run_child(cmd, max(1.0, deadline - time.monotonic()),
                             stdout=sys.stderr, stderr=sys.stderr)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd[:2])} exited {done.returncode}")


def git_sha():
    # Stop git at the checkout: a checkout without its own .git reports
    # "unknown" rather than the sha of some repository above it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()

    trace_out = os.path.join(ROOT, ".bench_build",
                             f"trace_{args.workload}_{args.seed}.json")
    if os.path.exists(trace_out):
        os.remove(trace_out)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--trace_out", trace_out, "--git_sha", git_sha()]
    try:
        done = run_child(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run failed: {e}")
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if done.returncode != 0:
        fail(f"perfbench exited {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"last line is not a JSON result: {e}")

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail(f"metric {m['name']} missing from the run")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} in {got['unit']}, BENCHMARK.json says "
                 f"{m['unit']}")
        metrics[m["name"]] = got
    correct = bool(result["correct"])

    if args.trace:
        if not os.path.exists(trace_out):
            print("trace: no Chrome trace was exported")
            correct = False
        else:
            check = subprocess.run(
                [sys.executable, os.path.join(ROOT, "tools",
                                              "validate_trace.py"), trace_out],
                cwd=ROOT, capture_output=True, text=True, timeout=120)
            print("trace validator: " + check.stdout.strip())
            if check.returncode != 0:
                correct = False

    out = {"correct": correct, "attempted": int(result["attempted"]),
           "failed": int(result["failed"]), "metrics": metrics}
    print(json.dumps(out))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
