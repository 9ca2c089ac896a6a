#!/usr/bin/env python3
"""Build and run the ctile whole-request benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke [--workload NAME]

Run from the root of a ctile checkout.  The first call configures and
builds perfbench/ (Release) into .bench_build/perfbench; later calls only
rebuild what changed.  Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result.

--smoke is the benchmark's self-test: every workload at its small
paper-default size, untraced and traced, with the same oracle, invariants
and guards, and a check that the metrics printed match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "results")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def git_commit():
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, timeout=30)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != \
                os.path.realpath(ROOT):
            return "unknown"
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        return head.stdout.strip() if head.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def bench_cmd(workload, seed, seconds, trace, smoke, commit):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out-dir", OUT_DIR, "--commit", commit]
    return cmd + (["--smoke"] if smoke else [])


def run_once(args, commit):
    cmd = bench_cmd(args.workload, args.seed, args.seconds, args.trace == 1,
                    False, commit)
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False)
        return done.returncode
    except subprocess.TimeoutExpired:
        log("benchmark exceeded %d s and was stopped" % RUN_TIMEOUT_S)
        return 1


def smoke(args, commit):
    """Self-test: every workload at smoke size, checked against the spec."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload:
        workloads = [args.workload]
    ok = True
    for workload in workloads:
        for trace in (False, True):
            expected = spec["per_layer" if trace else "end_to_end"]
            cmd = bench_cmd(workload, args.seed, 1, trace, True, commit)
            try:
                done = subprocess.run(cmd, capture_output=True, text=True,
                                      timeout=RUN_TIMEOUT_S, check=False)
            except subprocess.TimeoutExpired:
                print("FAIL %s trace=%d: timed out" % (workload, trace))
                ok = False
                continue
            sys.stderr.write(done.stdout + done.stderr)
            problems = []
            lines = done.stdout.strip().splitlines()
            result = None
            try:
                result = json.loads(lines[-1]) if lines else None
            except ValueError:
                pass
            if done.returncode != 0:
                problems.append("exit code %d" % done.returncode)
            if result is None:
                problems.append("no JSON result on the last line")
            else:
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append("result keys %s" % sorted(result))
                if not result.get("correct") or result.get("failed") != 0:
                    problems.append("incorrect output")
                metrics = result.get("metrics", {})
                if list(metrics) != [m["name"] for m in expected]:
                    problems.append("metric names differ from BENCHMARK.json")
                for m in expected:
                    got = metrics.get(m["name"], {})
                    if got.get("unit") != m["unit"]:
                        problems.append("unit of %s" % m["name"])
                    if not trace and not got.get("value"):
                        problems.append("%s is zero" % m["name"])
            status = "ok  " if not problems else "FAIL"
            print("%s %-13s trace=%d %s" % (status, workload, trace,
                                            "; ".join(problems)))
            ok = ok and not problems
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")
    if not build():
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    commit = git_commit()
    return smoke(args, commit) if args.smoke else run_once(args, commit)


if __name__ == "__main__":
    sys.exit(main())
