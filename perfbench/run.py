#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload report --seed 1 --seconds 10 --trace 0

Builds perfbench/ (the library layers from src/ plus the benchmark
program in perfbench.cc) with CMake into .bench_build/perfbench, then runs one
workload. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it, each
starting with '#', record the seed, the derived inputs and every
metric by name and unit.

    python3 perfbench/run.py --workload cycle_sim --self-test

runs a workload with one deliberately wrong expected value and exits 0
only if the workload's check reports the failure.

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("report", "geometry_sweep", "cycle_sim")
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def jobs():
    """CPUs this process may run on: the pool never gets more workers."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(build_dir):
    """Configure once, then build incrementally; returns the binary."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", str(jobs())])
    with open(log_path, "w") as log:
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT)
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="inject one wrong expected value; succeed only "
                         "if the check catches it")
    args = ap.parse_args()

    for rel in ("src/CMakeLists.txt", "EXPERIMENTS.md", "docs/REPORT.html"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            fail("not a repository checkout: %s is missing" % rel)

    out_dir = os.path.join(ROOT, ".bench_build")
    binary = build(os.path.join(out_dir, "perfbench"))

    # Program defaults only: no inherited MEMO_* overrides, and exactly
    # as many pool workers as this process has CPUs.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MEMO_")}
    env["MEMO_JOBS"] = str(jobs())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--root", ROOT]
    if args.trace:
        cmd += ["--spans", os.path.join(
            out_dir, "spans-%s-seed%d.json" % (args.workload, args.seed))]
    if args.self_test:
        cmd.append("--self-test")

    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s did not finish within %d s" % (args.workload,
                                                RUN_TIMEOUT_S))
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(stdout)
        fail("no result line (exit code %d)" % proc.returncode)

    if args.self_test:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        caught = result["failed"] > 0 and not result["correct"]
        print("# self-test %s: %s (%d of %d items failed)" % (
            args.workload, "check caught the injected error" if caught
            else "CHECK MISSED the injected error",
            result["failed"], result["attempted"]))
        sys.exit(0 if caught else 1)

    sys.stdout.write(stdout)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
