#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (CMake, Release) into
.bench_build/perfbench on first use, runs one workload in one process with
4 scheduler workers, and relays its report. The last line of stdout is the
JSON result; build output goes to stderr. Exits non-zero, printing no
result, if the build fails, the run fails, or the result does not carry
exactly the metrics BENCHMARK.json lists for the mode.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKERS = "4"
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = [["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", WORKERS]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corrupt", type=int, default=0,
                   help="self-test: damage one output in each of the first N ops")
    p.add_argument("--scale", type=float, default=1.0,
                   help="self-test: shrink every input size by this factor")
    args = p.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--corrupt", str(args.corrupt), "--scale", str(args.scale)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            build_dir, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    env = dict(os.environ, DOVETAIL_NUM_THREADS=WORKERS)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("benchmark exited with code %d" % proc.returncode)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(proc.stdout)
        fail("last line is not a JSON result")
    if args.workload != "all":
        want = expected_metrics(args.trace)
        if sorted(result["metrics"]) != sorted(want):
            sys.stderr.write(proc.stdout)
            fail("metrics %s do not match BENCHMARK.json %s"
                 % (sorted(result["metrics"]), sorted(want)))
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
