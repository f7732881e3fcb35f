#!/usr/bin/env python3
"""Self-test of the benchmark's checker and of its count metrics.

    python3 perfbench/selftest.py [--scale 0.02] [--seconds 1]

For every workload, on shrunken inputs:
  1. a clean run reports correct = true and failed = 0;
  2. a run that damages an output in each of its first 2 ops reports
     correct = false and failed = 2;
  3. two traced runs with the same seed report identical count metrics.
Exits non-zero if any of these fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["bulk-light", "bulk-dup", "serve-mixed", "query-wide"]
# Count metrics that must repeat exactly for a fixed seed.
COUNT_PREFIXES = ("auto_sort.kernel.", "auto_sort.parallel_calls",
                  "dovetail_sort.levels", "dovetail_sort.heavy_pct",
                  "dovetail_sort.base_pct", "order_stats.pruned_pct",
                  "wide_sort.refine_rounds", "wide_sort.continuation_rounds",
                  "wide_sort.segments")


def run(workload, scale, seconds, trace=0, corrupt=0, seed=3):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--scale", str(scale),
           "--corrupt", str(corrupt)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True,
                         cwd=os.path.dirname(HERE))
    if out.returncode != 0:
        raise RuntimeError("%s exited with %d" % (" ".join(cmd),
                                                  out.returncode))
    return json.loads(out.stdout.rstrip("\n").split("\n")[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--scale", type=float, default=0.02)
    p.add_argument("--seconds", type=float, default=1)
    args = p.parse_args()

    problems = []
    for w in WORKLOADS:
        clean = run(w, args.scale, args.seconds)
        if not clean["correct"] or clean["failed"] != 0:
            problems.append("%s: clean run reported a failure" % w)
        bad = run(w, args.scale, args.seconds, corrupt=2)
        if bad["correct"] or bad["failed"] != 2:
            problems.append("%s: corrupted run reported failed = %d"
                            % (w, bad["failed"]))
        first = run(w, args.scale, args.seconds, trace=1)["metrics"]
        second = run(w, args.scale, args.seconds, trace=1)["metrics"]
        counts = {k: first[k]["value"] for k in first
                  if k.startswith(COUNT_PREFIXES)}
        for k, v in counts.items():
            if second[k]["value"] != v:
                problems.append("%s: %s changed from %r to %r"
                                % (w, k, v, second[k]["value"]))
        print("%s: clean failed=%d, corrupted failed=%d, %d count metrics "
              "compared" % (w, clean["failed"], bad["failed"], len(counts)))
    for msg in problems:
        print("FAIL " + msg)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
