#!/usr/bin/env python3
"""Steadiness check: runs each workload repeatedly, one seed per run, and
prints every metric's median, quartiles and quartile spread.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--seed-base 1]
                                [--seconds N] [--trace 0|1]

The spread is (Q3 - Q1) / median with Python's statistics.quantiles(n=4).
Against BENCHMARK.json it flags an end-to-end metric whose spread exceeds a
third of its bound, and a failed share that is not the same in every run.
Raw results, with each run's per-round stderr lines, go to
<build dir>/steady-<workloads>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    cmd = [sys.executable if c == "python3" else c for c in bench["command"]]

    raw = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            seed = args.seed_base + i
            start = time.time()
            proc = subprocess.run(
                cmd + ["--workload", workload, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace",
                       str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            wall = time.time() - start
            lines = proc.stdout.decode().strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s seed %d: run failed (exit %d)"
                      % (workload, seed, proc.returncode))
                ok = False
                continue
            result = json.loads(lines[-1])
            result["wall_s"] = wall
            # The load generator's per-round figures and CPU steal.
            result["log"] = [l for l in proc.stderr.decode().splitlines()
                             if l.startswith("perfbench: ")
                             and ("round" in l or "steal" in l)]
            runs.append(result)
            print("%s seed %d: %.1f s, correct=%s attempted=%d failed=%d"
                  % (workload, seed, wall, result["correct"],
                     result["attempted"], result["failed"]), flush=True)
        raw[workload] = runs
        if len(runs) < 2:
            continue
        shares = {r["failed"] / r["attempted"] for r in runs}
        if len(shares) != 1 or not all(r["correct"] for r in runs):
            print("  !! failed share differs between runs or a run was "
                  "incorrect: %s" % sorted(shares))
            ok = False
        print("  %-32s %12s %12s %12s %8s %6s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for name in sorted(runs[0]["metrics"]):
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  <-- above bound/3"
            print("  %-32s %12.6g %12.6g %12.6g %8.4f %6s%s" %
                  (name, median, q1, q3, spread,
                   "" if bound is None else bound, flag))
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "steady-%s.json" % args.workloads.replace(",", "+"))
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(raw, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
