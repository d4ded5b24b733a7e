#!/usr/bin/env python3
"""Served-system benchmark for bursthist.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. Builds `bursthist_cli` with the
repository's own CMake project and the load generator in perfbench/
(under $CARGO_TARGET_DIR, default .bench_build), then runs one workload
against real `bursthist_cli serve` processes. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}; build
and progress output goes to stderr. --selftest runs the oracle's own
test (a deliberately wrong answer must be caught).
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("rio_ingest", "rio_ingest_4shards")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail("command failed: " + " ".join(cmd))


def build(build_dir):
    """Builds bursthist_cli and the harness; both builds are incremental."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no bursthist sources next to perfbench/; run from a checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    program = os.path.join(build_dir, "program")
    harness = os.path.join(build_dir, "harness")
    if not os.path.isfile(os.path.join(program, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", ROOT, "-B", program, *generator,
                   "-DCMAKE_BUILD_TYPE=Release",
                   "-DBURSTHIST_BUILD_TESTS=OFF",
                   "-DBURSTHIST_BUILD_BENCHMARKS=OFF"])
    run_quiet(["cmake", "--build", program, "--target", "bursthist_cli",
               "-j", jobs])
    if not os.path.isfile(os.path.join(harness, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                   harness, *generator, "-DCMAKE_BUILD_TYPE=Release",
                   "-DBURSTHIST_PROGRAM_BUILD=" + program])
    run_quiet(["cmake", "--build", harness, "-j", jobs])
    return (os.path.join(program, "examples", "bursthist_cli"),
            os.path.join(harness, "perfbench_load"),
            os.path.join(harness, "perfbench_oracle_test"))


def run_group(cmd, timeout):
    """Runs cmd in its own process group; every process left in the group
    (servers the load generator started) is killed and waited for."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        out = b""
        print("perfbench: timed out", file=sys.stderr)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        deadline = time.time() + 10
        while time.time() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
    return proc.returncode, out.decode()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    cli, load, oracle_test = build(build_dir)
    if args.selftest:
        sys.exit(subprocess.run([oracle_test], cwd=ROOT).returncode)

    workdir = os.path.join(build_dir, "run-%d" % os.getpid())
    try:
        rc, out = run_group(
            [load, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--cli", cli, "--workdir", workdir], timeout=170)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = out.strip().splitlines()
    if rc != 0 or not lines or not lines[-1].startswith("{"):
        fail("load generator failed (exit %s)" % rc)
    print(lines[-1])


if __name__ == "__main__":
    main()
