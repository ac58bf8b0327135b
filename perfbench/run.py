#!/usr/bin/env python3
"""Build the project optimised and run one benchmark workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The library (src/) and the benchmark program
(perfbench/src/) are built with CMake into $CARGO_TARGET_DIR (default
.bench_build), a no-op after the first run. Every run first executes the
checkers' self-tests, then the workload in its own process; the last line of
standard output is the workload's JSON result. Any failure to build, a failed
self-test or a workload that does not finish exits non-zero without a result.
"""
import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
WORKLOADS = ("sim_pipeline", "sim_concurrent", "sim_racked", "engine_mem")
# The workload itself stops after --seconds; this is the hard ceiling for a
# run, build excluded.
RUN_LIMIT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "rdmc_perfbench")


def build(out):
    if not os.path.isfile(os.path.join(SRC_DIR, "CMakeLists.txt")):
        fail(f"library sources not found at {SRC_DIR}")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds within 1..120")

    out = build_dir()
    binary = build(out)

    selftest = subprocess.run([binary, "--self-test"], capture_output=True,
                              text=True, timeout=60)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stdout + selftest.stderr)
        fail("checker self-tests failed")
    print(selftest.stdout.strip())

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", os.path.join(out, f"spans_{args.workload}.jsonl")]
    try:
        result = subprocess.run(cmd, capture_output=True, text=True,
                                timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} did not finish in {RUN_LIMIT_S} s")
    sys.stderr.write(result.stderr)
    if result.returncode != 0:
        sys.stderr.write(result.stdout)
        fail(f"workload {args.workload} exited with {result.returncode}")
    sys.stdout.write(result.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
