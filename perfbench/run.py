#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the C++ driver (perfbench/
CMakeLists.txt) into .bench_build/ on first use, runs one workload in a
fresh work directory under .bench_build/, removes that directory again
and relays the driver's output. The last stdout line is the result
object; the exit code is non-zero when the build, the run or an output
check fails. Traced runs (--trace 1) leave their Chrome trace in
.bench_build/traces/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_BUILD = os.path.join(BUILD, "cmake")
DRIVER = os.path.join(CMAKE_BUILD, "perfbench")
# A run must end within 180 s; the driver is stopped short of that.
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build the driver target (incremental)."""
    if not os.path.exists(os.path.join(CMAKE_BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", CMAKE_BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", CMAKE_BUILD, "--target",
                    "perfbench", "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    work = os.path.join(BUILD, "work", f"{args.workload}-{args.seed}-"
                        f"{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [DRIVER, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--dir", work,
           "--trace-out", os.path.join(
               traces, f"{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed",
                               "metrics"}
    except (IndexError, ValueError, AssertionError):
        sys.stderr.write(proc.stdout)
        print("perfbench: driver printed no result", file=sys.stderr)
        return 3
    sys.stdout.write("\n".join(lines) + "\n")
    if proc.returncode != 0 or not result["correct"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
