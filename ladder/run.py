#!/usr/bin/env python3
"""Build the workload ladder from source and run one workload.

Run from the root of a checkout:

    python3 ladder/run.py --workload grid-forward --seed 1 --seconds 20 --trace 0
    python3 ladder/run.py --selftest        # the ladder's own tests (ctest)

The ladder is a CMake package of its own (ladder/CMakeLists.txt) that
compiles the simulator's libraries from ../src in Release mode into
$CARGO_TARGET_DIR/ladder (default .bench_build/ladder). Build output goes to
stderr; the benchmark's stdout is passed through unchanged, so its last line
is the result JSON. Exits non-zero, printing no result, when the sources or
the toolchain are missing or the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

LADDER_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(LADDER_DIR)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"ladder: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "ladder")


def run_quiet(command, timeout):
    """Runs a build step with its output on stderr; fails the run on error."""
    try:
        result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(command)}")
    if result.returncode != 0:
        fail(f"failed ({result.returncode}): {' '.join(command)}")


def build(directory):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to ladder/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    run_quiet(["cmake", "-S", LADDER_DIR, "-B", directory,
               "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", directory, "--target", "viator_ladder",
               "-j", jobs], BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    directory = build_dir()
    build(directory)
    binary = os.path.join(directory, "viator_ladder")

    if args.selftest:
        command = ["ctest", "--test-dir", directory, "--output-on-failure"]
    else:
        command = [binary, "--workload", args.workload, "--seed",
                   str(args.seed), "--seconds", repr(args.seconds),
                   "--trace", args.trace]
        if args.trace == "1":
            command += ["--spans", os.path.join(
                directory, f"spans-{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
