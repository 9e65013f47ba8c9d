#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload wls --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The benchmark package is configured
and built (Release) under $CARGO_TARGET_DIR, default .bench_build, then the
binary runs with a scratch directory beside the build that is removed
afterwards. Build output goes to standard error; the binary's report goes to
standard output, and its last line is the JSON result. Exits non-zero, with
no result line, when the library sources are missing or the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: no library sources at %s/src" % ROOT, file=sys.stderr)
        return 2

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                 os.path.join(ROOT, ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    try:
        for cmd in (["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", build_dir, "-j", jobs,
                     "--target", "perfbench"]):
            subprocess.run(cmd, check=True, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2

    work_dir = os.path.join(build_root, "work-%d" % os.getpid())
    try:
        proc = subprocess.run(
            [os.path.join(build_dir, "perfbench"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace),
             "--work-dir", work_dir],
            timeout=RUN_TIMEOUT_S)
        return proc.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
