#!/usr/bin/env python3
"""Build the serving benchmark from this checkout's sources and run it.

    python3 servebench/run.py --workload chat --seed 1 --seconds 10 --trace 0

Configures and builds servebench/ (CMake, Release) into .bench_build/ at
the checkout root, then runs the benchmark binary with the given
arguments.  Build output goes to .bench_build/servebench-build.log; the
benchmark's own output, ending in one JSON result line, goes to stdout.
Exits non-zero, without a result line, when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "servebench")
LOG = os.path.join(BUILD_ROOT, "servebench-build.log")


def build():
    os.makedirs(BUILD_ROOT, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "servebench",
                  "-j", jobs])
    with open(LOG, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(LOG) as f:
                    tail = f.read()[-4000:]
                sys.stderr.write(tail + "\nservebench: build failed: %s\n"
                                 % " ".join(cmd))
                return False
    return True


def main():
    if not build():
        return 1
    sys.stdout.flush()
    return subprocess.run([os.path.join(BUILD, "servebench")] +
                          sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
