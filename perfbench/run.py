#!/usr/bin/env python3
"""Build and run the fxpar host-time benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (the library sources under src/ plus the
benchmark driver) into .bench_build/ with CMake, then runs one workload.
Build output goes to stderr; the benchmark's own output, ending with one
JSON result line, goes to stdout. The exit code is the benchmark's, or 1
when the build fails.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    if not os.path.isfile(os.path.join(SOURCE, "CMakeLists.txt")):
        sys.stderr.write("run.py: run from the checkout root (perfbench/ not found)\n")
        return False
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.stderr.write("run.py: build step failed: %s\n" % " ".join(cmd))
            return False
    return os.path.isfile(BINARY)


def main():
    if not build():
        return 1
    sys.stdout.flush()
    return subprocess.run([BINARY] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
