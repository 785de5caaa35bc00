#!/usr/bin/env python3
"""Builds the benchmark from source with dune and runs one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The build output goes to dune's _build
directory in the checkout, and dune's shared cache is not used.  The
benchmark then runs pinned to one CPU (see README.md, "Load").  Its own
output passes through unchanged; its last line is the JSON result.
Exits non-zero without a result when the build or the run fails.
"""
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def main():
    build = subprocess.run(
        # --cache=disabled keeps dune from writing to its cache outside
        # the checkout
        ["dune", "build", "--root", ".", "--cache=disabled", "--display", "quiet", "./perfbench/bench.exe"],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    if build.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(build.stderr)
        sys.stderr.write("perfbench: build failed\n")
        return 1
    # One CPU: Twill's Par sizes its worker budget from the affinity mask,
    # so every item and the reference computation run on the same core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
