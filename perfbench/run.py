#!/usr/bin/env python3
"""Builds the benchmark from source (first run only) and runs one workload.

    python3 perfbench/run.py --workload <deploy_storm|chain_traffic|churn_mixed>
                             --seed <n> --seconds <s> --trace <0|1>

The build lives in .bench_build/perfbench under the repository root; traced
runs write their Chrome trace to perfbench/out/. The benchmark binary prints
the result; its last stdout line is one JSON object. Any build or run error
exits non-zero without printing a result.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    """Configures and builds the benchmark; returns False on failure."""
    steps = []
    # The Makefile only exists once a configure step has succeeded.
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", SRC, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def main(argv):
    if not build():
        return 1
    args = list(argv)
    if "--out" not in args:
        args += ["--out", os.path.join(SRC, "out")]
    proc = subprocess.run([BINARY] + args, timeout=170)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
