#!/usr/bin/env python3
"""Builds the session benchmark in Release and runs one workload.

    python3 sessionbench/run.py --workload fuzz --seed 1 --seconds 35 --trace 0
    python3 sessionbench/run.py --smoke

Run from the root of the repository. The build goes to .bench_build/ at
that root (configured once, rebuilt incrementally); its log goes to
standard error, so the benchmark's JSON result stays the last line of
standard output. Chrome traces of traced runs go to .bench_build/traces/.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "sessionbench")


def build():
    """Configures (once) and builds the benchmark; True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("sessionbench: no EOE sources at %s/src" % ROOT, file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "--target", "sessionbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("sessionbench: build step failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main(argv):
    if not build():
        return 1
    args = list(argv)
    if "--trace" in args and "--smoke" not in args:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--trace-dir", traces]
    sys.stdout.flush()
    return subprocess.run([BINARY] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
