#!/usr/bin/env python3
"""Builds and runs the nsmodel end-to-end benchmark.

Usage (from the root of a checkout):

    python3 nsbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds the nsbench program and the nsmodel
libraries from src/ into $CARGO_TARGET_DIR/nsbench (default
.bench_build/nsbench); later calls only rebuild what changed.  Build output
goes to stderr.  The arguments are then passed to the program, which
checks them (malformed ones exit 2 without a result); its stdout is passed
through, and its last line is the JSON result.  With --trace 1 the spans
are written to <build dir>/traces/<workload>-<seed>.jsonl.  A checkout
without the nsmodel sources exits 3 without building.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run measures for --seconds, then finishes its last pass, checks its
# output and, when traced, times the layers: well under this margin.  A
# run still going after --seconds plus the margin is stuck.
MARGIN_S = 150


def fail(code, message):
    sys.stderr.write("nsbench: %s\n" % message)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "nsbench")


def build():
    """Configures (once) and builds the program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(3, "no nsmodel sources next to %s (expected %s)" %
             (HERE, os.path.join(ROOT, "src")))
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "nsbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            fail(4, "build step failed: %s" % " ".join(step))
    return os.path.join(out, "nsbench")


def timeout(argv):
    """Seconds after which the run counts as stuck."""
    try:
        seconds = int(argv[argv.index("--seconds") + 1])
    except (ValueError, IndexError):
        seconds = 0  # the program rejects the arguments at once
    return max(seconds, 0) + MARGIN_S


def main(argv):
    binary = build()
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(traces, exist_ok=True)
    sys.stdout.flush()
    child = subprocess.Popen([binary, "--spans-dir", traces] + argv)
    limit = timeout(argv)
    try:
        return child.wait(timeout=limit)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail(5, "run exceeded %d s" % limit)
    except BaseException:
        child.kill()
        child.wait()
        raise


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
