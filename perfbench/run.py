#!/usr/bin/env python3
"""Build xlvm's host-time benchmark and run one workload.

    python3 perfbench/run.py --workload interp|jit_steady|jit_deopt \
        --seed N --seconds S --trace 0|1

Run it from the root of an xlvm checkout. The first call configures and
builds perfbench/ (and the xlvm libraries under src/) into
.bench_build/perfbench; later calls only rebuild what changed. Build
output goes to stderr. The benchmark's own stdout follows, and its last
line is the JSON result. With --trace 1 the spans of the first traced
pass are written to .bench_build/perfbench/spans-<workload>.json
(Chrome trace-event format, for ui.perfetto.dev).

Any further flag (e.g. --perturb-loop-threshold N) is passed to the
benchmark binary unchanged.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "xlvm_perfbench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no xlvm sources at %s/src" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args, extra = parser.parse_known_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    cmd = [BINARY, "--root", ROOT, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out",
                os.path.join(BUILD, "spans-%s.json" % args.workload)]
    try:
        proc = subprocess.run(cmd + extra, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
