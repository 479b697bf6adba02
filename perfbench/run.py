#!/usr/bin/env python3
"""Builds the perfbench binary from this checkout's sources and runs one
workload of the repository benchmark.

    python3 perfbench/run.py --slo-ms 120 --workload solve-balanced \
        --seed 1 --seconds 25 --trace 0

The build goes to .bench_build/perfbench at the root of the checkout and
is reused by later runs. Build output goes to stderr; the binary's last
stdout line is the result (see README.md). A traced run also writes its
spans to .bench_build/traces/<workload>-<seed>.json (Perfetto JSON).
Exits non-zero if the build fails, a check fails, or the run times out.
"""

import argparse
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["solve-balanced", "solve-unbalanced", "serve-small-jobs"]
RUN_LIMIT_S = 175


def build():
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "-j", "4"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--slo-ms", type=float, required=True,
                   help="serve latency limit on a rung's p90")
    args = p.parse_args()

    start = time.monotonic()
    build()
    cmd = [os.path.join(BUILD, "perfbench"), "--workload=" + args.workload,
           "--seed=%d" % args.seed, "--seconds=%d" % args.seconds,
           "--trace=%d" % args.trace, "--slo-ms=%g" % args.slo_ms]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd.append("--trace-file=" + os.path.join(
            traces, "%s-%d.json" % (args.workload, args.seed)))
    # A run must end within RUN_LIMIT_S of starting; the first one in a
    # checkout also builds, and may take longer.
    limit = max(120.0, RUN_LIMIT_S - (time.monotonic() - start))
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=limit)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %.0f s" % limit)
    sys.stdout.write(done.stdout.decode())
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
