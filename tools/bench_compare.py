#!/usr/bin/env python3
"""Compare fresh micro_spawn / micro_deque / atc_loadgen runs against the
committed baselines (BENCH_spawn.json / BENCH_deque.json /
BENCH_server.json) with noise tolerance.

The committed baselines were recorded on one specific machine; a fresh
run on different hardware is uniformly faster or slower. To compare
across machines, every benchmark's fresh/baseline ratio is normalized by
the *median* ratio across all compared benchmarks (the machine-speed
factor), and only benchmarks whose normalized ratio exceeds --tolerance
are flagged: a true regression shows up as one benchmark drifting away
from the pack, not as the pack moving together.

Usage (from the repo root, after a Release build):

    python3 tools/bench_compare.py \
        --spawn-bench build/bench/micro_spawn \
        --deque-bench build/bench/micro_deque

    # or compare pre-recorded --benchmark_format=json outputs:
    python3 tools/bench_compare.py --spawn-json fresh_spawn.json

    # or compare an atc_loadgen --json report against the server baseline:
    python3 tools/bench_compare.py --server-json fresh_load.json

Normalization cannot absorb a change in CPU count: multi-thief drain
throughput scales with the cores the thieves actually get, not with the
machine's single-thread speed. BENCH_deque.json's drain rows therefore
carry their own host block (drain.host), recorded on the CPU count of
the CI runner; the single-thread rows keep the top-level host block.
When the fresh run's context.num_cpus differs from the drain block's
num_cpus, the DrainSteal*/N rows with N > 1 thieves are skipped and
listed with the reason; single-thread rows and one-thief drains still
gate.

Timings move with the compiler flags, so a fresh binary must be built at
the build type its record was: the record's host block names it
(runs.current_host.build_type for micro_spawn; single_thread_ns.host and
drain.host for micro_deque), and the fresh type is read from the
CMakeCache.txt of the build tree holding --spawn-bench/--deque-bench (an
empty CMAKE_BUILD_TYPE is the project default, RelWithDebInfo). A
mismatch exits 2 naming both types; pre-recorded JSON is not checked.

A single pass can read one row far off on a busy host (a ~2 ns probe
at the timer's resolution, a preempted thread). So when a benchmark
binary is given, each row over tolerance is re-measured on its own
(--benchmark_filter=^name$ --benchmark_repetitions=3) and its fastest
repetition (highest throughput for drain rows) is judged again, against
the same tolerance and the first pass's machine-speed factor. A real
regression is slow in every repetition and still fails.

Exit status: 0 when every compared benchmark is within tolerance,
1 on regression, 2 on usage/run errors.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

# Deque benchmarks whose baseline entries are throughput (items/sec,
# higher is better) rather than per-op time.
DRAIN_PREFIXES = (
    "BM_DrainStealThe/",
)

# Contended* numbers are preemption-bound on small shared runners (see
# the note in BENCH_deque.json); comparing them is noise, so they are
# skipped and listed as such.
SKIP_PREFIXES = (
    "BM_ContendedStealThe/",
)
PREEMPTION_BOUND = "preemption-bound on shared runners"


# BM_DrainSteal<Kind>/ benchmark name -> drain.<kind> baseline key.
DRAIN_KINDS = {"The": "the"}


def drain_kind(name):
    """Deque kind key for a BM_DrainSteal* benchmark name, or None for a
    kind the baseline does not know."""
    kind = name[len("BM_DrainSteal"):].split("/")[0]
    return DRAIN_KINDS.get(kind)

TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def usage_error(msg):
    """Prints `msg` to stderr and exits 2 (usage/run error)."""
    print("error: " + msg, file=sys.stderr)
    sys.exit(2)


# CMakeLists.txt builds at this type when CMAKE_BUILD_TYPE is empty.
DEFAULT_BUILD_TYPE = "RelWithDebInfo"


def fresh_build_type(binary):
    """CMAKE_BUILD_TYPE of the nearest CMakeCache.txt above `binary` (an
    empty value is the project default), or None when there is none."""
    d = os.path.dirname(os.path.abspath(binary))
    while not os.path.isfile(os.path.join(d, "CMakeCache.txt")):
        if os.path.dirname(d) == d:
            return None
        d = os.path.dirname(d)
    with open(os.path.join(d, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1].strip() or DEFAULT_BUILD_TYPE
    return DEFAULT_BUILD_TYPE


def check_build_type(binary, host_blocks):
    """Exits 2 when `binary` was built at another build type than one of
    its record's host blocks names ("RelWithDebInfo (the default ...")."""
    fresh = fresh_build_type(binary)
    for block in host_blocks:
        recorded = (block or {}).get("build_type", "").split()[:1]
        if fresh and recorded and recorded[0].lower() != fresh.lower():
            usage_error(
                "{} was built at CMAKE_BUILD_TYPE={} but its record was "
                "measured at {}; rebuild at {} to compare".format(
                    binary, fresh, recorded[0], recorded[0]))


# Repetitions when a row over tolerance is re-measured on its own.
REMEASURE_REPETITIONS = 3


def run_benchmark(binary, min_time, extra_args=()):
    """Runs a google-benchmark binary and returns its parsed JSON."""
    cmd = [
        binary,
        "--benchmark_format=json",
        "--benchmark_min_time={}".format(min_time),
    ] + list(extra_args)
    try:
        out = subprocess.run(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=True
        )
    except (OSError, subprocess.CalledProcessError) as e:
        usage_error("cannot run {}: {}".format(binary, e))
    return json.loads(out.stdout.decode())


def fresh_results(bench_json):
    """{name: (real_time_ns, items_per_second or None)} from a
    google-benchmark JSON document."""
    res = {}
    for b in bench_json.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        unit = TIME_UNIT_NS.get(b.get("time_unit", "ns"), 1.0)
        res[b["name"]] = (
            float(b["real_time"]) * unit,
            b.get("items_per_second"),
        )
    return res


def remeasure(binary, min_time, name, kind):
    """Re-runs benchmark `name` alone, REMEASURE_REPETITIONS times, and
    returns its best repetition: the lowest time in ns for a "time" row,
    the highest items/s for a "throughput" row (None if it did not run)."""
    exact = "^" + re.sub(r"([.^$|()\[\]{}*+?\\])", r"\\\1", name) + "$"
    doc = run_benchmark(binary, min_time, [
        "--benchmark_filter=" + exact,
        "--benchmark_repetitions={}".format(REMEASURE_REPETITIONS),
    ])
    values = []
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate" or b.get("name") != name:
            continue
        if kind == "time":
            unit = TIME_UNIT_NS.get(b.get("time_unit", "ns"), 1.0)
            values.append(float(b["real_time"]) * unit)
        elif b.get("items_per_second"):
            values.append(float(b["items_per_second"]))
    if not values:
        return None
    return min(values) if kind == "time" else max(values)


def rerunner(binary, min_time):
    """compare()'s rerun callback for `binary`; None without a binary
    (pre-recorded JSON cannot be re-measured)."""
    if not binary:
        return None
    return lambda name, kind: remeasure(binary, min_time, name, kind)


def spawn_pairs(fresh, baseline):
    """(name, fresh_metric, base_metric, kind) pairs for micro_spawn.
    Baseline names match the benchmark names exactly. runs.current is the
    most recent committed record (refreshed when a PR legitimately moves
    the numbers); runs.after is the original PR-2 record kept for
    history."""
    runs = baseline.get("runs", {})
    base_runs = runs.get("current") or runs.get("after", {})
    pairs, missing = [], []
    for name, entry in sorted(base_runs.items()):
        base_ns = entry.get("real_time_ns")
        if base_ns is None:
            continue
        if name not in fresh:
            missing.append(name)
            continue
        pairs.append((name, fresh[name][0], float(base_ns), "time"))
    return pairs, missing


def deque_pairs(fresh, baseline, fresh_cpus=None):
    """Pairs for micro_deque: single-thread per-op times by stripping the
    BM_ prefix, and DrainSteal* throughput via drain.<kind>.thieves_<n>.
    Multi-thief drains are skipped when fresh_cpus (the fresh run's
    context.num_cpus) is known and differs from the CPU count the drain
    rows were recorded on (drain.host, else the top-level host).
    Returns (pairs, missing, skipped), skipped as (name, reason)."""
    pairs, missing, skipped = [], [], []
    single = baseline.get("single_thread_ns", {})
    drain = baseline.get("drain", {})
    base_cpus = drain.get("host", baseline.get("host", {})).get("num_cpus")
    cpus_differ = (
        fresh_cpus is not None and base_cpus is not None
        and fresh_cpus != base_cpus
    )
    for name, (ns, ips) in sorted(fresh.items()):
        if name.startswith(SKIP_PREFIXES):
            skipped.append((name, PREEMPTION_BOUND))
            continue
        if name.startswith(DRAIN_PREFIXES):
            # "BM_DrainStealThe/4/manual_time" -> kind "the", thieves "4".
            kind = drain_kind(name)
            thieves = name.split("/")[1]
            if cpus_differ and thieves.isdigit() and int(thieves) > 1:
                skipped.append((name, "{} thieves on {} CPUs vs a {}-CPU "
                                "baseline".format(thieves, fresh_cpus,
                                                  base_cpus)))
                continue
            base_ips = drain.get(kind, {}).get("thieves_" + thieves)
            if base_ips is None or not ips:
                missing.append(name)
            else:
                pairs.append((name, float(ips), float(base_ips), "throughput"))
            continue
        short = name[3:] if name.startswith("BM_") else name
        base_ns = single.get(short)
        if base_ns is None:
            missing.append(name)
        else:
            pairs.append((name, ns, float(base_ns), "time"))
    return pairs, missing, skipped


def server_pairs(fresh, baseline):
    """Pairs for an atc_loadgen --json report vs BENCH_server.json: the
    JobLatency/JobQueue quantile families (time) and JobThroughput
    (jobs/s, higher is better)."""
    runs = baseline.get("runs", {})
    base_runs = runs.get("current") or runs.get("after", {})
    pairs, missing = [], []
    families = (
        ("JobLatency", fresh.get("latency_ns", {}), ("p50", "p90", "p99")),
        ("JobQueue", fresh.get("queue_ns", {}), ("p50", "p99")),
    )
    for family, quantiles, keys in families:
        for q in keys:
            name = "{}/{}".format(family, q)
            base_ns = base_runs.get(name, {}).get("real_time_ns")
            fresh_ns = quantiles.get(q)
            if base_ns is None or fresh_ns is None:
                missing.append(name)
            else:
                pairs.append((name, float(fresh_ns), float(base_ns), "time"))
    base_tp = base_runs.get("JobThroughput", {}).get("jobs_per_second")
    fresh_tp = fresh.get("throughput_jobs_s")
    if base_tp is None or fresh_tp is None:
        missing.append("JobThroughput")
    else:
        pairs.append(
            ("JobThroughput", float(fresh_tp), float(base_tp), "throughput")
        )
    return pairs, missing


def server_health(fresh):
    """Hard correctness gates on a loadgen report, independent of any
    timing tolerance: nothing lost, nothing failed, no wrong answers."""
    bad = []
    for key in ("lost", "failed", "value_mismatches", "submit_errors"):
        if fresh.get(key, 0):
            bad.append("{}={}".format(key, fresh[key]))
    return bad


def slowdown(fresh_v, base_v, kind):
    """fresh/baseline ratio, > 1 meaning fresh is slower."""
    if kind == "time":
        return fresh_v / base_v
    return base_v / fresh_v  # throughput: higher is better, invert


def compare(pairs, tolerance, rerun=None):
    """Returns (rows, regressions, speed). ratio > 1 always means 'fresh
    is slower than baseline'; normalization divides out the pack's median.
    rerun(name, kind), when given, re-measures a row over tolerance and
    returns its best value (or None); that value is judged instead."""
    ratios = [slowdown(f, b, kind) for _, f, b, kind in pairs]
    speed = statistics.median(ratios) if ratios else 1.0
    rows, regressions = [], []
    for (name, fresh_v, base_v, kind), ratio in zip(pairs, ratios):
        norm = ratio / speed if speed > 0 else ratio
        note = ""
        if norm > tolerance and rerun is not None:
            best = rerun(name, kind)
            if best is not None:
                note = " (re-measured, best of {}; first pass {:.2f}x)".format(
                    REMEASURE_REPETITIONS, norm)
                fresh_v, ratio = best, slowdown(best, base_v, kind)
                norm = ratio / speed if speed > 0 else ratio
        verdict = "ok"
        if norm > tolerance:
            verdict = "REGRESSION"
            regressions.append(name)
        elif norm < 1.0 / tolerance:
            verdict = "improved"
        rows.append((name, base_v, fresh_v, kind, ratio, norm, verdict + note))
    return rows, regressions, speed


def report(title, rows, speed, missing, skipped):
    print("== {} (machine-speed factor {:.2f}x) ==".format(title, speed))
    print(
        "{:<42} {:>14} {:>14} {:>7} {:>6}  {}".format(
            "benchmark", "baseline", "fresh", "ratio", "norm", "verdict"
        )
    )
    for name, base_v, fresh_v, kind, ratio, norm, verdict in rows:
        unit = "ns" if kind == "time" else "it/s"
        print(
            "{:<42} {:>12.1f}{} {:>12.1f}{} {:>6.2f}x {:>5.2f}x  {}".format(
                name, base_v, unit, fresh_v, unit, ratio, norm, verdict
            )
        )
    for name in missing:
        print("{:<42} (no baseline entry: skipped)".format(name))
    for name, reason in skipped:
        print("{:<42} ({}: skipped)".format(name, reason))
    print()


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--spawn-bench", help="path to the micro_spawn binary")
    ap.add_argument("--deque-bench", help="path to the micro_deque binary")
    ap.add_argument(
        "--spawn-json", help="pre-recorded micro_spawn --benchmark_format=json output"
    )
    ap.add_argument(
        "--deque-json", help="pre-recorded micro_deque --benchmark_format=json output"
    )
    ap.add_argument(
        "--server-json", help="atc_loadgen --json report to compare"
    )
    ap.add_argument(
        "--spawn-baseline", default="BENCH_spawn.json", help="committed spawn baseline"
    )
    ap.add_argument(
        "--deque-baseline", default="BENCH_deque.json", help="committed deque baseline"
    )
    ap.add_argument(
        "--server-baseline",
        default="BENCH_server.json",
        help="committed server-layer baseline",
    )
    ap.add_argument(
        "--tolerance",
        type=float,
        default=1.6,
        help="max allowed normalized slow-down per benchmark (default 1.6; "
        "use a larger value on noisy shared runners)",
    )
    ap.add_argument(
        "--min-time",
        type=float,
        default=0.05,
        help="per-benchmark measurement window in seconds (default 0.05)",
    )
    args = ap.parse_args()

    any_compared = False
    failed = []

    if args.spawn_bench or args.spawn_json:
        with open(args.spawn_baseline) as f:
            baseline = json.load(f)
        if args.spawn_json:
            with open(args.spawn_json) as f:
                fresh = fresh_results(json.load(f))
        else:
            check_build_type(args.spawn_bench,
                             [baseline.get("runs", {}).get("current_host")])
            fresh = fresh_results(run_benchmark(args.spawn_bench, args.min_time))
        pairs, missing = spawn_pairs(fresh, baseline)
        rows, regressions, speed = compare(
            pairs, args.tolerance,
            rerunner(None if args.spawn_json else args.spawn_bench,
                     args.min_time))
        report("micro_spawn vs " + args.spawn_baseline, rows, speed, missing, [])
        failed += regressions
        any_compared = any_compared or bool(pairs)

    if args.deque_bench or args.deque_json:
        with open(args.deque_baseline) as f:
            baseline = json.load(f)
        if args.deque_json:
            with open(args.deque_json) as f:
                doc = json.load(f)
        else:
            check_build_type(args.deque_bench,
                             [baseline.get("single_thread_ns", {}).get("host"),
                              baseline.get("drain", {}).get("host")])
            doc = run_benchmark(args.deque_bench, args.min_time)
        fresh = fresh_results(doc)
        pairs, missing, skipped = deque_pairs(
            fresh, baseline, doc.get("context", {}).get("num_cpus"))
        rows, regressions, speed = compare(
            pairs, args.tolerance,
            rerunner(None if args.deque_json else args.deque_bench,
                     args.min_time))
        report("micro_deque vs " + args.deque_baseline, rows, speed, missing, skipped)
        failed += regressions
        any_compared = any_compared or bool(pairs)

    if args.server_json:
        with open(args.server_json) as f:
            fresh = json.load(f)
        with open(args.server_baseline) as f:
            baseline = json.load(f)
        health = server_health(fresh)
        if health:
            print("FAILED: loadgen report is unhealthy: " + ", ".join(health))
            return 1
        pairs, missing = server_pairs(fresh, baseline)
        rows, regressions, speed = compare(pairs, args.tolerance)
        report("atc_loadgen vs " + args.server_baseline, rows, speed, missing, [])
        failed += regressions
        any_compared = any_compared or bool(pairs)

    if not any_compared:
        usage_error("nothing compared; pass --spawn-bench/--deque-bench "
                    "(or --spawn-json/--deque-json/--server-json)")
    if failed:
        print("FAILED: {} benchmark(s) regressed: {}".format(
            len(failed), ", ".join(failed)))
        return 1
    print("OK: all compared benchmarks within {:.2f}x normalized tolerance"
          .format(args.tolerance))
    return 0


if __name__ == "__main__":
    sys.exit(main())
