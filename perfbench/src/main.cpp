//===- perfbench/src/main.cpp - The repository benchmark ------------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
///           --slo-ms=<limit> [--trace-file=<path>]
///
/// Runs one workload on real threads, checks every result against an
/// oracle, and prints one JSON line: the end-to-end metrics untraced, the
/// per-layer metrics traced. Exits 1 if any check failed. See README.md.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "support/Options.h"

#include <cstdio>
#include <map>

using namespace perfbench;

int main(int argc, char **argv) {
  std::string Workload;
  long long Seed = 1;
  double Seconds = 10;
  long long Trace = 0;
  double SloMs = 0;
  std::string TraceFile;
  atc::OptionSet Opts("The AdaptiveTC repository benchmark");
  Opts.addString("workload", &Workload,
                 "solve-balanced | solve-unbalanced | serve-small-jobs");
  Opts.addInt("seed", &Seed, "input seed (tree shape, job mix, arrivals)");
  Opts.addDouble("seconds", &Seconds, "length of the measured phase");
  Opts.addInt("trace", &Trace, "1 = traced run reporting per-layer metrics");
  Opts.addDouble("slo-ms", &SloMs, "serve latency limit on a rung's p90");
  Opts.addString("trace-file", &TraceFile,
                 "traced runs write their spans here (Perfetto JSON)");
  Opts.parse(argc, argv);

  using RunFn = void (*)(const RunArgs &, Report &, SpanLog &);
  const std::map<std::string, RunFn> Workloads = {
      {"solve-balanced", runSolveBalanced},
      {"solve-unbalanced", runSolveUnbalanced},
      {"serve-small-jobs", runServe},
  };
  auto It = Workloads.find(Workload);
  if (It == Workloads.end() || Seconds <= 0 || SloMs <= 0 ||
      (Trace != 0 && Trace != 1)) {
    std::fprintf(stderr, "%s", Opts.usage(argv[0]).c_str());
    return 2;
  }
  RunArgs A{Workload, static_cast<std::uint64_t>(Seed), Seconds, Trace == 1,
            SloMs, TraceFile};

  Report R;
  SpanLog L(A.Trace);
  double Before = hostParallelism();
  It->second(A, R, L);
  double After = hostParallelism();
  R.add("peak_rss_mb", peakRssMb(), "MB", Report::Kind::EndToEnd);

  if (A.Trace) {
    if (Workload != "serve-small-jobs")
      addServeProbe(A, R, L);
    addLayerProbes(R, L);
    std::map<std::string, double> SelfUs = L.meanSelfUs();
    for (const char *Name :
         {"job", "job.post", "job.queue", "job.run", "job.deliver"}) {
      R.check(SelfUs.count(Name) != 0, std::string("span ") + Name);
      R.add(std::string("self_us.") + Name, SelfUs[Name], "us");
    }
    R.add("trace.spans", static_cast<double>(L.size()), "count");
    R.add("host.parallelism_before", Before, "ratio");
    R.add("host.parallelism_after", After, "ratio");
    if (!A.TraceFile.empty())
      R.check(L.writeJson(A.TraceFile), "write " + A.TraceFile);
  }

  std::fprintf(stderr,
               "perfbench: host parallelism %.2f before, %.2f after\n",
               Before, After);
  R.printSummary(A);
  R.printJsonLine(A.Trace);
  return R.correct() ? 0 : 1;
}
