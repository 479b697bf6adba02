//===- examples/nqueens.cpp - n-queens with event tracing -----------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The canonical tracing demo: count n-queens solutions (or run any
/// other ProblemRegistry workload via --problem) under a chosen
/// scheduler and optionally record a scheduler event trace (see
/// docs/TRACING.md). The trace loads directly in Perfetto / Chrome
/// about:tracing — one track per worker, colored by FSM mode, with
/// steal arrows from victim to thief.
///
///   ./build/examples/nqueens --workers 4 --trace out.json
///   ./build/tools/trace_timeline out.json
///
/// It is also the canonical live-metrics demo (see docs/METRICS.md):
///
///   ./build/examples/nqueens --workers 4 --metrics-file metrics.prom &
///   ./build/tools/atc_top metrics.prom
///
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"
#include "metrics/MetricsCli.h"
#include "problems/ProblemRegistry.h"
#include "support/Error.h"
#include "support/Options.h"
#include "support/Timer.h"
#include "trace/TraceJson.h"

#include <climits>
#include <cstdio>
#include <string>

using namespace atc;

int main(int argc, char **argv) {
  long long Workers = 4;
  long long BoardSize = 13;
  std::string Problem = "nqueens-array";
  std::string Scheduler = "adaptivetc";
  std::string TracePath;
  long long TraceCap = 1 << 20;
  OptionSet Opts("Count n-queens solutions, optionally recording a "
                 "scheduler event trace for Perfetto");
  Opts.addInt("workers", &Workers, "worker threads (default 4)", 1,
              MaxThreadsFlag);
  Opts.addInt("n", &BoardSize, "problem size (default 13 for n-queens; "
                               "0 = the kind's registry default)");
  Opts.addString("problem", &Problem,
                 "workload from the problem registry (default "
                 "nqueens-array; see docs/SERVING.md for the kind list)");
  Opts.addString("sched", &Scheduler,
                 "sequential, cilk, cilk-synched, tascell, cutoff, or "
                 "adaptivetc");
  Opts.addString("trace", &TracePath,
                 "record a scheduler event trace to this file "
                 "(Chrome/Perfetto trace.json)");
  Opts.addInt("trace-cap", &TraceCap,
              "per-worker trace ring capacity in events (default 2^20; "
              "oldest events are dropped on overflow)",
              1, INT_MAX);
  MetricsCliOptions MOpt;
  addMetricsOptions(Opts, MOpt);
  Opts.parse(argc, argv);

  SchedulerConfig Cfg;
  if (!parseSchedulerKind(Scheduler, Cfg.Kind))
    reportFatalError(unknownSchedulerKindError(Scheduler));
  Cfg.NumWorkers = static_cast<int>(Workers);
  Cfg.Trace = !TracePath.empty();
  Cfg.TraceCap = static_cast<int>(TraceCap);

  ProblemRunner Prob;
  std::string Err;
  if (!makeProblemRunner(Problem, static_cast<int>(BoardSize), Prob, Err))
    reportFatalError(Err);

  MetricsCliSession Metrics;
  Metrics.arm(Cfg, MOpt, Prob.Workload);

  RunResult<long long> R;
  double Sec = timeSeconds([&] { R = Prob.Run(Cfg); });
  std::printf("%s: %lld in %.1f ms (%s, %lld workers)\n",
              Prob.Workload.c_str(), R.Value, Sec * 1e3,
              schedulerKindName(Cfg.Kind), Workers);
  std::printf("scheduler: %s\n", R.Stats.summary().c_str());

  if (!TracePath.empty()) {
    if (!R.Trace) {
      std::fprintf(stderr, "nqueens: no trace was recorded (sequential "
                           "scheduler)\n");
      return 1;
    }
    R.Trace->Meta.Workload = Prob.Workload;
    if (!writeChromeTraceFile(*R.Trace, TracePath)) {
      std::fprintf(stderr, "nqueens: cannot write trace to '%s'\n",
                   TracePath.c_str());
      return 1;
    }
    std::printf("trace: %s (%llu events kept, %llu dropped) — open in "
                "https://ui.perfetto.dev\n",
                TracePath.c_str(),
                static_cast<unsigned long long>(R.Trace->totalRetained()),
                static_cast<unsigned long long>(R.Trace->totalDropped()));
  }
  if (!Metrics.finish(R.Stats, MOpt))
    return 1;
  return 0;
}
