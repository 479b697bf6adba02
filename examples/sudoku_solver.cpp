//===- examples/sudoku_solver.cpp - parallel Sudoku counting --------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's running example (Appendix A): count all solutions of a
/// Sudoku grid with the board as the taskprivate workspace. Accepts an
/// 81-character grid ('0' or '.' = empty) or a named instance, and runs
/// it under a chosen scheduler.
///
///   ./build/examples/sudoku_solver --instance=balance --threads=4
///   ./build/examples/sudoku_solver --grid=53007...  --scheduler=cilk
///
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"
#include "metrics/MetricsCli.h"
#include "problems/ProblemRegistry.h"
#include "support/Error.h"
#include "support/Options.h"
#include "support/Timer.h"
#include "trace/TraceJson.h"

#include <cstdio>
#include <string>

using namespace atc;

int main(int argc, char **argv) {
  std::string Instance = "balance";
  std::string Grid;
  std::string Scheduler = "adaptivetc";
  long long Threads = 4;
  OptionSet Opts("Count all solutions of a Sudoku grid in parallel");
  Opts.addString("instance", &Instance,
                 "named instance: balance, balance-large, input1, input2, "
                 "solved");
  Opts.addString("grid", &Grid,
                 "explicit 81-character grid (overrides --instance)");
  Opts.addString("scheduler", &Scheduler,
                 "sequential, cilk, cilk-synched, tascell, cutoff, or "
                 "adaptivetc");
  Opts.addInt("threads", &Threads, "worker threads", 1, MaxThreadsFlag);
  std::string TracePath;
  Opts.addString("trace", &TracePath,
                 "record a scheduler event trace to this file "
                 "(Chrome/Perfetto trace.json)");
  MetricsCliOptions MOpt;
  addMetricsOptions(Opts, MOpt);
  Opts.parse(argc, argv);

  SchedulerConfig Cfg;
  if (!parseSchedulerKind(Scheduler, Cfg.Kind))
    reportFatalError(unknownSchedulerKindError(Scheduler));
  Cfg.NumWorkers = static_cast<int>(Threads);
  Cfg.Trace = !TracePath.empty();

  Sudoku Prob;
  Sudoku::State Root = Grid.empty() ? Sudoku::makeInstance(Instance)
                                    : Sudoku::makeRoot(Grid);
  std::printf("grid: %s (%d free cells), scheduler %s, %lld threads\n",
              Grid.empty() ? Instance.c_str() : "(custom)", Root.NumFree,
              schedulerKindName(Cfg.Kind), Threads);

  MetricsCliSession Metrics;
  Metrics.arm(Cfg, MOpt,
              "sudoku-" + (Grid.empty() ? Instance : std::string("custom")));

  RunResult<long long> R;
  double Sec = timeSeconds([&] { R = runProblem(Prob, Root, Cfg); });
  std::printf("solutions: %lld in %.1f ms\n", R.Value, Sec * 1e3);
  std::printf("scheduler: %s\n", R.Stats.summary().c_str());
  if (!TracePath.empty()) {
    if (!R.Trace) {
      std::fprintf(stderr, "sudoku_solver: no trace was recorded "
                           "(sequential scheduler)\n");
      return 1;
    }
    R.Trace->Meta.Workload =
        "sudoku-" + (Grid.empty() ? Instance : std::string("custom"));
    if (!writeChromeTraceFile(*R.Trace, TracePath)) {
      std::fprintf(stderr, "sudoku_solver: cannot write trace to '%s'\n",
                   TracePath.c_str());
      return 1;
    }
    std::printf("trace: wrote %s — open in https://ui.perfetto.dev\n",
                TracePath.c_str());
  }
  if (!Metrics.finish(R.Stats, MOpt))
    return 1;
  return 0;
}
