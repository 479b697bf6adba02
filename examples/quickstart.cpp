//===- examples/quickstart.cpp - AdaptiveTC in one page -------------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Quickstart: define a search problem (the choice-loop task model),
/// run it under every scheduler the paper evaluates, and read the
/// instrumentation that explains why AdaptiveTC wins — fewer tasks,
/// fewer workspace copies.
///
/// Build and run:
///   cmake -B build -G Ninja && cmake --build build
///   ./build/examples/quickstart [--threads=N]
///
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"
#include "problems/ProblemRegistry.h"
#include "support/Error.h"
#include "support/Options.h"
#include "support/Table.h"
#include "support/Timer.h"
#include "trace/TraceJson.h"

#include <cstdio>
#include <string>

using namespace atc;

int main(int argc, char **argv) {
  long long Threads = 4;
  long long BoardSize = 11;
  std::string TracePath;
  OptionSet Opts("Quickstart: n-queens under every scheduler");
  Opts.addInt("threads", &Threads, "worker threads (default 4)", 1,
              MaxThreadsFlag);
  Opts.addInt("n", &BoardSize, "board size (default 11)");
  Opts.addString("trace", &TracePath,
                 "record the AdaptiveTC run's event trace to this file "
                 "(Chrome/Perfetto trace.json)");
  Opts.parse(argc, argv);

  // 1. A problem is a type with the choice-loop shape: isLeaf /
  //    leafResult / numChoices / applyChoice / undoChoice over a
  //    trivially-copyable State (the "taskprivate" workspace).
  NQueensArray Prob;
  auto Root = NQueensArray::makeRoot(static_cast<int>(BoardSize));

  // 2. The sequential baseline every speedup is measured against.
  long long Expected;
  double SeqSec = timeSeconds([&] {
    auto S = Root;
    Expected = runSequential(Prob, S);
  });
  std::printf("%lld-queens: %lld solutions, sequential %.1f ms\n\n",
              BoardSize, Expected, SeqSec * 1e3);

  // 3. Run under each of the paper's systems and compare what the
  //    runtimes actually did.
  TextTable Table;
  Table.setHeader({"scheduler", "ms", "ok", "tasks", "fake-tasks",
                   "specials", "steals", "copied-KiB"});
  bool AllOk = true;
  for (SchedulerKind Kind :
       {SchedulerKind::Cilk, SchedulerKind::CilkSynched,
        SchedulerKind::Tascell, SchedulerKind::AdaptiveTC}) {
    SchedulerConfig Cfg;
    Cfg.Kind = Kind;
    Cfg.NumWorkers = static_cast<int>(Threads);
    Cfg.Trace = !TracePath.empty() && Kind == SchedulerKind::AdaptiveTC;
    RunResult<long long> R;
    double Sec = timeSeconds([&] { R = runProblem(Prob, Root, Cfg); });
    if (Cfg.Trace && R.Trace) {
      R.Trace->Meta.Workload = std::to_string(BoardSize) + "-queens";
      if (writeChromeTraceFile(*R.Trace, TracePath))
        std::printf("trace: wrote %s — open in https://ui.perfetto.dev\n",
                    TracePath.c_str());
      else
        std::fprintf(stderr, "quickstart: cannot write trace to '%s'\n",
                     TracePath.c_str());
    }
    AllOk &= R.Value == Expected;
    Table.addRow({schedulerKindName(Kind), TextTable::fmt(Sec * 1e3, 1),
                  R.Value == Expected ? "yes" : "NO",
                  TextTable::fmt(static_cast<long long>(R.Stats.TasksCreated)),
                  TextTable::fmt(static_cast<long long>(R.Stats.FakeTasks)),
                  TextTable::fmt(static_cast<long long>(R.Stats.SpecialTasks)),
                  TextTable::fmt(static_cast<long long>(R.Stats.Steals)),
                  TextTable::fmt(static_cast<double>(R.Stats.CopiedBytes) /
                                     1024.0,
                                 1)});
  }
  Table.print();
  std::printf(
      "\nAdaptiveTC runs the bulk of the tree as fake tasks (plain calls),\n"
      "creating tasks only near the root plus special-task transitions\n"
      "when a thread actually starves — that is the paper's whole idea.\n");
  return AllOk ? 0 : 1;
}
