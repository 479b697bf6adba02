//===- bench/fig10_unbalanced.cpp - Figure 10: unbalanced trees -----------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces Figure 10 (a-d): speedups of Cilk-SYNCHED, Tascell and
/// AdaptiveTC on the unbalanced trees — Sudoku input1/input2 (the Fig. 8
/// tree and its mirror) and the Table-3 trees Tree1L/R .. Tree3L/R — for
/// 1..8 threads. Also prints the Section 5.3.2 waiting diagnostics
/// (Tascell waits 8.08% on Tree3L vs 51.99% on Tree3R; AdaptiveTC's
/// Tree3L steal-fail starvation).
///
//===----------------------------------------------------------------------===//

#include "bench/common/BenchCommon.h"
#include "sim/SimEngine.h"
#include "sim/TreeGen.h"
#include "support/Error.h"
#include "support/Options.h"
#include "support/Table.h"
#include "trace/TraceJson.h"

#include <cstdio>

using namespace atc;

int main(int argc, char **argv) {
  long long Scale = 2'000'000;
  std::string CsvPath;
  bool Quick = false;
  std::string TracePath;
  std::string TraceTree = "tree3r";
  std::string TraceSystem = "adaptivetc";
  long long TraceThreads = 8;
  std::string Fsm = "paper";
  OptionSet Opts("Figure 10: speedup on unbalanced trees");
  Opts.addInt("scale", &Scale, "tree size in nodes");
  Opts.addFlag("quick", &Quick, "thread counts {1,2,4,8} only");
  Opts.addString("fsm", &Fsm,
                 "AdaptiveTC edge table: paper (Figure 2 as published, "
                 "the committed records) or spine (the real runtime's)");
  Opts.addString("csv", &CsvPath, "also write results as CSV to this file");
  Opts.addString("trace", &TracePath,
                 "also record one run's virtual-time event trace to this "
                 "file (Chrome/Perfetto trace.json); selected by "
                 "--trace-tree/--trace-system/--trace-threads");
  Opts.addString("trace-tree", &TraceTree,
                 "tree preset the trace records (default tree3r)");
  Opts.addString("trace-system", &TraceSystem,
                 "system the trace records (default adaptivetc)");
  Opts.addInt("trace-threads", &TraceThreads,
              "worker count the trace records (default 8)");
  Opts.parse(argc, argv);

  if (Fsm != "paper" && Fsm != "spine")
    reportFatalError("unknown fsm variant '" + Fsm +
                     "' (expected paper|spine)");
  // Applied to every simulated configuration below (tables, diagnostics,
  // and the optional traced replay).
  auto applyPolicies = [&](SimOptions &O) {
    O.Fsm = Fsm == "spine" ? FsmVariant::Spine : FsmVariant::Paper;
  };

  struct Panel {
    const char *Title;
    const char *Left;
    const char *Right;
  };
  const Panel Panels[] = {
      {"(a) Sudoku input1 / input2", "input1", "input2"},
      {"(b) Random unbalanced tree1L / tree1R", "tree1l", "tree1r"},
      {"(c) Random unbalanced tree2L / tree2R", "tree2l", "tree2r"},
      {"(d) Random unbalanced tree3L / tree3R", "tree3l", "tree3r"},
  };
  const SchedulerKind Systems[] = {SchedulerKind::CilkSynched,
                                   SchedulerKind::Tascell,
                                   SchedulerKind::AdaptiveTC};

  TextTable Csv;
  Csv.setHeader({"panel", "tree", "system", "threads", "speedup",
                 "wait_children_pct", "idle_pct"});

  for (const Panel &P : Panels) {
    std::printf("=== Figure 10 %s ===\n", P.Title);
    TextTable Table;
    {
      std::vector<std::string> Header = {"threads"};
      for (SchedulerKind K : Systems) {
        Header.push_back(std::string(schedulerKindName(K)) + "_" + P.Left);
        Header.push_back(std::string(schedulerKindName(K)) + "_" + P.Right);
      }
      Table.setHeader(Header);
    }

    for (int T = 1; T <= 8; ++T) {
      if (Quick && T != 1 && T != 2 && T != 4 && T != 8)
        continue;
      std::vector<std::string> Row = {std::to_string(T)};
      for (SchedulerKind K : Systems) {
        for (const char *TreeName : {P.Left, P.Right}) {
          SimTree Tree(SimTree::preset(TreeName, Scale));
          SimOptions SimOpts;
          SimOpts.Kind = K;
          SimOpts.NumWorkers = T;
          applyPolicies(SimOpts);
          CostModel Costs;
          SimReport R = simulate(Tree, SimOpts, Costs);
          Row.push_back(TextTable::fmt(R.speedup(), 2));
          double Busy = R.Total.totalNs();
          Csv.addRow({P.Title, TreeName, schedulerKindName(K),
                      std::to_string(T), TextTable::fmt(R.speedup(), 4),
                      TextTable::fmt(100.0 * R.Total.WaitChildrenNs / Busy, 2),
                      TextTable::fmt(100.0 * R.Total.IdleNs / Busy, 2)});
        }
      }
      Table.addRow(Row);
    }
    Table.print();
    std::printf("\n");
  }

  // Section 5.3.2 diagnostics at 8 threads on Tree3.
  std::printf("=== Section 5.3.2: waiting diagnostics on Tree3 (8 threads) "
              "===\n");
  for (const char *TreeName : {"tree3l", "tree3r"}) {
    SimTree Tree(SimTree::preset(TreeName, Scale));
    for (SchedulerKind K :
         {SchedulerKind::Tascell, SchedulerKind::AdaptiveTC}) {
      SimOptions SimOpts;
      SimOpts.Kind = K;
      SimOpts.NumWorkers = 8;
      applyPolicies(SimOpts);
      CostModel Costs;
      SimReport R = simulate(Tree, SimOpts, Costs);
      double Busy = R.Total.totalNs();
      std::printf("%-10s %-11s wait_children=%5.2f%%  steal-fail idle="
                  "%5.2f%%  speedup=%.2f\n",
                  schedulerKindName(K), TreeName,
                  100.0 * R.Total.WaitChildrenNs / Busy,
                  100.0 * R.Total.IdleNs / Busy, R.speedup());
    }
  }

  // Optional: replay one selected configuration with a trace log attached
  // (the simulator is deterministic, so this is exactly the run the
  // tables above measured) and export it for Perfetto.
  if (!TracePath.empty()) {
    SimOptions SimOpts;
    if (!parseSchedulerKind(TraceSystem, SimOpts.Kind))
      reportFatalError(unknownSchedulerKindError(TraceSystem));
    SimOpts.NumWorkers = static_cast<int>(TraceThreads);
    applyPolicies(SimOpts);
    SimTree Tree(SimTree::preset(TraceTree, Scale));
    CostModel Costs;
    TraceLog Log(SimOpts.NumWorkers, 1u << 20);
    simulate(Tree, SimOpts, Costs, &Log);
    Log.Meta.Workload = TraceTree;
    if (writeChromeTraceFile(Log, TracePath))
      std::printf("\ntrace: wrote %s (%s on %s, %lld virtual workers)\n",
                  TracePath.c_str(), schedulerKindName(SimOpts.Kind),
                  TraceTree.c_str(), TraceThreads);
    else
      std::fprintf(stderr, "fig10_unbalanced: cannot write trace to "
                           "'%s'\n",
                   TracePath.c_str());
  }

  return atc::bench::maybeWriteCsv(CsvPath, Csv.renderCsv()) ? 0 : 1;
}
