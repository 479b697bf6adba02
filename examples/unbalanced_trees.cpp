//===- examples/unbalanced_trees.cpp - load-balancing explorer ------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interactive version of the paper's Section 5.3 study: generate an
/// unbalanced computation tree (a Table-3 preset or custom skew), run
/// the virtual-time simulator for each scheduling system across thread
/// counts, and print speedups with the waiting/idle diagnostics that
/// explain them.
///
///   ./build/examples/unbalanced_trees --tree=tree3r
///   ./build/examples/unbalanced_trees --tree=fig8 --scale=500000
///
//===----------------------------------------------------------------------===//

#include "metrics/Exposition.h"
#include "metrics/MetricsCli.h"
#include "metrics/MetricsRegistry.h"
#include "sim/SimEngine.h"
#include "sim/TreeGen.h"
#include "support/Error.h"
#include "support/Options.h"
#include "support/Table.h"
#include "trace/TraceJson.h"

#include <cstdio>

using namespace atc;

int main(int argc, char **argv) {
  std::string TreeName = "tree3l";
  long long Scale = 1'000'000;
  long long MaxThreads = 8;
  std::string TracePath;
  std::string TraceSystem = "adaptivetc";
  OptionSet Opts("Explore scheduler behaviour on unbalanced trees "
                 "(virtual-time simulation)");
  std::string Presets;
  for (const std::string &Name : SimTree::presetNames())
    Presets += (Presets.empty() ? "" : ", ") + Name;
  Opts.addString("tree", &TreeName, "tree preset: " + Presets);
  Opts.addInt("scale", &Scale, "tree size in nodes");
  Opts.addInt("max-threads", &MaxThreads, "largest worker count");
  Opts.addString("trace", &TracePath,
                 "record a virtual-time event trace of the max-threads "
                 "run to this file (Chrome/Perfetto trace.json)");
  Opts.addString("trace-system", &TraceSystem,
                 "which system the trace records: cilk-synched, tascell, "
                 "or adaptivetc");
  MetricsCliOptions MOpt;
  addMetricsOptions(Opts, MOpt);
  Opts.parse(argc, argv);

  SimTree Tree(SimTree::preset(TreeName, Scale));
  auto Shares = Tree.depth1SharePercent();
  std::printf("tree %s: %lld nodes; depth-1 shares:", TreeName.c_str(),
              Scale);
  for (double S : Shares)
    std::printf(" %.1f%%", S);
  std::printf("\n\n");

  CostModel Costs;
  TextTable Table;
  Table.setHeader({"threads", "Cilk-SYNCHED", "Tascell", "AdaptiveTC",
                   "Tascell wait%", "ATC wait%", "ATC idle%"});
  for (int T = 1; T <= MaxThreads; ++T) {
    SimOptions SimOpts;
    SimOpts.NumWorkers = T;

    SimOpts.Kind = SchedulerKind::CilkSynched;
    SimReport Syn = simulate(Tree, SimOpts, Costs);
    SimOpts.Kind = SchedulerKind::Tascell;
    SimReport Tas = simulate(Tree, SimOpts, Costs);
    SimOpts.Kind = SchedulerKind::AdaptiveTC;
    SimReport Atc = simulate(Tree, SimOpts, Costs);

    auto Pct = [](double Part, const SimReport &R) {
      return TextTable::fmt(100.0 * Part / R.Total.totalNs(), 1) + "%";
    };
    Table.addRow({std::to_string(T), TextTable::fmt(Syn.speedup(), 2),
                  TextTable::fmt(Tas.speedup(), 2),
                  TextTable::fmt(Atc.speedup(), 2),
                  Pct(Tas.Total.WaitChildrenNs, Tas),
                  Pct(Atc.Total.WaitChildrenNs, Atc),
                  Pct(Atc.Total.IdleNs, Atc)});
  }
  Table.print();

  if (!TracePath.empty()) {
    // The simulator is deterministic, so re-running the chosen system at
    // max-threads with a trace log attached replays exactly the run the
    // table reported.
    SimOptions SimOpts;
    if (!parseSchedulerKind(TraceSystem, SimOpts.Kind))
      reportFatalError(unknownSchedulerKindError(TraceSystem));
    SimOpts.NumWorkers = static_cast<int>(MaxThreads);
    TraceLog Log(SimOpts.NumWorkers, 1u << 20);
    simulate(Tree, SimOpts, Costs, &Log);
    Log.Meta.Workload = TreeName;
    if (writeChromeTraceFile(Log, TracePath))
      std::printf("\ntrace: wrote %s (%s, %lld virtual workers) — open in "
                  "https://ui.perfetto.dev\n",
                  TracePath.c_str(), schedulerKindName(SimOpts.Kind),
                  MaxThreads);
    else
      std::fprintf(stderr, "unbalanced_trees: cannot write trace to "
                           "'%s'\n",
                   TracePath.c_str());
  }
  if (MOpt.wantsMetrics() || !MOpt.StatsJson.empty()) {
    // Same determinism trick as --trace: replay the --trace-system run at
    // max-threads with a metrics registry attached, so the exported
    // snapshot describes a paper-scale multi-worker run even on a
    // one-core host (metrics are stamped with virtual clocks; there is no
    // live run to sample, so the periodic sampler flags are moot here).
    SimOptions SimOpts;
    if (!parseSchedulerKind(TraceSystem, SimOpts.Kind))
      reportFatalError(unknownSchedulerKindError(TraceSystem));
    SimOpts.NumWorkers = static_cast<int>(MaxThreads);
    MetricsRegistry Reg;
    SimReport Rep = simulate(Tree, SimOpts, Costs, nullptr, &Reg);
    Reg.Meta.Scheduler = schedulerKindName(SimOpts.Kind);
    Reg.Meta.Source = "sim";
    Reg.Meta.Workload = TreeName;
    MetricsSnapshot Final =
        Reg.sample(static_cast<std::uint64_t>(Rep.MakespanNs));
    std::string Prom = renderPrometheus(Final, Reg.Meta);
    if (!MOpt.MetricsFile.empty()) {
      if (!writeTextFileAtomic(MOpt.MetricsFile, Prom)) {
        std::fprintf(stderr, "unbalanced_trees: cannot write metrics to "
                             "'%s'\n",
                     MOpt.MetricsFile.c_str());
        return 1;
      }
      std::printf("\nmetrics: wrote %s (%s, %lld virtual workers)\n",
                  MOpt.MetricsFile.c_str(),
                  schedulerKindName(SimOpts.Kind), MaxThreads);
    } else if (MOpt.Metrics) {
      std::fputs(Prom.c_str(), stdout);
    }
    if (!MOpt.StatsJson.empty() &&
        !MetricsCliSession::writeStatsJson(MOpt.StatsJson, Final.toStats(),
                                           &Final, Reg.Meta)) {
      std::fprintf(stderr, "unbalanced_trees: cannot write stats to "
                           "'%s'\n",
                   MOpt.StatsJson.c_str());
      return 1;
    }
  }

  std::printf(
      "\nTry a right-heavy mirror (e.g. --tree=tree3r): Tascell's "
      "wait_children\nexplodes because it cannot suspend a waiting task, "
      "while Cilk-SYNCHED is\norientation-blind and AdaptiveTC sits in "
      "between (Figure 10 of the paper).\n");
  return 0;
}
