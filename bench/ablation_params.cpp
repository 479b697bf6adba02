//===- bench/ablation_params.cpp - design-parameter ablations -------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation sweeps over AdaptiveTC's two magic numbers (DESIGN.md,
/// "Key design decisions"):
///
///  * the initial cut-off (paper default: log2 N) — sweeps 0..8, showing
///    why log2 N balances initial task supply against task-creation
///    overhead;
///  * max_stolen_num (paper default: 20) — the failed-steal threshold
///    that arms need_task; too small publishes specials for transient
///    idleness, too large starves thieves.
///
/// Simulated on the Figure 8 tree at 8 workers.
///
//===----------------------------------------------------------------------===//

#include "bench/common/BenchCommon.h"
#include "sim/SimEngine.h"
#include "sim/TreeGen.h"
#include "support/Options.h"
#include "support/Table.h"

#include <cstdio>

using namespace atc;

int main(int argc, char **argv) {
  long long Scale = 1'000'000;
  std::string CsvPath;
  OptionSet Opts("Ablations: cut-off depth and max_stolen_num");
  Opts.addInt("scale", &Scale, "tree size in nodes");
  Opts.addString("csv", &CsvPath, "also write results as CSV to this file");
  Opts.parse(argc, argv);

  SimTree Tree(SimTree::preset("fig8", Scale));
  CostModel Costs;
  TextTable Csv;
  Csv.setHeader({"sweep", "value", "speedup", "tasks", "specials", "steals"});

  std::printf("=== Ablation: AdaptiveTC initial cut-off (8 workers; paper "
              "default log2(8) = 3) ===\n");
  {
    TextTable Table;
    Table.setHeader({"cutoff", "speedup", "tasks", "specials", "steals",
                     "deque-high-water"});
    for (int Cutoff = 0; Cutoff <= 8; ++Cutoff) {
      SimOptions SimOpts;
      SimOpts.Kind = SchedulerKind::AdaptiveTC;
      SimOpts.NumWorkers = 8;
      SimOpts.Cutoff = Cutoff;
      SimReport R = simulate(Tree, SimOpts, Costs);
      Table.addRow({std::to_string(Cutoff), TextTable::fmt(R.speedup(), 2),
                    TextTable::fmt(static_cast<long long>(R.TasksCreated)),
                    TextTable::fmt(static_cast<long long>(R.SpecialTasks)),
                    TextTable::fmt(static_cast<long long>(R.Steals)),
                    std::to_string(R.MaxStealableFrames)});
      Csv.addRow({"cutoff", std::to_string(Cutoff),
                  TextTable::fmt(R.speedup(), 4),
                  TextTable::fmt(static_cast<long long>(R.TasksCreated)),
                  TextTable::fmt(static_cast<long long>(R.SpecialTasks)),
                  TextTable::fmt(static_cast<long long>(R.Steals))});
    }
    Table.print();
  }

  std::printf("\n=== Ablation: max_stolen_num (8 workers; paper default 20) "
              "===\n");
  {
    TextTable Table;
    Table.setHeader({"max_stolen_num", "speedup", "specials", "steals",
                     "steal-fails"});
    for (int Max : {1, 5, 10, 20, 50, 100, 500}) {
      SimOptions SimOpts;
      SimOpts.Kind = SchedulerKind::AdaptiveTC;
      SimOpts.NumWorkers = 8;
      SimOpts.MaxStolenNum = Max;
      SimReport R = simulate(Tree, SimOpts, Costs);
      Table.addRow({std::to_string(Max), TextTable::fmt(R.speedup(), 2),
                    TextTable::fmt(static_cast<long long>(R.SpecialTasks)),
                    TextTable::fmt(static_cast<long long>(R.Steals)),
                    TextTable::fmt(static_cast<long long>(R.StealFails))});
      Csv.addRow({"max_stolen_num", std::to_string(Max),
                  TextTable::fmt(R.speedup(), 4), "",
                  TextTable::fmt(static_cast<long long>(R.SpecialTasks)),
                  TextTable::fmt(static_cast<long long>(R.Steals))});
    }
    Table.print();
  }

  return atc::bench::maybeWriteCsv(CsvPath, Csv.renderCsv()) ? 0 : 1;
}
