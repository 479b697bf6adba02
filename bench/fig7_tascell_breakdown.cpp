//===- bench/fig7_tascell_breakdown.cpp - Figure 7: Tascell waits ---------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces Figure 7: breakdown of Tascell's multi-thread overheads
/// into working / polling / wait_children at 2, 4 and 8 threads for
/// Nqueen-array, Nqueen-compute and Fib. The paper measures
/// wait_children at 16.73%, 20.84% and 11.31% respectively with 8
/// threads. Simulated (multi-thread shape experiment; see DESIGN.md).
///
//===----------------------------------------------------------------------===//

#include "bench/common/BenchCommon.h"
#include "support/Options.h"
#include "support/Table.h"

#include <cstdio>

using namespace atc;
using namespace atc::bench;

int main(int argc, char **argv) {
  bool PaperScale = false;
  std::string CsvPath;
  OptionSet Opts("Figure 7: Tascell overhead breakdown, multiple threads");
  Opts.addFlag("paper-scale", &PaperScale,
               "use the published input sizes (slow)");
  Opts.addString("csv", &CsvPath, "also write results as CSV to this file");
  Opts.parse(argc, argv);

  const char *Wanted[] = {"Nqueen-array", "Nqueen-compute", "Fib"};

  TextTable Csv;
  Csv.setHeader({"benchmark", "threads", "working_pct", "polling_pct",
                 "wait_children_pct"});

  for (const Benchmark &B : benchmarkSuite(PaperScale)) {
    bool Selected = false;
    for (const char *Prefix : Wanted)
      if (B.Name.rfind(Prefix, 0) == 0)
        Selected = true;
    if (!Selected)
      continue;

    SimWorkload W = makeSimWorkload(B.profile());
    std::printf("=== Figure 7: Tascell overhead breakdown of %s ===\n",
                B.Name.c_str());
    TextTable Table;
    Table.setHeader({"threads", "working", "polling", "wait_children"});
    for (int T : {2, 4, 8}) {
      SimReport R = simulateWorkload(W, SchedulerKind::Tascell, T);
      // The paper's three-way split: working subsumes overheads other
      // than polling and waiting.
      double Working =
          R.Total.WorkNs + R.Total.OverheadNs + R.Total.IdleNs;
      double Poll = R.Total.PollNs;
      double Wait = R.Total.WaitChildrenNs;
      double Total = Working + Poll + Wait;
      auto Pct = [Total](double X) {
        return TextTable::fmt(100.0 * X / Total, 2) + "%";
      };
      Table.addRow({std::to_string(T), Pct(Working), Pct(Poll), Pct(Wait)});
      Csv.addRow({B.Name, std::to_string(T),
                  TextTable::fmt(100.0 * Working / Total, 2),
                  TextTable::fmt(100.0 * Poll / Total, 2),
                  TextTable::fmt(100.0 * Wait / Total, 2)});
    }
    Table.print();
    std::printf("\n");
  }

  return maybeWriteCsv(CsvPath, Csv.renderCsv()) ? 0 : 1;
}
