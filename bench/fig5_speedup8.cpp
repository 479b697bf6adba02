//===- bench/fig5_speedup8.cpp - Figure 5: 8-thread speedup vs. Cilk ------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces Figure 5: speedup with 8 threads, baseline is Cilk's
/// execution time ("The results ... show a significant performance
/// improvement of the AdaptiveTC over Cilk in the range of 1.15x to 2.78x
/// using 8 threads").
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
  OptionSet Opts("Figure 5: 8-thread speedup relative to Cilk");
  Opts.addFlag("paper-scale", &PaperScale,
               "use the published input sizes (slow)");
  Opts.addString("csv", &CsvPath, "also write results as CSV to this file");
  Opts.parse(argc, argv);

  constexpr int Threads = 8;
  TextTable Table;
  Table.setHeader({"benchmark", "Cilk", "Cilk-SYNCHED", "Tascell",
                   "AdaptiveTC", "AdaptiveTC/Cilk"});
  TextTable Csv;
  Csv.setHeader({"benchmark", "system", "speedup_vs_cilk"});

  for (const Benchmark &B : benchmarkSuite(PaperScale)) {
    SimWorkload W = makeSimWorkload(B.profile());
    double CilkNs =
        simulateWorkload(W, SchedulerKind::Cilk, Threads).MakespanNs;

    std::vector<std::string> Row = {B.Name};
    double AtcRatio = 0;
    for (SchedulerKind K :
         {SchedulerKind::Cilk, SchedulerKind::CilkSynched,
          SchedulerKind::Tascell, SchedulerKind::AdaptiveTC}) {
      if (K == SchedulerKind::CilkSynched && !B.HasTaskprivate) {
        Row.push_back("-");
        continue;
      }
      SimReport R = simulateWorkload(W, K, Threads);
      double Ratio = CilkNs / R.MakespanNs;
      if (K == SchedulerKind::AdaptiveTC)
        AtcRatio = Ratio;
      Row.push_back(TextTable::fmt(Ratio, 2));
      Csv.addRow({B.Name, schedulerKindName(K), TextTable::fmt(Ratio, 4)});
    }
    Row.push_back(TextTable::fmt(AtcRatio, 2));
    Table.addRow(Row);
  }

  std::printf("=== Figure 5: speedup with 8 threads, baseline Cilk ===\n");
  Table.print();
  return maybeWriteCsv(CsvPath, Csv.renderCsv()) ? 0 : 1;
}
