//===- bench/fig4_speedup.cpp - Figure 4: speedup vs. threads -------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces Figure 4 (a-h): speedup over the sequential program for
/// each Table-1 benchmark under Cilk, Cilk-SYNCHED, Tascell, and
/// AdaptiveTC with 1..8 threads.
///
/// The host has a single core, so the multi-thread points are produced by
/// the virtual-time simulator parameterized with each benchmark's
/// measured tree shape, per-node work, and workspace size (see DESIGN.md
/// "Substitutions"). The 1-thread points of the real runtime are reported
/// by table2_overhead1t.
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
  bool Quick = false;
  long long MaxThreads = 8;
  std::string CsvPath;
  OptionSet Opts("Figure 4: speedup vs. thread count, all benchmarks");
  Opts.addFlag("paper-scale", &PaperScale,
               "use the published input sizes (slow)");
  Opts.addFlag("quick", &Quick, "thread counts {1,2,4,8} only");
  Opts.addInt("max-threads", &MaxThreads, "largest thread count (default 8)");
  Opts.addString("csv", &CsvPath, "also write results as CSV to this file");
  Opts.parse(argc, argv);

  TextTable Csv;
  Csv.setHeader({"benchmark", "system", "threads", "speedup"});

  std::vector<int> Threads;
  for (int T = 1; T <= MaxThreads; ++T)
    if (!Quick || T == 1 || T == 2 || T == 4 || T == 8)
      Threads.push_back(T);

  for (const Benchmark &B : benchmarkSuite(PaperScale)) {
    std::printf("=== Figure 4: %s (paper: %s) ===\n", B.Name.c_str(),
                B.PaperName.c_str());
    WorkloadProfile P = B.profile();
    std::printf("workload: %lld nodes, depth %d, fanout %.2f, "
                "%.1f ns/node, state %d B\n",
                P.Nodes, P.MaxDepth, P.AvgFanout, P.NodeWorkNs,
                P.StateBytes);
    SimWorkload W = makeSimWorkload(P);

    TextTable Table;
    std::vector<std::string> Header = {"threads"};
    std::vector<SchedulerKind> Systems = figureSystems(B.HasTaskprivate);
    for (SchedulerKind K : Systems)
      Header.push_back(schedulerKindName(K));
    Table.setHeader(Header);

    for (int T : Threads) {
      std::vector<std::string> Row = {std::to_string(T)};
      for (SchedulerKind K : Systems) {
        SimReport R = simulateWorkload(W, K, T);
        Row.push_back(TextTable::fmt(R.speedup(), 2));
        Csv.addRow({B.Name, schedulerKindName(K), std::to_string(T),
                    TextTable::fmt(R.speedup(), 4)});
      }
      Table.addRow(Row);
    }
    Table.print();
    std::printf("\n");
  }

  return maybeWriteCsv(CsvPath, Csv.renderCsv()) ? 0 : 1;
}
