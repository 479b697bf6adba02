//===- bench/fig6_breakdown1t.cpp - Figure 6: 1-thread breakdown ----------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces Figure 6: breakdown of the single-thread overheads of
/// Tascell, Cilk, Cilk-SYNCHED and AdaptiveTC into "working",
/// "taskprivate variable" (workspace copying) and "deque / nested
/// function" shares, for Nqueen-array, Nqueen-compute and Fib.
///
/// Method: the total 1-thread time and the sequential time are measured
/// directly (real runs). The workspace-copy share is attributed from the
/// instrumented copy counters times a live-calibrated memcpy cost; the
/// remaining overhead is deque management / task creation (Cilk kinds),
/// or nested-function management / polling (Tascell, AdaptiveTC).
///
//===----------------------------------------------------------------------===//

#include "bench/common/BenchCommon.h"
#include "support/Options.h"
#include "support/Stats.h"
#include "support/Table.h"

#include <algorithm>
#include <cstdio>

using namespace atc;
using namespace atc::bench;

int main(int argc, char **argv) {
  bool PaperScale = false;
  long long Repeats = 3;
  std::string CsvPath;
  OptionSet Opts("Figure 6: breakdown of overheads with one thread");
  Opts.addFlag("paper-scale", &PaperScale,
               "use the published input sizes (slow)");
  Opts.addInt("repeats", &Repeats, "runs per configuration (median)");
  Opts.addString("csv", &CsvPath, "also write results as CSV to this file");
  Opts.parse(argc, argv);

  // Figure 6 uses these three benchmarks.
  const char *Wanted[] = {"Nqueen-array", "Nqueen-compute", "Fib"};

  CostModel Calibrated = CostModel::calibrate();
  std::printf("calibrated unit costs: %s\n\n", Calibrated.describe().c_str());

  TextTable Csv;
  Csv.setHeader({"benchmark", "system", "working_pct", "taskprivate_pct",
                 "deque_or_nested_pct"});

  for (const Benchmark &B : benchmarkSuite(PaperScale)) {
    bool Selected = false;
    for (const char *Prefix : Wanted)
      if (B.Name.rfind(Prefix, 0) == 0)
        Selected = true;
    if (!Selected)
      continue;

    std::vector<double> SeqTimes;
    for (int I = 0; I < Repeats; ++I)
      SeqTimes.push_back(B.runSequential().Seconds);
    double SeqSec = median(SeqTimes);

    std::printf("=== Figure 6: overhead breakdown of %s (1 thread) ===\n",
                B.Name.c_str());
    TextTable Table;
    Table.setHeader({"system", "working", "taskprivate/copy",
                     "deque/nested-fn"});

    for (SchedulerKind K :
         {SchedulerKind::Tascell, SchedulerKind::Cilk,
          SchedulerKind::CilkSynched, SchedulerKind::AdaptiveTC}) {
      if (K == SchedulerKind::CilkSynched && !B.HasTaskprivate)
        continue;
      SchedulerConfig Cfg;
      Cfg.Kind = K;
      Cfg.NumWorkers = 1;
      std::vector<double> Times;
      SchedulerStats Stats;
      for (int I = 0; I < Repeats; ++I) {
        RealRun R = B.run(Cfg);
        Times.push_back(R.Seconds);
        Stats = R.Stats;
      }
      double Sec = median(Times);

      // Workspace (taskprivate) share: the memcpy bytes plus, for plain
      // Cilk, the fresh per-child allocation that SYNCHED/taskprivate
      // elide.
      double CopySec =
          1e-9 * Calibrated.CopyNsPerByte *
          static_cast<double>(Stats.CopiedBytes);
      if (K == SchedulerKind::Cilk)
        CopySec += 1e-9 * Calibrated.AllocNs *
                   static_cast<double>(Stats.WorkspaceCopies);
      double Working = SeqSec;
      double Overhead = std::max(Sec - SeqSec, 0.0);
      CopySec = std::min(CopySec, Overhead);
      double Other = Overhead - CopySec;

      double Total = Working + CopySec + Other;
      auto Pct = [Total](double X) {
        return TextTable::fmt(100.0 * X / Total, 1) + "%";
      };
      Table.addRow({schedulerKindName(K), Pct(Working), Pct(CopySec),
                    Pct(Other)});
      Csv.addRow({B.Name, schedulerKindName(K),
                  TextTable::fmt(100.0 * Working / Total, 2),
                  TextTable::fmt(100.0 * CopySec / Total, 2),
                  TextTable::fmt(100.0 * Other / Total, 2)});
    }
    Table.print();
    std::printf("\n");
  }

  return maybeWriteCsv(CsvPath, Csv.renderCsv()) ? 0 : 1;
}
