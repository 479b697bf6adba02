//===- bench/table2_overhead1t.cpp - Table 2: 1-thread overheads ----------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces Table 2: execution time (and relative time to the
/// sequential C program) with one thread for Tascell, Cilk, Cilk-SYNCHED
/// and AdaptiveTC. These are *real measurements* of this repository's
/// runtime — the single-thread overhead experiments are the ones the
/// single-core host can reproduce natively.
///
/// Paper reference ratios (to sequential): Cilk 1.21-4.01x, Cilk-SYNCHED
/// 1.19-3.09x, Tascell 1.01-1.61x, AdaptiveTC 0.92-1.52x.
///
//===----------------------------------------------------------------------===//

#include "bench/common/BenchCommon.h"
#include "support/Options.h"
#include "support/Stats.h"
#include "support/Table.h"

#include <cstdio>

using namespace atc;
using namespace atc::bench;

int main(int argc, char **argv) {
  bool PaperScale = false;
  long long Repeats = 3;
  std::string CsvPath;
  OptionSet Opts("Table 2: 1-thread execution time relative to sequential");
  Opts.addFlag("paper-scale", &PaperScale,
               "use the published input sizes (slow)");
  Opts.addInt("repeats", &Repeats,
              "runs per configuration; the median is reported (paper: 3)");
  Opts.addString("csv", &CsvPath, "also write results as CSV to this file");
  std::string StatsJsonPath;
  Opts.addString("stats-json", &StatsJsonPath,
                 "write a JSON array of {benchmark, system, ms, ratio, "
                 "stats} rows (final repeat's SchedulerStats) to this file");
  Opts.parse(argc, argv);

  const SchedulerKind Systems[] = {
      SchedulerKind::Tascell, SchedulerKind::Cilk,
      SchedulerKind::CilkSynched, SchedulerKind::AdaptiveTC};

  TextTable Table;
  Table.setHeader({"benchmark", "seq(ms)", "Tascell", "Cilk", "Cilk-SYNCHED",
                   "AdaptiveTC"});
  TextTable Csv;
  Csv.setHeader({"benchmark", "system", "ms", "ratio_to_seq"});
  std::string StatsJson;
  auto AddStatsRow = [&](const std::string &Bench, const char *System,
                         double Sec, double Ratio,
                         const SchedulerStats &Stats) {
    if (StatsJsonPath.empty())
      return;
    char Head[160];
    std::snprintf(Head, sizeof(Head),
                  "  {\"benchmark\": \"%s\", \"system\": \"%s\", "
                  "\"ms\": %.3f, \"ratio_to_seq\": %.3f,\n   \"stats\": ",
                  Bench.c_str(), System, Sec * 1e3, Ratio);
    StatsJson += (StatsJson.empty() ? "[\n" : ",\n") + std::string(Head) +
                 Stats.json() + "}";
  };

  for (const Benchmark &B : benchmarkSuite(PaperScale)) {
    // Median-of-N sequential baseline (paper protocol).
    std::vector<double> SeqTimes;
    RealRun SeqRun;
    for (int I = 0; I < Repeats; ++I) {
      SeqRun = B.runSequential();
      SeqTimes.push_back(SeqRun.Seconds);
    }
    double SeqSec = median(SeqTimes);
    Csv.addRow({B.Name, "Sequential", TextTable::fmt(SeqSec * 1e3, 3), "1.00"});
    AddStatsRow(B.Name, "Sequential", SeqSec, 1.0, SeqRun.Stats);

    std::vector<std::string> Row = {B.Name, TextTable::fmt(SeqSec * 1e3, 1)};
    for (SchedulerKind K : Systems) {
      if (K == SchedulerKind::CilkSynched && !B.HasTaskprivate) {
        // Fib/Comp have no taskprivate workspace; the paper leaves the
        // SYNCHED column empty ("-").
        Row.push_back("-");
        continue;
      }
      SchedulerConfig Cfg;
      Cfg.Kind = K;
      Cfg.NumWorkers = 1;
      std::vector<double> Times;
      RealRun Last;
      for (int I = 0; I < Repeats; ++I) {
        Last = B.run(Cfg);
        Times.push_back(Last.Seconds);
      }
      double Sec = median(Times);
      char Cell[64];
      std::snprintf(Cell, sizeof(Cell), "%.1f (%.2f)", Sec * 1e3,
                    Sec / SeqSec);
      Row.push_back(Cell);
      Csv.addRow({B.Name, schedulerKindName(K), TextTable::fmt(Sec * 1e3, 3),
                  TextTable::fmt(Sec / SeqSec, 3)});
      AddStatsRow(B.Name, schedulerKindName(K), Sec, Sec / SeqSec,
                  Last.Stats);
    }
    Table.addRow(Row);
  }

  std::printf("=== Table 2: execution time in ms (and relative time to the "
              "sequential program) with one thread ===\n");
  Table.print();
  bool Written = maybeWriteCsv(CsvPath, Csv.renderCsv());
  if (!StatsJsonPath.empty())
    Written = maybeWriteCsv(StatsJsonPath, StatsJson + "\n]\n") && Written;
  return Written ? 0 : 1;
}
