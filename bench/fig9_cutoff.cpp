//===- bench/fig9_cutoff.cpp - Figure 9: cut-off strategies ---------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces Figure 9: speedup of Sudoku (input1, the Figure 8 tree)
/// under Cilk, Tascell, AdaptiveTC, Cutoff-programmer and Cutoff-library
/// for 1..8 threads. The paper's finding: "In both Cutoff-programmer and
/// Cutoff-library, some threads are in starvation when the numbers of
/// threads are larger than 4 ... AdaptiveTC gets a better speedup in an
/// unbalanced tree than the other two strategies."
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
  long long Scale = 2'000'000;
  long long CutoffProgrammer = 3;
  long long Seeds = 3;
  std::string CsvPath;
  OptionSet Opts("Figure 9: Sudoku(input1) under cut-off strategies");
  Opts.addInt("scale", &Scale, "tree size in nodes");
  Opts.addInt("cutoff", &CutoffProgrammer,
              "Cutoff-programmer depth (default 3)");
  Opts.addInt("seeds", &Seeds,
              "average speedups over this many scheduler seeds (the "
              "adaptive dynamics are chaotic on a single run)");
  Opts.addString("csv", &CsvPath, "also write results as CSV to this file");
  Opts.parse(argc, argv);

  SimTree Tree(SimTree::preset("fig8", Scale));
  CostModel Costs;
  // Sudoku's workspace is the paper's Status_t (4 x 81 bytes).
  Costs.StateBytes = 324;

  struct System {
    const char *Name;
    SchedulerKind Kind;
    int Cutoff;
    bool CopiesEverywhere;
  };
  const System Systems[] = {
      {"Cilk", SchedulerKind::Cilk, -1, false},
      {"Tascell", SchedulerKind::Tascell, -1, false},
      {"AdaptiveTC", SchedulerKind::AdaptiveTC, -1, false},
      {"Cutoff-programmer", SchedulerKind::Cutoff,
       static_cast<int>(CutoffProgrammer), false},
      {"Cutoff-library", SchedulerKind::Cutoff, -1, true},
  };

  TextTable Table;
  {
    std::vector<std::string> Header = {"threads"};
    for (const System &S : Systems)
      Header.push_back(S.Name);
    Table.setHeader(Header);
  }
  TextTable Csv;
  Csv.setHeader({"system", "threads", "speedup"});

  for (int T = 1; T <= 8; ++T) {
    std::vector<std::string> Row = {std::to_string(T)};
    for (const System &S : Systems) {
      double Sum = 0;
      for (int Seed = 0; Seed < Seeds; ++Seed) {
        SimOptions SimOpts;
        SimOpts.Kind = S.Kind;
        SimOpts.NumWorkers = T;
        SimOpts.Cutoff = S.Cutoff;
        SimOpts.CutoffCopiesEverywhere = S.CopiesEverywhere;
        SimOpts.Seed = 0x51D + static_cast<std::uint64_t>(Seed) * 7919;
        Sum += simulate(Tree, SimOpts, Costs).speedup();
      }
      double Speedup = Sum / static_cast<double>(Seeds);
      Row.push_back(TextTable::fmt(Speedup, 2));
      Csv.addRow({S.Name, std::to_string(T), TextTable::fmt(Speedup, 4)});
    }
    Table.addRow(Row);
  }

  std::printf("=== Figure 9: speedup of Sudoku (input1) ===\n");
  Table.print();
  return atc::bench::maybeWriteCsv(CsvPath, Csv.renderCsv()) ? 0 : 1;
}
