//===- bench/common/BenchCommon.cpp - Shared harness pieces ---------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "bench/common/BenchCommon.h"

#include "support/Error.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

using namespace atc;
using namespace atc::bench;

namespace {

/// One row of Table 1: the registry kind it runs, its labels at the
/// registry's scaled default and published sizes, and the paper's label.
struct SuiteRow {
  const char *Kind;
  const char *ScaledName;
  const char *PublishedName;
  const char *PaperName;
  bool HasTaskprivate;
};

// Table 1's order. Sudoku runs the balanced instance (Figure 4e uses
// input_balance); Fib and Comp have no taskprivate workspace.
const SuiteRow Suite[] = {
    {"nqueens-array", "Nqueen-array(11)", "Nqueen-array(16)",
     "Nqueen-array(16)", true},
    {"nqueens-compute", "Nqueen-compute(11)", "Nqueen-compute(16)",
     "Nqueen-compute(16)", true},
    {"strimko", "Strimko(5)", "Strimko(7)", "Strimko(7x7)", true},
    {"knights", "Knights-Tour(5x5)", "Knights-Tour(6x6)", "Knights-Tour(6x6)",
     true},
    {"sudoku", "Sudoku(balance)", "Sudoku(balance-large)", "Sudoku(balance)",
     true},
    {"pentomino", "Pentomino(6)", "Pentomino(13)", "Pentomino(13)", true},
    {"fib", "Fib(27)", "Fib(45)", "Fib(45)", false},
    {"comp", "Comp(6000)", "Comp(60000)", "Comp(60000)", false},
};

} // namespace

RealRun Benchmark::runSequential() const {
  RealRun R;
  R.Seconds = timeSeconds([&] { R.Value = Runner.RunSequential(); });
  Oracle = R.Value;
  return R;
}

RealRun Benchmark::run(const SchedulerConfig &Cfg) const {
  RealRun R;
  R.Seconds = timeSeconds([&] {
    auto Out = Runner.Run(Cfg);
    R.Value = Out.Value;
    R.Stats = Out.Stats;
  });
  if (!Oracle)
    Oracle = Runner.RunSequential();
  if (R.Value != *Oracle) {
    std::fprintf(stderr, "error: %s under %s returned %lld, expected %lld\n",
                 Name.c_str(), schedulerKindName(Cfg.Kind), R.Value, *Oracle);
    std::exit(1);
  }
  return R;
}

WorkloadProfile Benchmark::profile() const {
  TreeProfile T = Runner.Profile();
  // Per-node work from the plain sequential program. Small inputs run in
  // well under a millisecond, so repeat until enough time has accumulated
  // and take the fastest run (least interference).
  double Best = 1e99;
  double Accumulated = 0;
  for (int Reps = 0; (Accumulated < 0.05 || Reps < 3) && Reps < 1000;
       ++Reps) {
    double Sec = runSequential().Seconds;
    Best = std::min(Best, Sec);
    Accumulated += Sec;
  }
  WorkloadProfile W;
  W.Nodes = T.Nodes;
  W.MaxDepth = T.MaxDepth;
  long long Internal = T.Nodes - T.Leaves;
  W.AvgFanout = Internal > 0 ? static_cast<double>(T.Nodes - 1) /
                                   static_cast<double>(Internal)
                             : 0.0;
  W.NodeWorkNs = 1e9 * Best / static_cast<double>(T.Nodes);
  W.StateBytes = Runner.StateBytes;
  return W;
}

std::vector<Benchmark> atc::bench::benchmarkSuite(bool PaperScale) {
  std::vector<Benchmark> Out;
  for (const SuiteRow &Row : Suite) {
    Benchmark B;
    B.Name = PaperScale ? Row.PublishedName : Row.ScaledName;
    B.PaperName = Row.PaperName;
    B.HasTaskprivate = Row.HasTaskprivate;
    std::string Err;
    if (!makeProblemRunner(Row.Kind,
                           PaperScale ? problemPublishedSize(Row.Kind) : 0,
                           B.Runner, Err))
      reportFatalError(Err);
    Out.push_back(std::move(B));
  }
  return Out;
}

SimWorkload atc::bench::makeSimWorkload(const WorkloadProfile &Profile,
                                        long long MaxSimNodes,
                                        long long MinSimNodes) {
  SimWorkload W;
  long long Nodes = Profile.Nodes;
  double NodeWork = Profile.NodeWorkNs;
  if (Nodes > MaxSimNodes) {
    // Preserve total work: fewer, proportionally heavier nodes.
    NodeWork *= static_cast<double>(Nodes) /
                static_cast<double>(MaxSimNodes);
    Nodes = MaxSimNodes;
  }
  if (Nodes < MinSimNodes)
    Nodes = MinSimNodes; // re-expand toward the published input scale
  // Floor the grain at a plausible compiled-C recursion step: the
  // template interpreter's fib node underruns what the paper's gcc -O3
  // fib costs, which would inflate every relative overhead.
  NodeWork = std::max(NodeWork, 5.0);
  W.Tree.TotalNodes = std::max<long long>(Nodes, 64);
  W.Tree.EvenSplit = true; // Figure 4 inputs are the balanced workloads
  int Fan = static_cast<int>(Profile.AvgFanout + 0.5);
  W.Tree.MinFanout = std::max(2, Fan - 1);
  W.Tree.MaxFanout = std::max(W.Tree.MinFanout, Fan + 1);
  W.Tree.Seed = 0xF16'4 + static_cast<std::uint64_t>(Profile.Nodes);

  // Calibrate the scheduling-operation costs against this host once, so
  // the simulated figures are consistent with the real single-thread
  // measurements (Table 2) taken on the same machine.
  static const CostModel Calibrated = CostModel::calibrate();
  W.Costs = Calibrated;
  W.Costs.NodeWorkNs = std::max(NodeWork, 1.0);
  W.Costs.StateBytes = Profile.StateBytes;
  return W;
}

SimReport atc::bench::simulateWorkload(const SimWorkload &Workload,
                                       SchedulerKind Kind, int Workers,
                                       int Cutoff) {
  SimTree Tree(Workload.Tree);
  SimOptions Opts;
  Opts.Kind = Kind;
  Opts.NumWorkers = Workers;
  Opts.Cutoff = Cutoff;
  return simulate(Tree, Opts, Workload.Costs);
}

std::vector<SchedulerKind>
atc::bench::figureSystems(bool HasTaskprivate) {
  // "Fib and Comp don't have taskprivate variables, therefore the
  // speedup ... are against Cilk and Tascell only."
  if (!HasTaskprivate)
    return {SchedulerKind::Cilk, SchedulerKind::Tascell,
            SchedulerKind::AdaptiveTC};
  return {SchedulerKind::Cilk, SchedulerKind::CilkSynched,
          SchedulerKind::Tascell, SchedulerKind::AdaptiveTC};
}

bool atc::bench::maybeWriteCsv(const std::string &Path,
                               const std::string &Csv) {
  if (Path.empty())
    return true;
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    reportWarning("cannot write " + Path);
    return false;
  }
  bool Written = std::fwrite(Csv.data(), 1, Csv.size(), F) == Csv.size();
  if (std::fclose(F) != 0 || !Written) {
    reportWarning("cannot write " + Path);
    return false;
  }
  std::printf("wrote %s\n", Path.c_str());
  return true;
}
