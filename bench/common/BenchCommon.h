//===- bench/common/BenchCommon.h - Shared harness pieces -------*- C++ -*-===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared infrastructure for the figure/table harnesses: the Table-1
/// benchmark suite (scaled and paper-scale inputs) over the problem
/// registry, real-runtime runners, and workload profiles that feed the
/// simulator for the multi-thread figures.
///
/// Each harness binary prints the rows/series of one table or figure of
/// the paper, as a text table and optionally CSV (--csv).
///
//===----------------------------------------------------------------------===//

#ifndef ATC_BENCH_COMMON_BENCHCOMMON_H
#define ATC_BENCH_COMMON_BENCHCOMMON_H

#include "problems/ProblemRegistry.h"
#include "sim/CostModel.h"
#include "sim/SimEngine.h"

#include <optional>
#include <string>
#include <vector>

namespace atc {
namespace bench {

/// Outcome of one real-runtime execution.
struct RealRun {
  long long Value = 0;
  double Seconds = 0;
  SchedulerStats Stats;
};

/// Workload shape measured from a real benchmark, used to parameterize
/// the simulator for the multi-thread figures.
struct WorkloadProfile {
  long long Nodes = 0;
  int MaxDepth = 0;
  double AvgFanout = 0;   ///< Children per internal node.
  double NodeWorkNs = 0;  ///< Sequential seconds / nodes.
  int StateBytes = 0;     ///< sizeof(State) — the taskprivate footprint.
};

/// One Table-1 benchmark: a registry problem at its scaled or published
/// size, with the paper's labels.
struct Benchmark {
  std::string Name;       ///< e.g. "Nqueen-array(11)".
  std::string PaperName;  ///< e.g. "Nqueen-array(16)".
  bool HasTaskprivate = true;
  ProblemRunner Runner;

  /// Times the reference sequential program, returning value + seconds.
  RealRun runSequential() const;

  /// Times a run under \p Cfg on real threads. A value other than the
  /// sequential oracle's prints an error and exits the process with
  /// status 1, so no harness reports figures of a wrong run.
  RealRun run(const SchedulerConfig &Cfg) const;

  /// Profiles the computation tree + per-node work (sequential).
  WorkloadProfile profile() const;

private:
  /// The oracle value, from the first sequential run.
  mutable std::optional<long long> Oracle;
};

/// The Table-1 benchmark suite. \p PaperScale selects the published input
/// sizes (16-queens, Fib(45), ... — minutes to hours of single-core
/// time); the default uses the registry's scaled inputs, which preserve
/// tree shape.
std::vector<Benchmark> benchmarkSuite(bool PaperScale);

/// Builds a simulator tree spec + cost model matched to \p Profile.
///
/// Node counts above \p MaxSimNodes are capped with the per-node work
/// scaled up correspondingly (total work preserved). Node counts below
/// \p MinSimNodes are expanded at unchanged per-node work: the scaled
/// benchmark inputs shrink the tree relative to the published inputs
/// (which have 1e8..1e9 nodes), and a multi-thread scheduling experiment
/// on a sub-millisecond workload would measure only startup latencies.
struct SimWorkload {
  TreeSpec Tree;
  CostModel Costs;
};
SimWorkload makeSimWorkload(const WorkloadProfile &Profile,
                            long long MaxSimNodes = 2'000'000,
                            long long MinSimNodes = 500'000);

/// Runs the simulator for \p Kind / \p Workers over \p Workload.
SimReport simulateWorkload(const SimWorkload &Workload, SchedulerKind Kind,
                           int Workers, int Cutoff = -1);

/// The four systems of Figures 4/5 (order matters for the tables).
std::vector<SchedulerKind> figureSystems(bool HasTaskprivate);

/// Writes \p Csv to \p Path (under the current directory) when non-empty.
/// Returns false, after a warning, if the file cannot be written in full;
/// the harness then exits 1.
[[nodiscard]] bool maybeWriteCsv(const std::string &Path,
                                 const std::string &Csv);

} // namespace bench
} // namespace atc

#endif // ATC_BENCH_COMMON_BENCHCOMMON_H
