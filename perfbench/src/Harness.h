//===- perfbench/src/Harness.h - Shared benchmark plumbing ------*- C++ -*-===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the benchmark shares: the run arguments, the
/// result report (the JSON line the benchmark ends with), the span log a
/// traced run writes as Perfetto-loadable JSON, quantiles, the host
/// capacity probe, and the roll-up of per-run SchedulerStats into the
/// kernel / deque / problems layer metrics.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include "core/SchedulerStats.h"
#include "support/Timer.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// What one invocation was asked to do.
struct RunArgs {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10;   ///< Length of the measured phase.
  bool Trace = false;    ///< Traced run: report the per-layer metrics.
  double SloMs = 0;      ///< Serve latency limit on a rung's p90.
  std::string TraceFile; ///< Where a traced run writes its spans.
};

/// Linearly interpolated quantile of \p V, \p Q in [0, 1]. \p V must be
/// non-empty.
double quantile(std::vector<double> V, double Q);

inline double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

/// Milliseconds between two nowNanos() stamps.
inline double msBetween(std::uint64_t BeginNs, std::uint64_t EndNs) {
  return static_cast<double>(EndNs - BeginNs) * 1e-6;
}

/// The benchmark's result: metrics in report order plus the count of
/// checked operations and failed checks. Thread-safe.
class Report {
public:
  enum class Kind { EndToEnd, Layer };

  /// Records a metric. A run prints only the metrics of its own kind:
  /// end-to-end ones untraced, layer ones traced.
  void add(const std::string &Name, double Value, const char *Unit,
           Kind K = Kind::Layer);

  /// Counts one checked operation; \p Ok false counts it as failed and
  /// logs \p What to stderr (the first few only).
  void check(bool Ok, const std::string &What);

  bool correct() const;

  /// Human-readable table on stderr (every metric, both kinds).
  void printSummary(const RunArgs &A) const;

  /// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
  void printJsonLine(bool Traced) const;

private:
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
    Kind K;
  };
  mutable std::mutex Lock;
  std::vector<Metric> Metrics;
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
};

/// In-memory span recorder. A span with a non-zero Parent nests under the
/// span with that id; spans with a non-zero Job share that job's id and
/// are drawn on one async track per job. Thread-safe.
class SpanLog {
public:
  explicit SpanLog(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }

  /// Records a span and returns its id (0 when disabled). \p Name must be
  /// a string literal.
  std::uint64_t add(const char *Name, std::uint64_t BeginNs,
                    std::uint64_t EndNs, std::uint64_t Parent = 0,
                    std::uint64_t Job = 0);

  /// Mean self time per span name in microseconds: a span's duration
  /// minus the union of its children's intervals inside it.
  std::map<std::string, double> meanSelfUs() const;

  std::size_t size() const;

  /// Writes the Chrome trace-event JSON that Perfetto and
  /// chrome://tracing load. Returns false on an I/O error.
  bool writeJson(const std::string &Path) const;

private:
  struct Span {
    const char *Name;
    std::uint64_t Id, Parent, Job, BeginNs, EndNs;
  };
  const bool Enabled;
  mutable std::mutex Lock;
  std::vector<Span> Spans;
};

/// Effective parallelism of the host right now: every CPU runs the same
/// fixed spin; returns (CPUs x one thread's spin time) / (their wall
/// time). 4.0 on an idle 4-CPU host, lower when others take capacity.
double hostParallelism();

/// The process's peak resident set size in MB.
double peakRssMb();

/// One scheduler run's counters with its wall time and width, for the
/// kernel / deque / problems roll-up.
struct RunCounters {
  atc::SchedulerStats Stats;
  double WallMs = 0;
  int Workers = 0;
};

/// Adds the problems.nodes, kernel.* and deque.* (counter) metrics: each
/// counter's mean per run, and steal success and idle share over all
/// runs. \p Runs must be non-empty.
void addCounterMetrics(Report &R, const std::vector<RunCounters> &Runs);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
