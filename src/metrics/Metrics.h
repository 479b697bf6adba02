//===- metrics/Metrics.h - Per-worker live metric cells ---------*- C++ -*-===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The live-metrics counterpart of the event-trace layer (docs/METRICS.md;
/// DESIGN.md presents the two as one observability story). Where a trace
/// records *events* for post-mortem timelines, a metric cell holds
/// *aggregates* — counters, gauges, log2-bucketed histograms — that a
/// sampler thread or dashboard can read while the run is still going.
///
/// Concurrency model: one WorkerMetricsCell per worker, cache-line
/// isolated. The owning worker publishes with relaxed atomic stores
/// (plain load-add-store, never fetch_add — there is exactly one writer
/// per field, so the RMW would buy nothing and cost a locked op); readers
/// (the sampler, atc_top) take relaxed loads from any thread. The only
/// cross-thread *writes* are the need_task gauge (raised by thieves, like
/// the NeedTask flag itself) and the deque-depth gauge (stores from
/// successful thieves) — both plain atomic stores.
///
/// The gate, mirroring trace/TraceEvent.h exactly, is
/// SchedulerConfig::Metrics: off costs one predictable untaken branch on
/// a worker-local pointer per site.
///
//===----------------------------------------------------------------------===//

#ifndef ATC_METRICS_METRICS_H
#define ATC_METRICS_METRICS_H

#include "core/SchedulerStats.h"
#include "metrics/Quantile.h"
#include "support/Compiler.h"
#include "support/Timer.h"
#include "trace/TraceEvent.h"

#include <atomic>
#include <cstdint>

namespace atc {

/// Plain (non-atomic) histogram contents: the snapshot/merge/quantile
/// side of LogHistogram, also usable standalone in tests.
struct HistogramCounts {
  std::uint64_t Buckets[NumLog2Buckets] = {};
  std::uint64_t Count = 0;
  std::uint64_t Sum = 0;

  void record(std::uint64_t V) {
    ++Buckets[log2BucketFor(V)];
    ++Count;
    Sum += V;
  }

  void merge(const HistogramCounts &Other) {
    for (unsigned B = 0; B != NumLog2Buckets; ++B)
      Buckets[B] += Other.Buckets[B];
    Count += Other.Count;
    Sum += Other.Sum;
  }

  /// Interpolated quantile, Q in [0, 1]. 0 when empty.
  double quantile(double Q) const {
    return quantileFromLog2Buckets(Buckets, Count, Q);
  }

  double mean() const {
    return Count == 0 ? 0.0
                      : static_cast<double>(Sum) / static_cast<double>(Count);
  }
};

/// Single-writer log2-bucketed histogram: the recording side. record() is
/// wait-free (three relaxed load/store pairs, no RMW); snapshot() may run
/// concurrently from any thread and sees some recent consistent-enough
/// state (Count/Sum/bucket skew is bounded by writes in flight).
class LogHistogram {
public:
  void record(std::uint64_t V) {
    unsigned B = log2BucketFor(V);
    Buckets[B].store(Buckets[B].load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
    Count.store(Count.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
    Sum.store(Sum.load(std::memory_order_relaxed) + V,
              std::memory_order_relaxed);
  }

  HistogramCounts snapshot() const {
    HistogramCounts C;
    for (unsigned B = 0; B != NumLog2Buckets; ++B)
      C.Buckets[B] = Buckets[B].load(std::memory_order_relaxed);
    C.Count = Count.load(std::memory_order_relaxed);
    C.Sum = Sum.load(std::memory_order_relaxed);
    return C;
  }

  void reset() {
    for (unsigned B = 0; B != NumLog2Buckets; ++B)
      Buckets[B].store(0, std::memory_order_relaxed);
    Count.store(0, std::memory_order_relaxed);
    Sum.store(0, std::memory_order_relaxed);
  }

private:
  std::atomic<std::uint64_t> Buckets[NumLog2Buckets] = {};
  std::atomic<std::uint64_t> Count{0};
  std::atomic<std::uint64_t> Sum{0};
};

/// One worker's live metrics (see the file comment for the concurrency
/// model). Padded to the interference line: the registry stores cells
/// contiguously and two workers publishing must not share a line.
class alignas(ATC_CACHE_LINE_SIZE) WorkerMetricsCell {
public:
  //===------------------------------------------------------------------===//
  // Owner-side publication
  //===------------------------------------------------------------------===//

  /// Mirrors the worker's whole SchedulerStats block into the atomic
  /// copy the sampler reads. Called at bounded-frequency flush points
  /// (steal-loop iterations, donation boundaries) and once exactly after
  /// the final aggregation, so a post-join snapshot equals the run's
  /// SchedulerStats field for field; mid-run mirrors may lag by one
  /// flush window (hot counters are batched in locals first).
  void publishStats(const SchedulerStats &S) {
    for (unsigned I = 0; I != NumStatFields; ++I)
      Stats[I].store(statFieldValue(S, static_cast<StatField>(I)),
                     std::memory_order_relaxed);
  }

  /// Zeroes every field with relaxed stores. Wait-free and safe against
  /// concurrent readers (they see a transient mix of old and zero values
  /// for one sample at worst); lets MetricsRegistry::reset reuse cells in
  /// place so cell pointers held by a live sampler stay valid.
  void reset() {
    for (auto &S : Stats)
      S.store(0, std::memory_order_relaxed);
    for (auto &M : ModeNs)
      M.store(0, std::memory_order_relaxed);
    ModeStartNs.store(0, std::memory_order_relaxed);
    ModeGauge.store(static_cast<std::uint32_t>(TraceMode::Idle),
                    std::memory_order_relaxed);
    NeedTaskGauge.store(0, std::memory_order_relaxed);
    DequeDepthGauge.store(0, std::memory_order_relaxed);
    LastReseedNs = 0;
    StealLatencyNs.reset();
    SpawnCostNs.reset();
    DequeDepth.reset();
    ReseedIntervalNs.reset();
  }

  /// Starts mode-residency accounting at \p TimeNs (arm time).
  void begin(std::uint64_t TimeNs) {
    ModeStartNs.store(TimeNs, std::memory_order_relaxed);
    ModeGauge.store(static_cast<std::uint32_t>(TraceMode::Idle),
                    std::memory_order_relaxed);
  }

  TraceMode mode() const {
    return static_cast<TraceMode>(ModeGauge.load(std::memory_order_relaxed));
  }

  /// Switches the worker's mode, folding the elapsed interval into the
  /// residency counter of the mode being left. No-op when the mode does
  /// not change (recursion within one mode), mirroring TraceBuffer.
  void setMode(TraceMode M) { setModeAt(nowNanos(), M); }

  /// setMode with an explicit (virtual) timestamp.
  void setModeAt(std::uint64_t TimeNs, TraceMode M) {
    auto Cur = mode();
    if (M == Cur)
      return;
    auto I = static_cast<unsigned>(Cur);
    std::uint64_t Start = ModeStartNs.load(std::memory_order_relaxed);
    if (TimeNs > Start)
      ModeNs[I].store(ModeNs[I].load(std::memory_order_relaxed) +
                          (TimeNs - Start),
                      std::memory_order_relaxed);
    ModeStartNs.store(TimeNs, std::memory_order_relaxed);
    ModeGauge.store(static_cast<std::uint32_t>(M), std::memory_order_relaxed);
  }

  /// Records a special-task publish at \p NowNs: feeds the reseed-interval
  /// histogram with the time since the previous publish (the paper's
  /// need_task reseeding cadence). First publish only sets the anchor.
  void recordReseed(std::uint64_t NowNs) {
    std::uint64_t Last = LastReseedNs;
    LastReseedNs = NowNs;
    if (Last != 0 && NowNs > Last)
      ReseedIntervalNs.record(NowNs - Last);
  }

  //===------------------------------------------------------------------===//
  // Cross-thread gauges
  //===------------------------------------------------------------------===//

  /// need_task gauge; written by the thief that raises the flag and
  /// cleared by the owner, exactly like the scheduling flag it mirrors.
  void setNeedTask(bool On) {
    NeedTaskGauge.store(On ? 1 : 0, std::memory_order_relaxed);
  }

  /// Deque depth gauge; the deques store into this directly via their
  /// attached pointer (attachDepthGauge), so thief-side steals update it
  /// too.
  std::atomic<std::int64_t> &dequeDepthGauge() { return DequeDepthGauge; }

  //===------------------------------------------------------------------===//
  // Reading (any thread, relaxed)
  //===------------------------------------------------------------------===//

  std::uint64_t stat(StatField F) const {
    return Stats[static_cast<unsigned>(F)].load(std::memory_order_relaxed);
  }
  std::int64_t dequeDepth() const {
    return DequeDepthGauge.load(std::memory_order_relaxed);
  }
  bool needTask() const {
    return NeedTaskGauge.load(std::memory_order_relaxed) != 0;
  }
  /// Residency accumulated for \p M up to the last mode transition.
  std::uint64_t modeNanos(TraceMode M) const {
    return ModeNs[static_cast<unsigned>(M)].load(std::memory_order_relaxed);
  }
  /// When the current mode began (for live-residency adjustment).
  std::uint64_t modeStartNanos() const {
    return ModeStartNs.load(std::memory_order_relaxed);
  }

  LogHistogram StealLatencyNs;    ///< Idle-to-acquire, per successful steal.
  LogHistogram SpawnCostNs;       ///< Alloc+copy+push cost per real spawn.
  LogHistogram DequeDepth;        ///< Deque size observed after each push.
  LogHistogram ReseedIntervalNs;  ///< Gap between special-task publishes.

private:
  std::atomic<std::uint64_t> Stats[NumStatFields] = {};
  std::atomic<std::uint64_t> ModeNs[NumTraceModes] = {};
  std::atomic<std::uint64_t> ModeStartNs{0};
  std::atomic<std::uint32_t> ModeGauge{
      static_cast<std::uint32_t>(TraceMode::Idle)};
  std::atomic<std::uint32_t> NeedTaskGauge{0};
  std::atomic<std::int64_t> DequeDepthGauge{0};
  std::uint64_t LastReseedNs = 0; ///< Owner-only reseed anchor.
};

//===----------------------------------------------------------------------===//
// Emission macros — the only way runtime code should publish
//===----------------------------------------------------------------------===//
//
// Each costs one predictable null test on the worker's cell pointer (the
// runtime gate: the pointer is null unless SchedulerConfig::Metrics armed
// the run).

/// Invokes a member expression on the cell when armed:
///   ATC_METRIC(MC, StealLatencyNs.record(Ns));
#define ATC_METRIC(MC, ...)                                                  \
  do {                                                                       \
    if (ATC_UNLIKELY((MC) != nullptr))                                       \
      (MC)->__VA_ARGS__;                                                     \
  } while (false)
/// Reads the monotonic clock only when the cell is armed (0 otherwise);
/// pairs with a later ATC_METRIC(..., Hist.record(...)) at the same site.
#define ATC_METRIC_NOW(MC)                                                   \
  (ATC_UNLIKELY((MC) != nullptr) ? ::atc::nowNanos() : std::uint64_t{0})

/// Mode span for residency accounting on a worker's cell (see
/// ModeScope in trace/TraceEvent.h).
using MetricsModeScope = ModeScope<WorkerMetricsCell>;

} // namespace atc

#endif // ATC_METRICS_METRICS_H
