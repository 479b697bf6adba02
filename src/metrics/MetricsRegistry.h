//===- metrics/MetricsRegistry.h - Whole-run metric registry ----*- C++ -*-===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The whole-run metrics registry: one WorkerMetricsCell per worker plus
/// run metadata — the structural twin of trace/TraceLog.h. WorkerRuntime
/// arms one when SchedulerConfig::Metrics is set (its own, or the
/// externally owned SchedulerConfig::MetricsSink so a sampler thread or
/// atc_top can watch the run live) and hands each worker a pointer to its
/// cell; the simulator and the generated-code executor build their own.
/// RunResult carries the registry back to the CLI for the final snapshot.
///
/// sample() is safe to call from any thread at any time (all cell reads
/// are relaxed atomic loads); recorded snapshots form the JSON time
/// series the exposition layer renders.
///
//===----------------------------------------------------------------------===//

#ifndef ATC_METRICS_METRICSREGISTRY_H
#define ATC_METRICS_METRICSREGISTRY_H

#include "metrics/Metrics.h"

#include <cassert>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace atc {

/// Run metadata embedded in every exposition (Prometheus labels, JSON
/// header) — same shape as TraceMeta so the two halves of the
/// observability story identify runs identically.
struct MetricsMeta {
  std::string Scheduler; ///< schedulerKindName of the run.
  std::string Source;    ///< "runtime", "sim", or "genruntime".
  std::string Workload;  ///< Free-form workload label ("nqueens-12", ...).
  int SchemaVersion = 1;
};

/// One worker's state in one snapshot: plain copies of everything the
/// cell publishes.
struct WorkerSample {
  std::uint64_t Stats[NumStatFields] = {};
  std::uint64_t ModeNs[NumTraceModes] = {};
  std::int64_t DequeDepth = 0;
  TraceMode Mode = TraceMode::Idle;
  bool NeedTask = false;
  HistogramCounts StealLatencyNs;
  HistogramCounts SpawnCostNs;
  HistogramCounts DequeDepthHist;
  HistogramCounts ReseedIntervalNs;

  std::uint64_t stat(StatField F) const {
    return Stats[static_cast<unsigned>(F)];
  }
};

/// A timestamped point-in-time view of every worker.
struct MetricsSnapshot {
  std::uint64_t TimeNs = 0;
  /// Which run epoch the snapshot belongs to (see MetricsRegistry::
  /// epoch()); lets a long-lived consumer tell "counter went backwards"
  /// (a new run re-armed the cells) from "counter is still climbing".
  std::uint64_t Epoch = 0;
  std::vector<WorkerSample> Workers;

  /// Sums (counters) / maxes (gauges) field \p F across workers — the
  /// aggregate the Prometheus totals and the coherence tests use.
  std::uint64_t total(StatField F) const {
    std::uint64_t T = 0;
    for (const WorkerSample &W : Workers)
      if (statFieldIsGauge(F))
        T = T > W.stat(F) ? T : W.stat(F);
      else
        T += W.stat(F);
    return T;
  }

  /// Reconstructs an aggregated SchedulerStats from the per-worker
  /// mirrors (exact after the final post-join publish).
  SchedulerStats toStats() const {
    SchedulerStats S;
    for (unsigned I = 0; I != NumStatFields; ++I)
      setStatFieldValue(S, static_cast<StatField>(I),
                        total(static_cast<StatField>(I)));
    return S;
  }
};

/// Per-run metric collection; see the file comment.
class MetricsRegistry {
public:
  MetricsRegistry() = default;
  explicit MetricsRegistry(int NumWorkers) { reset(NumWorkers); }

  /// (Re)sizes to \p NumWorkers cells and zeroes them, opening a new
  /// epoch. Not safe against a concurrent sampler when the size changes
  /// (cells are reallocated); pre-size the registry before starting one,
  /// and prefer rearm() below once a reader may be live.
  ///
  /// This is the per-run reset boundary (the runtime calls it — or
  /// rearm() for an external sink — at the top of every run()): cells
  /// always start a run from zero, so back-to-back runs against one
  /// registry (a server's SchedulerPool) aggregate exactly — no stats
  /// carry over from job to job. The epoch counter makes each reset
  /// observable to long-lived consumers.
  void reset(int NumWorkers) {
    assert(NumWorkers >= 1 && "metrics registry needs at least one worker");
    auto N = static_cast<std::size_t>(NumWorkers);
    if (Cells.size() != N) {
      Cells.clear();
      Cells.reserve(N);
      for (std::size_t I = 0; I != N; ++I)
        Cells.push_back(std::make_unique<WorkerMetricsCell>());
    } else {
      for (auto &C : Cells)
        C->reset();
    }
    EpochCounter.fetch_add(1, std::memory_order_relaxed);
    if (ClearHistoryOnReset) {
      std::lock_guard<std::mutex> Lock(HistoryMutex);
      History.clear();
    }
  }

  /// Per-run re-arm for an externally owned registry that may have a
  /// concurrent reader (a server's /metrics threads, a CLI sampler):
  /// zeroes every cell IN PLACE — never shrinks, so cell storage stays
  /// stable and sample()/cell() on another thread can never touch freed
  /// memory. Grows (reallocating, exactly like reset()) only when \p
  /// NumWorkers exceeds the current size, so owners with live readers
  /// must pre-size to their widest run before starting one. Opens a new
  /// epoch and applies ClearHistoryOnReset like reset().
  void rearm(int NumWorkers) {
    assert(NumWorkers >= 1 && "metrics registry needs at least one worker");
    if (static_cast<std::size_t>(NumWorkers) > Cells.size())
      return reset(NumWorkers);
    for (auto &C : Cells)
      C->reset();
    EpochCounter.fetch_add(1, std::memory_order_relaxed);
    if (ClearHistoryOnReset) {
      std::lock_guard<std::mutex> Lock(HistoryMutex);
      History.clear();
    }
  }

  /// Number of reset() calls so far — the run-epoch id. A one-shot CLI
  /// sees epoch 1 for its whole life; a server registry ticks once per
  /// job. Exposed as atc_epoch in the Prometheus rendering.
  std::uint64_t epoch() const {
    return EpochCounter.load(std::memory_order_relaxed);
  }

  int numWorkers() const { return static_cast<int>(Cells.size()); }

  WorkerMetricsCell &cell(int W) {
    return *Cells[static_cast<std::size_t>(W)];
  }
  const WorkerMetricsCell &cell(int W) const {
    return *Cells[static_cast<std::size_t>(W)];
  }

  /// Takes a snapshot of every cell, stamped with \p TimeNs (0 means
  /// "now" on the real clock; the simulator passes virtual time). Mode
  /// residency includes the still-open interval of the current mode so a
  /// worker parked in one long span still shows progress between polls.
  MetricsSnapshot sample(std::uint64_t TimeNs = 0) const {
    MetricsSnapshot Snap;
    Snap.TimeNs = TimeNs != 0 ? TimeNs : nowNanos();
    Snap.Epoch = epoch();
    Snap.Workers.resize(Cells.size());
    for (std::size_t I = 0; I != Cells.size(); ++I) {
      const WorkerMetricsCell &C = *Cells[I];
      WorkerSample &W = Snap.Workers[I];
      for (unsigned F = 0; F != NumStatFields; ++F)
        W.Stats[F] = C.stat(static_cast<StatField>(F));
      for (int M = 0; M != NumTraceModes; ++M)
        W.ModeNs[M] = C.modeNanos(static_cast<TraceMode>(M));
      W.Mode = C.mode();
      W.NeedTask = C.needTask();
      W.DequeDepth = C.dequeDepth();
      // Live adjustment: credit the open interval to the current mode.
      // Racy against a concurrent transition by design — the error is
      // bounded by one interval and self-corrects at the next sample.
      std::uint64_t Start = C.modeStartNanos();
      if (Start != 0 && Snap.TimeNs > Start)
        W.ModeNs[static_cast<unsigned>(W.Mode)] += Snap.TimeNs - Start;
      W.StealLatencyNs = C.StealLatencyNs.snapshot();
      W.SpawnCostNs = C.SpawnCostNs.snapshot();
      W.DequeDepthHist = C.DequeDepth.snapshot();
      W.ReseedIntervalNs = C.ReseedIntervalNs.snapshot();
    }
    return Snap;
  }

  /// Appends \p Snap to the bounded history (oldest dropped past the cap).
  void recordSnapshot(MetricsSnapshot Snap) {
    std::lock_guard<std::mutex> Lock(HistoryMutex);
    History.push_back(std::move(Snap));
    while (History.size() > HistoryCap)
      History.pop_front();
  }

  /// sample() + recordSnapshot() — the sampler thread's per-tick step.
  MetricsSnapshot sampleAndRecord(std::uint64_t TimeNs = 0) {
    MetricsSnapshot Snap = sample(TimeNs);
    recordSnapshot(Snap);
    return Snap;
  }

  /// Copies out the recorded series (cheap relative to exposition).
  std::vector<MetricsSnapshot> history() const {
    std::lock_guard<std::mutex> Lock(HistoryMutex);
    return {History.begin(), History.end()};
  }

  MetricsMeta Meta;

  /// Max snapshots retained (default one minute at the default 100 ms
  /// sampler period, ten at 6 s — bounded so an unattended sampler never
  /// grows without limit).
  std::size_t HistoryCap = 600;

  /// Whether reset() drops the recorded snapshot history. True (the
  /// default) matches the one-run-per-registry CLIs; a server flips it
  /// off so its sampler's time series spans job boundaries (snapshots
  /// stay distinguishable via their Epoch stamp).
  bool ClearHistoryOnReset = true;

private:
  std::vector<std::unique_ptr<WorkerMetricsCell>> Cells;
  std::atomic<std::uint64_t> EpochCounter{0};
  mutable std::mutex HistoryMutex;
  std::deque<MetricsSnapshot> History;
};

} // namespace atc

#endif // ATC_METRICS_METRICSREGISTRY_H
