//===- core/Scheduler.h - Scheduler kinds and configuration -----*- C++ -*-===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scheduler kinds and the shared configuration structure. The kinds map
/// one-to-one onto the systems the paper evaluates (Section 5):
///
///  * Cilk         - work-first work stealing; every spawn allocates a task
///                   frame and a fresh workspace copy (malloc + memcpy).
///  * CilkSynched  - Cilk using the SYNCHED variable to reuse workspace
///                   memory; copies still happen ("the time overhead is not
///                   reduced") but allocation is pooled.
///  * Cutoff       - tasks only above a fixed recursion depth, plain calls
///                   below, no adaptation (the Cutoff-programmer /
///                   Cutoff-library strategies of Figure 9).
///  * AdaptiveTC   - the paper's contribution: five-version execution with
///                   fake tasks, special tasks and need_task signalling.
///  * Tascell      - backtracking-based load balancing (separate engine,
///                   see kernel/TascellPolicy.h).
///
//===----------------------------------------------------------------------===//

#ifndef ATC_CORE_SCHEDULER_H
#define ATC_CORE_SCHEDULER_H

#include <cstdint>
#include <string>

namespace atc {

class MetricsRegistry;
class WorkerExecutor;

/// The scheduling systems reproduced from the paper.
enum class SchedulerKind {
  Sequential,
  Cilk,
  CilkSynched,
  Cutoff,
  AdaptiveTC,
  Tascell,
};

/// Returns the display name used in tables ("Cilk-SYNCHED", ...).
const char *schedulerKindName(SchedulerKind Kind);

/// Parses a scheduler name (case-insensitive, "-"/"_" interchangeable).
/// Returns true on success.
bool parseSchedulerKind(const std::string &Name, SchedulerKind &Out);

/// Error text for a name parseSchedulerKind rejected; names the valid
/// kinds.
std::string unknownSchedulerKindError(const std::string &Name);

/// Shared scheduler configuration.
struct SchedulerConfig {
  SchedulerKind Kind = SchedulerKind::AdaptiveTC;

  /// Number of worker threads ("the number of active threads is capped at
  /// N").
  int NumWorkers = 1;

  /// Capacity of each worker's THE deque, in entries: a hard limit —
  /// tryPush beyond it reports overflow and the spawn degrades to a plain
  /// call. An AdaptiveTC worker never needs more than
  /// FiveVersionFsm::maxOwnerPushes() entries (6C + 1).
  int DequeCapacity = 8192;

  /// Per-worker slab-arena capacity, in chunks, for the frame / workspace
  /// / donation allocators (support/Arena.h). Allocations beyond the cap
  /// fall back to the heap and are counted in SchedulerStats::
  /// PoolOverflows when freed.
  int PoolCap = 4096;

  /// Task-creation cut-off. -1 selects the paper's default of log2(N)
  /// ("the cut-off ... is initially set to log N by the runtime system").
  /// For Kind == Cutoff this is the programmer-specified depth.
  int Cutoff = -1;

  /// Failed-steal threshold beyond which a thief sets the victim's
  /// need_task flag. Paper default: 20.
  int MaxStolenNum = 20;

  /// Seed for the deterministic victim-selection streams.
  std::uint64_t Seed = 0x5eedULL;

  /// Arm the event tracer (src/trace) for this run: each worker gets a
  /// fixed-size ring buffer and the run's RunResult carries the TraceLog
  /// out for export.
  bool Trace = false;

  /// Per-worker trace ring capacity, in events (16 bytes each). On
  /// overflow the ring keeps the newest events and counts the dropped
  /// oldest ones. Default: 1M events = 16 MiB per worker.
  int TraceCap = 1 << 20;

  /// Arm the live-metrics layer (src/metrics) for this run: each worker
  /// gets a cache-line-isolated metric cell and the run's RunResult
  /// carries the MetricsRegistry out for exposition.
  bool Metrics = false;

  /// Externally owned registry to publish into instead of a run-private
  /// one (implies Metrics when non-null). This is how a CLI lets a
  /// background MetricsSampler or atc_top watch the run live: pre-size
  /// the registry to NumWorkers, start the sampler, then run. The
  /// runtime resets matching-size registries cell-in-place (wait-free),
  /// so concurrent samplers stay valid.
  MetricsRegistry *MetricsSink = nullptr;

  /// Externally owned execution strategy for the run's worker loops
  /// (core/Executor.h), or null for the historical behaviour: spawn one
  /// thread per worker inside run() and join them after. Point this at a
  /// SchedulerPool to execute many runs back-to-back on the same OS
  /// threads — the server layer's whole premise. The executor must
  /// outlive every run against this config, and NumWorkers must not
  /// exceed its capacity().
  WorkerExecutor *Executor = nullptr;
};

/// The cut-off depth a run with \p NumWorkers workers uses: \p Cutoff if
/// non-negative, else ceil(log2(NumWorkers)). Shared by the runtime
/// (SchedulerConfig) and the simulator (SimOptions).
int effectiveCutoff(int Cutoff, int NumWorkers);

} // namespace atc

#endif // ATC_CORE_SCHEDULER_H
