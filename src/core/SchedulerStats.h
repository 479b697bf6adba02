//===- core/SchedulerStats.h - Scheduler instrumentation --------*- C++ -*-===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Instrumentation counters for the schedulers. These are what the paper's
/// Section 5.2 overhead breakdown reports: task creation / deque
/// management, workspace copying, steals, waiting for children, polling.
/// Counters are kept per worker (no atomics on hot paths) and aggregated
/// after a run.
///
/// The field list itself lives in SchedulerStats.def (an X-macro) so the
/// aggregation, the JSON dump, and the metrics mirror in src/metrics all
/// expand the same list; this header keeps explicit member declarations
/// so the doc comments and IDE navigation stay first-class.
///
//===----------------------------------------------------------------------===//

#ifndef ATC_CORE_SCHEDULERSTATS_H
#define ATC_CORE_SCHEDULERSTATS_H

#include "support/Compiler.h"

#include <cstdint>
#include <string>

namespace atc {

/// Per-run counters. All counts are totals across workers after
/// aggregation.
///
/// The struct is cache-line-aligned and padded (see the static_assert
/// below): per-worker instances live inside WorkerContext next to fields
/// written by thieves (NeedTask, StolenNum), and an unpadded stats block
/// would false-share its hot owner-side counters with those remote writes.
struct alignas(ATC_CACHE_LINE_SIZE) SchedulerStats {
  std::uint64_t TasksCreated = 0;    ///< Real task frames allocated.
  std::uint64_t FakeTasks = 0;       ///< Plain recursive calls (no frame).
  std::uint64_t SpecialTasks = 0;    ///< AdaptiveTC special tasks created.
  std::uint64_t Spawns = 0;          ///< Deque push/pop pairs performed.
  std::uint64_t StealAttempts = 0;   ///< Acquire attempts by idle workers
                                     ///  (kernel-counted for every kind;
                                     ///  = Steals + StealFails except for
                                     ///  attempts abandoned at termination).
  std::uint64_t Steals = 0;          ///< Successful steals.
  std::uint64_t StealFails = 0;      ///< Failed steal attempts.
  std::uint64_t EmptyProbes = 0;     ///< Steal probes skipped: victim empty.
  std::uint64_t CasRetries = 0;      ///< Always 0: no deque steals by CAS.
  std::uint64_t LockAcquires = 0;    ///< Deque protocol-lock acquisitions.
  std::uint64_t HelpSteals = 0;      ///< Steals run while waiting at a sync.
  std::uint64_t WorkspaceCopies = 0; ///< Workspace (taskprivate) copies.
  std::uint64_t CopiedBytes = 0;     ///< Bytes memcpy'd for workspaces.
  std::uint64_t Suspensions = 0;     ///< Tasks suspended at a sync point.
  std::uint64_t Deposits = 0;        ///< Results deposited into frames.
  std::uint64_t DequeOverflows = 0;  ///< Rejected pushes (fixed array full).
  std::uint64_t PoolOverflows = 0;   ///< Arena cap-overflow frees (heap path).
  std::uint64_t Polls = 0;           ///< need_task / request-mailbox polls.
  std::uint64_t Requests = 0;        ///< Tascell task requests sent.
  std::uint64_t RequestsDenied = 0;  ///< Tascell requests answered "none".
  std::uint64_t WaitChildrenNs = 0;  ///< Time blocked waiting for children.
  std::uint64_t StealWaitNs = 0;     ///< Time spent idle trying to steal.
  std::uint64_t BacktrackSteps = 0;  ///< Tascell undo/redo reconstruction.
  int DequeHighWater = 0;            ///< Max tail index over all deques.
  int ArenaHighWater = 0;            ///< Max live slab chunks in any arena.

  /// Accumulates \p Other into this.
  SchedulerStats &operator+=(const SchedulerStats &Other);

  /// Returns every field to its zero state — the explicit epoch boundary
  /// for consumers that aggregate across back-to-back runs (the server
  /// resets its roll-up between reporting windows; per-run isolation
  /// itself needs nothing, WorkerRuntime rebuilds worker stats each run).
  void reset() { *this = SchedulerStats(); }

  /// Renders a compact human-readable summary.
  std::string summary() const;

  /// Renders all fields as a flat JSON object keyed by the Prometheus
  /// base name from SchedulerStats.def, e.g. {"tasks_created": 42, ...}.
  /// Machine-readable counterpart of summary() for --stats-json.
  std::string json() const;
};

static_assert(sizeof(SchedulerStats) % ATC_CACHE_LINE_SIZE == 0,
              "SchedulerStats must pad out to whole cache lines");

/// One enumerator per SchedulerStats field, in declaration order. This is
/// the index space the metrics layer uses for its atomic per-worker
/// mirror of the stats block (see metrics/Metrics.h).
enum class StatField : unsigned {
#define ATC_STAT(Name, PromName, Help) Name,
#include "core/SchedulerStats.def"
};

/// Number of SchedulerStats fields (counters + gauges).
inline constexpr unsigned NumStatFields = []() constexpr {
  unsigned N = 0;
#define ATC_STAT(Name, PromName, Help) ++N;
#include "core/SchedulerStats.def"
  return N;
}();

/// Reads the field \p F of \p S as a uint64 (gauges widened from int).
std::uint64_t statFieldValue(const SchedulerStats &S, StatField F);

/// Stores \p V into field \p F of \p S (gauges narrowed to int).
void setStatFieldValue(SchedulerStats &S, StatField F, std::uint64_t V);

/// The C++ member name, e.g. "TasksCreated".
const char *statFieldName(StatField F);

/// The Prometheus base name, e.g. "tasks_created" (the exposition layer
/// prefixes "atc_" and suffixes "_total" for counters).
const char *statFieldPromName(StatField F);

/// One-line help string for the field (Prometheus # HELP text).
const char *statFieldHelp(StatField F);

/// True for high-water-mark gauges (aggregated by max, exposed without a
/// _total suffix); false for monotonic counters (aggregated by sum).
bool statFieldIsGauge(StatField F);

} // namespace atc

#endif // ATC_CORE_SCHEDULERSTATS_H
