//===- trace/TraceEvent.h - Scheduler trace event schema --------*- C++ -*-===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scheduler event-trace schema (see docs/TRACING.md for the
/// field-by-field documentation). One TraceEvent is one timestamped
/// scheduling action on one worker; every producer — the real runtime
/// (WorkerRuntime / FramePolicy / TascellPolicy), the virtual-time
/// simulator (SimEngine), and the atcc generated-code executor
/// (GenRuntime) — emits this same 16-byte record, so one exporter and one
/// summarizer serve them all.
///
/// The gate is SchedulerConfig::Trace: when it is off, each emission site
/// costs exactly one predictable branch-not-taken on a worker-local
/// pointer.
///
//===----------------------------------------------------------------------===//

#ifndef ATC_TRACE_TRACEEVENT_H
#define ATC_TRACE_TRACEEVENT_H

#include "core/kernel/FiveVersionFsm.h"
#include "support/Compiler.h"

#include <cstdint>

namespace atc {

/// What a worker is doing right now — the span material of a trace (one
/// colored block per mode interval on the worker's track in Perfetto).
/// Fast/Check/Fast2/Sequence/Slow mirror CodeVersion (the five compiled
/// code versions of the paper's Figure 2); the rest are scheduler states
/// outside the five-version FSM.
enum class TraceMode : std::uint8_t {
  Idle,     ///< In the steal loop, looking for work.
  Fast,     ///< Executing the fast version (real tasks).
  Check,    ///< Executing the check version (fake tasks, polling).
  Fast2,    ///< Executing fast_2 after a special-task publish.
  Sequence, ///< Plain recursion (no tasks, no polls).
  Slow,     ///< Executing a stolen continuation.
  SyncWait, ///< Waiting on outstanding children at a sync point.
  Work,     ///< Tascell: recursing over the live workspace.
};

inline constexpr int NumTraceModes = 8;

/// Display name used in the exported trace ("idle", "fast", ...).
constexpr const char *traceModeName(TraceMode M) {
  switch (M) {
  case TraceMode::Idle:
    return "idle";
  case TraceMode::Fast:
    return "fast";
  case TraceMode::Check:
    return "check";
  case TraceMode::Fast2:
    return "fast_2";
  case TraceMode::Sequence:
    return "sequence";
  case TraceMode::Slow:
    return "slow";
  case TraceMode::SyncWait:
    return "sync_wait";
  case TraceMode::Work:
    return "work";
  }
  return "?";
}

/// The trace mode a code version executes under (the span color on the
/// worker's Perfetto track). Shared by every producer so a fast_2 span
/// means the same thing in a real trace and a simulated one.
constexpr TraceMode traceModeFor(CodeVersion V) {
  switch (V) {
  case CodeVersion::Fast:
    return TraceMode::Fast;
  case CodeVersion::Check:
    return TraceMode::Check;
  case CodeVersion::Fast2:
    return TraceMode::Fast2;
  case CodeVersion::Sequence:
    return TraceMode::Sequence;
  case CodeVersion::Slow:
    return TraceMode::Slow;
  }
  return TraceMode::Work;
}

/// Event kinds. Per-event argument meaning (the A / B fields) is listed
/// beside each kind; docs/TRACING.md is the authoritative schema text.
enum class TraceEventKind : std::uint8_t {
  ModeBegin,          ///< Worker mode changed. A = TraceMode.
  SpawnReal,          ///< Real task spawned. A = child CodeVersion,
                      ///  B = tree depth of the child.
  SpawnFake,          ///< Fake task executed (check version). B = depth.
  StealAttempt,       ///< Acquire attempt begins. A = victim id.
  StealSuccess,       ///< Acquire succeeded. A = victim id.
  StealFail,          ///< Acquire failed. A = victim id.
  NeedTaskRaise,      ///< This thief set a victim's need_task flag
                      ///  (stolen_num crossed max_stolen_num). A = victim.
  NeedTaskObserve,    ///< Owner's check version observed its own
                      ///  need_task flag set. B = depth.
  SpecialPush,        ///< Special task pushed (check -> fast_2). B = depth.
  SpecialPop,         ///< pop_specialtask succeeded (child not stolen).
                      ///  B = depth.
  SpecialChildStolen, ///< pop_specialtask failed: a child of the special
                      ///  was stolen (owner-side, 1:1 with such steals).
                      ///  B = depth.
  SpecialSyncBegin,   ///< sync_specialtask wait begins. B = depth.
  SpecialSyncEnd,     ///< sync_specialtask wait ends. B = depth.
  WaitChildrenBegin,  ///< Tascell wait for outstanding donations begins.
                      ///  B = depth.
  WaitChildrenEnd,    ///< Tascell wait ends. B = depth.
  FsmTransition,      ///< Five-version FSM edge taken to a *different*
                      ///  version. A = from CodeVersion, B = to.
  Donation,           ///< Tascell victim donated work. A = requester id,
                      ///  B = split depth.
};

inline constexpr int NumTraceEventKinds = 17;

/// Display name used in the exported trace ("mode", "spawn-real", ...).
constexpr const char *traceEventKindName(TraceEventKind K) {
  switch (K) {
  case TraceEventKind::ModeBegin:
    return "mode";
  case TraceEventKind::SpawnReal:
    return "spawn-real";
  case TraceEventKind::SpawnFake:
    return "spawn-fake";
  case TraceEventKind::StealAttempt:
    return "steal-attempt";
  case TraceEventKind::StealSuccess:
    return "steal-success";
  case TraceEventKind::StealFail:
    return "steal-fail";
  case TraceEventKind::NeedTaskRaise:
    return "need_task-raise";
  case TraceEventKind::NeedTaskObserve:
    return "need_task-observe";
  case TraceEventKind::SpecialPush:
    return "special-push";
  case TraceEventKind::SpecialPop:
    return "special-pop";
  case TraceEventKind::SpecialChildStolen:
    return "special-child-stolen";
  case TraceEventKind::SpecialSyncBegin:
    return "special-sync-begin";
  case TraceEventKind::SpecialSyncEnd:
    return "special-sync-end";
  case TraceEventKind::WaitChildrenBegin:
    return "wait-children-begin";
  case TraceEventKind::WaitChildrenEnd:
    return "wait-children-end";
  case TraceEventKind::FsmTransition:
    return "fsm-transition";
  case TraceEventKind::Donation:
    return "donation";
  }
  return "?";
}

/// One trace record: 16 bytes, fixed layout, written only by the owning
/// worker into its own ring buffer (TraceBuffer.h).
struct TraceEvent {
  std::uint64_t TimeNs; ///< Monotonic wall clock (real runtime) or
                        ///  virtual time (simulator).
  std::uint32_t A;      ///< Kind-specific argument (see TraceEventKind).
  std::uint16_t B;      ///< Kind-specific argument, usually a depth.
  std::uint8_t Kind;    ///< TraceEventKind.
  std::uint8_t Pad;     ///< Zero.

  TraceEventKind kind() const { return static_cast<TraceEventKind>(Kind); }
};

static_assert(sizeof(TraceEvent) == 16, "trace events are 16 bytes");

/// RAII mode span: switches \p Sink (a TraceBuffer or a
/// WorkerMetricsCell) to \p M for the scope, restoring the previous mode
/// on every exit path (taskBody's stolen-unwind returns included). An
/// unarmed (null) sink costs one predictable branch.
template <typename SinkT> class ModeScope {
public:
  ModeScope(SinkT *Sink, TraceMode M) : Sink(Sink) {
    if (ATC_UNLIKELY(Sink != nullptr)) {
      Prev = Sink->mode();
      Sink->setMode(M);
    }
  }
  ~ModeScope() {
    if (ATC_UNLIKELY(Sink != nullptr))
      Sink->setMode(Prev);
  }
  ModeScope(const ModeScope &) = delete;
  ModeScope &operator=(const ModeScope &) = delete;

private:
  SinkT *Sink;
  TraceMode Prev = TraceMode::Idle;
};

} // namespace atc

#endif // ATC_TRACE_TRACEEVENT_H
