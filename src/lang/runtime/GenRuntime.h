//===- lang/runtime/GenRuntime.h - ABI for atcc-generated code --*- C++ -*-===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime hooks for code emitted by atcc (the ATC compiler). The
/// generated five-version functions call these for every scheduling
/// action: frame allocation, THE-protocol push/pop, special-task
/// operations, need_task polling, and workspace (taskprivate)
/// allocation.
///
/// This header implements the hooks for a *single-worker* executor with
/// full protocol fidelity: every push/pop/special operation runs against
/// the scheduler's own THE deque (deque/TheDeque.h) and is counted, but
/// pops never fail (there are no thieves), so the slow-version resume
/// paths are compiled yet not exercised. The deque holds exactly
/// FiveVersionFsm::maxOwnerPushes() entries (3C + 1 for Figure 2 as
/// published), the most one worker's spawn chain can push, so every run
/// checks that bound: a push past it aborts. Each pop asserts that it
/// reclaims the frame the generated code names. The parallel execution
/// of the AdaptiveTC strategy is the core library's job (atc::FramePolicy
/// over the scheduler kernel); the compiler exists to demonstrate the
/// paper's translation scheme end-to-end (see DESIGN.md).
///
/// Testing knob: setting forceNeedTaskEvery(N) makes needTask() report
/// true on every Nth poll, driving the check version through its
/// special-task transition (push special, fast_2 child with depth reset,
/// pop_specialtask, sync_specialtask) on a single worker.
///
/// Tracing knob: ATCGEN_TRACE=<path> arms the scheduler event tracer for
/// the whole process (one worker track; spawn, special-task, FSM and
/// need_task events) and writes a Chrome/Perfetto trace.json to <path>
/// when the Worker is destroyed. ATCGEN_TRACE_CAP overrides the ring
/// capacity (events; default 1M); it must be a decimal integer in
/// [1, INT_MAX], and anything else exits with status 2. The removed
/// ATCGEN_DEQUE and ATCGEN_DEQUE_CAP knobs exit with status 2 too.
///
/// Metrics knob: ATCGEN_METRICS=<path> writes a Prometheus text
/// exposition (0.0.4) of the run's protocol counters to <path> when the
/// Worker is destroyed — the same atc_* metric families the core
/// runtime's live registry exports (src/metrics), restricted to what a
/// single-worker executor can observe. Generated binaries link only
/// atc_lang/atc_support, so the writer here is self-contained rather
/// than routed through the atc_metrics library; MetricsTest round-trips
/// the output through the shared parser to pin the format.
///
//===----------------------------------------------------------------------===//

#ifndef ATC_LANG_RUNTIME_GENRUNTIME_H
#define ATC_LANG_RUNTIME_GENRUNTIME_H

// The Figure 2 FSM shared with the core library and the simulator
// (self-contained header; generated code compiles with -I <repo>/src).
#include "core/kernel/FiveVersionFsm.h"
// Event tracing (header-only exporter included too: generated binaries
// write their own trace.json — see the ATCGEN_TRACE knob below).
#include "trace/TraceJson.h"
// The scheduler deque (header-only so generated code, which links
// nothing, can instantiate it).
#include "deque/TheDeque.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

namespace atcgen {

// Generated code names versions as atcgen::CodeVersion::Fast etc.
using atc::CodeVersion;
using atc::FsmCounters;

/// Common header of every generated task frame ("task_info").
struct TaskInfoBase {
  int Entry = 0;      ///< Saved "PC": the spawn id to resume after.
  int Dp = 0;         ///< Saved spawn depth (_adpTC_dp).
  bool Special = false;
  long Deposits = 0;  ///< Results deposited by stolen children.
  int Join = 0;       ///< Outstanding stolen children.
  void (*SlowFn)(struct Worker &, TaskInfoBase *) = nullptr;
};

/// Per-run protocol counters (inspected by tests and examples).
struct GenStats {
  std::uint64_t FramesAllocated = 0;
  std::uint64_t Pushes = 0;
  std::uint64_t Pops = 0;
  std::uint64_t SpecialPushes = 0;
  std::uint64_t SpecialPops = 0;
  std::uint64_t SpecialSyncs = 0;
  std::uint64_t Polls = 0;
  std::uint64_t NeedTaskHits = 0;
  std::uint64_t WorkspaceAllocs = 0;
  std::uint64_t WorkspaceBytes = 0;       ///< Declared workspace sizes.
  std::uint64_t WorkspaceCopiedBytes = 0; ///< Bytes actually memcpy'd
                                          ///< (<= WorkspaceBytes when a
                                          ///< live bound is declared).
  std::uint64_t WorkspaceReuses = 0;      ///< Allocs served by the freelist.
};

/// Parses the value \p Str of the count variable \p Var
/// (ATCGEN_TRACE_CAP): a decimal integer in [1, INT_MAX]. Anything else is
/// a usage error and exits with status 2.
inline int parseCountEnv(const char *Var, const char *Str) {
  char *End = nullptr;
  errno = 0;
  long long V = std::strtoll(Str, &End, 10);
  if (!std::isdigit(static_cast<unsigned char>(Str[0])) || *End != '\0' ||
      errno == ERANGE || V < 1 || V > INT_MAX) {
    std::fprintf(stderr,
                 "atcgen: bad %s '%s' "
                 "(expected a decimal integer in [1, %d])\n",
                 Var, Str, INT_MAX);
    std::exit(2);
  }
  return static_cast<int>(V);
}

/// Single-worker executor implementing the generated-code ABI.
struct Worker {
  // Figure 2 as published (FsmVariant::Paper): the generated spawn sites
  // do not track which child is the first applied one.
  explicit Worker(int CutoffDepth = 0)
      : Fsm(CutoffDepth, atc::FsmVariant::Paper),
        Deque(std::max(1, Fsm.maxOwnerPushes())) {
    for (const char *Removed : {"ATCGEN_DEQUE", "ATCGEN_DEQUE_CAP"})
      if (std::getenv(Removed)) {
        std::fprintf(stderr,
                     "atcgen: %s was removed: every run uses a THE deque "
                     "of the FSM's bound\n",
                     Removed);
        std::exit(2);
      }
    if (const char *Path = std::getenv("ATCGEN_TRACE")) {
      std::size_t Cap = 1u << 20;
      if (const char *CapStr = std::getenv("ATCGEN_TRACE_CAP"))
        Cap = static_cast<std::size_t>(
            parseCountEnv("ATCGEN_TRACE_CAP", CapStr));
      Trace = std::make_unique<atc::TraceLog>(1, Cap);
      Trace->Meta.Scheduler = "AdaptiveTC";
      Trace->Meta.Source = "genruntime";
      TracePath = Path;
      TB = &Trace->buffer(0);
    }
    if (const char *Path = std::getenv("ATCGEN_METRICS"))
      MetricsPath = Path;
  }

  int cutoff() const { return Fsm.cutoff(); }

  /// Figure 2 dispatch for the generated spawn sites: returns the version
  /// the child of a spawn executing version \p Cur at spawn depth \p Dp
  /// runs under, per the shared FiveVersionFsm. Polls need_task exactly
  /// when Cur is the check version (one poll per spawn-site iteration,
  /// counted in Stats.Polls) and records the transition in FsmCounts.
  /// The generated code branches on the returned version; the depth
  /// expressions it passes to the child (_dp + 1, or 0 on the special
  /// transition) match the FSM's ChildDp by construction.
  CodeVersion dispatch(CodeVersion Cur, int Dp) {
    const bool NT = (Cur == CodeVersion::Check) && needTask();
    const atc::FsmTransition T = Fsm.child(Cur, Dp, NT, /*FirstChild=*/false);
    FsmCounts.record(Cur, T.Child);
    if (NT)
      ATC_TRACE_EVENT(TB, atc::TraceEventKind::NeedTaskObserve, 0,
                      static_cast<std::uint16_t>(Dp));
    if (T.Child != Cur)
      ATC_TRACE_EVENT(TB, atc::TraceEventKind::FsmTransition,
                      static_cast<std::uint32_t>(Cur),
                      static_cast<std::uint16_t>(T.Child));
    // Approximate span attribution for the one-worker executor: the
    // mode follows each dispatch edge (there is no scope-exit hook in
    // the generated code to restore the parent's mode on return).
    if (TB)
      TB->setMode(atc::traceModeFor(T.Child));
    return T.Child;
  }

  /// need_task poll (the check version's per-iteration test).
  bool needTask() {
    ++Stats.Polls;
    if (ForceEvery > 0 && Stats.Polls % static_cast<std::uint64_t>(
                                            ForceEvery) == 0) {
      ++Stats.NeedTaskHits;
      return true;
    }
    return false;
  }

  /// Makes every Nth poll report need_task (0 disables). Testing knob.
  void forceNeedTaskEvery(int N) { ForceEvery = N; }

  //===--------------------------------------------------------------------===
  // Frames
  //===--------------------------------------------------------------------===

  TaskInfoBase *allocFrame(std::size_t Bytes,
                           void (*SlowFn)(Worker &, TaskInfoBase *)) {
    ++Stats.FramesAllocated;
    auto *F = static_cast<TaskInfoBase *>(::operator new(Bytes));
    std::memset(static_cast<void *>(F), 0, Bytes);
    F->SlowFn = SlowFn;
    return F;
  }

  void freeFrame(TaskInfoBase *F) { ::operator delete(F); }

  //===--------------------------------------------------------------------===
  // THE protocol (single-worker: pops always succeed)
  //===--------------------------------------------------------------------===

  void push(TaskInfoBase *F) {
    ++Stats.Pushes;
    ATC_TRACE_EVENT(TB, atc::TraceEventKind::SpawnReal, 0,
                    static_cast<std::uint16_t>(F->Dp));
    pushFrame(F, /*Special=*/false);
  }

  /// Owner pop after a spawned child returns. \p ChildResult and
  /// \p ReceiverOffset identify the deposit target had the frame been
  /// stolen. Returns true on success (the caller keeps accumulating
  /// locally).
  bool pop(TaskInfoBase *F, long ChildResult, std::size_t ReceiverOffset) {
    (void)ChildResult;
    (void)ReceiverOffset;
    ++Stats.Pops;
    assert(Deque.top() == F && "unbalanced THE pop");
    [[maybe_unused]] atc::PopResult R = Deque.pop();
    assert(R == atc::PopResult::Success && "THE pop failed with no thieves");
    return true;
  }

  void pushSpecial(TaskInfoBase *F) {
    ++Stats.SpecialPushes;
    assert(F->Special && "pushSpecial of a non-special frame");
    ATC_TRACE_EVENT(TB, atc::TraceEventKind::SpecialPush, 0,
                    static_cast<std::uint16_t>(F->Dp));
    pushFrame(F, /*Special=*/true);
  }

  /// pop_specialtask: true when the special's child was not stolen.
  bool popSpecial(TaskInfoBase *F) {
    ++Stats.SpecialPops;
    assert(Deque.top() == F && "unbalanced special pop");
    ATC_TRACE_EVENT(TB, atc::TraceEventKind::SpecialPop, 0,
                    static_cast<std::uint16_t>(F->Dp));
    [[maybe_unused]] atc::PopResult R = Deque.popSpecial();
    assert(R == atc::PopResult::Success &&
           "pop_specialtask failed with no thieves");
    return true;
  }

  /// sync_specialtask: wait for the special's stolen children.
  void syncSpecial(TaskInfoBase *F) {
    ++Stats.SpecialSyncs;
    ATC_TRACE_EVENT(TB, atc::TraceEventKind::SpecialSyncBegin, 0,
                    static_cast<std::uint16_t>(F->Dp));
    assert(F->Join == 0 && "single worker cannot have stolen children");
    ATC_TRACE_EVENT(TB, atc::TraceEventKind::SpecialSyncEnd, 0,
                    static_cast<std::uint16_t>(F->Dp));
  }

  /// Sync point of a stolen (slow-version) task: true when all children
  /// have completed and execution may continue past the sync.
  bool syncSlow(TaskInfoBase *F) { return F->Join == 0; }

  /// Completion of a stolen task: deposit into the parent. Unreachable
  /// on a single worker.
  void completeSlow(TaskInfoBase *, long) {
    assert(false && "slow-version completion on a single worker");
  }

  //===--------------------------------------------------------------------===
  // Workspaces (taskprivate)
  //===--------------------------------------------------------------------===

  /// Workspace buffers are recycled through per-size freelists (the
  /// generated code's spawn/return pairing makes alloc/free strictly
  /// LIFO per size, so a handful of buckets absorbs nearly all traffic —
  /// the single-worker analogue of the core library's slab arenas).
  void *allocWorkspace(std::size_t Bytes) {
    ++Stats.WorkspaceAllocs;
    Stats.WorkspaceBytes += Bytes;
    for (WsBucket &B : WsBuckets)
      if (B.Bytes == Bytes && !B.Free.empty()) {
        void *P = B.Free.back();
        B.Free.pop_back();
        ++Stats.WorkspaceReuses;
        return P;
      }
    return ::operator new(Bytes);
  }

  void freeWorkspace(void *P, std::size_t Bytes) {
    for (WsBucket &B : WsBuckets)
      if (B.Bytes == Bytes) {
        if (B.Free.size() < MaxPooledPerBucket) {
          B.Free.push_back(P);
          return;
        }
        ::operator delete(P);
        return;
      }
    WsBuckets.push_back({Bytes, {P}});
  }

  /// Bounded taskprivate copy: copies only the live prefix of the
  /// workspace (the `taskprivate: (*x)(size, live)` clause), clamped to
  /// the declared size; counts the bytes actually moved.
  void copyWorkspace(void *Dst, const void *Src, std::size_t Bytes,
                     std::size_t LiveBytes) {
    if (LiveBytes > Bytes)
      LiveBytes = Bytes;
    std::memcpy(Dst, Src, LiveBytes);
    Stats.WorkspaceCopiedBytes += LiveBytes;
  }

  /// Writes the run's counters as a Prometheus text exposition to
  /// \p Path (see the ATCGEN_METRICS knob). Returns false on I/O error.
  bool writeMetricsFile(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    auto Counter = [&](const char *Name, const char *Help,
                       std::uint64_t V) {
      std::fprintf(F,
                   "# HELP atc_%s %s\n# TYPE atc_%s counter\n"
                   "atc_%s_total{worker=\"0\"} %llu\n",
                   Name, Help, Name, Name,
                   static_cast<unsigned long long>(V));
    };
    std::fprintf(F, "atc_run_info{scheduler=\"AdaptiveTC\","
                    "source=\"genruntime\"} 1\natc_workers 1\n");
    Counter("tasks_created", "Real task frames allocated",
            Stats.FramesAllocated);
    Counter("spawns", "Deque push/pop pairs performed", Stats.Pushes);
    Counter("special_tasks", "AdaptiveTC special tasks created",
            Stats.SpecialPushes);
    Counter("polls", "need_task / request-mailbox polls", Stats.Polls);
    Counter("need_task_hits", "Polls that observed need_task",
            Stats.NeedTaskHits);
    Counter("workspace_copies", "Workspace (taskprivate) copies",
            Stats.WorkspaceAllocs);
    Counter("copied_bytes", "Bytes memcpy'd for workspaces",
            Stats.WorkspaceCopiedBytes);
    Counter("workspace_reuses", "Allocs served by the freelist",
            Stats.WorkspaceReuses);
    bool Ok = std::fclose(F) == 0;
    return Ok;
  }

  ~Worker() {
    // Both stay unset unless ATCGEN_TRACE / ATCGEN_METRICS asked for them.
    if (Trace && !atc::writeChromeTraceFile(*Trace, TracePath))
      std::fprintf(stderr, "atcgen: cannot write trace to %s\n",
                   TracePath.c_str());
    if (!MetricsPath.empty() && !writeMetricsFile(MetricsPath))
      std::fprintf(stderr, "atcgen: cannot write metrics to %s\n",
                   MetricsPath.c_str());
    for (WsBucket &B : WsBuckets)
      for (void *P : B.Free)
        ::operator delete(P);
  }

  GenStats Stats;

  /// Figure 2 transition counts, one edge per dispatch() call.
  FsmCounters FsmCounts;

private:
  static constexpr std::size_t MaxPooledPerBucket = 4096;

  struct WsBucket {
    std::size_t Bytes;
    std::vector<void *> Free;
  };

  /// Pushes \p F; the deque holds the FSM's bound, so a full one means
  /// the generated spawn chain broke it.
  void pushFrame(TaskInfoBase *F, bool Special) {
    if (!Deque.tryPush(F, Special)) {
      std::fprintf(stderr,
                   "atcgen: deque overflow: a spawn chain passed the FSM "
                   "bound of %d entries\n",
                   Deque.capacity());
      std::abort();
    }
  }

  atc::FiveVersionFsm Fsm;
  atc::TheDeque Deque; ///< Sized from Fsm, so declared after it.
  int ForceEvery = 0;
  std::vector<WsBucket> WsBuckets;

  /// ATCGEN_TRACE support; see the file comment. TB stays null when the
  /// knob is unset, so each emission site costs one predictable branch.
  std::unique_ptr<atc::TraceLog> Trace;
  std::string TracePath;
  atc::TraceBuffer *TB = nullptr;

  /// ATCGEN_METRICS support; empty when the knob is unset.
  std::string MetricsPath;
};

/// print_long builtin.
inline void print_long(Worker &, long V) { std::printf("%ld\n", V); }

} // namespace atcgen

#endif // ATC_LANG_RUNTIME_GENRUNTIME_H
