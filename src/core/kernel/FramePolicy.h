//===- core/kernel/FramePolicy.h - Deque-based scheduler policy -*- C++ -*-===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The deque-based scheduling systems of the paper — Cilk, Cilk-SYNCHED,
/// Cutoff, and AdaptiveTC — as one WorkerRuntime policy over the
/// SearchProblem task model over the THE deque, parameterized by a
/// TaskCreationPolicy \p TcPol that supplies the Figure 2 dispatch. The
/// kernel (WorkerRuntime.h) owns the threads, steal loop, backoff and
/// need_task signalling; this policy owns what is specific to
/// continuation-stealing over deques: task frames, the join protocol,
/// workspace/frame arenas, and the five code-version bodies.
///
/// It performs true work-first continuation stealing: a stolen
/// continuation is the tuple (workspace, last choice, partial result,
/// depths) held in a TaskFrame, which is exactly the state the paper's
/// compiler saves before each spawn ("save PC / save live vars",
/// Appendix B).
///
/// Mapping to the paper's five code versions (CodeVersion):
///
///  * fast      -> taskBody(Cur = Fast): allocates a frame at entry and
///                 runs its children through spawnChildren, which pushes
///                 the frame per spawn; a failed pop returns a dummy value
///                 ("if pop(sn) == FAILURE return 0"). Beyond the cut-off
///                 it calls checkBody, except that AdaptiveTC's Spine
///                 variant still spawns the first applied child while the
///                 spawn depth is below 4 x the cut-off (FiveVersionFsm.h).
///                 Its sync point is a no-op (owner-path invariant:
///                 never-stolen frames are fully joined).
///  * check     -> checkBody: a fake task (no frame, in-place workspace
///                 with undo). checkBody opens the Check mode spans, emits
///                 spawn-fake and flushes the batched counters once per
///                 subtree; the per-node recursion checkBodyImpl is the
///                 sequence version's loop plus one need_task load and
///                 branch per applied child. When need_task is set, the
///                 out-of-line publishSpecial takes the check edge of
///                 Figure 2, creates a special task, pushes it, runs the
///                 child via taskBody(Cur = Fast2, depth 0) and does
///                 pop_specialtask; the out-of-line syncSpecial is
///                 sync_specialtask.
///  * fast_2    -> taskBody(Cur = Fast2): like fast with twice the
///                 cut-off, falling back to seqBody (not checkBody).
///  * sequence  -> seqBody: a plain recursive function.
///  * slow      -> runContinuation: executed by a thief on a stolen frame;
///                 restores the "PC" (choice index) and live state, then
///                 continues the same spawnChildren loop from the next
///                 choice with the fast/check dispatch. Its sync point
///                 checks the join counter and suspends the task if
///                 children are outstanding.
///
/// Each step of the deque protocol is written once. The three spawn sites
/// (the fast/fast_2 and slow children of spawnChildren, the special task
/// of publishSpecial) share copyThenPush: copy the child's workspace,
/// then push, or on overflow free the copy and run the child as a plain
/// call. The pop-failure deposit and unwind sits in spawnChildren alone,
/// and depositTo is the one deposit step of the join protocol.
///
/// Which edges exist is entirely the TcPol's business: the Cilk policies
/// always spawn (checkBody/seqBody compile to dead branches), Cutoff
/// degrades to sequence, AdaptiveTC runs the full FSM in its Spine
/// variant. spawnChildren tells the policy which child is the first
/// applied one (after a resume, for runContinuation); the check and
/// sequence bodies never ask. One worker's own spawn chain so holds at
/// most FiveVersionFsm::maxOwnerPushes() deque entries: 6C + 1 under
/// Spine, 3C + 1 under Figure 2 as published.
///
/// Join protocol (who assembles the result of a stolen task):
///  * At steal time the thief increments the stolen frame's JoinCount:
///    the victim's in-flight child chain owes it exactly one deposit.
///    This runs under the deque lock, which the owner's pop failure also
///    takes, so an owner that sees "stolen" sees the increment too.
///  * A special task is never stolen, so it gets no steal-time increment;
///    instead the *owner* increments the special's JoinCount at each
///    popSpecial failure in publishSpecial (1:1 with steals of the
///    special's children). Keeping this owner-side means a thief never
///    dereferences the special frame, which the owner frees on its own
///    schedule at syncSpecial.
///  * The victim's first failed pop deposits the just-returned child value
///    into the stolen frame, then the whole spawn chain unwinds (every
///    enclosing frame was stolen head-first before this one).
///  * A completed detached frame deposits its total into Parent; the last
///    depositor of a suspended frame resumes (completes) it, cascading up.
///
//===----------------------------------------------------------------------===//

#ifndef ATC_CORE_KERNEL_FRAMEPOLICY_H
#define ATC_CORE_KERNEL_FRAMEPOLICY_H

#include "core/Problem.h"
#include "core/Scheduler.h"
#include "core/SchedulerStats.h"
#include "core/TaskFrame.h"
#include "core/WorkerContext.h"
#include "core/kernel/StealDecisions.h"
#include "core/kernel/TaskCreationPolicy.h"
#include "core/kernel/WorkerRuntime.h"
#include "support/Arena.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>
#include <vector>

namespace atc {

/// Deque-based scheduler policy for problem type \p P with task-creation
/// strategy \p TcPol. Run it
/// through WorkerRuntime (see runProblem in core/Runtime.h for the
/// dispatch).
template <SearchProblem P, TaskCreationPolicy TcPol>
class FramePolicy {
public:
  using State = typename P::State;
  using Result = typename P::Result;
  using Frame = TaskFrame<P>;
  using Worker = WorkerContext;
  /// Acquired work: a stolen continuation frame.
  using Task = Frame *;
  using Runtime = WorkerRuntime<FramePolicy>;

  FramePolicy(P &Prob, const SchedulerConfig &Cfg, const State &Root)
      : Prob(Prob), Cfg(Cfg), Root(Root),
        Tc(effectiveCutoff(Cfg.Cutoff, Cfg.NumWorkers)) {}

  //===--------------------------------------------------------------------===//
  // WorkerRuntime policy interface
  //===--------------------------------------------------------------------===//

  std::unique_ptr<Worker> makeWorker(int Id) {
    return std::make_unique<Worker>(
        Id, Cfg.DequeCapacity, Cfg.Seed + static_cast<std::uint64_t>(Id));
  }

  void beginRun(Runtime &R) {
    Rt = &R;
    // Metrics arming (WorkerRuntime::run) precedes beginRun, so the
    // cells exist by now: point each deque at its worker's depth gauge
    // (pushes, pops and thief-side steals all store the new size).
    for (int I = 0; I < Cfg.NumWorkers; ++I) {
      Worker &W = R.worker(I);
      W.Deque.attachDepthGauge(
          W.Metrics != nullptr ? &W.Metrics->dequeDepthGauge() : nullptr);
    }
    StateArenas.clear();
    FrameArenas.clear();
    for (int I = 0; I < Cfg.NumWorkers; ++I) {
      // Per-worker slab arenas for child workspaces and task frames
      // (support/Arena.h), sized by Cfg.PoolCap. A frame and its owned
      // workspace are always carved by the same worker
      // (Frame::AllocWorker), which is how cross-thread frees find their
      // way back to the right arena. StateArenas is unused for the
      // non-pooled (Cilk) policy, which models a fresh heap allocation
      // per child.
      if constexpr (TcPol::PooledWorkspace)
        StateArenas.push_back(
            std::make_unique<SlabArena>(sizeof(State), Cfg.PoolCap));
      FrameArenas.push_back(
          std::make_unique<ObjectArena<Frame>>(Cfg.PoolCap));
    }

    // The root workspace is a copy source for depth-0 spawns, so it must
    // be stride-padded like every other workspace (copyLiveLines reads
    // whole cache lines). Zero-fill the tail so the rounded reads see
    // initialized bytes.
    const std::size_t RootBytes = SlabArena::strideFor(sizeof(State));
    RootBuf = ::operator new(RootBytes);
    std::memset(RootBuf, 0, RootBytes);
    std::memcpy(RootBuf, static_cast<const void *>(&Root), sizeof(State));
    RootStatePtr = static_cast<State *>(RootBuf);
  }

  void endRun() {
    StateArenas.clear();
    FrameArenas.clear();
    RootStatePtr = nullptr;
    ::operator delete(RootBuf);
    RootBuf = nullptr;
  }

  bool runRoot(Worker &W) {
    ExecResult<Result> R =
        taskBody(W, *RootStatePtr, /*Depth=*/0, /*Parent=*/nullptr,
                 /*Dp=*/0, CodeVersion::Fast, /*OwnsState=*/false);
    if (!R.Stolen)
      Rt->publishFinal(R.Value);
    return true; // join the steal loop until every chain completes
  }

  /// One steal attempt against \p Victim: probe the deque for emptiness
  /// without touching its lock, then steal. The kernel already
  /// picked the victim and counts the attempt; failures here feed its
  /// stolen_num / need_task signalling.
  AcquireOutcome tryAcquire(Worker &W, Worker &Victim, bool /*Helping*/,
                            Frame *&Out) {
    if (Victim.Deque.empty()) {
      // Lock-free probe: do not touch the deque's synchronisation state
      // for a victim with nothing to take.
      ++W.Stats.EmptyProbes;
      return AcquireOutcome::Failed;
    }
    StealResult SR = Victim.Deque.steal(&FramePolicy::onSteal, nullptr);
    if (SR.Status != StealResult::Status::Success)
      return AcquireOutcome::Failed;
    Out = static_cast<Frame *>(SR.Frame);
    return AcquireOutcome::Acquired;
  }

  void execute(Worker &W, Frame *F) { runContinuation(W, F); }

  void aggregateWorker(SchedulerStats &Total, Worker &W) {
    Total.DequeOverflows += W.Deque.overflowCount();
    Total.LockAcquires += W.Deque.lockAcquireCount();
    Total.DequeHighWater =
        std::max(Total.DequeHighWater, W.Deque.highWaterMark());
    if constexpr (TcPol::PooledWorkspace) {
      const SlabArena &A = *StateArenas[static_cast<std::size_t>(W.Id)];
      Total.PoolOverflows +=
          A.stats().OverflowFrees + A.remoteOverflowFrees();
      Total.ArenaHighWater =
          std::max(Total.ArenaHighWater, A.stats().HighWater);
    }
    const ObjectArena<Frame> &FA =
        *FrameArenas[static_cast<std::size_t>(W.Id)];
    Total.PoolOverflows +=
        FA.stats().OverflowFrees + FA.remoteOverflowFrees();
    Total.ArenaHighWater =
        std::max(Total.ArenaHighWater, FA.stats().HighWater);
  }

private:
  /// Invoked by the thief for every successful steal, under the victim
  /// deque's lock (see the join protocol notes in the file comment).
  static void onSteal(void *FrameV, void *) {
    auto *F = static_cast<Frame *>(FrameV);
    F->JoinCount.fetch_add(1, std::memory_order_acq_rel);
    F->Detached = true;
    // Note: the special-parent JoinCount increment happens owner-side, at
    // the popSpecial() failure in publishSpecial — NOT here: the owner
    // observes each child steal 1:1 through the popSpecial failure and
    // does the bookkeeping on its own frame, so no thief touches
    // F->Parent.
  }

  /// One fake-task subtree's walk, threaded through checkBodyImpl by a
  /// single reference so the recursion passes as few arguments as the
  /// sequence version's (fewer values to keep live across each call).
  /// The check-version counters are batched here and flushed into Stats
  /// once per subtree (and by publishSpecial before a mid-run metrics
  /// mirror). The need_task polls are not counted one by one: every
  /// applied child of a check node polls exactly once and then becomes
  /// either a fake node or a published child, so the flush derives them.
  struct CheckWalk {
    FramePolicy &Self;
    Worker &W;
    std::uint64_t FakeTasks = 0;
    /// Children handed to publishSpecial.
    std::uint64_t Published = 0;
    /// 1 until the first flush: the subtree's entry node, counted in
    /// FakeTasks but reached from a non-check caller, polled nothing.
    std::uint64_t Entry = 1;

    void flush() {
      W.Stats.FakeTasks += FakeTasks;
      W.Stats.Polls += FakeTasks - Entry + Published;
      FakeTasks = Published = Entry = 0;
    }
  };

  /// A check-version node's special task, created by publishSpecial on
  /// the node's first need_task response and completed by syncSpecial.
  /// Until then the hot recursion carries only this null pointer and flag.
  struct SpecialTask {
    Frame *SF = nullptr;
    bool ChildStolen = false; ///< Some popSpecial failed: sync must wait.
  };

  /// Spawn counters of one spawn site, batched in locals and flushed into
  /// Stats at each exit (a steal or sync boundary) instead of dirtying
  /// the Stats cache line on every spawned child.
  struct SpawnCounts {
    std::uint64_t Spawns = 0, Copies = 0, Bytes = 0;

    void flush(SchedulerStats &Stats) const {
      Stats.Spawns += Spawns;
      Stats.WorkspaceCopies += Copies;
      Stats.CopiedBytes += Bytes;
    }
  };

  ExecResult<Result> taskBody(Worker &W, State &S, int Depth, Frame *Parent,
                              int Dp, CodeVersion Cur, bool OwnsState);
  ATC_ALWAYS_INLINE bool spawnChildren(Worker &W, Frame *F, State &S,
                                       int Depth, int K0, CodeVersion Cur,
                                       int Dp, Result &Acc);
  ATC_ALWAYS_INLINE State *copyThenPush(Worker &W, State &S, int Depth,
                                        Frame *F, bool Special,
                                        SpawnCounts &N);
  Result checkBody(Worker &W, State &S, int Depth);
  ATC_LOOP_ALIGNED static Result checkBodyImpl(CheckWalk &C, State &S,
                                               int Depth);
  ATC_NOINLINE Result publishSpecial(CheckWalk &C, State &S, int Depth,
                                     SpecialTask &ST);
  ATC_NOINLINE Result syncSpecial(Worker &W, const SpecialTask &ST,
                                  int Depth);
  Result seqBody(Worker &W, State &S, int Depth);
  void runContinuation(Worker &W, Frame *F);

  bool depositTo(Worker &W, Frame *F, Result Value);
  void completeDetached(Worker &W, Frame *F);

  State *allocState(Worker &W);
  void freeState(Worker &W, State *S);
  void freeStateOf(Worker &W, Frame *F);
  Frame *allocFrame(Worker &W);
  void freeFrame(Worker &W, Frame *F);
  void releaseFrame(Worker &W, Frame *F);

  P &Prob;
  SchedulerConfig Cfg;
  const State &Root;
  TcPol Tc;
  Runtime *Rt = nullptr;

  std::vector<std::unique_ptr<SlabArena>> StateArenas;
  std::vector<std::unique_ptr<ObjectArena<Frame>>> FrameArenas;
  void *RootBuf = nullptr;
  State *RootStatePtr = nullptr;
};

//===----------------------------------------------------------------------===//
// Implementation
//===----------------------------------------------------------------------===//

template <SearchProblem P, TaskCreationPolicy TcPol>
typename P::State *FramePolicy<P, TcPol>::allocState(Worker &W) {
  // Cilk models a fresh allocation per child ("Cilk_alloca + memcpy");
  // SYNCHED / AdaptiveTC / Cutoff reuse buffers through the per-worker
  // slab arena (space reuse is what the SYNCHED variable buys — the copy
  // itself still happens at the call site).
  if constexpr (TcPol::PooledWorkspace) {
    return static_cast<State *>(
        StateArenas[static_cast<std::size_t>(W.Id)]->alloc().Ptr);
  } else {
    (void)W;
    // Hinted problems copy whole cache lines (copyLiveState), so the
    // buffer must be padded to slab stride; hint-less problems copy exact
    // sizeof(State) and keep the exact allocation (padding would only
    // shift malloc size classes).
    if constexpr (HasLiveBytes<P>)
      return static_cast<State *>(
          ::operator new(SlabArena::strideFor(sizeof(State))));
    else
      return static_cast<State *>(::operator new(sizeof(State)));
  }
}

/// Owner-side free of a workspace \p W itself carved (the common case:
/// the spawn loop frees the child buffer it just allocated).
template <SearchProblem P, TaskCreationPolicy TcPol>
void FramePolicy<P, TcPol>::freeState(Worker &W, State *S) {
  if constexpr (TcPol::PooledWorkspace)
    StateArenas[static_cast<std::size_t>(W.Id)]->free(S);
  else
    ::operator delete(S);
}

/// Frees \p F's owned workspace from any worker, routing it back to the
/// carving worker's arena (F->AllocWorker — a frame and its workspace
/// always come from the same worker) via the lock-free remote stack when
/// \p W is not that worker.
template <SearchProblem P, TaskCreationPolicy TcPol>
void FramePolicy<P, TcPol>::freeStateOf(Worker &W, Frame *F) {
  if constexpr (!TcPol::PooledWorkspace) {
    ::operator delete(F->StatePtr); // thread-safe, no routing needed
    return;
  } else {
    SlabArena &A = *StateArenas[static_cast<std::size_t>(F->AllocWorker)];
    if (ATC_LIKELY(F->AllocWorker == W.Id))
      A.free(F->StatePtr);
    else
      A.freeRemote(F->StatePtr);
  }
}

template <SearchProblem P, TaskCreationPolicy TcPol>
typename FramePolicy<P, TcPol>::Frame *
FramePolicy<P, TcPol>::allocFrame(Worker &W) {
  // All systems pool task frames (Cilk 5.4.6 has a fast closure
  // allocator); the recycled frame is reset to its freshly-constructed
  // state.
  Frame *F = FrameArenas[static_cast<std::size_t>(W.Id)]->alloc();
  assert(F->JoinCount.load(std::memory_order_relaxed) == 0 &&
         "recycled frame with outstanding joins");
  F->reset();
  F->AllocWorker = W.Id;
  return F;
}

/// Owner-side frame free: the caller is the worker that carved \p F
/// (never-stolen frames and special frames are freed by their spawner).
template <SearchProblem P, TaskCreationPolicy TcPol>
void FramePolicy<P, TcPol>::freeFrame(Worker &W, Frame *F) {
  assert(F->AllocWorker == W.Id && "owner-side free of a foreign frame");
  FrameArenas[static_cast<std::size_t>(W.Id)]->free(F);
}

/// Frees a completed detached frame from any worker, routing it back to
/// the carving worker's arena.
template <SearchProblem P, TaskCreationPolicy TcPol>
void FramePolicy<P, TcPol>::releaseFrame(Worker &W, Frame *F) {
  ObjectArena<Frame> &A =
      *FrameArenas[static_cast<std::size_t>(F->AllocWorker)];
  if (ATC_LIKELY(F->AllocWorker == W.Id))
    A.free(F);
  else
    A.freeRemote(F);
}

template <SearchProblem P, TaskCreationPolicy TcPol>
ExecResult<typename P::Result>
FramePolicy<P, TcPol>::taskBody(Worker &W, State &S, int Depth,
                                        Frame *Parent, int Dp,
                                        CodeVersion Cur, bool OwnsState) {
  // Span attribution: everything below runs under Cur's mode; recursion
  // within the same version emits nothing (setMode de-dupes). The scope
  // covers all three return paths, stolen unwinds included.
  TraceModeScope TraceSpan(W.Trace, traceModeFor(Cur));
  MetricsModeScope MetricsSpan(W.Metrics, traceModeFor(Cur));
  ++W.Stats.TasksCreated;
  if (Prob.isLeaf(S, Depth)) {
    Result R = Prob.leafResult(S, Depth);
    if (OwnsState)
      freeState(W, &S);
    return {R, false};
  }

  Frame *F = allocFrame(W);
  F->StatePtr = &S;
  F->Depth = Depth;
  F->SpawnDepth = Dp;
  F->Parent = Parent;
  F->OwnsState = OwnsState;

  Result Acc{};
  if (spawnChildren(W, F, S, Depth, /*K0=*/0, Cur, Dp, Acc))
    return {Result{}, true};

  // Sync point. Owner-path invariant: a frame whose every pop succeeded
  // was never stolen, so all children completed synchronously ("all sync
  // statements [in the fast version] are translated to no-ops").
  assert(F->JoinCount.load(std::memory_order_acquire) == 0 &&
         "owner-path frame has outstanding children");
  assert(!F->Detached && "owner-path frame was stolen");
  freeFrame(W, F);
  if (OwnsState)
    freeState(W, &S);
  return {Acc, false};
}

/// The spawn loop of a task frame, shared by the fast and fast_2 versions
/// (taskBody, from K0 = 0) and the slow one (runContinuation, from the
/// choice after the stolen one): runs children K0..N-1 of \p F, whose
/// workspace \p S sits at \p Depth, from version \p Cur at spawn depth
/// \p Dp, adding their values to \p Acc. Returns true when F was stolen
/// meanwhile: F then belongs to the thief and the caller unwinds.
template <SearchProblem P, TaskCreationPolicy TcPol>
bool FramePolicy<P, TcPol>::spawnChildren(Worker &W, Frame *F, State &S,
                                          int Depth, int K0,
                                          CodeVersion Cur, int Dp,
                                          Result &Acc) {
  SpawnCounts Counts;
  // The first child after a resume counts as the first one: a stolen
  // spine frame keeps exposing its remaining siblings.
  bool FirstChild = true;
  const int N = Prob.numChoices(S, Depth);
  for (int K = K0; K < N; ++K) {
    if (!Prob.applyChoice(S, Depth, K))
      continue;

    // Figure 2 dispatch: the task-creation policy decides how this child
    // executes (need_task is consulted only by the check version, i.e.
    // inside checkBody — never here). Per the paper, the slow version
    // dispatches through the fast/check rule regardless of which version
    // originally spawned it (CodeVersion::Slow mirrors Fast in every
    // policy).
    const FsmTransition T = Tc.child(Cur, Dp, /*NeedTask=*/false, FirstChild);
    FirstChild = false;
    if (T.SpawnTask) {
      [[maybe_unused]] std::uint64_t SpawnT0 = ATC_METRIC_NOW(W.Metrics);
      F->LastChoice = K;
      F->PartialAcc = Acc;
      State *CB = copyThenPush(W, S, Depth, F, /*Special=*/false, Counts);
      if (ATC_UNLIKELY(CB == nullptr)) {
        Acc += seqBody(W, S, Depth + 1);
        Prob.undoChoice(S, Depth, K);
        continue;
      }
      // Spawn cost (alloc + live-copy + push) and post-push occupancy.
      ATC_METRIC(W.Metrics, SpawnCostNs.record(nowNanos() - SpawnT0));
      ATC_METRIC(W.Metrics, DequeDepth.record(static_cast<std::uint64_t>(
                                W.Deque.size())));
      ATC_TRACE_EVENT(W.Trace, TraceEventKind::SpawnReal,
                      static_cast<std::uint32_t>(T.Child),
                      static_cast<std::uint16_t>(Depth + 1));
      if (T.Child != Cur)
        ATC_TRACE_EVENT(W.Trace, TraceEventKind::FsmTransition,
                        static_cast<std::uint32_t>(Cur),
                        static_cast<std::uint16_t>(T.Child));

      ExecResult<Result> R = taskBody(W, *CB, Depth + 1, F, T.ChildDp,
                                      T.Child, /*OwnsState=*/true);
      if (R.Stolen || W.Deque.pop() == PopResult::Failure) {
        // F was stolen. Either the child's own frame was stolen too
        // (head-first stealing took F first) and its result reaches F
        // via the frame chain, or the pop failed: deposit the child's
        // value into the (now thief-owned) F, completing F if it is
        // suspended and this was its last child. Unwind without popping
        // or freeing anything we no longer own ("return a dummy value").
        Counts.flush(W.Stats);
        if (!R.Stolen && depositTo(W, F, R.Value))
          completeDetached(W, F);
        return true;
      }
      Acc += R.Value;
    } else if (T.Child == CodeVersion::Check) {
      Acc += checkBody(W, S, Depth + 1);
    } else {
      Acc += seqBody(W, S, Depth + 1);
    }
    Prob.undoChoice(S, Depth, K);
  }
  Counts.flush(W.Stats);
  return false;
}

/// The spawn step of all three spawn sites (the normal frame pushes of
/// spawnChildren and the special-task push of publishSpecial): gives the
/// child a private copy of the workspace prefix live at its depth (the
/// taskprivate copy, Problem.h liveBytes), then pushes \p F, as a special
/// task when \p Special. The copy MUST precede the push: once F is
/// stealable, a thief may start mutating \p S (undo/redo of the remaining
/// choices). Returns the child's workspace, or null on deque overflow
/// (counted by the deque): the copy is freed and the caller runs the
/// child as a plain call (seqBody).
template <SearchProblem P, TaskCreationPolicy TcPol>
typename P::State *
FramePolicy<P, TcPol>::copyThenPush(Worker &W, State &S, int Depth,
                                    Frame *F, bool Special, SpawnCounts &N) {
  State *CB = allocState(W);
  N.Bytes += copyLiveState(Prob, CB, S, Depth + 1);
  ++N.Copies;
  if (ATC_UNLIKELY(!W.Deque.tryPush(F, Special))) {
    freeState(W, CB);
    return nullptr;
  }
  ++N.Spawns;
  return CB;
}

template <SearchProblem P, TaskCreationPolicy TcPol>
typename P::Result
FramePolicy<P, TcPol>::checkBody(Worker &W, State &S, int Depth) {
  // Everything per fake-task *subtree* lives here, never per node: this
  // entry point is only reached from non-check callers, so the Check mode
  // spans, the spawn-fake event and the counter flush happen once per
  // subtree. A per-node RAII scope would put out-of-line calls on the
  // hottest recursion in the scheduler even with tracing and metrics
  // disarmed. setMode de-dupes, so nested taskBody spans restore to Check.
  MetricsModeScope MetricsSpan(W.Metrics, TraceMode::Check);
  // One spawn-fake per subtree: per-node volume would drown the ring in
  // events carrying no extra information (SchedulerStats::FakeTasks has
  // the exact count).
  if (ATC_UNLIKELY(W.Trace != nullptr) &&
      W.Trace->mode() != TraceMode::Check)
    W.Trace->emit(TraceEventKind::SpawnFake, 0,
                  static_cast<std::uint16_t>(Depth));
  TraceModeScope TraceSpan(W.Trace, TraceMode::Check);
  assert(Tc.child(CodeVersion::Check, /*Dp=*/0, /*NeedTask=*/false,
                  /*FirstChild=*/false)
                 .Child == CodeVersion::Check &&
         "without need_task, check must keep its children fake tasks");
  CheckWalk C{*this, W};
  Result Acc = checkBodyImpl(C, S, Depth);
  C.flush();
  return Acc;
}

/// The check version's per-node recursion: the sequence version's loop
/// plus one relaxed need_task load and one branch per applied child.
/// Everything a starving thief triggers (the Figure 2 check edge,
/// special-task publication and its sync) is out of line, so the
/// per-node frame holds only the loop's state and an empty special-task
/// slot. Loop-aligned (support/Compiler.h), as is detail::seqBodyImpl.
template <SearchProblem P, TaskCreationPolicy TcPol>
typename P::Result
FramePolicy<P, TcPol>::checkBodyImpl(CheckWalk &C, State &S,
                                             int Depth) {
  P &Prob = C.Self.Prob;
  ++C.FakeTasks;
  if (Prob.isLeaf(S, Depth))
    return Prob.leafResult(S, Depth);

  SpecialTask ST;
  Result Acc{};
  const int N = Prob.numChoices(S, Depth);
  for (int K = 0; K < N; ++K) {
    if (!Prob.applyChoice(S, Depth, K))
      continue;

    // One need_task poll per child. Without need_task the check edge of
    // Figure 2 keeps the child a fake task (in-place workspace);
    // publishSpecial takes the edge for the other case.
    if (ATC_LIKELY(!C.W.NeedTask.load(std::memory_order_relaxed)))
      Acc += checkBodyImpl(C, S, Depth + 1);
    else
      Acc += C.Self.publishSpecial(C, S, Depth, ST);
    Prob.undoChoice(S, Depth, K);
  }
  if (ATC_UNLIKELY(ST.SF != nullptr))
    Acc += C.Self.syncSpecial(C.W, ST, Depth);
  return Acc;
}

/// Some thread is starving: create (once per node) the special task
/// marking the transition point and publish this child as a stealable
/// task through fast_2, with the spawn depth reset to 0 (T.ChildDp — the
/// FSM's depth reset). Returns the child's contribution to the node's
/// result; a stolen child's value arrives later through ST.SF->Deposits.
/// The caller polled need_task set and undoes the choice.
template <SearchProblem P, TaskCreationPolicy TcPol>
typename P::Result FramePolicy<P, TcPol>::publishSpecial(
    CheckWalk &C, State &S, int Depth, SpecialTask &ST) {
  Worker &W = C.W;
  const FsmTransition T = Tc.child(CodeVersion::Check, /*Dp=*/0,
                                   /*NeedTask=*/true, /*FirstChild=*/false);
  assert(T.SpecialPush && T.Child == CodeVersion::Fast2 &&
         T.ChildDp == 0 && "check must publish through fast_2");
  ++C.Published;
  if (!ST.SF) {
    // The observation record: this check body saw its own need_task
    // flag and is about to publish (one event per responding body, not
    // one per poll — the flag stays set until a steal clears it).
    ATC_TRACE_EVENT(W.Trace, TraceEventKind::NeedTaskObserve, 0,
                    static_cast<std::uint16_t>(Depth));
    ST.SF = allocFrame(W);
    ST.SF->Special = true;
    ST.SF->Depth = Depth;
    ST.SF->StatePtr = &S;
    ST.SF->OwnsState = false;
    ++W.Stats.SpecialTasks;
  }
  Frame *SF = ST.SF;
  SpawnCounts Counts;
  State *CB = copyThenPush(W, S, Depth, SF, /*Special=*/true, Counts);
  Counts.flush(W.Stats);
  if (ATC_UNLIKELY(CB == nullptr))
    return seqBody(W, S, Depth + 1);
  // Hand the subtree's batched counters to Stats so the mirror flush
  // below is as fresh as the rest of the worker's counters.
  C.flush();
  // Reseed cadence (interval between special-task publishes) and a
  // mirror flush — this is the busy owner's cold publication point, so
  // its cell stays fresh for live dashboards without the hot fake-task
  // loop ever touching the cell.
  ATC_METRIC(W.Metrics, recordReseed(nowNanos()));
  ATC_METRIC(W.Metrics, publishStats(W.Stats));
  ATC_TRACE_EVENT(W.Trace, TraceEventKind::SpecialPush, 0,
                  static_cast<std::uint16_t>(Depth));
  ATC_TRACE_EVENT(W.Trace, TraceEventKind::FsmTransition,
                  static_cast<std::uint32_t>(CodeVersion::Check),
                  static_cast<std::uint16_t>(CodeVersion::Fast2));

  ExecResult<Result> R = taskBody(W, *CB, Depth + 1, SF, T.ChildDp, T.Child,
                                  /*OwnsState=*/true);
  if (W.Deque.popSpecial() == PopResult::Failure) {
    // The special's child chain was stolen. A special is never stolen
    // itself, so it gets no steal-time JoinCount increment; the owner
    // accounts for the detached chain's eventual completion deposit
    // here, exactly once per stolen child.
    ST.ChildStolen = true;
    SF->JoinCount.fetch_add(1, std::memory_order_acq_rel);
    // The owner-side record of "a special task's work was stolen" —
    // 1:1 with such steals, and the only safe side to record them on
    // (the thief must never dereference a special frame).
    ATC_TRACE_EVENT(W.Trace, TraceEventKind::SpecialChildStolen, 0,
                    static_cast<std::uint16_t>(Depth));
  } else {
    ATC_TRACE_EVENT(W.Trace, TraceEventKind::SpecialPop, 0,
                    static_cast<std::uint16_t>(Depth));
  }
  return R.Stolen ? Result{} : R.Value;
}

/// sync_specialtask: a special task cannot be suspended, so when a child
/// was stolen the owner stays here until the detached children complete;
/// the kernel's help-first wait steals and runs other tasks meanwhile
/// (see WorkerRuntime::helpWhile). Returns the stolen children's
/// deposits and frees the special frame.
template <SearchProblem P, TaskCreationPolicy TcPol>
typename P::Result
FramePolicy<P, TcPol>::syncSpecial(Worker &W, const SpecialTask &ST,
                                           [[maybe_unused]] int Depth) {
  Frame *SF = ST.SF;
  if (ST.ChildStolen) {
    std::uint64_t T0 = nowNanos();
    ATC_TRACE_EVENT(W.Trace, TraceEventKind::SpecialSyncBegin, 0,
                    static_cast<std::uint16_t>(Depth));
    Rt->helpWhile(W, [&] {
      return SF->JoinCount.load(std::memory_order_acquire) != 0;
    });
    ATC_TRACE_EVENT(W.Trace, TraceEventKind::SpecialSyncEnd, 0,
                    static_cast<std::uint16_t>(Depth));
    W.Stats.WaitChildrenNs += nowNanos() - T0;
  }
  Result Deposits{};
  {
    std::lock_guard<std::mutex> Guard(SF->Lock);
    Deposits = SF->Deposits;
  }
  freeFrame(W, SF);
  return Deposits;
}

namespace detail {

/// Recursive core of the sequence version: counts visited nodes into a
/// stack local threaded by reference so the hot loop never touches the
/// worker's Stats cache line (flushed once by seqBody below).
template <SearchProblem P>
ATC_LOOP_ALIGNED typename P::Result
seqBodyImpl(P &Prob, typename P::State &S, int Depth, std::uint64_t &Nodes) {
  ++Nodes;
  if (Prob.isLeaf(S, Depth))
    return Prob.leafResult(S, Depth);
  typename P::Result Acc{};
  const int N = Prob.numChoices(S, Depth);
  for (int K = 0; K < N; ++K) {
    if (!Prob.applyChoice(S, Depth, K))
      continue;
    Acc += seqBodyImpl(Prob, S, Depth + 1, Nodes);
    Prob.undoChoice(S, Depth, K);
  }
  return Acc;
}

} // namespace detail

template <SearchProblem P, TaskCreationPolicy TcPol>
typename P::Result
FramePolicy<P, TcPol>::seqBody(Worker &W, State &S, int Depth) {
  TraceModeScope TraceSpan(W.Trace, TraceMode::Sequence);
  MetricsModeScope MetricsSpan(W.Metrics, TraceMode::Sequence);
  std::uint64_t Nodes = 0;
  Result Acc = detail::seqBodyImpl(Prob, S, Depth, Nodes);
  W.Stats.FakeTasks += Nodes;
  return Acc;
}

template <SearchProblem P, TaskCreationPolicy TcPol>
void FramePolicy<P, TcPol>::runContinuation(Worker &W, Frame *F) {
  // The slow version: restore the live state and "PC", undo the choice
  // whose child is running elsewhere, and continue the spawning loop.
  TraceModeScope TraceSpan(W.Trace, TraceMode::Slow);
  MetricsModeScope MetricsSpan(W.Metrics, TraceMode::Slow);
  State &S = *F->StatePtr;
  const int Depth = F->Depth;
  Prob.undoChoice(S, Depth, F->LastChoice);
  Result Acc = F->PartialAcc;
  if (spawnChildren(W, F, S, Depth, F->LastChoice + 1, CodeVersion::Slow,
                    F->SpawnDepth, Acc))
    return; // stolen again; back to the steal loop

  // Sync point of a stolen task: children may still be outstanding.
  F->Lock.lock();
  F->SyncAcc = Acc;
  if (F->JoinCount.load(std::memory_order_acquire) != 0) {
    // Suspend the task and go steal other work; the last depositor
    // resumes (completes) it.
    F->Suspended = true;
    ++W.Stats.Suspensions;
    F->Lock.unlock();
    return;
  }
  F->Lock.unlock();
  completeDetached(W, F);
}

/// The deposit step of the join protocol: adds the value of one finished
/// child chain into \p F and drops F's JoinCount. Returns true when F is
/// suspended and that was its last outstanding child: the caller is then
/// F's sole owner and completes it.
template <SearchProblem P, TaskCreationPolicy TcPol>
bool FramePolicy<P, TcPol>::depositTo(Worker &W, Frame *F, Result Value) {
  ++W.Stats.Deposits;
  F->Lock.lock();
  F->Deposits += Value;
  const int JC = F->JoinCount.fetch_sub(1, std::memory_order_acq_rel) - 1;
  const bool Resume = JC == 0 && F->Suspended;
  F->Lock.unlock();
  return Resume;
}

/// Completes the detached frame \p F, whose children have all deposited
/// and whose sole owner the caller is: frees F and deposits its total
/// (SyncAcc + Deposits) into its parent, completing each suspended parent
/// in turn whose last child this was; the root publishes the result.
template <SearchProblem P, TaskCreationPolicy TcPol>
void FramePolicy<P, TcPol>::completeDetached(Worker &W, Frame *F) {
  for (;;) {
    Result Total = F->SyncAcc;
    Total += F->Deposits;
    Frame *Parent = F->Parent;
    // May run on a thief: both frees route back to the carving worker's
    // arena (F->AllocWorker) rather than W's.
    if (F->OwnsState)
      freeStateOf(W, F);
    releaseFrame(W, F);
    if (!Parent) {
      Rt->publishFinal(Total);
      return;
    }
    if (!depositTo(W, Parent, Total))
      return;
    F = Parent;
  }
}

} // namespace atc

#endif // ATC_CORE_KERNEL_FRAMEPOLICY_H
