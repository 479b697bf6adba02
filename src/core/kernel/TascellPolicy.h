//===- core/kernel/TascellPolicy.h - Backtracking-based policy --*- C++ -*-===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A from-scratch reproduction of Tascell's backtracking-based load
/// balancing (Hiraishi et al., PPoPP'09), the paper's second baseline, as
/// a WorkerRuntime policy. The kernel (WorkerRuntime.h) owns the threads,
/// the request loop's victim selection, backoff and idle-time accounting;
/// this policy owns what is Tascell-specific: the shadow stack of choice
/// points, the request mailbox, and donation construction via temporary
/// backtracking. Architecture, per the paper's description:
///
///  * "the task is stored in a thread's execution stack instead of in a
///    d-e-que": each worker executes plain recursion over a live
///    workspace, maintaining a shadow stack of choice points (open loop
///    ranges), with no task frames and no workspace copies on the fast
///    path.
///  * "When a thread receives a task request from an idle thread, it
///    backtracks through the chain of nested function calls, and creates
///    a task for the requesting thread": requests arrive in a mailbox
///    polled at every node entry; the victim picks the *oldest* choice
///    point with untried choices, temporarily backtracks (undoing the
///    applied choices down to that level) to reconstruct the ancestor
///    workspace, copies it into a donation, re-applies the choices, and
///    resumes — this is where workspace copying is "delayed as much as
///    possible".
///  * "Tascell cannot suspend a waiting task": when the recursion unwinds
///    to a choice point with outstanding donations, the worker blocks
///    (polling requests and sleeping) until the donated results arrive —
///    the wait_children overhead of the paper's Figure 7.
///  * Donations hand over half of the untried choices of the split level
///    ("a parallel-for loop construct is implemented by spawning a half
///    of the tasks for the requested threads").
///
//===----------------------------------------------------------------------===//

#ifndef ATC_CORE_KERNEL_TASCELLPOLICY_H
#define ATC_CORE_KERNEL_TASCELLPOLICY_H

#include "core/Backoff.h"
#include "core/Problem.h"
#include "core/Scheduler.h"
#include "core/SchedulerStats.h"
#include "core/kernel/KernelWorker.h"
#include "core/kernel/WorkerRuntime.h"
#include "support/Arena.h"
#include "support/Timer.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

namespace atc {

/// Backtracking-based work-distribution policy for problem type \p P.
/// Run it through WorkerRuntime (see runProblem in core/Runtime.h).
template <SearchProblem P> class TascellPolicy {
public:
  using State = typename P::State;
  using Result = typename P::Result;

  /// A task donated to a requester: a reconstructed ancestor workspace
  /// plus an untried choice range of that node. Allocated and freed by
  /// the *victim* (donations are handed out and reaped on the victim's
  /// side), so each worker recycles them through its own ObjectArena with
  /// no cross-thread frees. St must stay the first member: the arena
  /// freelist link lives in its leading bytes while the donation is free,
  /// and respond()'s workspace copy rewrites them (bytes past the live
  /// prefix are dead by the liveBytes contract).
  struct Donation {
    State St;
    int Depth;
    int ChoiceBegin;
    int ChoiceEnd;
    std::atomic<bool> DoneFlag{false};
    Result Value{};
  };

  /// One open loop level on a worker's shadow stack.
  struct ChoicePoint {
    int Depth;
    int CurChoice = -1;
    bool Applied = false;
    int NextUntried;
    int NumChoices;
    std::vector<Donation *> Outstanding;
  };

  /// Per-worker Tascell state over the kernel slice (KernelWorker). Each
  /// cross-thread field group (StackDepth probe, mailbox, response slot)
  /// sits on its own line so idle workers' probing and posting never
  /// invalidates the lines the owner's recursion is hot on (Stack, Live,
  /// Stats).
  struct alignas(ATC_CACHE_LINE_SIZE) TWorker : KernelWorker {
    TWorker(int Id, std::uint64_t Seed, int PoolCap)
        : KernelWorker(Id, Seed), Donations(PoolCap) {}

    std::vector<ChoicePoint> Stack;
    State Live;

    /// Recycler for this worker's outgoing donations (victim-side alloc
    /// and free — no remote path needed).
    ObjectArena<Donation> Donations;

    /// Batched hot counters (owner-only), flushed into Stats at steal /
    /// donation boundaries and at the end of the run.
    std::uint64_t LocalNodes = 0; ///< runNode entries (-> Stats.FakeTasks).
    std::uint64_t LocalPolls = 0; ///< Mailbox polls (-> Stats.Polls).

    void flushLocalCounters() {
      Stats.FakeTasks += LocalNodes;
      Stats.Polls += LocalPolls;
      LocalNodes = 0;
      LocalPolls = 0;
    }

    /// Published copy of Stack.size(), so idle workers can probe "does
    /// this victim have any choice points at all?" without posting a
    /// request into its mailbox (the Tascell analogue of the deque
    /// emptiness probe).
    alignas(ATC_CACHE_LINE_SIZE) std::atomic<int> StackDepth{0};

    alignas(ATC_CACHE_LINE_SIZE) std::mutex MailLock;
    std::vector<int> Requests;          ///< Requester worker ids.
    std::atomic<int> PendingRequests{0};

    alignas(ATC_CACHE_LINE_SIZE) std::atomic<Donation *> Response{nullptr};
  };

  using Worker = TWorker;
  /// Acquired work: a donation handed over by a victim.
  using Task = Donation *;
  using Runtime = WorkerRuntime<TascellPolicy>;

  TascellPolicy(P &Prob, const SchedulerConfig &Cfg, const State &Root)
      : Prob(Prob), Cfg(Cfg), Root(Root) {}

  //===--------------------------------------------------------------------===//
  // WorkerRuntime policy interface
  //===--------------------------------------------------------------------===//

  std::unique_ptr<TWorker> makeWorker(int Id) {
    return std::make_unique<TWorker>(
        Id, Cfg.Seed + static_cast<std::uint64_t>(Id), Cfg.PoolCap);
  }

  void beginRun(Runtime &R) {
    Rt = &R;
    Rt->worker(0).Live = Root;
  }

  void endRun() {}

  bool runRoot(TWorker &W) {
    TraceModeScope TraceSpan(W.Trace, TraceMode::Work);
    MetricsModeScope MetricsSpan(W.Metrics, TraceMode::Work);
    Result Value = runNode(W, 0);
    W.flushLocalCounters();
    ATC_METRIC(W.Metrics, publishStats(W.Stats));
    Rt->publishFinal(Value);
    // Tascell's root worker runs the whole computation to completion
    // inline (donated subtrees rejoin through DoneFlags before it
    // returns), so there is nothing left to steal.
    return false;
  }

  /// One request round against \p Victim: probe its published stack
  /// depth, then post into its mailbox and wait for a donation or a
  /// denial, answering (denying) our own mailbox so other idle workers
  /// are not blocked on us. The kernel already picked the victim and
  /// accounts steal counters / need_task signalling around this call.
  AcquireOutcome tryAcquire(TWorker &W, TWorker &Victim, bool /*Helping*/,
                            Donation *&Out) {
    // Emptiness probe: a victim with no choice points on its execution
    // stack cannot donate; skip the mailbox round-trip entirely.
    if (Victim.StackDepth.load(std::memory_order_relaxed) == 0) {
      ++W.Stats.EmptyProbes;
      return AcquireOutcome::Failed;
    }

    W.Response.store(nullptr, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> Guard(Victim.MailLock);
      Victim.Requests.push_back(W.Id);
    }
    Victim.PendingRequests.fetch_add(1, std::memory_order_relaxed);
    ++W.Stats.Requests;

    Donation *D;
    for (;;) {
      D = W.Response.load(std::memory_order_acquire);
      if (D || Rt->done())
        break;
      pollRequests(W);
      requestResponseWait();
    }
    if (!D)
      return AcquireOutcome::Terminated; // run completed while waiting
    if (D == denySentinel())
      return AcquireOutcome::Failed;
    Out = D;
    return AcquireOutcome::Acquired;
  }

  /// Executes a donated task: install the donated workspace and choice
  /// range, run it, publish the result through the DoneFlag.
  void execute(TWorker &W, Donation *D) {
    TraceModeScope TraceSpan(W.Trace, TraceMode::Work);
    MetricsModeScope MetricsSpan(W.Metrics, TraceMode::Work);
    W.Live = D->St;
    ChoicePoint CP;
    CP.Depth = D->Depth;
    CP.NextUntried = D->ChoiceBegin;
    CP.NumChoices = D->ChoiceEnd;
    W.Stack.push_back(std::move(CP));
    W.StackDepth.store(static_cast<int>(W.Stack.size()),
                       std::memory_order_relaxed);
    D->Value = runChoices(W, D->Depth);
    D->DoneFlag.store(true, std::memory_order_release);
    W.flushLocalCounters(); // donation boundary
    ATC_METRIC(W.Metrics, publishStats(W.Stats));
  }

  void aggregateWorker(SchedulerStats &Total, TWorker &W) {
    // Polls accumulated after the worker's last donation boundary (e.g.
    // while waiting out the final denials) are still unflushed here.
    W.flushLocalCounters();
    Total.PoolOverflows += W.Donations.stats().OverflowFrees +
                           W.Donations.remoteOverflowFrees();
    Total.ArenaHighWater =
        std::max(Total.ArenaHighWater, W.Donations.stats().HighWater);
  }

private:
  /// Sentinel response meaning "no task available".
  static Donation *denySentinel() {
    return reinterpret_cast<Donation *>(1);
  }

  Result runNode(TWorker &W, int Depth);
  Result runChoices(TWorker &W, int Depth);
  void waitOutstanding(TWorker &W, std::size_t CPIndex, Result &Acc);
  void pollRequests(TWorker &W);
  void respond(TWorker &W, int Requester);

  P &Prob;
  SchedulerConfig Cfg;
  const State &Root;
  Runtime *Rt = nullptr;
};

//===----------------------------------------------------------------------===//
// Implementation
//===----------------------------------------------------------------------===//

template <SearchProblem P>
typename P::Result TascellPolicy<P>::runNode(TWorker &W, int Depth) {
  // Tascell polls for task requests at every node entry.
  pollRequests(W);
  if (Prob.isLeaf(W.Live, Depth))
    return Prob.leafResult(W.Live, Depth);

  ChoicePoint CP;
  CP.Depth = Depth;
  CP.NextUntried = 0;
  CP.NumChoices = Prob.numChoices(W.Live, Depth);
  W.Stack.push_back(std::move(CP));
  W.StackDepth.store(static_cast<int>(W.Stack.size()),
                     std::memory_order_relaxed);
  ++W.LocalNodes; // nested-function bookkeeping, no task frame
  return runChoices(W, Depth);
}

template <SearchProblem P>
typename P::Result TascellPolicy<P>::runChoices(TWorker &W, int Depth) {
  const std::size_t MyIdx = W.Stack.size() - 1;
  Result Acc{};
  for (;;) {
    ChoicePoint &CP = W.Stack[MyIdx];
    int K = CP.NextUntried;
    if (K >= CP.NumChoices)
      break;
    CP.NextUntried = K + 1;
    CP.CurChoice = K;
    if (!Prob.applyChoice(W.Live, Depth, K))
      continue;
    CP.Applied = true;
    Acc += runNode(W, Depth + 1);
    Prob.undoChoice(W.Live, Depth, K);
    W.Stack[MyIdx].Applied = false; // re-reference: deeper pushes may move
  }
  waitOutstanding(W, MyIdx, Acc);
  W.Stack.pop_back();
  W.StackDepth.store(static_cast<int>(W.Stack.size()),
                     std::memory_order_relaxed);
  return Acc;
}

template <SearchProblem P>
void TascellPolicy<P>::waitOutstanding(TWorker &W, std::size_t CPIndex,
                                       Result &Acc) {
  ChoicePoint &CP = W.Stack[CPIndex];
  if (CP.Outstanding.empty())
    return;
  // "Tascell cannot suspend a waiting task and has to wait for its child
  // tasks to complete" — but it keeps answering task requests while
  // waiting (it still owns its execution stack).
  std::uint64_t T0 = nowNanos();
  ATC_TRACE_EVENT(W.Trace, TraceEventKind::WaitChildrenBegin, 0,
                  static_cast<std::uint16_t>(CP.Depth));
  TraceModeScope TraceSpan(W.Trace, TraceMode::SyncWait);
  MetricsModeScope MetricsSpan(W.Metrics, TraceMode::SyncWait);
  for (;;) {
    bool AllDone = true;
    for (Donation *D : CP.Outstanding)
      if (!D->DoneFlag.load(std::memory_order_acquire)) {
        AllDone = false;
        break;
      }
    if (AllDone)
      break;
    pollRequests(W);
    waitChildrenWait();
  }
  ATC_TRACE_EVENT(W.Trace, TraceEventKind::WaitChildrenEnd, 0,
                  static_cast<std::uint16_t>(CP.Depth));
  W.Stats.WaitChildrenNs += nowNanos() - T0;
  for (Donation *D : CP.Outstanding) {
    Acc += D->Value;
    W.Donations.free(D); // victim-side reap into the victim's own arena
  }
  CP.Outstanding.clear();
}

template <SearchProblem P>
void TascellPolicy<P>::pollRequests(TWorker &W) {
  ++W.LocalPolls;
  if (ATC_LIKELY(W.PendingRequests.load(std::memory_order_relaxed) == 0))
    return;
  int Requester = -1;
  {
    std::lock_guard<std::mutex> Guard(W.MailLock);
    if (W.Requests.empty())
      return;
    Requester = W.Requests.back();
    W.Requests.pop_back();
    W.PendingRequests.fetch_sub(1, std::memory_order_relaxed);
  }
  respond(W, Requester);
}

template <SearchProblem P>
void TascellPolicy<P>::respond(TWorker &W, int Requester) {
  TWorker &R = Rt->worker(Requester);
  // Donation construction is Tascell's task-creation cost: backtrack,
  // snapshot, redo. Recorded into the same spawn-cost histogram the
  // deque-based policies feed so atc-top compares like with like.
  [[maybe_unused]] std::uint64_t SpawnT0 = ATC_METRIC_NOW(W.Metrics);

  // Find the oldest (shallowest) choice point with untried choices — the
  // biggest remaining subtrees live there.
  std::size_t Split = W.Stack.size();
  for (std::size_t I = 0; I < W.Stack.size(); ++I)
    if (W.Stack[I].NextUntried < W.Stack[I].NumChoices) {
      Split = I;
      break;
    }
  if (Split == W.Stack.size()) {
    ++W.Stats.RequestsDenied;
    R.Response.store(denySentinel(), std::memory_order_release);
    return;
  }

  ChoicePoint &CP = W.Stack[Split];
  int Untried = CP.NumChoices - CP.NextUntried;
  int Give = (Untried + 1) / 2; // donate half of the untried choices

  Donation *D = W.Donations.alloc();
  D->DoneFlag.store(false, std::memory_order_relaxed); // recycled reset
  D->Value = Result{};
  D->Depth = CP.Depth;
  D->ChoiceBegin = CP.NumChoices - Give;
  D->ChoiceEnd = CP.NumChoices;
  CP.NumChoices -= Give;

  // Temporary backtracking: undo the applied choices from the top of the
  // stack down to (and including) the split level, snapshot the ancestor
  // workspace, then redo them and resume. This is Tascell's delayed
  // workspace copy.
  for (std::size_t I = W.Stack.size(); I-- > Split;) {
    if (!W.Stack[I].Applied)
      continue;
    Prob.undoChoice(W.Live, W.Stack[I].Depth, W.Stack[I].CurChoice);
    ++W.Stats.BacktrackSteps;
  }
  // The requester resumes the search at (St, CP.Depth), so only the
  // prefix live at that depth needs to survive the copy.
  const std::size_t Live = liveStateBytes(Prob, W.Live, CP.Depth);
  std::memcpy(static_cast<void *>(&D->St),
              static_cast<const void *>(&W.Live), Live);
  ++W.Stats.WorkspaceCopies;
  W.Stats.CopiedBytes += Live;
  for (std::size_t I = Split; I < W.Stack.size(); ++I) {
    if (!W.Stack[I].Applied)
      continue;
    [[maybe_unused]] bool Ok =
        Prob.applyChoice(W.Live, W.Stack[I].Depth, W.Stack[I].CurChoice);
    assert(Ok && "redo of a previously applied choice failed");
    ++W.Stats.BacktrackSteps;
  }

  CP.Outstanding.push_back(D);
  // Victim-side record (single-writer rule: never touch R's ring); the
  // exporter draws the arrow to the requester's track from this.
  ATC_TRACE_EVENT(W.Trace, TraceEventKind::Donation,
                  static_cast<std::uint32_t>(Requester),
                  static_cast<std::uint16_t>(D->Depth));
  ATC_METRIC(W.Metrics, SpawnCostNs.record(nowNanos() - SpawnT0));
  ATC_METRIC(W.Metrics, publishStats(W.Stats));
  R.Response.store(D, std::memory_order_release);
}

} // namespace atc

#endif // ATC_CORE_KERNEL_TASCELLPOLICY_H
