//===- sim/SimEngine.cpp - Virtual-time scheduling simulator --------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/SimEngine.h"
#include "core/kernel/StealDecisions.h"
#include "core/kernel/TaskCreationPolicy.h"
#include "metrics/MetricsRegistry.h"
#include "support/Compiler.h"
#include "support/Prng.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <limits>
#include <utility>

using namespace atc;

namespace {

// Frames dispatch (and cost) their children per the shared Figure 2 FSM:
// CodeVersion::Fast spawns tasks up to the cut-off (and, with
// SimOptions::Fsm = Spine, its first child down to 4x the cut-off), Fast2
// up to the doubled cut-off, Check runs fake tasks that poll need_task, and
// Sequence covers plain recursion (and Tascell / Sequential, whose
// dispatchChild edge is always a non-spawning Sequence edge).

/// Completion-tracking job: counts unprocessed nodes of a donated /
/// special subtree so waiters know when their children are done.
struct Job {
  long long Remaining;
  Job *Parent;
};

/// One open loop level of a simulated worker.
struct SimFrame {
  std::vector<SimTreeNode> Kids;
  int Next = 0;
  int End = 0;
  CodeVersion Mode = CodeVersion::Sequence;
  int Dp = 0;             ///< Spawn depth of the node that owns this level.
  bool Stealable = false;
  bool SpecialMade = false;      ///< ATC: special task already created here.
  bool TraceWaiting = false;     ///< Trace: WaitChildrenBegin emitted.
  std::vector<Job *> WaitJobs;   ///< Jobs to await before popping.
  Job *NodeJob = nullptr;        ///< Innermost job the level's nodes count
                                 ///< against.
};

/// A Tascell donation in flight.
struct SimResponse {
  bool Deny = true;
  double ReadyAt = 0;
  SimFrame Frame; ///< Valid when !Deny.
};

struct SimWorker {
  explicit SimWorker(std::uint64_t Seed) : Rng(Seed) {}

  /// Virtual-time trace ring, or null when the sim run is untraced.
  TraceBuffer *TB = nullptr;

  /// Virtual-time metrics cell, or null when the sim run is unmetered.
  WorkerMetricsCell *MC = nullptr;

  /// Per-worker counter mirror, kept in the runtime's SchedulerStats
  /// vocabulary so the metrics snapshot of a sim run carries the same
  /// fields as a real run (the SimReport globals are sums of these).
  SchedulerStats Stats;

  double Now = 0;
  double LastProductive = 0;
  double IdleStart = -1; ///< Virtual time this worker went idle, or -1.
  std::vector<SimFrame> Stack;
  SplitMix64 Rng;
  SimBreakdown B;

  // AdaptiveTC signalling.
  int StolenNum = 0;
  bool NeedTask = false;

  int FailStreak = 0;

  // Tascell.
  std::vector<int> Mailbox; ///< Requester ids, serviced one per poll.
  int WaitingOn = -1;       ///< Victim id while a request is pending.
  bool HasResponse = false;
  SimResponse Response;

  /// Count of stealable frames with untried siblings (deque pressure).
  int OpenStealable = 0;
};

/// The simulator proper.
class Simulator {
public:
  Simulator(const SimTree &Tree, const SimOptions &Opts,
            const CostModel &Costs, TraceLog *Log, MetricsRegistry *Metrics)
      : Tree(Tree), Opts(Opts), C(Costs),
        CutoffDepth(effectiveCutoff(Opts.Cutoff, Opts.NumWorkers)) {
    for (int I = 0; I < Opts.NumWorkers; ++I)
      Workers.emplace_back(Opts.Seed + static_cast<std::uint64_t>(I));
    if (Log && Log->numWorkers() >= Opts.NumWorkers) {
      Log->Meta.Scheduler = schedulerKindName(Opts.Kind);
      Log->Meta.Source = "sim";
      for (int I = 0; I < Opts.NumWorkers; ++I)
        Workers[static_cast<std::size_t>(I)].TB = &Log->buffer(I);
    }
    if (Metrics) {
      Metrics->reset(Opts.NumWorkers);
      Metrics->Meta.Scheduler = schedulerKindName(Opts.Kind);
      Metrics->Meta.Source = "sim";
      for (int I = 0; I < Opts.NumWorkers; ++I) {
        WorkerMetricsCell &Cell = Metrics->cell(I);
        Cell.begin(0); // virtual clocks start at t = 0
        Workers[static_cast<std::size_t>(I)].MC = &Cell;
      }
    }
  }

  SimReport run();

private:
  bool isDequeBased() const {
    return Opts.Kind == SchedulerKind::Cilk ||
           Opts.Kind == SchedulerKind::CilkSynched ||
           Opts.Kind == SchedulerKind::Cutoff ||
           Opts.Kind == SchedulerKind::AdaptiveTC;
  }

  void step(int Wi);
  void visitChild(SimWorker &W);
  void frameEnd(SimWorker &W);
  void idleStep(int Wi);
  void dequeStealAttempt(int Wi);
  void tascellIdle(int Wi);
  void tascellPoll(int Wi);
  Job *newJob(long long Remaining, Job *Parent) {
    JobArena.push_back({Remaining, Parent});
    return &JobArena.back();
  }
  static bool jobsDone(const SimFrame &F) {
    for (const Job *J : F.WaitJobs)
      if (J->Remaining > 0)
        return false;
    return true;
  }
  void chargeSpawn(SimWorker &W, bool IsSpecial);

  /// Worker \p Wi's next victim, chosen by the runtime kernel's own
  /// function (core/kernel/StealDecisions.h) from the worker's PRNG.
  int nextVictim(int Wi) {
    return chooseVictim(Opts.NumWorkers, Wi,
                        Workers[static_cast<std::size_t>(Wi)].Rng);
  }

  /// Mirrors \p W's stealable-frame count into its metrics cell — the sim
  /// analogue of the deques' depth gauge — and tracks the high-water.
  void publishSimDepth(SimWorker &W) {
    if (W.OpenStealable > W.Stats.DequeHighWater)
      W.Stats.DequeHighWater = W.OpenStealable;
    ATC_METRIC(W.MC, dequeDepthGauge().store(W.OpenStealable,
                                             std::memory_order_relaxed));
  }

  /// Emits \p K on \p W's ring stamped with its virtual clock.
  void emit(SimWorker &W, TraceEventKind K, std::uint32_t A = 0,
            std::uint16_t B = 0) {
    ATC_TRACE_EVENT_AT(W.TB, static_cast<std::uint64_t>(W.Now), K, A, B);
  }

  /// Re-derives \p W's mode from its stack top and records the change, if
  /// any, on both the trace ring and the metrics cell. Called once per
  /// step so virtual-time spans track the frame structure the way
  /// TraceModeScope tracks the real call structure.
  void syncTraceMode(SimWorker &W) {
    if (ATC_UNLIKELY(W.TB != nullptr || W.MC != nullptr)) {
      TraceMode M;
      if (W.Stack.empty()) {
        M = TraceMode::Idle;
      } else {
        const SimFrame &F = W.Stack.back();
        if (F.Next >= F.End && !F.WaitJobs.empty() && !jobsDone(F))
          M = TraceMode::SyncWait;
        else if (Opts.Kind == SchedulerKind::Tascell)
          M = TraceMode::Work;
        else
          M = traceModeFor(F.Mode);
      }
      ATC_TRACE_MODE_AT(W.TB, static_cast<std::uint64_t>(W.Now), M);
      ATC_METRIC(W.MC, setModeAt(static_cast<std::uint64_t>(W.Now), M));
    }
  }

  const SimTree &Tree;
  const SimOptions Opts;
  const CostModel &C;
  const int CutoffDepth;

  std::vector<SimWorker> Workers;
  std::deque<Job> JobArena;
  std::vector<SimTreeNode> KidsScratch;

  long long Processed = 0;
  SimReport R;
};

void Simulator::chargeSpawn(SimWorker &W, bool IsSpecial) {
  double Ns = C.TaskCreateNs + C.DequeOpNs +
              C.CopyNsPerByte * C.StateBytes;
  if (Opts.Kind == SchedulerKind::Cilk)
    Ns += C.AllocNs; // SYNCHED/pooled kinds reuse workspace memory
  if (IsSpecial)
    Ns += C.SpecialTaskNs;
  W.Now += Ns;
  W.B.OverheadNs += Ns;
  ++R.TasksCreated;
  ++R.Copies;
  ++W.Stats.TasksCreated;
  ++W.Stats.Spawns;
  ++W.Stats.WorkspaceCopies;
  W.Stats.CopiedBytes += static_cast<std::uint64_t>(C.StateBytes);
  ATC_METRIC(W.MC, SpawnCostNs.record(static_cast<std::uint64_t>(Ns)));
}

SimReport Simulator::run() {
  R = SimReport();
  R.PerWorker.assign(static_cast<std::size_t>(Opts.NumWorkers), {});
  R.SerialNs = static_cast<double>(Tree.spec().TotalNodes) * C.NodeWorkNs;

  // Worker 0 visits the root.
  {
    SimWorker &W = Workers[0];
    W.Now += C.NodeWorkNs;
    W.B.WorkNs += C.NodeWorkNs;
    ++Processed;
    SimTreeNode Root = Tree.root();
    Tree.children(Root, KidsScratch);
    if (!KidsScratch.empty()) {
      SimFrame F;
      F.Kids = KidsScratch;
      F.End = static_cast<int>(F.Kids.size());
      F.Dp = 0;
      switch (Opts.Kind) {
      case SchedulerKind::Cilk:
      case SchedulerKind::CilkSynched:
      case SchedulerKind::Cutoff:
      case SchedulerKind::AdaptiveTC:
        F.Mode = CodeVersion::Fast;
        F.Stealable = true;
        W.OpenStealable = 1;
        R.MaxStealableFrames = 1;
        publishSimDepth(W);
        chargeSpawn(W, false); // the root task itself
        emit(W, TraceEventKind::SpawnReal,
             static_cast<std::uint32_t>(F.Mode), 0);
        break;
      case SchedulerKind::Tascell:
      case SchedulerKind::Sequential:
        F.Mode = CodeVersion::Sequence;
        break;
      }
      W.Stack.push_back(std::move(F));
    }
    W.LastProductive = W.Now;
  }

  // Min-time stepping until every stack has drained.
  for (;;) {
    int Best = -1;
    double BestNow = std::numeric_limits<double>::max();
    for (int I = 0; I < Opts.NumWorkers; ++I) {
      SimWorker &W = Workers[I];
      bool Active = !W.Stack.empty() ||
                    (Processed < Tree.spec().TotalNodes) ||
                    W.WaitingOn != -1;
      if (Active && W.Now < BestNow) {
        BestNow = W.Now;
        Best = I;
      }
    }
    if (Best < 0)
      break;
#ifdef ATC_SIM_TRACE
    static long long StepCount = 0;
    if (++StepCount % 10000000 == 0) {
      std::fprintf(stderr, "steps=%lldM processed=%lld/%lld best=w%d now=%.0f stack=%zu\n",
                   StepCount/1000000, Processed, Tree.spec().TotalNodes, Best,
                   Workers[Best].Now, Workers[Best].Stack.size());
    }
#endif
    assert((Processed < Tree.spec().TotalNodes ||
            !Workers[static_cast<std::size_t>(Best)].Stack.empty() ||
            Workers[static_cast<std::size_t>(Best)].WaitingOn != -1) &&
           "active worker with nothing to do");
    step(Best);
  }
  assert(Processed == Tree.spec().TotalNodes &&
         "simulation lost track of nodes (tree sizes must partition)");

  for (int I = 0; I < Opts.NumWorkers; ++I) {
    SimWorker &W = Workers[static_cast<std::size_t>(I)];
    R.PerWorker[static_cast<std::size_t>(I)] = W.B;
    R.Total += W.B;
    R.MakespanNs = std::max(R.MakespanNs, W.LastProductive);
    // Final exact publish: after this the registry's aggregate equals the
    // SimReport counters (the same contract the real runtime keeps with
    // SchedulerStats).
    syncTraceMode(W);
    ATC_METRIC(W.MC, publishStats(W.Stats));
  }
  R.NodesProcessed = Processed;
  return R;
}

void Simulator::step(int Wi) {
  SimWorker &W = Workers[static_cast<std::size_t>(Wi)];
  if (W.Stack.empty()) {
    if (W.IdleStart < 0)
      W.IdleStart = W.Now;
    syncTraceMode(W); // idle span begins before the attempt's events
    idleStep(Wi);
    if (!W.Stack.empty() && W.IdleStart >= 0) {
      // Acquired work: the whole empty-stack span was steal latency.
      double Waited = W.Now - W.IdleStart;
      W.IdleStart = -1;
      W.Stats.StealWaitNs += static_cast<std::uint64_t>(Waited);
      ATC_METRIC(W.MC, StealLatencyNs.record(
                           static_cast<std::uint64_t>(Waited)));
      ATC_METRIC(W.MC, publishStats(W.Stats));
    }
    syncTraceMode(W);
    return;
  }
  if (Opts.Kind == SchedulerKind::Tascell)
    tascellPoll(Wi);
  SimFrame &F = W.Stack.back();
  if (F.Next < F.End)
    visitChild(W);
  else
    frameEnd(W);
  syncTraceMode(W);
}

void Simulator::visitChild(SimWorker &W) {
  SimFrame &F = W.Stack.back();
  // A stolen range starts at index 0 of the thief's frame, so this is
  // also the first child after a resume, as in the kernel's slow version.
  const bool FirstChild = F.Next == 0;
  SimTreeNode Node = F.Kids[static_cast<std::size_t>(F.Next++)];

  // Determine the child's dispatch (edge) from the parent frame's mode
  // via the shared FSM/policy table, then translate the transition into
  // the simulator's cost charges.
  const FsmTransition T =
      dispatchChild(Opts.Kind, CutoffDepth, F.Mode, F.Dp, W.NeedTask,
                    FirstChild, Opts.Fsm);
  const CodeVersion ChildMode = T.Child;
  const int ChildDp = T.ChildDp;
  const bool Spawned = T.SpawnTask;  // real task: frame + deque + copy
  const bool ChildStealable = Spawned && isDequeBased();
  bool Special = false;              // ATC special-task transition
  Job *ChildJob = F.NodeJob;

  // The FSM flags a poll on check-version edges; the fast version's
  // over-cutoff edge (Fast -> Check) also tests need_task once in the
  // generated code, so charge it too.
  const bool Polled =
      T.PolledNeedTask ||
      (F.Mode == CodeVersion::Fast && T.Child == CodeVersion::Check);

  if (T.SpecialPush) {
    // Publish: create a special task for this level (once) and run the
    // child through fast_2 with the spawn depth reset to 0. The child's
    // whole subtree is tracked by a job the special must await
    // (sync_specialtask).
    Special = !F.SpecialMade;
    F.SpecialMade = true;
    ChildJob = newJob(Node.Size - 1, F.NodeJob);
    F.WaitJobs.push_back(ChildJob);
    if (Special) {
      ++R.SpecialTasks;
      ++W.Stats.SpecialTasks;
      ATC_METRIC(W.MC, recordReseed(static_cast<std::uint64_t>(W.Now)));
      emit(W, TraceEventKind::NeedTaskObserve, 0,
           static_cast<std::uint16_t>(W.Stack.size()));
    }
    emit(W, TraceEventKind::SpecialPush, 0,
         static_cast<std::uint16_t>(W.Stack.size()));
  }

  if (Opts.Kind == SchedulerKind::Cutoff && !Spawned &&
      Opts.CutoffCopiesEverywhere) {
    // Cutoff-library: workspace copying is not elided below the cut-off
    // (no taskprivate support in the runtime).
    double Ns = C.AllocNs + C.CopyNsPerByte * C.StateBytes;
    W.Now += Ns;
    W.B.OverheadNs += Ns;
    ++R.Copies;
    ++W.Stats.WorkspaceCopies;
    W.Stats.CopiedBytes += static_cast<std::uint64_t>(C.StateBytes);
  }

  // Charge the node's work and the edge overheads.
  W.Now += C.NodeWorkNs;
  W.B.WorkNs += C.NodeWorkNs;
  if (Spawned) {
    chargeSpawn(W, Special);
    ATC_METRIC(W.MC, DequeDepth.record(
                         static_cast<std::uint64_t>(W.OpenStealable)));
    emit(W, TraceEventKind::SpawnReal,
         static_cast<std::uint32_t>(ChildMode),
         static_cast<std::uint16_t>(W.Stack.size()));
  } else {
    ++R.FakeNodes;
    ++W.Stats.FakeTasks;
    // As in the real runtime: one spawn-fake per fake-task subtree entry,
    // not per node (R.FakeNodes has the exact count).
    if (ChildMode == CodeVersion::Check && F.Mode != CodeVersion::Check)
      emit(W, TraceEventKind::SpawnFake, 0,
           static_cast<std::uint16_t>(W.Stack.size()));
  }
  if (Polled || Opts.Kind == SchedulerKind::Tascell) {
    W.Now += C.PollNs;
    W.B.PollNs += C.PollNs;
    ++W.Stats.Polls;
  }
  if (Opts.Kind == SchedulerKind::Tascell) {
    // Nested-function (choice point) management on the shadow stack.
    W.Now += C.TascellFrameNs;
    W.B.OverheadNs += C.TascellFrameNs;
  }

  // Account the node against its completion jobs. A job created here (an
  // ATC publish) was sized to the node's *descendants*, so the node
  // itself only counts against the enclosing chain.
  ++Processed;
  for (Job *J = F.NodeJob; J; J = J->Parent)
    --J->Remaining;

  W.LastProductive = W.Now;
  if (F.Stealable && F.Next == F.End) {
    --W.OpenStealable; // level exhausted: no longer steal material
    publishSimDepth(W);
  }

  // Expand and push the child's level.
  Tree.children(Node, KidsScratch);
  if (KidsScratch.empty())
    return;
  SimFrame NF;
  NF.Kids = KidsScratch;
  NF.End = static_cast<int>(NF.Kids.size());
  NF.Mode = ChildMode;
  NF.Dp = ChildDp;
  NF.Stealable = ChildStealable;
  NF.NodeJob = ChildJob;
  if (NF.Stealable) {
    ++W.OpenStealable;
    R.MaxStealableFrames = std::max(R.MaxStealableFrames, W.OpenStealable);
    publishSimDepth(W);
  }
  W.Stack.push_back(std::move(NF));
}

void Simulator::frameEnd(SimWorker &W) {
  SimFrame &F = W.Stack.back();
  if (!F.WaitJobs.empty() && !jobsDone(F)) {
    if (!F.TraceWaiting) {
      F.TraceWaiting = true;
      emit(W, TraceEventKind::WaitChildrenBegin, 0,
           static_cast<std::uint16_t>(W.Stack.size()));
    }
    // sync_specialtask / Tascell wait_children: cannot suspend; sleep and
    // re-check (usleep(100) in the real systems).
    W.Now += C.SleepNs;
    W.B.WaitChildrenNs += C.SleepNs;
    W.Stats.WaitChildrenNs += static_cast<std::uint64_t>(C.SleepNs);
    return;
  }
  if (F.TraceWaiting)
    emit(W, TraceEventKind::WaitChildrenEnd, 0,
         static_cast<std::uint16_t>(W.Stack.size()));
  if (!F.WaitJobs.empty())
    W.LastProductive = W.Now; // children joined: result materializes now
  W.Stack.pop_back();
}

void Simulator::idleStep(int Wi) {
  if (Opts.Kind == SchedulerKind::Tascell) {
    tascellIdle(Wi);
    return;
  }
  dequeStealAttempt(Wi);
}

void Simulator::dequeStealAttempt(int Wi) {
  SimWorker &W = Workers[static_cast<std::size_t>(Wi)];
  if (Opts.NumWorkers == 1) {
    W.Now += C.StealFailNs;
    return;
  }
  const int Vi = nextVictim(Wi);
  SimWorker &V = Workers[static_cast<std::size_t>(Vi)];
  ++W.Stats.StealAttempts;
  emit(W, TraceEventKind::StealAttempt, static_cast<std::uint32_t>(Vi));

  // Oldest stealable frame with untried siblings. The victim's *top*
  // frame's next child is not stealable: in the real runtime the deque
  // entry is the continuation of an in-flight spawn, so the child the
  // victim is about to execute is never exposed (taking it would let two
  // idle workers ping-pong a continuation without ever running a node).
  SimFrame *Target = nullptr;
  int StealBegin = 0;
  for (std::size_t I = 0; I < V.Stack.size(); ++I) {
    SimFrame &F = V.Stack[I];
    bool IsTop = (I + 1 == V.Stack.size());
    int Begin = F.Next + (IsTop ? 1 : 0);
    if (F.Stealable && Begin < F.End) {
      Target = &F;
      StealBegin = Begin;
      break;
    }
  }

  if (!Target) {
    ++R.StealFails;
    ++W.Stats.StealFails;
    ++W.FailStreak;
    // Light backoff only: Cilk-style thieves retry at memory-latency
    // timescales; aggressive sleeping would starve the need_task
    // signalling path (stolen_num accumulates per failed attempt), so
    // the linear ramp caps at 20 steps.
    double Ns = C.StealFailNs;
    if (W.FailStreak > 8)
      Ns += 100.0 * std::min(W.FailStreak - 8, 20);
    W.Now += Ns;
    W.B.IdleNs += Ns;
    emit(W, TraceEventKind::StealFail, static_cast<std::uint32_t>(Vi));
    if (Opts.Kind != SchedulerKind::AdaptiveTC)
      return;
    const NeedTaskSignal Signal =
        needTaskSignal(++V.StolenNum, Opts.MaxStolenNum);
    if (Signal != NeedTaskSignal::Below) {
      V.NeedTask = true;
      ATC_METRIC(V.MC, setNeedTask(true));
      if (Signal == NeedTaskSignal::Crossing)
        emit(W, TraceEventKind::NeedTaskRaise,
             static_cast<std::uint32_t>(Vi));
    }
    return;
  }

  // Steal the continuation: the whole untried range moves to the thief.
  ++R.Steals;
  ++W.Stats.Steals;
  W.FailStreak = 0;
  V.StolenNum = 0;
  V.NeedTask = false;
  ATC_METRIC(V.MC, setNeedTask(false));
  W.Now += C.StealNs;
  W.B.IdleNs += C.StealNs;
  emit(W, TraceEventKind::StealSuccess, static_cast<std::uint32_t>(Vi));

  // Detach the untried range [StealBegin, End) of the victim frame as a
  // fresh thief frame on W's stack.
  SimFrame &F = *Target;
  SimFrame TF;
  TF.Kids.assign(F.Kids.begin() + StealBegin, F.Kids.begin() + F.End);
  TF.End = static_cast<int>(TF.Kids.size());
  // The slow version dispatches children through the fast/check rule
  // regardless of which version originally spawned the task — so a
  // stolen fast_2 continuation re-enters poll-capable fast mode.
  TF.Mode = CodeVersion::Fast;
  TF.Dp = F.Dp;
  TF.Stealable = true;
  TF.NodeJob = F.NodeJob;
  F.End = StealBegin; // victim keeps only its in-flight child
  if (F.Next >= F.End) {
    --V.OpenStealable;
    publishSimDepth(V);
  }
  ++W.OpenStealable;
  R.MaxStealableFrames = std::max(R.MaxStealableFrames, W.OpenStealable);
  publishSimDepth(W);
  W.Stack.push_back(std::move(TF));
  W.LastProductive = W.Now;
}

void Simulator::tascellIdle(int Wi) {
  SimWorker &W = Workers[static_cast<std::size_t>(Wi)];
  if (Opts.NumWorkers == 1) {
    W.Now += C.SleepNs;
    return;
  }

  // All work done: abandon any pending request so the run can terminate
  // (the real runtime's Done flag).
  if (Processed >= Tree.spec().TotalNodes) {
    W.WaitingOn = -1;
    return;
  }

  if (W.WaitingOn < 0) {
    // Post a request to a uniformly random victim.
    const int Vi = nextVictim(Wi);
    Workers[static_cast<std::size_t>(Vi)].Mailbox.push_back(Wi);
    W.WaitingOn = Vi;
    W.HasResponse = false;
    ++R.Requests;
    ++W.Stats.Requests;
    ++W.Stats.StealAttempts;
    W.Now += C.PollNs;
    emit(W, TraceEventKind::StealAttempt, static_cast<std::uint32_t>(Vi));
    return;
  }

  if (W.HasResponse && W.Now >= W.Response.ReadyAt) {
    int Vi = W.WaitingOn;
    W.WaitingOn = -1;
    if (W.Response.Deny) {
      ++R.StealFails;
      ++W.Stats.StealFails;
      ++W.FailStreak;
      W.B.IdleNs += C.RequestRoundTripNs;
      W.Now += C.RequestRoundTripNs;
      emit(W, TraceEventKind::StealFail, static_cast<std::uint32_t>(Vi));
      return;
    }
    ++R.Steals;
    ++W.Stats.Steals;
    W.FailStreak = 0;
    W.Now = std::max(W.Now, W.Response.ReadyAt) + C.RequestRoundTripNs;
    W.B.IdleNs += C.RequestRoundTripNs;
    W.Stack.push_back(std::move(W.Response.Frame));
    W.LastProductive = W.Now;
    emit(W, TraceEventKind::StealSuccess, static_cast<std::uint32_t>(Vi));
    return;
  }

  // Still waiting: sleep-poll (also answer our own mailbox with denials
  // so idle workers do not deadlock on each other).
  for (int Req : W.Mailbox) {
    SimWorker &Rq = Workers[static_cast<std::size_t>(Req)];
    Rq.HasResponse = true;
    Rq.Response.Deny = true;
    Rq.Response.ReadyAt = W.Now;
    ++R.RequestsDenied;
    ++W.Stats.RequestsDenied;
  }
  W.Mailbox.clear();
  double Ns = C.SleepNs / 2;
  W.Now += Ns;
  W.B.IdleNs += Ns;
}

void Simulator::tascellPoll(int Wi) {
  SimWorker &W = Workers[static_cast<std::size_t>(Wi)];
  if (W.Mailbox.empty())
    return;
  int Req = W.Mailbox.back();
  W.Mailbox.pop_back();
  SimWorker &Rq = Workers[static_cast<std::size_t>(Req)];

  // Oldest level with untried choices.
  std::size_t Split = W.Stack.size();
  for (std::size_t I = 0; I < W.Stack.size(); ++I)
    if (W.Stack[I].Next < W.Stack[I].End) {
      Split = I;
      break;
    }
  if (Split == W.Stack.size()) {
    Rq.HasResponse = true;
    Rq.Response.Deny = true;
    Rq.Response.ReadyAt = W.Now;
    ++R.RequestsDenied;
    ++W.Stats.RequestsDenied;
    return;
  }

  SimFrame &F = W.Stack[Split];
  int Untried = F.End - F.Next;
  int Give = (Untried + 1) / 2;

  // Temporary backtracking: undo/redo down to the split level + one
  // workspace copy.
  double Cost = 2.0 * static_cast<double>(W.Stack.size() - Split) *
                    C.BacktrackStepNs +
                C.CopyNsPerByte * C.StateBytes;
  W.Now += Cost;
  W.B.OverheadNs += Cost;
  ++R.Copies;
  ++W.Stats.WorkspaceCopies;
  W.Stats.CopiedBytes += static_cast<std::uint64_t>(C.StateBytes);
  W.Stats.BacktrackSteps += 2 * (W.Stack.size() - Split);
  ATC_METRIC(W.MC, SpawnCostNs.record(static_cast<std::uint64_t>(Cost)));

  long long DonatedNodes = 0;
  SimFrame DF;
  DF.Kids.assign(F.Kids.begin() + (F.End - Give), F.Kids.begin() + F.End);
  for (const SimTreeNode &K : DF.Kids)
    DonatedNodes += K.Size;
  DF.End = static_cast<int>(DF.Kids.size());
  DF.Mode = CodeVersion::Sequence;
  Job *J = newJob(DonatedNodes, F.NodeJob);
  DF.NodeJob = J;
  F.WaitJobs.push_back(J);
  F.End -= Give;

  Rq.HasResponse = true;
  Rq.Response.Deny = false;
  Rq.Response.ReadyAt = W.Now;
  Rq.Response.Frame = std::move(DF);
  // Victim-side record, as in TascellPolicy::respond.
  emit(W, TraceEventKind::Donation, static_cast<std::uint32_t>(Req),
       static_cast<std::uint16_t>(Split));
}

} // namespace

SimReport atc::simulate(const SimTree &Tree, const SimOptions &Opts,
                        const CostModel &Costs, TraceLog *Log,
                        MetricsRegistry *Metrics) {
  Simulator S(Tree, Opts, Costs, Log, Metrics);
  return S.run();
}
