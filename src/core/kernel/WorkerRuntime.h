//===- core/kernel/WorkerRuntime.h - Shared scheduler kernel ----*- C++ -*-===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scheduler kernel every SchedulerKind runs on: worker threads, the
/// steal loop (pluggable victim ordering — see StealDecisions.h — plus the
/// steal-half stash drain, a yield budget sized to the need_task threshold
/// before truncated-exponential sleeps, and the paper's stolen_num /
/// need_task signalling), termination detection, result
/// publication and statistics aggregation live here — once. What differs
/// between systems (how work is represented, acquired from a victim, and
/// executed) is supplied by a policy class:
///
///   layering    WorkerRuntime<Policy>        (this file: threads, steal
///       |                                     loop, backoff, signalling,
///       |                                     termination, stats)
///       +------- FramePolicy<P, DequeT, TC>  (deque-based kinds: frames,
///       |                                     join protocol, arenas; TC is
///       |                                     a TaskCreationPolicy)
///       +------- TascellPolicy<P>            (mailbox request/donation)
///
/// Policy requirements (duck-typed; see FramePolicy.h / TascellPolicy.h
/// for the two implementations):
///
///   using Worker = ...;   // derives KernelWorker
///   using Result = ...;   // default-constructible
///   using Task   = ...;   // cheap handle, e.g. a frame or donation ptr
///
///   std::unique_ptr<Worker> makeWorker(int Id);
///   void beginRun(WorkerRuntime<Policy> &Rt);   // per-run setup
///   void endRun();                              // per-run teardown
///   // Root execution on worker 0; returns whether worker 0 should enter
///   // the steal loop afterwards (false when the root runs to completion
///   // inline, as in Tascell).
///   bool runRoot(Worker &W0);
///   // One acquire attempt against a chosen victim. Must not execute the
///   // task (the kernel accounts idle time up to the acquire, then calls
///   // execute) and must do its own policy-specific failure counting
///   // (EmptyProbes, RequestsDenied, ...).
///   AcquireOutcome tryAcquire(Worker &Thief, Worker &Victim, bool Helping,
///                             Task &Out);
///   // Hands back work the thief already owns (the steal-half surplus
///   // stash); the kernel drains this before picking a victim. Policies
///   // without batch acquisition return false unconditionally.
///   bool takeStashed(Worker &Thief, Task &Out);
///   void execute(Worker &W, Task T);
///   // Fold policy-owned state (deque counters, arena stats, unflushed
///   // locals) into the run total; runs on the main thread after join.
///   void aggregateWorker(SchedulerStats &Total, Worker &W);
///
//===----------------------------------------------------------------------===//

#ifndef ATC_CORE_KERNEL_WORKERRUNTIME_H
#define ATC_CORE_KERNEL_WORKERRUNTIME_H

#include "core/Backoff.h"
#include "core/Executor.h"
#include "core/Scheduler.h"
#include "core/SchedulerStats.h"
#include "core/kernel/KernelWorker.h"
#include "core/kernel/StealDecisions.h"
#include "core/tuning/TuningController.h"
#include "metrics/MetricsRegistry.h"
#include "support/Compiler.h"
#include "support/Timer.h"
#include "trace/TraceLog.h"

#include <atomic>
#include <cassert>
#include <climits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace atc {

/// Result of one Policy::tryAcquire attempt.
enum class AcquireOutcome {
  Acquired,   ///< Task holds acquired work.
  Failed,     ///< Nothing acquired (empty victim, lost race, denial).
  Terminated, ///< The run completed while waiting; stop acquiring.
};

/// The shared scheduler kernel; see the file comment for the Policy
/// contract. One instance per run configuration; run() executes the
/// computation the policy was constructed around and may be called
/// repeatedly (workers and stats are rebuilt per run).
template <typename Policy> class WorkerRuntime {
public:
  using Worker = typename Policy::Worker;
  using Result = typename Policy::Result;
  using Task = typename Policy::Task;

  WorkerRuntime(Policy &Pol, const SchedulerConfig &Cfg)
      : Pol(Pol), Cfg(Cfg) {
    assert(Cfg.NumWorkers >= 1 && "need at least one worker");
  }

  WorkerRuntime(const WorkerRuntime &) = delete;
  WorkerRuntime &operator=(const WorkerRuntime &) = delete;

  /// Executes the policy's computation and returns its result.
  Result run() {
    Done.store(false, std::memory_order_relaxed);
    HaveResult = false;
    FinalResult = Result{};
    Workers.clear();
    for (int I = 0; I < Cfg.NumWorkers; ++I)
      Workers.push_back(Pol.makeWorker(I));
    Log.reset();
#if ATC_TRACE_ENABLED
    if (Cfg.Trace) {
      Log = std::make_shared<TraceLog>(
          Cfg.NumWorkers, static_cast<std::size_t>(Cfg.TraceCap));
      Log->Meta.Scheduler = schedulerKindName(Cfg.Kind);
      Log->Meta.Source = "runtime";
      for (int I = 0; I < Cfg.NumWorkers; ++I)
        Workers[static_cast<std::size_t>(I)]->Trace = &Log->buffer(I);
    }
#endif
    Reg.reset();
#if ATC_METRICS_ENABLED
    // Tuning implies metrics: the controllers' only inputs are the
    // cells, so an armed Cfg.Tuning arms the registry too.
    bool WantTuning = false;
#if ATC_TUNING_ENABLED
    WantTuning = Cfg.Tuning;
#endif
    if (Cfg.Metrics || Cfg.MetricsSink != nullptr || WantTuning) {
      if (Cfg.MetricsSink != nullptr) {
        // Non-owning alias: the owner (a CLI session or a job server)
        // keeps the sink alive and may be reading it concurrently from
        // a sampler or /metrics thread, so re-arm cells in place (no
        // reallocation — rearm() never shrinks) and leave Meta alone:
        // Meta is unsynchronized strings, and the owner already labels
        // its own registry. RunResult still carries a handle to it.
        Reg = std::shared_ptr<MetricsRegistry>(Cfg.MetricsSink,
                                               [](MetricsRegistry *) {});
        Reg->rearm(Cfg.NumWorkers);
      } else {
        Reg = std::make_shared<MetricsRegistry>();
        Reg->reset(Cfg.NumWorkers);
        Reg->Meta.Scheduler = schedulerKindName(Cfg.Kind);
        Reg->Meta.Source = "runtime";
      }
      std::uint64_t ArmNs = nowNanos();
      for (int I = 0; I < Cfg.NumWorkers; ++I) {
        WorkerMetricsCell &Cell = Reg->cell(I);
        Cell.begin(ArmNs);
        Workers[static_cast<std::size_t>(I)]->Metrics = &Cell;
      }
#if ATC_TUNING_ENABLED
      Tuners.clear();
      if (WantTuning) {
        // One controller per worker, knobs seeded from the run config;
        // publish immediately so the atc_tune_* gauges show the armed
        // initial values before the first rule window closes.
        for (int I = 0; I < Cfg.NumWorkers; ++I) {
          auto T = std::make_unique<TuningController>();
          T->arm(Cfg.effectiveCutoff(), Cfg.MaxStolenNum);
          T->publishTo(Reg->cell(I));
          Workers[static_cast<std::size_t>(I)]->Tune = T.get();
          Tuners.push_back(std::move(T));
        }
      }
#endif
    }
#endif
    Pol.beginRun(*this);

    if (Cfg.NumWorkers == 1) {
      // Single worker: run inline (no thread spawn) — this is the
      // configuration the paper's Table 2 overhead measurements use.
      workerMain(0);
    } else if (Cfg.Executor != nullptr) {
      // Externally owned execution strategy (a persistent SchedulerPool
      // in the server): the same worker loops, somebody else's threads.
      Cfg.Executor->dispatch(Cfg.NumWorkers,
                             [this](int I) { workerMain(I); });
    } else {
      // Per-run threads: the historical one-shot behaviour.
      std::vector<std::thread> Threads;
      Threads.reserve(static_cast<std::size_t>(Cfg.NumWorkers));
      for (int I = 0; I < Cfg.NumWorkers; ++I)
        Threads.emplace_back([this, I] { workerMain(I); });
      for (std::thread &T : Threads)
        T.join();
    }

    Total = SchedulerStats();
    for (int I = 0; I < Cfg.NumWorkers; ++I) {
      Worker &W = *Workers[static_cast<std::size_t>(I)];
      // Fold the policy-owned counters into a per-worker view first (the
      // sum over workers is unchanged: counters add, gauges max), then
      // mirror it to the worker's metric cell — after the join this is
      // the *exact* final publish, so a post-run snapshot reconstructs
      // SchedulerStats field for field.
      SchedulerStats PerWorker = W.Stats;
      Pol.aggregateWorker(PerWorker, W);
      ATC_METRIC(W.Metrics, publishStats(PerWorker));
      Total += PerWorker;
    }
    Pol.endRun();

    assert(HaveResult && "computation finished without a result");
    return FinalResult;
  }

  /// Aggregated statistics of the last run().
  const SchedulerStats &stats() const { return Total; }

  /// The last run's event trace, or null when untraced (Cfg.Trace off or
  /// the ATC_TRACE=OFF build). Shared so RunResult can outlive this
  /// runtime.
  std::shared_ptr<TraceLog> traceLog() const { return Log; }

  /// The last run's metrics registry, or null when unmetered (Cfg.Metrics
  /// off or the ATC_METRICS=OFF build). Non-owning alias when the run
  /// published into an external Cfg.MetricsSink.
  std::shared_ptr<MetricsRegistry> metricsRegistry() const { return Reg; }

  //===--------------------------------------------------------------------===//
  // Services for policies
  //===--------------------------------------------------------------------===//

  int numWorkers() const { return Cfg.NumWorkers; }
  const SchedulerConfig &config() const { return Cfg; }
  Worker &worker(int I) { return *Workers[static_cast<std::size_t>(I)]; }

  /// True once the final result has been published.
  bool done() const { return Done.load(std::memory_order_acquire); }

  /// Publishes the computation's final result and signals termination to
  /// every steal loop. Called exactly once per run (by whichever worker
  /// completes the root).
  void publishFinal(Result Value) {
    {
      std::lock_guard<std::mutex> Guard(ResultLock);
      FinalResult = Value;
      HaveResult = true;
    }
    Done.store(true, std::memory_order_release);
  }

  /// Help-first waiting: acquires and executes other work while \p
  /// NeedHelp stays true (the AdaptiveTC sync_specialtask wait). Rather
  /// than the paper's usleep(100) poll this is work-conserving — each
  /// executed task is counted in HelpSteals — backing off through the
  /// shared idle ladder (idleBackoff) only when there is nothing to take.
  /// Helping can deepen the native stack (stolen work can reach another
  /// sync in turn), trading stack depth for zero idle time — the usual
  /// help-first bargain.
  template <typename Pred> void helpWhile(Worker &W, Pred &&NeedHelp) {
    TraceModeScope TraceSync(W.Trace, TraceMode::SyncWait);
    MetricsModeScope MetricsSync(W.Metrics, TraceMode::SyncWait);
    int FailStreak = 0;
    while (NeedHelp()) {
      if (Cfg.NumWorkers > 1) {
        Task T;
        if (acquireOnce(W, /*Helping=*/true, T, FailStreak) ==
            AcquireOutcome::Acquired) {
          Pol.execute(W, T);
          FailStreak = 0;
          continue;
        }
      }
      countFailure(FailStreak);
      idleBackoff(W, FailStreak);
    }
  }

private:
  void workerMain(int Id) {
    Worker &W = *Workers[static_cast<std::size_t>(Id)];
    bool EnterStealLoop = true;
    if (Id == 0)
      EnterStealLoop = Pol.runRoot(W);
    if (EnterStealLoop)
      stealLoop(W);
  }

  /// The idle loop: acquire work until the run terminates, accounting
  /// idle time into StealWaitNs. Idle time is flushed *before* executing
  /// acquired work so execution never counts as waiting.
  void stealLoop(Worker &W) {
    if (Cfg.NumWorkers == 1)
      return;
    // The loop is the worker's idle span; executing acquired work flips
    // the mode from inside Pol.execute and restores it on return.
    TraceModeScope TraceIdle(W.Trace, TraceMode::Idle);
    MetricsModeScope MetricsIdle(W.Metrics, TraceMode::Idle);
    int FailStreak = 0;
    std::uint64_t IdleBegin = nowNanos();
    while (!Done.load(std::memory_order_acquire)) {
      Task T;
      AcquireOutcome O = acquireOnce(W, /*Helping=*/false, T, FailStreak);
      if (O == AcquireOutcome::Acquired) {
        FailStreak = 0;
        std::uint64_t Waited = nowNanos() - IdleBegin;
        W.Stats.StealWaitNs += Waited;
        // The steal-latency histogram (idle-to-acquire) reuses the clock
        // reads the StealWaitNs accounting already pays for; the mirror
        // flush here is the thief's bounded-frequency publication point.
        ATC_METRIC(W.Metrics, StealLatencyNs.record(Waited));
        ATC_METRIC(W.Metrics, publishStats(W.Stats));
        // Thief-side tune opportunity: the cell was just made fresh and
        // the clock already read — the cheapest place to close a window.
        ATC_TUNE(W.Tune, maybeTune(nowNanos(), *W.Metrics));
        Pol.execute(W, T);
        IdleBegin = nowNanos();
        continue;
      }
      if (O == AcquireOutcome::Terminated)
        break;
      countFailure(FailStreak);
#if ATC_TUNING_ENABLED
      if (ATC_UNLIKELY(W.Tune != nullptr) && (FailStreak & 15) == 0) {
        // Starving thief: flush the failure counters so the controller
        // sees them, then evaluate — the max_stolen/backoff rules must
        // fire even when no steal ever succeeds. Off the hot path (the
        // worker is idle and about to back off anyway).
        ATC_METRIC(W.Metrics, publishStats(W.Stats));
        W.Tune->maybeTune(nowNanos(), *W.Metrics);
      }
#endif
      idleBackoff(W, FailStreak);
    }
    W.Stats.StealWaitNs += nowNanos() - IdleBegin;
  }

  /// Extends a thief's failure streak, saturating: with a huge
  /// max_stolen_num the yield budget is unbounded too, and a starving
  /// thief may fail more than INT_MAX times.
  static void countFailure(int &FailStreak) {
    if (FailStreak < INT_MAX)
      ++FailStreak;
  }

  /// One idle step after \p FailStreak consecutive failures: yield while
  /// the streak is within the thief's idleSpinBudget (so its attempts
  /// alone can drive a busy victim through the need_task threshold —
  /// the thief's live max_stolen_num, the same knob that bounds its
  /// steal-half raids), then sleep up to the thief's live backoff cap.
  void idleBackoff(const Worker &W, int FailStreak) const {
    const int Budget = idleSpinBudget(
        Cfg.NumWorkers, liveMaxStolen(W.Tune, Cfg.MaxStolenNum));
    stealBackoff(FailStreak, Budget, liveBackoffShift(W.Tune));
  }

  /// One acquire attempt: drain any steal-half surplus the thief already
  /// holds, else pick a victim (chooseVictim), let the policy try to
  /// take work from it, then do the kernel-side bookkeeping — steal
  /// counters, affinity update, and the paper's stolen_num / need_task
  /// signalling. A failed attempt (including a policy-side emptiness
  /// probe) counts as a failed steal for that protocol, since an
  /// AdaptiveTC victim busy in fake tasks has an *empty* deque precisely
  /// when it needs to be told to publish special tasks. \p FailStreak is
  /// the caller's consecutive-failure count (Partitioned selection widens
  /// once it shows the local group is dry).
  AcquireOutcome acquireOnce(Worker &W, bool Helping, Task &Out,
                             int FailStreak) {
    assert(Cfg.NumWorkers > 1 && "acquire with no possible victim");
    // A stashed frame from an earlier steal-half batch is work this
    // thief already claimed (join counts were bumped at claim time):
    // take it before bothering another victim. Accounted as an attempt
    // plus a steal so StealAttempts == Steals + StealFails holds; no
    // victim-side signalling or steal-flow trace applies (no victim).
    if (Pol.takeStashed(W, Out)) {
      ++W.Stats.StealAttempts;
      ++W.Stats.Steals;
      if (Helping)
        ++W.Stats.HelpSteals;
      return AcquireOutcome::Acquired;
    }

    const auto [V, Affine] =
        chooseVictim(Cfg.Victim, Cfg.VictimGroupSize, Cfg.NumWorkers, W.Id,
                     W.LastVictim, FailStreak, W.Rng);
    Worker &Victim = *Workers[static_cast<std::size_t>(V)];

    ++W.Stats.StealAttempts;
    ATC_TRACE_EVENT(W.Trace, TraceEventKind::StealAttempt,
                    static_cast<std::uint32_t>(V));
    AcquireOutcome O = Pol.tryAcquire(W, Victim, Helping, Out);

    if (O == AcquireOutcome::Acquired) {
      ++W.Stats.Steals;
      ATC_TRACE_EVENT(W.Trace, TraceEventKind::StealSuccess,
                      static_cast<std::uint32_t>(V));
      if (Affine)
        ++W.Stats.AffinityHits;
      if (Helping)
        ++W.Stats.HelpSteals;
      W.LastVictim = V;
      // "When the thief thread succeeds in stealing a task, it clears the
      // victim thread's stolen_num and need_task."
      Victim.StolenNum.store(0, std::memory_order_relaxed);
      Victim.NeedTask.store(false, std::memory_order_relaxed);
      ATC_METRIC(Victim.Metrics, setNeedTask(false));
      return O;
    }
    if (O == AcquireOutcome::Terminated)
      return O;

    // Failed attempt: inform the victim it is being asked for tasks, and
    // stop favouring it.
    ++W.Stats.StealFails;
    ATC_TRACE_EVENT(W.Trace, TraceEventKind::StealFail,
                    static_cast<std::uint32_t>(V));
    W.LastVictim = -1;
    // The failed-steal threshold protects the *victim* (how hard thieves
    // may press before interrupting it), so a tuned victim's live knob
    // takes over from the run constant.
    const int Threshold = liveMaxStolen(Victim.Tune, Cfg.MaxStolenNum);
    int SN = Victim.StolenNum.fetch_add(1, std::memory_order_relaxed) + 1;
    if (SN > Threshold) {
      // Store only while the flag is still clear: the victim polls this
      // line on every fake-task child, and thieves keep failing against
      // it at yield speed until it responds.
      if (!Victim.NeedTask.load(std::memory_order_relaxed)) {
        Victim.NeedTask.store(true, std::memory_order_relaxed);
        ATC_METRIC(Victim.Metrics, setNeedTask(true));
      }
      // Record only the crossing, not every attempt past it — this is
      // the thief's record, on the thief's own ring (single-writer).
      if (SN == Threshold + 1)
        ATC_TRACE_EVENT(W.Trace, TraceEventKind::NeedTaskRaise,
                        static_cast<std::uint32_t>(V));
    }
    return O;
  }

  Policy &Pol;
  SchedulerConfig Cfg;
  std::vector<std::unique_ptr<Worker>> Workers;
#if ATC_TUNING_ENABLED
  /// Per-worker tuning controllers when Cfg.Tuning armed the run
  /// (rebuilt per run, like Workers; workers hold raw pointers).
  std::vector<std::unique_ptr<TuningController>> Tuners;
#endif
  std::shared_ptr<TraceLog> Log;
  std::shared_ptr<MetricsRegistry> Reg;
  std::atomic<bool> Done{false};
  std::mutex ResultLock;
  Result FinalResult{};
  bool HaveResult = false;
  SchedulerStats Total;
};

} // namespace atc

#endif // ATC_CORE_KERNEL_WORKERRUNTIME_H
