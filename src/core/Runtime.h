//===- core/Runtime.h - One-call scheduler dispatch -------------*- C++ -*-===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Convenience entry point: runs a SearchProblem under any SchedulerKind
/// with one call. This is the public API the examples, tests, and the
/// benchmark harnesses use.
///
/// \code
///   atc::NQueensArray Prob;
///   auto Root = atc::NQueensArray::makeRoot(12);
///   atc::SchedulerConfig Cfg;
///   Cfg.Kind = atc::SchedulerKind::AdaptiveTC;
///   Cfg.NumWorkers = 8;
///   atc::RunResult<long long> R = atc::runProblem(Prob, Root, Cfg);
///   // R.Value == 14200, R.Stats has the overhead counters.
/// \endcode
///
/// Every kind runs on the shared WorkerRuntime kernel
/// (core/kernel/WorkerRuntime.h); what varies is the policy it is
/// instantiated with — FramePolicy<P, TaskCreationPolicy> for the
/// deque-based kinds, TascellPolicy<P> for Tascell. The task-creation
/// strategy is a compile-time template parameter (no virtual dispatch on
/// the push/pop hot path); this function branches once per run to pick
/// the instantiation.
///
//===----------------------------------------------------------------------===//

#ifndef ATC_CORE_RUNTIME_H
#define ATC_CORE_RUNTIME_H

#include "core/Problem.h"
#include "core/Scheduler.h"
#include "core/kernel/FramePolicy.h"
#include "core/kernel/TascellPolicy.h"
#include "core/kernel/WorkerRuntime.h"

namespace atc {

/// Result value plus the run's scheduler statistics.
template <typename ResultT> struct RunResult {
  ResultT Value{};
  SchedulerStats Stats;

  /// The run's event trace when SchedulerConfig::Trace was armed; null
  /// otherwise. Export with writeChromeTraceFile (trace/TraceJson.h).
  std::shared_ptr<TraceLog> Trace;

  /// The run's live-metrics registry when SchedulerConfig::Metrics (or a
  /// MetricsSink) was armed; null otherwise. After the run the cells hold the final, exact per-worker
  /// state — sample() it for a post-run snapshot, or export with
  /// renderPrometheus / renderJsonSeries (metrics/Exposition.h).
  std::shared_ptr<MetricsRegistry> Metrics;
};

namespace detail {

/// Runs one FramePolicy instantiation through the kernel.
template <SearchProblem P, typename TC>
RunResult<typename P::Result>
runFramePolicy(P &Prob, const typename P::State &Root,
               const SchedulerConfig &Cfg) {
  FramePolicy<P, TC> Pol(Prob, Cfg, Root);
  WorkerRuntime<FramePolicy<P, TC>> Rt(Pol, Cfg);
  typename P::Result Value = Rt.run();
  return {Value, Rt.stats(), Rt.traceLog(), Rt.metricsRegistry()};
}

} // namespace detail

/// Runs \p Prob from \p Root under \p Cfg and returns the result with
/// statistics. Dispatches to the right policy instantiation for Cfg.Kind.
template <SearchProblem P>
RunResult<typename P::Result> runProblem(P &Prob,
                                         const typename P::State &Root,
                                         const SchedulerConfig &Cfg) {
  switch (Cfg.Kind) {
  case SchedulerKind::Sequential: {
    typename P::State S = Root;
    return {runSequential(Prob, S), SchedulerStats(), nullptr, nullptr};
  }
  case SchedulerKind::Tascell: {
    TascellPolicy<P> Pol(Prob, Cfg, Root);
    WorkerRuntime<TascellPolicy<P>> Rt(Pol, Cfg);
    typename P::Result Value = Rt.run();
    return {Value, Rt.stats(), Rt.traceLog(), Rt.metricsRegistry()};
  }
  case SchedulerKind::Cilk:
    return detail::runFramePolicy<P, CilkTaskPolicy>(Prob, Root, Cfg);
  case SchedulerKind::CilkSynched:
    return detail::runFramePolicy<P, CilkSynchedTaskPolicy>(Prob, Root, Cfg);
  case SchedulerKind::Cutoff:
    return detail::runFramePolicy<P, CutoffTaskPolicy>(Prob, Root, Cfg);
  case SchedulerKind::AdaptiveTC:
    return detail::runFramePolicy<P, AdaptiveTCTaskPolicy>(Prob, Root, Cfg);
  }
  ATC_UNREACHABLE("unhandled scheduler kind");
}

} // namespace atc

#endif // ATC_CORE_RUNTIME_H
