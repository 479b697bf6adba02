//===- sim/SimEngine.h - Virtual-time scheduling simulator ------*- C++ -*-===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic discrete-event simulator that replays the paper's
/// scheduling systems (Cilk, Cilk-SYNCHED, Cutoff, AdaptiveTC, Tascell)
/// over implicit computation trees in virtual time. This is the
/// substitution (DESIGN.md) for the paper's 8-core testbed: the host here
/// has one core, so multi-thread speedups are computed from the policies'
/// virtual-time makespans instead of wall clock.
///
/// Model summary (one simulated event per tree node):
///  * Each virtual worker runs a depth-first traversal over an explicit
///    stack of frames (open loop levels). Visiting a node charges the
///    node's work plus the policy's per-spawn overhead (task creation,
///    deque ops, workspace copy, polling) from the CostModel.
///  * Deque policies steal the *continuation* of the oldest stealable
///    frame (the untried sibling range), exactly like the real
///    the frame engine. Tascell posts requests that the victim answers at its
///    next poll by temporarily backtracking and donating half of the
///    untried choices of its oldest open level.
///  * AdaptiveTC's check region polls a need_task flag set by repeatedly
///    failing thieves; a publish creates a special task whose subtree is
///    tracked by a completion job — the publisher must wait at the end of
///    the check level for stolen parts (sync_specialtask). Tascell choice
///    points similarly wait for their donations (it cannot suspend).
///  * Workers advance in min-virtual-time order. A thief acting at time t
///    observes the victim's current stack (which may reflect actions up
///    to the victim's own, later, clock) — a bounded anachronism that is
///    irrelevant at the timescales of the reproduced phenomena.
///
//===----------------------------------------------------------------------===//

#ifndef ATC_SIM_SIMENGINE_H
#define ATC_SIM_SIMENGINE_H

#include "core/Scheduler.h"
#include "core/kernel/FiveVersionFsm.h"
#include "sim/CostModel.h"
#include "sim/TreeGen.h"
#include "trace/TraceLog.h"

#include <cstdint>
#include <vector>

namespace atc {

class MetricsRegistry;

/// Simulation parameters.
struct SimOptions {
  SchedulerKind Kind = SchedulerKind::AdaptiveTC;
  int NumWorkers = 8;

  /// Task-creation cut-off; -1 selects ceil(log2(NumWorkers)), as in the
  /// paper's runtime ("Cutoff-library"); a non-negative value plays the
  /// "Cutoff-programmer" role for Kind == Cutoff.
  int Cutoff = -1;

  /// Failed-steal threshold before need_task is raised (paper: 20).
  int MaxStolenNum = 20;

  /// AdaptiveTC edge table. The committed fig records and the SimPolicies
  /// golden were produced with Figure 2 as published, so Paper stays the
  /// default here even though the real runtime runs Spine
  /// (core/kernel/FiveVersionFsm.h). Other kinds ignore it.
  FsmVariant Fsm = FsmVariant::Paper;

  /// Models the paper's "Cutoff-library" variant, where "the cost of
  /// workspace copying cannot be reduced": the runtime, lacking the
  /// taskprivate attribute, still allocates and copies the workspace for
  /// every call below the cut-off. Only meaningful for Kind == Cutoff.
  bool CutoffCopiesEverywhere = false;

  std::uint64_t Seed = 0x51D;
};

/// Per-worker virtual-time breakdown (the paper's Figures 6 and 7).
struct SimBreakdown {
  double WorkNs = 0;         ///< Real node work.
  double OverheadNs = 0;     ///< Task creation + deque + copies.
  double PollNs = 0;         ///< need_task / mailbox polling.
  double IdleNs = 0;         ///< Failed stealing / waiting for responses.
  double WaitChildrenNs = 0; ///< Blocked on outstanding children.

  SimBreakdown &operator+=(const SimBreakdown &O) {
    WorkNs += O.WorkNs;
    OverheadNs += O.OverheadNs;
    PollNs += O.PollNs;
    IdleNs += O.IdleNs;
    WaitChildrenNs += O.WaitChildrenNs;
    return *this;
  }

  double totalNs() const {
    return WorkNs + OverheadNs + PollNs + IdleNs + WaitChildrenNs;
  }
};

/// Simulation outcome.
struct SimReport {
  double MakespanNs = 0;
  double SerialNs = 0; ///< TotalNodes * NodeWorkNs (the "serial C" time).
  long long NodesProcessed = 0;

  double speedup() const { return SerialNs / MakespanNs; }

  SimBreakdown Total;
  std::vector<SimBreakdown> PerWorker;

  std::uint64_t TasksCreated = 0;
  std::uint64_t FakeNodes = 0;
  std::uint64_t SpecialTasks = 0;
  std::uint64_t Steals = 0;
  std::uint64_t StealFails = 0;
  std::uint64_t Copies = 0;
  std::uint64_t Requests = 0;
  std::uint64_t RequestsDenied = 0;
  int MaxStealableFrames = 0; ///< Deque-pressure high-water mark.
};

/// Runs the simulation of \p Opts.Kind over \p Tree with costs \p Costs.
/// Deterministic in (Tree, Opts, Costs).
///
/// When \p Log is non-null (and was built with Opts.NumWorkers buffers),
/// the simulated workers emit the same event schema as the real runtime
/// (trace/TraceEvent.h) stamped with their *virtual* clocks — paper-scale
/// multi-thread figures become loadable in Perfetto even though the sim
/// runs on one host core.
///
/// When \p Metrics is non-null, the simulated workers publish the same
/// live-metrics schema as the real runtime (metrics/MetricsRegistry.h)
/// stamped with their virtual clocks: the registry is reset to
/// Opts.NumWorkers cells and after the run each cell holds the worker's
/// exact counters, mode residencies, and histograms — so a Prometheus
/// snapshot of an 8-worker paper-scale run renders from a one-core host.
SimReport simulate(const SimTree &Tree, const SimOptions &Opts,
                   const CostModel &Costs, TraceLog *Log = nullptr,
                   MetricsRegistry *Metrics = nullptr);

} // namespace atc

#endif // ATC_SIM_SIMENGINE_H
