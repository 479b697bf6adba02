//===- sim/CostModel.h - Virtual-time cost model ----------------*- C++ -*-===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-operation virtual-time costs charged by the simulator. The host
/// this reproduction runs on has a single core, so the paper's 8-thread
/// speedup figures cannot be observed in wall-clock time; the simulator
/// replays the scheduling policies over computation trees in virtual
/// time instead (see DESIGN.md, "Substitutions"). Defaults are in the
/// ballpark of the real runtime's measured single-thread costs;
/// calibrate() refines them against live micro-measurements so the
/// Table-2-style overhead ratios carry into the simulated figures.
///
//===----------------------------------------------------------------------===//

#ifndef ATC_SIM_COSTMODEL_H
#define ATC_SIM_COSTMODEL_H

#include <string>

namespace atc {

/// Virtual-time costs (nanoseconds).
struct CostModel {
  /// Compute per tree node (the benchmark's real work). The paper sets
  /// "the execution time of each node to the average time of the task in
  /// the benchmarks".
  double NodeWorkNs = 150;

  /// Task frame allocate + free + bookkeeping (every task in Cilk; only
  /// shallow tasks in AdaptiveTC/Cutoff).
  double TaskCreateNs = 70;

  /// One deque push + pop pair (THE protocol fast path).
  double DequeOpNs = 30;

  /// Fresh workspace allocation (Cilk's malloc/alloca per child; saved by
  /// SYNCHED's reuse and by AdaptiveTC's pooling).
  double AllocNs = 45;

  /// Workspace memcpy, per byte.
  double CopyNsPerByte = 0.06;

  /// Bytes in the taskprivate workspace (the chessboard / grid).
  int StateBytes = 64;

  /// One need_task poll (AdaptiveTC check version) or request-mailbox
  /// poll (Tascell) — a relaxed load plus a branch, plus the check
  /// version's bookkeeping around it (Table 2 puts AdaptiveTC's 1-thread
  /// overhead at 1.04-1.2x of sequential).
  double PollNs = 10;

  /// Tascell's per-call nested-function management (choice-point
  /// push/pop on the shadow stack). Table 2 measures Tascell's 1-thread
  /// overhead at 1.13-1.6x of sequential — substantially more than a bare
  /// poll.
  double TascellFrameNs = 40;

  /// Thief-side cost of a successful steal (lock + restore) on the THE
  /// deque.
  double StealNs = 400;

  /// Thief-side cost of a failed steal attempt.
  double StealFailNs = 120;

  /// Tascell request/response round trip (victim notices at its next
  /// poll; the requester additionally pays wake-up latency).
  double RequestRoundTripNs = 20'000;

  /// Tascell temporary backtracking: one undo or redo step while
  /// reconstructing an ancestor workspace.
  double BacktrackStepNs = 35;

  /// Special-task creation (frame + push; AdaptiveTC check version).
  double SpecialTaskNs = 100;

  /// Sleep quantum used by waiting loops (the paper's usleep(100)).
  double SleepNs = 100'000;

  /// Renders the parameters for experiment logs.
  std::string describe() const;

  /// Measures TaskCreateNs / DequeOpNs / AllocNs / CopyNsPerByte on the
  /// live host with small timing loops and returns an adjusted model.
  /// NodeWorkNs and StateBytes are workload properties — set them from
  /// the benchmark being reproduced.
  static CostModel calibrate();
};

} // namespace atc

#endif // ATC_SIM_COSTMODEL_H
