//===- core/kernel/StealDecisions.h - Pure steal-loop decisions -*- C++ -*-===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The decisions a thief makes on every steal round, as pure functions
/// of the worker's state and its PRNG: which victim to try
/// (VictimPolicy), how many extra frames a steal-half raid claims
/// (StealPolicy::Half), and how many failures it retries at yield speed
/// before it backs off into sleeps (idleSpinBudget). The runtime kernel
/// (WorkerRuntime, FramePolicy) and the virtual-time simulator
/// (sim/SimEngine.cpp) both call the first two, so one implementation of
/// each strategy serves both and a simulated run draws exactly the victim
/// sequence a real worker with the same seed and failure history would.
/// The yield budget is the kernel's alone: the simulator models retries
/// in virtual time.
///
//===----------------------------------------------------------------------===//

#ifndef ATC_CORE_KERNEL_STEALDECISIONS_H
#define ATC_CORE_KERNEL_STEALDECISIONS_H

#include "core/Scheduler.h"
#include "support/Compiler.h"
#include "support/Prng.h"

#include <algorithm>
#include <climits>
#include <cstdint>

namespace atc {

/// Outcome of one victim choice.
struct VictimChoice {
  int Victim;
  /// True when the choice is a last-victim retry (feeds AffinityHits).
  bool Affine;
};

namespace detail {

/// Uniform draw from the \p Span consecutive ids starting at \p Lo,
/// excluding \p Self (which lies in that range). Needs Span >= 2.
inline int drawPeer(int Lo, int Span, int Self, SplitMix64 &Rng) {
  int V = Lo + static_cast<int>(
                   Rng.nextBelow(static_cast<std::uint64_t>(Span - 1)));
  return V >= Self ? V + 1 : V;
}

} // namespace detail

/// Victim selection for worker \p Self per \p Policy:
///
///  * Affinity    - the last victim work came from (\p LastVictim, -1 when
///                  unset) is the most likely to still have more; random
///                  otherwise.
///  * Random      - uniform random every attempt.
///  * Partitioned - random within the thief's \p GroupSize group of
///                  consecutive ids until the failure streak \p FailStreak
///                  covers two sweeps of the group (it has run dry, or its
///                  work is all below steal depth), then global.
///
/// Never returns \p Self. Needs NumWorkers >= 2.
inline VictimChoice chooseVictim(VictimPolicy Policy, int GroupSize,
                                 int NumWorkers, int Self, int LastVictim,
                                 int FailStreak, SplitMix64 &Rng) {
  switch (Policy) {
  case VictimPolicy::Affinity:
    if (LastVictim >= 0 && LastVictim != Self)
      return {LastVictim, true};
    [[fallthrough]];
  case VictimPolicy::Random:
    return {detail::drawPeer(0, NumWorkers, Self, Rng), false};
  case VictimPolicy::Partitioned: {
    const int G = GroupSize > 1 ? GroupSize : 1;
    const int Lo = (Self / G) * G;
    const int Span = Lo + G <= NumWorkers ? G : NumWorkers - Lo;
    if (Span >= 2 && FailStreak < 2 * Span)
      return {detail::drawPeer(Lo, Span, Self, Rng), false};
    return {detail::drawPeer(0, NumWorkers, Self, Rng), false};
  }
  }
  ATC_UNREACHABLE("unhandled victim policy");
}

/// Extra frames a steal-half raid claims after its first: half of the
/// \p Remaining stealable entries the victim still holds, bounded so the
/// whole raid carries off at most \p MaxStolen frames (at least one, the
/// first, whatever the bound).
inline int stealHalfWidth(int Remaining, int MaxStolen) {
  return std::min(Remaining / 2, std::max(MaxStolen, 1) - 1);
}

/// Failed attempts a thief of a \p NumWorkers run spends yielding before
/// stealBackoff (core/Backoff.h) starts to sleep: (NumWorkers - 1) x
/// (\p MaxStolen + 1), enough failures to push any one busy victim past
/// the need_task threshold \p MaxStolen with this thief's attempts
/// alone, wherever its victim choices land. Saturates at INT_MAX rather
/// than overflowing for huge thresholds.
inline int idleSpinBudget(int NumWorkers, int MaxStolen) {
  const long long Budget =
      static_cast<long long>(std::max(NumWorkers - 1, 0)) *
      (static_cast<long long>(std::max(MaxStolen, 0)) + 1);
  return static_cast<int>(std::min<long long>(Budget, INT_MAX));
}

} // namespace atc

#endif // ATC_CORE_KERNEL_STEALDECISIONS_H
