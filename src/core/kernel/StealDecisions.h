//===- core/kernel/StealDecisions.h - Pure steal-loop decisions -*- C++ -*-===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The decisions a thief makes on every steal round, as pure functions
/// of the worker's state and its PRNG: which victim to try
/// (chooseVictim), whether a failed attempt raises the victim's
/// need_task (needTaskSignal), and how many failures it retries at yield
/// speed before it backs off into sleeps (idleSpinBudget). The runtime
/// kernel (WorkerRuntime) and the virtual-time simulator
/// (sim/SimEngine.cpp) both call the first two, so one implementation
/// of each rule serves both and a simulated run draws exactly the victim
/// sequence a real worker with the same seed and steal outcomes would.
/// The yield budget is the kernel's alone: the simulator models retries
/// in virtual time.
///
//===----------------------------------------------------------------------===//

#ifndef ATC_CORE_KERNEL_STEALDECISIONS_H
#define ATC_CORE_KERNEL_STEALDECISIONS_H

#include "support/Prng.h"

#include <algorithm>
#include <climits>
#include <cstdint>

namespace atc {

/// Victim selection for worker \p Self: a uniform random draw over the
/// other NumWorkers - 1 workers, every attempt (the paper's thieves keep
/// no memory of past victims). Never returns \p Self. Needs
/// NumWorkers >= 2.
inline int chooseVictim(int NumWorkers, int Self, SplitMix64 &Rng) {
  const int V = static_cast<int>(
      Rng.nextBelow(static_cast<std::uint64_t>(NumWorkers - 1)));
  return V >= Self ? V + 1 : V;
}

/// Where a failed steal leaves the victim against its need_task threshold.
enum class NeedTaskSignal {
  Below,    ///< stolen_num is within the threshold: nothing to raise.
  Crossing, ///< this failure crossed it: raise need_task, record the raise.
  Past,     ///< already crossed: need_task stays raised, nothing to record.
};

/// The paper's failed-steal rule for a victim whose stolen_num, counting
/// this failure, is \p StolenNum: need_task is raised once stolen_num
/// exceeds the victim's \p MaxStolen, and the raise is recorded only on
/// the crossing, not on every attempt past it.
inline NeedTaskSignal needTaskSignal(int StolenNum, int MaxStolen) {
  if (StolenNum <= MaxStolen)
    return NeedTaskSignal::Below;
  return StolenNum - 1 == MaxStolen ? NeedTaskSignal::Crossing
                                    : NeedTaskSignal::Past;
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
