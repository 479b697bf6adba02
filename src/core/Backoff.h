//===- core/Backoff.h - Idle-thief backoff policy ---------------*- C++ -*-===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// All idle-wait policy in one place. The kernel's steal loop and
/// help-first wait (core/kernel/WorkerRuntime.h) are the only callers of
/// stealBackoff; the fixed-interval Tascell waits live here too so no
/// scheduler hard-codes its own sleep constants.
///
//===----------------------------------------------------------------------===//

#ifndef ATC_CORE_BACKOFF_H
#define ATC_CORE_BACKOFF_H

#include <algorithm>
#include <chrono>
#include <thread>

namespace atc {

/// The idle ladder as a pure decision: microseconds to sleep after \p
/// FailStreak consecutive failed steal attempts, 0 meaning a plain yield.
/// Every streak up to \p SpinBudget yields (idleSpinBudget in
/// core/kernel/StealDecisions.h: enough failures to push any busy victim
/// past max_stolen_num on this thief's attempts alone); past it, sleeps
/// double from 1us up to a (1us << MaxShift) cap. \p MaxShift is the
/// online tuning layer's backoff knob (liveBackoffShift in
/// core/tuning/TuningController.h), so it caps only the sleep phase.
inline int backoffSleepUs(int FailStreak, int SpinBudget, int MaxShift) {
  if (FailStreak <= SpinBudget)
    return 0;
  return 1 << std::min(FailStreak - SpinBudget - 1, MaxShift);
}

/// Truncated-exponential backoff after \p FailStreak consecutive failed
/// steal attempts (backoffSleepUs). The yield phase exists because the
/// need_task handshake counts *attempts*: a yield costs ~0.3us, but
/// sleep_for(1us) measures ~59us and sleep_for(128us) ~184us median on a
/// 4-CPU Linux host (timer slack plus a reschedule), so a thief sleeping
/// between attempts would take milliseconds to make a busy victim
/// publish. Once the budget is spent the victim has either responded or
/// has nothing to publish, and sleeping backs off contended deque lines.
inline void stealBackoff(int FailStreak, int SpinBudget, int MaxShift) {
  const int Us = backoffSleepUs(FailStreak, SpinBudget, MaxShift);
  if (Us == 0)
    std::this_thread::yield();
  else
    std::this_thread::sleep_for(std::chrono::microseconds(Us));
}

/// Poll interval while a Tascell requester waits for a mailbox response
/// (it keeps answering its own mailbox between sleeps).
inline void requestResponseWait() {
  std::this_thread::sleep_for(std::chrono::microseconds(50));
}

/// Poll interval while a Tascell victim blocks on outstanding donations
/// ("Tascell cannot suspend a waiting task"); the paper's usleep(100).
inline void waitChildrenWait() {
  std::this_thread::sleep_for(std::chrono::microseconds(100));
}

} // namespace atc

#endif // ATC_CORE_BACKOFF_H
