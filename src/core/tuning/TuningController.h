//===- core/tuning/TuningController.h - Online knob tuning ------*- C++ -*-===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The online tuning layer (docs/TUNING.md): a per-worker controller that
/// closes the loop the paper leaves open. The paper fixes its scheduling
/// knobs as compile-time constants — max_stolen_num = 20, the initial
/// cut-off log2(N), the steal-backoff bounds — and the metrics layer
/// already measures exactly the signals those constants trade off (reseed
/// cadence, steal success, steal latency). A TuningController periodically
/// reads its own WorkerMetricsCell and moves three live knobs through a
/// hysteresis-banded rule:
///
///  * cut-off depth      - deepened when reseeds are cheap and frequent
///                         (the worker keeps being interrupted to publish
///                         special tasks — exposing more real tasks up
///                         front is cheaper), decayed back toward the
///                         initial depth after a long reseed-quiet spell.
///  * max_stolen_num     - raised when steals mostly succeed (thieves are
///                         productive; let them push the victim harder
///                         before interrupting it), lowered when they
///                         mostly fail (interrupt busy workers sooner)
///                         and on the victim's own reseed-hot windows —
///                         the victim-side proof that thieves starve on
///                         its watch and need_task must be answered
///                         sooner.
///  * backoff bound      - narrowed when steals mostly succeed (work is
///                         plentiful; retry fast), widened when they
///                         mostly fail (stop hammering contended lines).
///
/// Gating is shared with trace/metrics (the double-gating idiom):
/// building with -DATC_OBSERVE=OFF (support/Compiler.h) compiles every
/// read/tune site away, together with trace and metrics sites; with
/// tuning compiled in, the runtime gate is SchedulerConfig::Tuning — off
/// costs one predictable untaken branch on a worker-local pointer per
/// site. Tuning implies metrics: the controller's only inputs are the
/// cell's counters and histograms, so arming tuning arms the metrics
/// cells too.
///
/// Concurrency model: knobs are relaxed atomics. cutoff() and
/// backoffShift() are read only by the owning worker; maxStolenNum() is
/// read by *thieves* probing this worker (the threshold protects the
/// victim, so the victim's controller owns it — exactly like the NeedTask
/// flag it arms). maybeTune() runs only on the owning worker, at sites
/// that already pay a clock read (steal-loop acquires, reseed publishes,
/// long fail streaks), so an untuned hot path is untouched.
///
//===----------------------------------------------------------------------===//

#ifndef ATC_CORE_TUNING_TUNINGCONTROLLER_H
#define ATC_CORE_TUNING_TUNINGCONTROLLER_H

#include "metrics/Metrics.h"
#include "support/Compiler.h"

#include <atomic>
#include <cstdint>

namespace atc {

/// The untuned runtime's backoff cap exponent: stealBackoff sleeps up to
/// 1us << 7 = 128us (core/Backoff.h). The controller moves BackoffShift
/// around this anchor.
inline constexpr int DefaultBackoffShift = 7;

/// Rule constants and knob bounds; defaults picked so the controller is
/// conservative (one banded step per window, reversals held back) and
/// converges on the fig8/fig10 families without per-workload tuning (see
/// bench/ablation_tuning.cpp). All thresholds live here so tests can
/// drive the rules synthetically.
struct TuningLimits {
  /// Rule-evaluation window: maybeTune() is a no-op until this much
  /// (virtual or real) time has passed since the last evaluation. Short
  /// enough that the controller converges within the first few
  /// milliseconds of a run (the ablation's tree families finish in
  /// ~10-20 ms of virtual time), long enough to accumulate a meaningful
  /// steal sample.
  std::uint64_t WindowNs = 250 * 1000; // 250 us

  /// Cut-off bounds relative to the initial depth, resolved by arm():
  /// [max(1, Init - 1), Init + MaxCutoffRaise]. The raise is deliberately
  /// small: a reseed re-enters fast_2 with *twice* the live cut-off, so
  /// each +1 here already adds two levels of real tasks per published
  /// special — past a few steps the reseed-hot signal stops meaning
  /// "deeper would help" and the extra spawns are pure overhead.
  int MaxCutoffRaise = 3;

  /// max_stolen_num bounds and per-window step. The floor is deliberately
  /// above the paper's minimum useful threshold: with seven starving
  /// thieves a failed attempt lands every few hundred nanoseconds, so a
  /// single-digit threshold turns every brief stall into a need_task
  /// interrupt storm (measurably worse than the best static point on the
  /// fig8 family; see bench/ablation_tuning.cpp).
  int MinMaxStolen = 10;
  int MaxMaxStolen = 160;
  int MaxStolenStep = 4;

  /// Backoff cap exponent bounds (sleep cap = 1us << shift).
  int MinBackoffShift = 2;
  int MaxBackoffShift = 10;

  /// Steal-success bands: ratios at/above High raise max_stolen_num and
  /// narrow backoff; at/below Low do the opposite. The gap between the
  /// bands is the dead zone that keeps a mid-ratio run from dithering.
  double StealSuccHigh = 0.75;
  double StealSuccLow = 0.25;
  /// Minimum steal attempts in a window before the success rule may fire
  /// (below this the ratio is noise).
  std::uint64_t MinStealAttempts = 6;

  /// Cut-off rule: deepen when a window saw at least ReseedHotCount
  /// reseeds whose mean interval was at or below ReseedCheapNs (the
  /// worker is being interrupted often and could have exposed the tasks
  /// up front); decay one step toward the initial depth only after
  /// ReseedQuietWindows consecutive windows with no reseed at all. The
  /// short quiet spell matters: on irregular trees (the fig10 "input"
  /// families) an over-deep cut-off left over from a drain storm spawns
  /// real tasks nobody needs, so the decay must win between storms.
  std::uint64_t ReseedHotCount = 1;
  std::uint64_t ReseedCheapNs = 4000 * 1000; // 4 ms
  int ReseedQuietWindows = 4;

  /// Hysteresis: after a knob moves, a move in the *opposite* direction
  /// is refused for this many windows (same-direction steps stay free).
  /// This is what keeps a boundary-straddling signal from oscillating
  /// the knob every window.
  int HoldWindows = 4;
};

/// One rule-evaluation window's worth of deltas, extracted from the cell
/// by maybeTune() — or built by hand in tests, which drive applyWindow()
/// directly to exercise the rules deterministically.
struct TuneWindow {
  std::uint64_t Steals = 0;       ///< Successful steals this window.
  std::uint64_t StealFails = 0;   ///< Failed attempts this window.
  std::uint64_t Reseeds = 0;      ///< Reseed intervals recorded this window.
  double ReseedMeanNs = 0;        ///< Mean of those intervals (0 if none).
};

/// Per-worker online tuner; see the file comment. One instance per
/// worker, owned by WorkerRuntime (or the simulator) for the run.
class TuningController {
public:
  TuningController() = default;

  /// Arms the controller: knobs start at the run's configured values and
  /// the cut-off bounds are resolved around \p InitCutoff.
  void arm(int InitCutoff, int InitMaxStolen,
           const TuningLimits &Limits = TuningLimits());

  //===------------------------------------------------------------------===//
  // Live knobs (relaxed reads; see the file comment for who reads what)
  //===------------------------------------------------------------------===//

  int cutoff() const { return Cutoff.load(std::memory_order_relaxed); }
  int maxStolenNum() const {
    return MaxStolen.load(std::memory_order_relaxed);
  }
  int backoffShift() const {
    return BackoffShift.load(std::memory_order_relaxed);
  }

  std::uint64_t adjustments() const { return AdjustCount; }
  std::uint64_t windowsEvaluated() const { return WindowCount; }

  //===------------------------------------------------------------------===//
  // Tuning (owning worker only)
  //===------------------------------------------------------------------===//

  /// Rate-limited rule evaluation: when at least Limits.WindowNs has
  /// passed since the last evaluation, extracts the window's deltas from
  /// \p Cell, applies the rules, and mirrors the knob gauges back into
  /// the cell (atc_tune_* series). Cheap when the window is still open:
  /// one subtraction and a compare.
  void maybeTune(std::uint64_t NowNs, WorkerMetricsCell &Cell) {
    if (NowNs < LastTuneNs + Limits.WindowNs)
      return;
    tune(NowNs, Cell);
  }

  /// The rule layer, window extraction already done. Public so tests can
  /// feed synthetic windows; deterministic in (arm state, window
  /// sequence).
  void applyWindow(const TuneWindow &Win);

  /// Mirrors the live knobs and counters into \p Cell's atc_tune_*
  /// gauges.
  void publishTo(WorkerMetricsCell &Cell) const;

private:
  void tune(std::uint64_t NowNs, WorkerMetricsCell &Cell);

  /// Directional knob step with reversal hysteresis; returns true when
  /// the knob actually moved (counted in AdjustCount).
  struct KnobState {
    int LastDir = 0;
    std::uint64_t LastMoveWindow = 0;
  };
  bool stepKnob(std::atomic<int> &Knob, KnobState &S, int Dir, int Step,
                int Lo, int Hi);

  TuningLimits Limits;
  int MinCutoff = 1;
  int MaxCutoff = 9;

  std::atomic<int> Cutoff{0};
  std::atomic<int> MaxStolen{20};
  std::atomic<int> BackoffShift{DefaultBackoffShift};

  KnobState CutoffKnob, MaxStolenKnob, BackoffKnob;
  std::uint64_t WindowCount = 0;
  std::uint64_t AdjustCount = 0;
  int QuietWindows = 0;

  // Owner-only window anchors (previous cell readings).
  std::uint64_t LastTuneNs = 0;
  std::uint64_t LastSteals = 0;
  std::uint64_t LastStealFails = 0;
  std::uint64_t LastReseedCount = 0;
  std::uint64_t LastReseedSum = 0;
};

//===----------------------------------------------------------------------===//
// Gated accessors — how runtime code reads live knobs
//===----------------------------------------------------------------------===//
//
// Each costs one predictable null test (the runtime gate: the pointer
// is null unless SchedulerConfig::Tuning armed the run) — the same shape
// as ATC_METRIC. With ATC_OBSERVE_ENABLED=0 the test folds to false, so
// the accessors fold to the configured default and the hot path is
// untouched (the compile-time gate).

/// The worker's live cut-off depth, or \p Def when untuned.
inline int liveCutoff(const TuningController *T, int Def) {
  return ATC_OBSERVE_ENABLED && ATC_UNLIKELY(T != nullptr) ? T->cutoff()
                                                           : Def;
}
/// The *victim's* live failed-steal threshold, or \p Def when untuned.
inline int liveMaxStolen(const TuningController *T, int Def) {
  return ATC_OBSERVE_ENABLED && ATC_UNLIKELY(T != nullptr) ? T->maxStolenNum()
                                                           : Def;
}
/// The thief's live backoff cap exponent, or the paper anchor.
inline int liveBackoffShift(const TuningController *T) {
  return ATC_OBSERVE_ENABLED && ATC_UNLIKELY(T != nullptr)
             ? T->backoffShift()
             : DefaultBackoffShift;
}

/// Invokes a member expression on the controller when armed:
///   ATC_TUNE(W.Tune, maybeTune(nowNanos(), *W.Metrics));
#define ATC_TUNE(TC, ...)                                                    \
  do {                                                                       \
    if (ATC_OBSERVE_ENABLED && ATC_UNLIKELY((TC) != nullptr))                \
      (TC)->__VA_ARGS__;                                                     \
  } while (false)

} // namespace atc

#endif // ATC_CORE_TUNING_TUNINGCONTROLLER_H
