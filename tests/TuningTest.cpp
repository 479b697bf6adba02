//===- tests/TuningTest.cpp - Online tuning controller tests --------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The controller's rule layer is exercised synthetically (applyWindow
// takes pre-extracted window deltas, so every rule and the hysteresis
// band is deterministic here), then end-to-end on the simulator's
// virtual clocks, and finally through the real runtime's gate.
//
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"
#include "core/tuning/TuningController.h"
#include "metrics/MetricsRegistry.h"
#include "problems/NQueens.h"
#include "sim/CostModel.h"
#include "sim/SimEngine.h"

#include <gtest/gtest.h>

using namespace atc;

namespace {

// Steal-ratio windows are reseed-NEUTRAL (one reseed, expensive mean):
// neither the reseed-hot deepen rule nor the quiet-spell decay may fire,
// so the tests isolate the steal-success band they target.
TuneWindow successWindow(std::uint64_t Steals = 30,
                         std::uint64_t Fails = 2) {
  TuneWindow W;
  W.Steals = Steals;
  W.StealFails = Fails;
  W.Reseeds = 1;
  W.ReseedMeanNs = 1.0e9;
  return W;
}

TuneWindow failureWindow(std::uint64_t Steals = 2,
                         std::uint64_t Fails = 30) {
  TuneWindow W;
  W.Steals = Steals;
  W.StealFails = Fails;
  W.Reseeds = 1;
  W.ReseedMeanNs = 1.0e9;
  return W;
}

TuneWindow reseedWindow(std::uint64_t Count, double MeanNs) {
  TuneWindow W;
  W.Reseeds = Count;
  W.ReseedMeanNs = MeanNs;
  return W;
}

//===----------------------------------------------------------------------===//
// Rule layer (synthetic windows)
//===----------------------------------------------------------------------===//

TEST(TuningRules, ArmSeedsKnobsFromRunConfig) {
  TuningController T;
  T.arm(/*InitCutoff=*/3, /*InitMaxStolen=*/20);
  EXPECT_EQ(T.cutoff(), 3);
  EXPECT_EQ(T.maxStolenNum(), 20);
  EXPECT_EQ(T.backoffShift(), DefaultBackoffShift);
  EXPECT_EQ(T.adjustments(), 0u);
  EXPECT_EQ(T.windowsEvaluated(), 0u);
}

TEST(TuningRules, ArmClampsOutOfRangeInitials) {
  TuningLimits L;
  TuningController T;
  T.arm(/*InitCutoff=*/0, /*InitMaxStolen=*/100000, L);
  EXPECT_GE(T.cutoff(), 1) << "cut-off floor is 1";
  EXPECT_EQ(T.maxStolenNum(), L.MaxMaxStolen);
}

TEST(TuningRules, StealSuccessRaisesMaxStolenAndNarrowsBackoff) {
  TuningLimits L;
  TuningController T;
  T.arm(3, 20, L);
  T.applyWindow(successWindow());
  EXPECT_EQ(T.maxStolenNum(), 20 + L.MaxStolenStep);
  EXPECT_EQ(T.backoffShift(), DefaultBackoffShift - 1);
  EXPECT_EQ(T.adjustments(), 2u);

  // Same-direction steps stay free: keep feeding success and the knob
  // walks to its ceiling (and the backoff to its floor), then stops.
  for (int I = 0; I < 64; ++I)
    T.applyWindow(successWindow());
  EXPECT_EQ(T.maxStolenNum(), L.MaxMaxStolen);
  EXPECT_EQ(T.backoffShift(), L.MinBackoffShift);
}

TEST(TuningRules, StealFailureLowersMaxStolenAndWidensBackoff) {
  TuningLimits L;
  TuningController T;
  T.arm(3, 20, L);
  T.applyWindow(failureWindow());
  EXPECT_EQ(T.maxStolenNum(), 20 - L.MaxStolenStep);
  EXPECT_EQ(T.backoffShift(), DefaultBackoffShift + 1);

  for (int I = 0; I < 64; ++I)
    T.applyWindow(failureWindow());
  EXPECT_EQ(T.maxStolenNum(), L.MinMaxStolen);
  EXPECT_EQ(T.backoffShift(), L.MaxBackoffShift);
}

TEST(TuningRules, SparseWindowsAreNoise) {
  // Below MinStealAttempts the success ratio must not move anything.
  TuningController T;
  T.arm(3, 20);
  T.applyWindow(successWindow(/*Steals=*/5, /*Fails=*/0));
  T.applyWindow(failureWindow(/*Steals=*/0, /*Fails=*/5));
  EXPECT_EQ(T.maxStolenNum(), 20);
  EXPECT_EQ(T.backoffShift(), DefaultBackoffShift);
  EXPECT_EQ(T.adjustments(), 0u);
}

TEST(TuningRules, MidRatioDeadBandHoldsKnobsStill) {
  TuningController T;
  T.arm(3, 20);
  for (int I = 0; I < 32; ++I) {
    TuneWindow W = successWindow(/*Steals=*/16, /*Fails=*/16); // 0.5
    W.Reseeds = 1; // non-quiet, non-hot: cut-off rule idle too
    W.ReseedMeanNs = 1.0e9;
    T.applyWindow(W);
  }
  EXPECT_EQ(T.maxStolenNum(), 20);
  EXPECT_EQ(T.backoffShift(), DefaultBackoffShift);
  EXPECT_EQ(T.adjustments(), 0u);
}

TEST(TuningRules, CheapFrequentReseedsDeepenCutoff) {
  TuningLimits L;
  TuningController T;
  T.arm(3, 20, L);
  T.applyWindow(reseedWindow(L.ReseedHotCount, 1.0e6));
  EXPECT_EQ(T.cutoff(), 4);
  for (int I = 0; I < 64; ++I)
    T.applyWindow(reseedWindow(L.ReseedHotCount, 1.0e6));
  EXPECT_EQ(T.cutoff(), 3 + L.MaxCutoffRaise) << "raise is bounded";
}

TEST(TuningRules, ExpensiveOrRareReseedsDoNotDeepen) {
  TuningLimits L;
  TuningController T;
  T.arm(3, 20, L);
  // Too expensive: interval mean above the cheap bound.
  T.applyWindow(reseedWindow(L.ReseedHotCount,
                             static_cast<double>(L.ReseedCheapNs) * 4));
  // Too rare: below the hot count.
  T.applyWindow(reseedWindow(L.ReseedHotCount - 1, 1.0e6));
  EXPECT_EQ(T.cutoff(), 3);
}

TEST(TuningRules, QuietSpellDecaysCutoffTowardInitial) {
  TuningLimits L;
  TuningController T;
  T.arm(3, 20, L);
  // Deepen twice, then go reseed-quiet: one decay step per
  // ReseedQuietWindows consecutive empty windows.
  T.applyWindow(reseedWindow(L.ReseedHotCount, 1.0e6));
  // The reversal hold refuses the decay until HoldWindows have passed,
  // so spend them on non-quiet filler first (reseeds present but not
  // hot — resets the quiet counter, moves nothing).
  for (int I = 0; I < L.HoldWindows; ++I)
    T.applyWindow(reseedWindow(1, static_cast<double>(L.ReseedCheapNs) * 4));
  for (int I = 0; I < L.ReseedQuietWindows; ++I)
    T.applyWindow(TuneWindow());
  EXPECT_EQ(T.cutoff(), 3);
  // Decay never undershoots the floor of max(1, Init - 1).
  for (int I = 0; I < 10 * L.ReseedQuietWindows; ++I)
    T.applyWindow(TuneWindow());
  EXPECT_EQ(T.cutoff(), 2);
}

TEST(TuningRules, ReversalHysteresisPreventsOscillation) {
  TuningLimits L;
  TuningController T;
  T.arm(3, 20, L);

  // A boundary-straddling signal alternates high/low every window. With
  // reversal hysteresis the knob must not flap: after the first move,
  // each direction change is refused until HoldWindows pass.
  T.applyWindow(successWindow()); // 20 -> 24, dir = +1
  const int AfterFirst = T.maxStolenNum();
  EXPECT_EQ(AfterFirst, 20 + L.MaxStolenStep);
  std::uint64_t Moves = T.adjustments();

  for (int I = 0; I < L.HoldWindows - 1; ++I) {
    T.applyWindow(failureWindow()); // reversal: refused within the hold
    EXPECT_EQ(T.maxStolenNum(), AfterFirst) << "window " << I;
  }
  EXPECT_EQ(T.adjustments(), Moves) << "no knob moved during the hold";

  // Hold expired: the reversal is allowed through.
  T.applyWindow(failureWindow());
  EXPECT_EQ(T.maxStolenNum(), AfterFirst - L.MaxStolenStep);
}

TEST(TuningRules, GatedAccessorsDefaultWhenUntuned) {
  // Null controller (or a build with ATC_OBSERVE=OFF): the live accessors
  // fold to the configured defaults.
  EXPECT_EQ(liveCutoff(nullptr, 5), 5);
  EXPECT_EQ(liveMaxStolen(nullptr, 20), 20);
  EXPECT_EQ(liveBackoffShift(nullptr), DefaultBackoffShift);
}

//===----------------------------------------------------------------------===//
// Simulator mirror (virtual clocks -> deterministic end-to-end)
//===----------------------------------------------------------------------===//

TEST(TuningSim, TunedRunIsDeterministicAndLosesNoNodes) {
  SimTree Tree(SimTree::preset("tree3l", 400000));
  CostModel Costs;
  SimOptions Opts;
  Opts.Kind = SchedulerKind::AdaptiveTC;
  Opts.NumWorkers = 8;
  Opts.Tuning = true;

  SimReport A = simulate(Tree, Opts, Costs);
  SimReport B = simulate(Tree, Opts, Costs);
  EXPECT_EQ(A.NodesProcessed, Tree.spec().TotalNodes);
  EXPECT_EQ(A.MakespanNs, B.MakespanNs);
  EXPECT_EQ(A.TuneAdjustments, B.TuneAdjustments);
  EXPECT_EQ(A.FinalCutoff, B.FinalCutoff);
  EXPECT_EQ(A.FinalMaxStolen, B.FinalMaxStolen);
#if ATC_OBSERVE_ENABLED
  EXPECT_GT(A.TuneWindows, 0u) << "controllers never evaluated a window";
  EXPECT_GE(A.FinalCutoff, 1);
#else
  EXPECT_EQ(A.TuneWindows, 0u) << "compiled-out tuning must be inert";
#endif
}

TEST(TuningSim, UntunedRunIsUnchangedByTheTuningCode) {
  // The knob plumbing (live reads at dispatch / steal / backoff sites)
  // must be behaviour-identical when no controller is armed: the
  // committed fig8/fig10 records were produced before the tuning layer
  // existed, and an untuned sim must still reproduce them bit-for-bit.
  SimTree Tree(SimTree::preset("input1", 200000));
  CostModel Costs;
  SimOptions Opts;
  Opts.Kind = SchedulerKind::AdaptiveTC;
  Opts.NumWorkers = 8;

  SimReport Off = simulate(Tree, Opts, Costs);
  EXPECT_EQ(Off.TuneAdjustments, 0u);
  EXPECT_EQ(Off.TuneWindows, 0u);
  EXPECT_EQ(Off.FinalCutoff, 0) << "no controller, no final knobs";
  EXPECT_EQ(Off.NodesProcessed, Tree.spec().TotalNodes);
}

TEST(TuningSim, TunedRegistryCarriesTuneGauges) {
  if (!ATC_OBSERVE_ENABLED)
    GTEST_SKIP() << "observability compiled out";
  SimTree Tree(SimTree::preset("tree3l", 200000));
  CostModel Costs;
  SimOptions Opts;
  Opts.Kind = SchedulerKind::AdaptiveTC;
  Opts.NumWorkers = 4;
  Opts.Tuning = true;

  MetricsRegistry Reg;
  SimReport R = simulate(Tree, Opts, Costs, /*Log=*/nullptr, &Reg);
  ASSERT_EQ(Reg.numWorkers(), 4);
  MetricsSnapshot Snap = Reg.sample();
  std::uint64_t Windows = 0;
  for (int I = 0; I < 4; ++I) {
    const WorkerSample &S = Snap.Workers[static_cast<std::size_t>(I)];
    EXPECT_GE(S.TuneCutoff, 1u) << "worker " << I
                                << ": armed knob gauge missing";
    EXPECT_GE(S.TuneMaxStolen, 1u) << "worker " << I;
    Windows += S.TuneWindows;
  }
  EXPECT_EQ(Windows, R.TuneWindows)
      << "registry gauges disagree with the report";
}

//===----------------------------------------------------------------------===//
// Real runtime gate
//===----------------------------------------------------------------------===//

TEST(TuningRuntime, TunedRunIsCorrectAndPublishesGauges) {
  NQueensArray Prob;
  SchedulerConfig Cfg;
  Cfg.Kind = SchedulerKind::AdaptiveTC;
  Cfg.NumWorkers = 4;
  Cfg.Tuning = true; // implies metrics

  auto R = runProblem(Prob, NQueensArray::makeRoot(10), Cfg);
  EXPECT_EQ(R.Value, 724);
#if ATC_OBSERVE_ENABLED
  ASSERT_NE(R.Metrics, nullptr) << "tuning must arm the metrics registry";
  MetricsSnapshot Snap = R.Metrics->sample();
  for (int I = 0; I < Cfg.NumWorkers; ++I) {
    const WorkerSample &S = Snap.Workers[static_cast<std::size_t>(I)];
    EXPECT_GE(S.TuneCutoff, 1u)
        << "worker " << I << ": controller never published its knobs";
  }
#endif
}

TEST(TuningRuntime, UntunedRunPublishesZeroGauges) {
  NQueensArray Prob;
  SchedulerConfig Cfg;
  Cfg.Kind = SchedulerKind::AdaptiveTC;
  Cfg.NumWorkers = 2;
  Cfg.Metrics = true; // metrics without tuning

  auto R = runProblem(Prob, NQueensArray::makeRoot(9), Cfg);
  EXPECT_EQ(R.Value, 352);
#if ATC_OBSERVE_ENABLED
  ASSERT_NE(R.Metrics, nullptr);
  MetricsSnapshot Snap = R.Metrics->sample();
  for (int I = 0; I < Cfg.NumWorkers; ++I) {
    const WorkerSample &S = Snap.Workers[static_cast<std::size_t>(I)];
    EXPECT_EQ(S.TuneCutoff, 0u) << "untuned cells must read all-zero";
    EXPECT_EQ(S.TuneAdjustments, 0u);
  }
#endif
}

} // namespace
