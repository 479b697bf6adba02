//===- tests/TraceTest.cpp - Event tracing tests --------------------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the scheduler event tracer (src/trace/): ring-buffer
/// overflow semantics, per-worker event ordering, the Chrome-trace
/// exporter's JSON validity and schema round-trip, the JSON parser, the
/// text summarizer, end-to-end traces from the real runtime and the
/// virtual-time simulator, and the runtime gate.
///
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"
#include "problems/ProblemRegistry.h"
#include "sim/SimEngine.h"
#include "sim/TreeGen.h"
#include "trace/Json.h"
#include "trace/TraceJson.h"
#include "trace/TraceRead.h"
#include "trace/TraceSummary.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <string>

namespace atc {
namespace {

//===----------------------------------------------------------------------===//
// Ring buffer
//===----------------------------------------------------------------------===//

TEST(TraceBuffer, EmitAndRead) {
  TraceBuffer TB;
  TB.init(16);
  TB.emitAt(10, TraceEventKind::SpawnReal, 1, 2);
  TB.emitAt(20, TraceEventKind::StealSuccess, 3);
  ASSERT_EQ(TB.size(), 2u);
  EXPECT_EQ(TB.totalEmitted(), 2u);
  EXPECT_EQ(TB.dropped(), 0u);
  EXPECT_EQ(TB.at(0).TimeNs, 10u);
  EXPECT_EQ(TB.at(0).kind(), TraceEventKind::SpawnReal);
  EXPECT_EQ(TB.at(0).A, 1u);
  EXPECT_EQ(TB.at(0).B, 2u);
  EXPECT_EQ(TB.at(1).kind(), TraceEventKind::StealSuccess);
  EXPECT_EQ(TB.at(1).A, 3u);
}

TEST(TraceBuffer, OverflowDropsOldestFirstAndCounts) {
  TraceBuffer TB;
  TB.init(8);
  for (std::uint64_t I = 0; I < 20; ++I)
    TB.emitAt(I, TraceEventKind::SpawnFake, static_cast<std::uint32_t>(I));
  EXPECT_EQ(TB.size(), 8u);
  EXPECT_EQ(TB.totalEmitted(), 20u);
  EXPECT_EQ(TB.dropped(), 12u);
  // The retained window is the newest 8 events, oldest-first in reader
  // order: 12, 13, ..., 19.
  for (std::size_t I = 0; I < TB.size(); ++I) {
    EXPECT_EQ(TB.at(I).TimeNs, 12 + I);
    EXPECT_EQ(TB.at(I).A, 12 + I);
  }
}

TEST(TraceBuffer, SetModeDedupes) {
  TraceBuffer TB;
  TB.init(16);
  TB.setModeAt(1, TraceMode::Fast);
  TB.setModeAt(2, TraceMode::Fast); // No change: no event.
  TB.setModeAt(3, TraceMode::Check);
  TB.setModeAt(4, TraceMode::Fast);
  ASSERT_EQ(TB.size(), 3u);
  EXPECT_EQ(TB.at(0).kind(), TraceEventKind::ModeBegin);
  EXPECT_EQ(TB.at(0).A, static_cast<std::uint32_t>(TraceMode::Fast));
  EXPECT_EQ(TB.at(1).A, static_cast<std::uint32_t>(TraceMode::Check));
  EXPECT_EQ(TB.at(2).A, static_cast<std::uint32_t>(TraceMode::Fast));
  EXPECT_EQ(TB.mode(), TraceMode::Fast);
}

TEST(TraceBuffer, NullPointerMacroIsSafe) {
  TraceBuffer *TB = nullptr;
  ATC_TRACE_EVENT(TB, TraceEventKind::SpawnReal);
  ATC_TRACE_EVENT_AT(TB, 1, TraceEventKind::SpawnReal);
  ATC_TRACE_MODE_AT(TB, 1, TraceMode::Fast);
  TraceModeScope Scope(TB, TraceMode::Slow);
}

TEST(TraceModeScope, SavesAndRestores) {
  TraceBuffer TB;
  TB.init(16);
  TB.setModeAt(1, TraceMode::Check);
  {
    TraceModeScope Scope(&TB, TraceMode::Fast2);
    EXPECT_EQ(TB.mode(), TraceMode::Fast2);
  }
  EXPECT_EQ(TB.mode(), TraceMode::Check);
  // check -> fast_2 -> check: three mode events.
  EXPECT_EQ(TB.size(), 3u);
}

//===----------------------------------------------------------------------===//
// JSON parser
//===----------------------------------------------------------------------===//

TEST(Json, ParsesScalarsAndNesting) {
  json::Value V;
  std::string Err;
  ASSERT_TRUE(json::parse(
      R"({"a": 1.5, "b": [true, null, "x\nA"], "c": {"d": -2}})", V,
      Err))
      << Err;
  EXPECT_EQ(V["a"].numberOr(0), 1.5);
  ASSERT_TRUE(V["b"].isArray());
  const json::Array &B = V["b"].asArray();
  ASSERT_EQ(B.size(), 3u);
  EXPECT_TRUE(B[0].isBool() && B[0].asBool());
  EXPECT_TRUE(B[1].isNull());
  EXPECT_EQ(B[2].stringOr(""), "x\nA");
  EXPECT_EQ(V["c"]["d"].numberOr(0), -2.0);
  // Missing keys chain gracefully.
  EXPECT_TRUE(V["nope"]["deeper"].isNull());
}

TEST(Json, RejectsMalformed) {
  json::Value V;
  std::string Err;
  EXPECT_FALSE(json::parse("{\"a\": }", V, Err));
  EXPECT_FALSE(json::parse("[1, 2", V, Err));
  EXPECT_FALSE(json::parse("", V, Err));
  EXPECT_FALSE(json::parse("{\"a\": 1} trailing", V, Err));
}

//===----------------------------------------------------------------------===//
// Exporter round-trip
//===----------------------------------------------------------------------===//

/// Builds a two-worker log by hand: worker 0 works fast then gets
/// stolen from; worker 1 idles, steals from 0, then works.
TraceLog makeHandLog() {
  TraceLog Log(2, 64);
  Log.Meta.Scheduler = "AdaptiveTC";
  Log.Meta.Source = "test";
  Log.Meta.Workload = "hand";
  TraceBuffer &W0 = Log.buffer(0);
  W0.setModeAt(0, TraceMode::Fast);
  W0.emitAt(100, TraceEventKind::SpawnReal, 0, 1);
  W0.setModeAt(500, TraceMode::Check);
  W0.emitAt(600, TraceEventKind::SpawnFake, 0, 3);
  TraceBuffer &W1 = Log.buffer(1);
  W1.setModeAt(0, TraceMode::Idle);
  W1.emitAt(50, TraceEventKind::StealAttempt, 0);
  W1.emitAt(300, TraceEventKind::StealSuccess, 0);
  W1.setModeAt(300, TraceMode::Slow);
  return Log;
}

TEST(TraceJson, ExportParsesAsValidJson) {
  TraceLog Log = makeHandLog();
  std::string Path = ::testing::TempDir() + "atc_trace_hand.json";
  ASSERT_TRUE(writeChromeTraceFile(Log, Path));
  ParsedTrace T;
  std::string Err;
  ASSERT_TRUE(readTraceFile(Path, T, Err)) << Err;
  std::remove(Path.c_str());
  EXPECT_EQ(T.Scheduler, "AdaptiveTC");
  EXPECT_EQ(T.Source, "test");
  EXPECT_EQ(T.Workload, "hand");
  EXPECT_EQ(T.SchemaVersion, 1);
  EXPECT_EQ(T.Workers, 2);
  EXPECT_EQ(T.Dropped, 0u);
}

TEST(TraceJson, SchemaRoundTrip) {
  TraceLog Log = makeHandLog();
  std::string Path = ::testing::TempDir() + "atc_trace_rt.json";
  ASSERT_TRUE(writeChromeTraceFile(Log, Path));
  ParsedTrace T;
  std::string Err;
  ASSERT_TRUE(readTraceFile(Path, T, Err)) << Err;
  std::remove(Path.c_str());

  // Worker 0: two mode slices (fast then check) with the instants on top.
  auto Slices0 = T.onWorker(0, 'X');
  ASSERT_EQ(Slices0.size(), 2u);
  EXPECT_EQ(Slices0[0]->Name, "fast");
  EXPECT_EQ(Slices0[1]->Name, "check");
  EXPECT_DOUBLE_EQ(Slices0[0]->TsUs, 0.0);
  EXPECT_DOUBLE_EQ(Slices0[0]->DurUs, 0.5); // 500 ns.
  auto Inst0 = T.onWorker(0, 'i');
  ASSERT_EQ(Inst0.size(), 2u);
  EXPECT_EQ(Inst0[0]->Name, "spawn-real");
  EXPECT_EQ(Inst0[0]->B, 1u);
  EXPECT_EQ(Inst0[1]->Name, "spawn-fake");
  EXPECT_EQ(Inst0[1]->B, 3u);

  // Worker 1: idle then slow; a steal-success instant carrying the
  // victim id, plus a flow arrow (s on victim track, f on thief track).
  auto Inst1 = T.onWorker(1, 'i');
  ASSERT_EQ(Inst1.size(), 2u);
  EXPECT_EQ(Inst1[1]->Name, "steal-success");
  EXPECT_EQ(Inst1[1]->A, 0u);
  EXPECT_EQ(T.onWorker(0, 's').size(), 1u);
  EXPECT_EQ(T.onWorker(1, 'f').size(), 1u);
}

TEST(TraceJson, EventOrderMonotonicPerWorker) {
  TraceLog Log = makeHandLog();
  std::string Path = ::testing::TempDir() + "atc_trace_mono.json";
  ASSERT_TRUE(writeChromeTraceFile(Log, Path));
  ParsedTrace T;
  std::string Err;
  ASSERT_TRUE(readTraceFile(Path, T, Err)) << Err;
  std::remove(Path.c_str());
  // Within one worker each phase is time-ordered. (Mode slices are
  // written when the *next* mode begins, carrying their start time, so
  // only per-phase order is monotonic — see TraceRead.h.)
  for (int W = 0; W < T.Workers; ++W) {
    for (char Ph : {'X', 'i'}) {
      double Prev = -1;
      for (const ParsedEvent *E : T.onWorker(W, Ph)) {
        EXPECT_GE(E->TsUs, Prev) << "worker " << W << " phase " << Ph;
        Prev = E->TsUs;
      }
    }
  }
}

TEST(TraceJson, OverflowSkipsUnnamedSpanAndReportsDropped) {
  TraceLog Log(1, 8);
  TraceBuffer &W0 = Log.buffer(0);
  W0.setModeAt(0, TraceMode::Fast);
  for (std::uint64_t I = 1; I <= 20; ++I)
    W0.emitAt(I * 100, TraceEventKind::SpawnFake);
  // The ModeBegin fell out of the ring; the exporter must not fabricate
  // a mode slice it cannot name, and must report the drop count.
  std::string Path = ::testing::TempDir() + "atc_trace_ovf.json";
  ASSERT_TRUE(writeChromeTraceFile(Log, Path));
  ParsedTrace T;
  std::string Err;
  ASSERT_TRUE(readTraceFile(Path, T, Err)) << Err;
  std::remove(Path.c_str());
  EXPECT_EQ(T.Dropped, 13u);
  EXPECT_TRUE(T.onWorker(0, 'X').empty());
  EXPECT_EQ(T.onWorker(0, 'i').size(), 8u);
}

//===----------------------------------------------------------------------===//
// End-to-end: real runtime
//===----------------------------------------------------------------------===//

TEST(TraceRuntime, AdaptiveTcRunProducesCoherentTrace) {
  NQueensArray Prob;
  auto Root = NQueensArray::makeRoot(9);
  SchedulerConfig Cfg;
  Cfg.Kind = SchedulerKind::AdaptiveTC;
  Cfg.NumWorkers = 4;
  Cfg.Trace = true;
  RunResult<long long> R = runProblem(Prob, Root, Cfg);
  EXPECT_EQ(R.Value, 352);
  ASSERT_NE(R.Trace, nullptr);
  EXPECT_EQ(R.Trace->numWorkers(), 4);
  EXPECT_EQ(R.Trace->Meta.Scheduler, "AdaptiveTC");
  EXPECT_EQ(R.Trace->Meta.Source, "runtime");
  EXPECT_GT(R.Trace->totalRetained(), 0u);

  // Every worker's retained events are time-monotonic (single writer).
  for (int W = 0; W < R.Trace->numWorkers(); ++W) {
    const TraceBuffer &TB = R.Trace->buffer(W);
    for (std::size_t I = 1; I < TB.size(); ++I)
      ASSERT_LE(TB.at(I - 1).TimeNs, TB.at(I).TimeNs) << "worker " << W;
  }

  // Export, re-read, summarize: the busy time must be positive and the
  // steal successes in the summary must match the runtime's counter.
  std::string Path = ::testing::TempDir() + "atc_trace_e2e.json";
  ASSERT_TRUE(writeChromeTraceFile(*R.Trace, Path));
  ParsedTrace T;
  std::string Err;
  ASSERT_TRUE(readTraceFile(Path, T, Err)) << Err;
  std::remove(Path.c_str());
  TraceSummary S = summarizeTrace(T);
  ASSERT_EQ(S.Workers.size(), 4u);
  double Busy = 0;
  std::uint64_t Steals = 0;
  for (const WorkerSummary &W : S.Workers) {
    Busy += W.BusyUs;
    Steals += W.Steals;
  }
  EXPECT_GT(Busy, 0.0);
  EXPECT_EQ(Steals, R.Stats.Steals);
  EXPECT_FALSE(formatSummary(S).empty());
}

// The check version does its trace work once per fake-task subtree, not
// per node: one spawn-fake per subtree entry (docs/TRACING.md) and one
// Check mode span per subtree, each nested inside the root task's fast
// span. At one worker with cut-off 0 every child of the root is such an
// entry, and 9-queens' first row has 9 safe columns.
TEST(TraceRuntime, CheckSubtreeSpansNestInRootFastSpan) {
  NQueensArray Prob;
  SchedulerConfig Cfg;
  Cfg.Kind = SchedulerKind::AdaptiveTC;
  Cfg.NumWorkers = 1;
  Cfg.Cutoff = 0;
  Cfg.Trace = true;
  RunResult<long long> R = runProblem(Prob, NQueensArray::makeRoot(9), Cfg);
  EXPECT_EQ(R.Value, 352);
  const std::size_t RootChildren = 9;
  ASSERT_NE(R.Trace, nullptr);
  const TraceBuffer &TB = R.Trace->buffer(0);
  ASSERT_EQ(TB.dropped(), 0u);

  // Walk the modes: the root's fast span opens once, then every Check
  // span opens right after a spawn-fake emitted in Fast and closes back
  // into Fast, and the root's span closes into neither. Anything else
  // is counted as misplaced.
  std::size_t SpawnFakes = 0, CheckSpans = 0, FastSpans = 0, Misplaced = 0;
  bool InRoot = false, AfterSpawnFake = false;
  TraceMode Mode = TraceMode::Idle;
  for (std::size_t I = 0; I < TB.size(); ++I) {
    const TraceEvent &E = TB.at(I);
    if (E.kind() == TraceEventKind::SpawnFake) {
      Misplaced += !(InRoot && Mode == TraceMode::Fast);
      ++SpawnFakes;
      AfterSpawnFake = true;
      continue;
    }
    if (E.kind() != TraceEventKind::ModeBegin)
      continue;
    const auto Next = static_cast<TraceMode>(E.A);
    if (Next == TraceMode::Check) {
      Misplaced += !(AfterSpawnFake && InRoot && Mode == TraceMode::Fast);
      ++CheckSpans;
    } else if (Next == TraceMode::Fast) {
      Misplaced += InRoot && Mode != TraceMode::Check;
      FastSpans += !InRoot;
      InRoot = true;
    } else if (InRoot) {
      Misplaced += Mode != TraceMode::Fast;
      InRoot = false;
    }
    AfterSpawnFake = false;
    Mode = Next;
  }
  EXPECT_EQ(Misplaced, 0u);
  EXPECT_EQ(FastSpans, 1u) << "the root's fast span must open exactly once";
  EXPECT_FALSE(InRoot) << "the root's fast span never closed";
  EXPECT_EQ(SpawnFakes, RootChildren);
  EXPECT_EQ(CheckSpans, RootChildren);
  EXPECT_EQ(R.Stats.TasksCreated, 1u);
}

TEST(TraceRuntime, DisabledByDefault) {
  NQueensArray Prob;
  auto Root = NQueensArray::makeRoot(8);
  SchedulerConfig Cfg;
  Cfg.Kind = SchedulerKind::AdaptiveTC;
  Cfg.NumWorkers = 2;
  RunResult<long long> R = runProblem(Prob, Root, Cfg);
  EXPECT_EQ(R.Value, 92);
  EXPECT_EQ(R.Trace, nullptr);
}

TEST(TraceRuntime, TascellRunTracesDonations) {
  NQueensArray Prob;
  auto Root = NQueensArray::makeRoot(9);
  SchedulerConfig Cfg;
  Cfg.Kind = SchedulerKind::Tascell;
  Cfg.NumWorkers = 4;
  Cfg.Trace = true;
  RunResult<long long> R = runProblem(Prob, Root, Cfg);
  EXPECT_EQ(R.Value, 352);
  ASSERT_NE(R.Trace, nullptr);
  std::uint64_t Donations = 0;
  for (int W = 0; W < R.Trace->numWorkers(); ++W) {
    const TraceBuffer &TB = R.Trace->buffer(W);
    for (std::size_t I = 0; I < TB.size(); ++I)
      if (TB.at(I).kind() == TraceEventKind::Donation)
        ++Donations;
  }
  EXPECT_EQ(Donations, R.Stats.Steals);
}

//===----------------------------------------------------------------------===//
// End-to-end: simulator (virtual time)
//===----------------------------------------------------------------------===//

TEST(TraceSim, EmitsSameSchemaInVirtualTime) {
  SimTree Tree(SimTree::preset("tree3r", 50'000));
  SimOptions Opts;
  Opts.Kind = SchedulerKind::AdaptiveTC;
  Opts.NumWorkers = 4;
  CostModel Costs;
  TraceLog Log(Opts.NumWorkers, 1u << 18);
  SimReport R = simulate(Tree, Opts, Costs, &Log);
  EXPECT_EQ(Log.Meta.Source, "sim");
  EXPECT_GT(Log.totalRetained(), 0u);

  std::uint64_t Steals = 0, Spawns = 0;
  for (int W = 0; W < Log.numWorkers(); ++W) {
    const TraceBuffer &TB = Log.buffer(W);
    std::uint64_t Prev = 0;
    for (std::size_t I = 0; I < TB.size(); ++I) {
      ASSERT_GE(TB.at(I).TimeNs, Prev) << "worker " << W;
      Prev = TB.at(I).TimeNs;
      if (TB.at(I).kind() == TraceEventKind::StealSuccess)
        ++Steals;
      if (TB.at(I).kind() == TraceEventKind::SpawnReal)
        ++Spawns;
    }
  }
  EXPECT_EQ(Steals, R.Steals);
  EXPECT_EQ(Spawns, R.TasksCreated);

  // The export/summarize pipeline is producer-agnostic.
  std::string Path = ::testing::TempDir() + "atc_trace_sim.json";
  ASSERT_TRUE(writeChromeTraceFile(Log, Path));
  ParsedTrace T;
  std::string Err;
  ASSERT_TRUE(readTraceFile(Path, T, Err)) << Err;
  std::remove(Path.c_str());
  EXPECT_EQ(T.Source, "sim");
  TraceSummary S = summarizeTrace(T);
  EXPECT_EQ(S.Workers.size(), 4u);
}

TEST(TraceSim, Deterministic) {
  SimTree Tree(SimTree::preset("tree1l", 20'000));
  SimOptions Opts;
  Opts.Kind = SchedulerKind::Tascell;
  Opts.NumWorkers = 3;
  CostModel Costs;
  TraceLog A(3, 1u << 16), B(3, 1u << 16);
  simulate(Tree, Opts, Costs, &A);
  simulate(Tree, Opts, Costs, &B);
  for (int W = 0; W < 3; ++W) {
    const TraceBuffer &TA = A.buffer(W), &TB = B.buffer(W);
    ASSERT_EQ(TA.size(), TB.size()) << "worker " << W;
    for (std::size_t I = 0; I < TA.size(); ++I) {
      EXPECT_EQ(TA.at(I).TimeNs, TB.at(I).TimeNs);
      EXPECT_EQ(TA.at(I).Kind, TB.at(I).Kind);
      EXPECT_EQ(TA.at(I).A, TB.at(I).A);
      EXPECT_EQ(TA.at(I).B, TB.at(I).B);
    }
  }
}

//===----------------------------------------------------------------------===//
// Summary math
//===----------------------------------------------------------------------===//

TEST(TraceSummary, ComputesLatenciesFromHandTrace) {
  TraceLog Log(2, 64);
  TraceBuffer &W1 = Log.buffer(1);
  W1.setModeAt(0, TraceMode::Idle);
  W1.emitAt(1'000, TraceEventKind::StealAttempt, 0);
  W1.emitAt(2'000, TraceEventKind::StealFail, 0);
  W1.emitAt(5'000, TraceEventKind::StealSuccess, 0);
  W1.setModeAt(5'000, TraceMode::Slow);
  TraceBuffer &W0 = Log.buffer(0);
  W0.setModeAt(0, TraceMode::Check);
  W0.emitAt(10'000, TraceEventKind::NeedTaskObserve, 0, 2);
  W0.emitAt(12'500, TraceEventKind::SpecialPush, 0, 2);

  std::string Path = ::testing::TempDir() + "atc_trace_lat.json";
  ASSERT_TRUE(writeChromeTraceFile(Log, Path));
  ParsedTrace T;
  std::string Err;
  ASSERT_TRUE(readTraceFile(Path, T, Err)) << Err;
  std::remove(Path.c_str());

  TraceSummary S = summarizeTrace(T);
  // Steal latency: attempt at 1 us -> success at 5 us = 4 us.
  ASSERT_EQ(S.StealLatenciesUs.size(), 1u);
  EXPECT_DOUBLE_EQ(S.StealLatenciesUs[0], 4.0);
  // Reseed latency: observe at 10 us -> push at 12.5 us = 2.5 us.
  ASSERT_EQ(S.ReseedLatenciesUs.size(), 1u);
  EXPECT_DOUBLE_EQ(S.ReseedLatenciesUs[0], 2.5);
  EXPECT_EQ(S.Workers[0].SpecialPushes, 1u);
  EXPECT_EQ(S.Workers[1].Steals, 1u);
  EXPECT_EQ(S.Workers[1].FailedSteals, 1u);
}

} // namespace
} // namespace atc
