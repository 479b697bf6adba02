//===- tests/MetricsTest.cpp - live metrics subsystem tests ---------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The live-metrics subsystem (src/metrics): histogram and quantile math,
/// the coherence contract (a post-join registry snapshot aggregates to
/// exactly the run's SchedulerStats, for every scheduler kind and for the
/// simulator), the Prometheus exposition round-trip including the
/// generated-code runtime's standalone writer, and the Cfg.Metrics arm.
///
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"
#include "lang/runtime/GenRuntime.h"
#include "metrics/Exposition.h"
#include "metrics/Metrics.h"
#include "metrics/MetricsRegistry.h"
#include "metrics/Quantile.h"
#include "problems/ProblemRegistry.h"
#include "sim/SimEngine.h"
#include "trace/Json.h"

#include "ParamNames.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace atc;

namespace {

//===----------------------------------------------------------------------===//
// Quantile / bucket math
//===----------------------------------------------------------------------===//

TEST(Quantile, PercentileSortedInterpolates) {
  EXPECT_EQ(percentileSorted({}, 0.5), 0.0);
  EXPECT_EQ(percentileSorted({7.0}, 0.0), 7.0);
  EXPECT_EQ(percentileSorted({7.0}, 1.0), 7.0);
  std::vector<double> V = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentileSorted(V, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentileSorted(V, 1.0), 40.0);
  // Index 0.5 * 3 = 1.5: halfway between 20 and 30.
  EXPECT_DOUBLE_EQ(percentileSorted(V, 0.5), 25.0);
  EXPECT_DOUBLE_EQ(percentileSorted(V, 0.9), 37.0);
}

TEST(Quantile, Log2BucketBoundsRoundTrip) {
  EXPECT_EQ(log2BucketFor(0), 0u);
  EXPECT_EQ(log2BucketFor(1), 1u);
  EXPECT_EQ(log2BucketFor(2), 2u);
  EXPECT_EQ(log2BucketFor(3), 2u);
  EXPECT_EQ(log2BucketFor(4), 3u);
  for (unsigned B = 0; B != NumLog2Buckets; ++B) {
    EXPECT_EQ(log2BucketFor(log2BucketLowerBound(B)), B) << "bucket " << B;
    EXPECT_EQ(log2BucketFor(log2BucketUpperBound(B)), B) << "bucket " << B;
  }
  EXPECT_EQ(log2BucketUpperBound(NumLog2Buckets - 1), ~std::uint64_t{0});
}

TEST(Quantile, HistogramQuantilesLandInTheRightBucket) {
  HistogramCounts H;
  for (std::uint64_t V = 1; V <= 100; ++V)
    H.record(V);
  EXPECT_EQ(H.Count, 100u);
  EXPECT_EQ(H.Sum, 5050u);
  EXPECT_DOUBLE_EQ(H.mean(), 50.5);
  double Q50 = H.quantile(0.50);
  double Q90 = H.quantile(0.90);
  double Q99 = H.quantile(0.99);
  EXPECT_LE(Q50, Q90);
  EXPECT_LE(Q90, Q99);
  // True p50 is 50 (bucket [32, 63]); interpolation stays inside it.
  EXPECT_GE(Q50, 32.0);
  EXPECT_LE(Q50, 64.0);
  // True p99 is 99 (bucket [64, 127]).
  EXPECT_GE(Q99, 64.0);
  EXPECT_LE(Q99, 128.0);
  EXPECT_EQ(HistogramCounts().quantile(0.5), 0.0);
}

TEST(Quantile, MergeMatchesCombinedRecording) {
  HistogramCounts A, B, Combined;
  for (std::uint64_t V = 0; V != 50; ++V) {
    A.record(V * 3);
    Combined.record(V * 3);
  }
  for (std::uint64_t V = 0; V != 70; ++V) {
    B.record(V * 17 + 1);
    Combined.record(V * 17 + 1);
  }
  A.merge(B);
  EXPECT_EQ(A.Count, Combined.Count);
  EXPECT_EQ(A.Sum, Combined.Sum);
  for (unsigned I = 0; I != NumLog2Buckets; ++I)
    EXPECT_EQ(A.Buckets[I], Combined.Buckets[I]) << "bucket " << I;
}

TEST(Quantile, LogHistogramSnapshotMatchesPlainCounts) {
  LogHistogram L;
  HistogramCounts Plain;
  for (std::uint64_t V : {0ull, 1ull, 5ull, 1024ull, 999999ull, 3ull}) {
    L.record(V);
    Plain.record(V);
  }
  HistogramCounts Snap = L.snapshot();
  EXPECT_EQ(Snap.Count, Plain.Count);
  EXPECT_EQ(Snap.Sum, Plain.Sum);
  for (unsigned I = 0; I != NumLog2Buckets; ++I)
    EXPECT_EQ(Snap.Buckets[I], Plain.Buckets[I]) << "bucket " << I;
  L.reset();
  EXPECT_EQ(L.snapshot().Count, 0u);
}

//===----------------------------------------------------------------------===//
// Cell semantics
//===----------------------------------------------------------------------===//

TEST(MetricsCell, ModeResidencyFoldsOnTransition) {
  WorkerMetricsCell C;
  C.begin(100);
  EXPECT_EQ(C.mode(), TraceMode::Idle);
  C.setModeAt(250, TraceMode::Fast);
  EXPECT_EQ(C.modeNanos(TraceMode::Idle), 150u);
  C.setModeAt(300, TraceMode::Fast); // no-op: same mode
  C.setModeAt(600, TraceMode::Check);
  EXPECT_EQ(C.modeNanos(TraceMode::Fast), 350u);
  C.setModeAt(700, TraceMode::Idle);
  EXPECT_EQ(C.modeNanos(TraceMode::Check), 100u);
  EXPECT_EQ(C.mode(), TraceMode::Idle);
}

TEST(MetricsCell, ReseedIntervalAnchorsOnFirstPublish) {
  WorkerMetricsCell C;
  C.recordReseed(1000); // anchor only
  EXPECT_EQ(C.ReseedIntervalNs.snapshot().Count, 0u);
  C.recordReseed(1600);
  C.recordReseed(1850);
  HistogramCounts H = C.ReseedIntervalNs.snapshot();
  EXPECT_EQ(H.Count, 2u);
  EXPECT_EQ(H.Sum, 600u + 250u);
}

TEST(MetricsCell, PublishStatsMirrorsEveryField) {
  WorkerMetricsCell C;
  SchedulerStats S;
  for (unsigned I = 0; I != NumStatFields; ++I)
    setStatFieldValue(S, static_cast<StatField>(I), I * 7 + 1);
  C.publishStats(S);
  for (unsigned I = 0; I != NumStatFields; ++I)
    EXPECT_EQ(C.stat(static_cast<StatField>(I)), I * 7 + 1)
        << statFieldName(static_cast<StatField>(I));
  C.reset();
  for (unsigned I = 0; I != NumStatFields; ++I)
    EXPECT_EQ(C.stat(static_cast<StatField>(I)), 0u);
}

//===----------------------------------------------------------------------===//
// Snapshot-vs-SchedulerStats coherence (the CI observe-smoke contract)
//===----------------------------------------------------------------------===//

struct CoherenceCase {
  SchedulerKind Kind;
};

/// The parameter text of each row's name, as GoogleTest once printed the
/// case's raw bytes: Kind, then the always-zero slot of the deleted
/// deque-kind setting.
void PrintTo(const CoherenceCase &CC, std::ostream *OS) {
  test::printIntFieldsAsBytes({static_cast<int>(CC.Kind), 0}, OS);
}

class MetricsCoherence : public ::testing::TestWithParam<CoherenceCase> {};

TEST_P(MetricsCoherence, FinalSnapshotEqualsRunStats) {
  NQueensArray Prob;
  auto Root = NQueensArray::makeRoot(8);
  SchedulerConfig Cfg;
  Cfg.Kind = GetParam().Kind;
  Cfg.NumWorkers = 4;
  Cfg.Metrics = true;
  RunResult<long long> R = runProblem(Prob, Root, Cfg);
  EXPECT_EQ(R.Value, 92);
  ASSERT_NE(R.Metrics, nullptr);
  EXPECT_EQ(R.Metrics->numWorkers(), 4);
  EXPECT_EQ(R.Metrics->Meta.Source, "runtime");

  MetricsSnapshot Snap = R.Metrics->sample();
  SchedulerStats FromCells = Snap.toStats();
  for (unsigned I = 0; I != NumStatFields; ++I) {
    auto F = static_cast<StatField>(I);
    EXPECT_EQ(statFieldValue(FromCells, F), statFieldValue(R.Stats, F))
        << statFieldName(F);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, MetricsCoherence,
    ::testing::Values(CoherenceCase{SchedulerKind::Cilk},
                      CoherenceCase{SchedulerKind::CilkSynched},
                      CoherenceCase{SchedulerKind::Cutoff},
                      CoherenceCase{SchedulerKind::AdaptiveTC},
                      CoherenceCase{SchedulerKind::Tascell}),
    [](const ::testing::TestParamInfo<CoherenceCase> &Info) {
      std::string Name = schedulerKindName(Info.param.Kind);
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });

TEST(MetricsSim, RegistryAggregateMatchesSimReport) {
  SimTree Tree(SimTree::preset("fig8", 20'000));
  SimOptions Opts;
  Opts.Kind = SchedulerKind::AdaptiveTC;
  Opts.NumWorkers = 4;
  CostModel Costs;
  MetricsRegistry Reg;
  SimReport Rep = simulate(Tree, Opts, Costs, nullptr, &Reg);

  EXPECT_EQ(Reg.Meta.Source, "sim");
  EXPECT_EQ(Reg.numWorkers(), 4);
  MetricsSnapshot Snap =
      Reg.sample(static_cast<std::uint64_t>(Rep.MakespanNs));
  EXPECT_EQ(Snap.total(StatField::TasksCreated), Rep.TasksCreated);
  EXPECT_EQ(Snap.total(StatField::FakeTasks), Rep.FakeNodes);
  EXPECT_EQ(Snap.total(StatField::SpecialTasks), Rep.SpecialTasks);
  EXPECT_EQ(Snap.total(StatField::Steals), Rep.Steals);
  EXPECT_EQ(Snap.total(StatField::StealFails), Rep.StealFails);
  EXPECT_EQ(Snap.total(StatField::StealAttempts),
            Snap.total(StatField::Steals) + Snap.total(StatField::StealFails));
  // Virtual clocks: the snapshot is stamped with sim time, not wall time.
  EXPECT_EQ(Snap.TimeNs, static_cast<std::uint64_t>(Rep.MakespanNs));
}

//===----------------------------------------------------------------------===//
// Prometheus exposition round-trip
//===----------------------------------------------------------------------===//

// Fills a registry with hand-written per-worker values; no run needed.
void fillRegistry(MetricsRegistry &Reg) {
  Reg.reset(2);
  Reg.Meta.Scheduler = "AdaptiveTC";
  Reg.Meta.Source = "runtime";
  Reg.Meta.Workload = "unit-test";
  for (int W = 0; W != 2; ++W) {
    WorkerMetricsCell &C = Reg.cell(W);
    SchedulerStats S;
    for (unsigned I = 0; I != NumStatFields; ++I)
      setStatFieldValue(S, static_cast<StatField>(I),
                        (I + 1) * 10 + static_cast<unsigned>(W));
    C.publishStats(S);
    C.begin(1000);
    C.setModeAt(1500 + static_cast<std::uint64_t>(W) * 100, TraceMode::Work);
    C.setNeedTask(W == 1);
    C.dequeDepthGauge().store(3 + W, std::memory_order_relaxed);
    for (std::uint64_t V = 1; V <= 20; ++V) {
      C.StealLatencyNs.record(V * 100);
      C.SpawnCostNs.record(V);
    }
    C.DequeDepth.record(4);
    C.ReseedIntervalNs.record(1 << W);
  }
}

TEST(Exposition, PrometheusRoundTripPreservesTotals) {
  MetricsRegistry Reg;
  fillRegistry(Reg);
  MetricsSnapshot Snap = Reg.sample(999999);
  std::string Text = renderPrometheus(Snap, Reg.Meta);
  std::vector<PromSample> Samples = parsePrometheus(Text);
  ASSERT_FALSE(Samples.empty());

  EXPECT_EQ(promTotal(Samples, "atc_workers", /*Gauge=*/true), 2u);
  for (unsigned I = 0; I != NumStatFields; ++I) {
    auto F = static_cast<StatField>(I);
    std::string Name = std::string("atc_") + statFieldPromName(F);
    EXPECT_EQ(promTotal(Samples, Name, statFieldIsGauge(F)), Snap.total(F))
        << Name;
  }

  // Histogram series: _count and _sum match the snapshot, and the
  // cumulative le buckets are non-decreasing up to _count.
  std::uint64_t WantCount = 0, WantSum = 0;
  for (const WorkerSample &W : Snap.Workers) {
    WantCount += W.StealLatencyNs.Count;
    WantSum += W.StealLatencyNs.Sum;
  }
  // _count/_sum carry no _total suffix; sum the per-worker series here.
  std::uint64_t GotCount = 0, GotSum = 0;
  for (const PromSample &S : Samples) {
    if (S.Name == "atc_steal_latency_ns_count")
      GotCount += S.asU64();
    if (S.Name == "atc_steal_latency_ns_sum")
      GotSum += S.asU64();
  }
  EXPECT_EQ(GotCount, WantCount);
  EXPECT_EQ(GotSum, WantSum);
  std::uint64_t PrevLe = 0;
  bool SawBucket = false;
  for (const PromSample &S : Samples)
    if (S.Name == "atc_steal_latency_ns_bucket" &&
        S.Labels.count("worker") && S.Labels.at("worker") == "0") {
      SawBucket = true;
      EXPECT_GE(S.asU64(), PrevLe) << "le=" << S.Labels.at("le");
      PrevLe = S.asU64();
    }
  EXPECT_TRUE(SawBucket);
  EXPECT_EQ(PrevLe, Snap.Workers[0].StealLatencyNs.Count);

  // Run identity labels survive the round trip.
  bool SawInfo = false;
  for (const PromSample &S : Samples)
    if (S.Name == "atc_run_info") {
      SawInfo = true;
      EXPECT_EQ(S.Labels.at("scheduler"), "AdaptiveTC");
      EXPECT_EQ(S.Labels.at("workload"), "unit-test");
    }
  EXPECT_TRUE(SawInfo);
}

TEST(Exposition, JsonSeriesCarriesMetaAndSnapshots) {
  MetricsRegistry Reg;
  fillRegistry(Reg);
  Reg.sampleAndRecord(1000);
  Reg.sampleAndRecord(2000);
  std::string Json = renderJsonSeries(Reg.history(), Reg.Meta);
  EXPECT_NE(Json.find("\"scheduler\": \"AdaptiveTC\""), std::string::npos);
  EXPECT_NE(Json.find("\"workload\": \"unit-test\""), std::string::npos);
  EXPECT_NE(Json.find("\"tasks_created\""), std::string::npos);
  // Two snapshots recorded, both present.
  EXPECT_NE(Json.find("\"time_ns\": 1000"), std::string::npos);
  EXPECT_NE(Json.find("\"time_ns\": 2000"), std::string::npos);
  // A long label with a control byte comes back whole and parseable.
  Reg.Meta.Workload = std::string(600, 'w') + "\x01";
  json::Value Doc;
  std::string Err;
  ASSERT_TRUE(json::parse(renderJsonSeries(Reg.history(), Reg.Meta), Doc, Err))
      << Err;
  EXPECT_EQ(Doc["workload"].asString(), Reg.Meta.Workload);
}

TEST(Exposition, WriteTextFileAtomicLeavesNoTemp) {
  std::string Path = ::testing::TempDir() + "atc_metrics_test.prom";
  ASSERT_TRUE(writeTextFileAtomic(Path, "atc_workers 1\n"));
  std::ifstream In(Path);
  std::stringstream Buf;
  Buf << In.rdbuf();
  EXPECT_EQ(Buf.str(), "atc_workers 1\n");
  std::ifstream Tmp(Path + ".tmp");
  EXPECT_FALSE(Tmp.good());
  std::remove(Path.c_str());
}

TEST(Exposition, GenRuntimeMetricsFileParses) {
  // The generated-code runtime writes its Prometheus file with a
  // self-contained printf-based writer (no atc_metrics dependency); it
  // must stay parseable by the shared parser and use the shared names.
  atcgen::Worker W(4);
  W.Stats.FramesAllocated = 12;
  W.Stats.Pushes = 34;
  W.Stats.SpecialPushes = 5;
  W.Stats.Polls = 99;
  W.Stats.WorkspaceCopiedBytes = 4096;
  std::string Path = ::testing::TempDir() + "atcgen_metrics_test.prom";
  ASSERT_TRUE(W.writeMetricsFile(Path));
  std::ifstream In(Path);
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::vector<PromSample> Samples = parsePrometheus(Buf.str());
  EXPECT_EQ(promTotal(Samples, "atc_tasks_created"), 12u);
  EXPECT_EQ(promTotal(Samples, "atc_spawns"), 34u);
  EXPECT_EQ(promTotal(Samples, "atc_special_tasks"), 5u);
  EXPECT_EQ(promTotal(Samples, "atc_polls"), 99u);
  EXPECT_EQ(promTotal(Samples, "atc_copied_bytes"), 4096u);
  bool SawInfo = false;
  for (const PromSample &S : Samples)
    if (S.Name == "atc_run_info") {
      SawInfo = true;
      EXPECT_EQ(S.Labels.at("source"), "genruntime");
    }
  EXPECT_TRUE(SawInfo);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// The metrics gate: Cfg.Metrics arms a registry
//===----------------------------------------------------------------------===//

TEST(MetricsGate, CompileTimeGate) {
  NQueensArray Prob;
  auto Root = NQueensArray::makeRoot(8);
  SchedulerConfig Cfg;
  Cfg.Kind = SchedulerKind::AdaptiveTC;
  Cfg.NumWorkers = 2;
  Cfg.Metrics = true;
  RunResult<long long> R = runProblem(Prob, Root, Cfg);
  EXPECT_EQ(R.Value, 92);
  ASSERT_NE(R.Metrics, nullptr);
  EXPECT_GT(R.Metrics->sample().total(StatField::TasksCreated), 0u);
}

} // namespace
