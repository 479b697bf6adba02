//===- tests/PoolTest.cpp - persistent worker-pool reuse tests ------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scheduler-as-a-service substrate contract: a SchedulerPool runs
/// many back-to-back jobs — every scheduler kind over every deque — on
/// the same OS threads, with no thread respawn (ids stable, index-aligned
/// with worker ids) and exact per-job isolation of both SchedulerStats
/// and the metrics registry (epoch ticks once per job, cells restart from
/// zero). Plus the MetricsRegistry reset/epoch regression tests the
/// server layer leans on.
///
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"
#include "core/SchedulerPool.h"
#include "metrics/Exposition.h"
#include "metrics/MetricsRegistry.h"
#include "problems/ProblemRegistry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace atc;

namespace {

/// Forwards to a SchedulerPool while recording which OS thread executed
/// each worker id, per job — the respawn detector.
struct RecordingExecutor : WorkerExecutor {
  explicit RecordingExecutor(SchedulerPool &Pool) : Pool(Pool) {}

  void dispatch(int NumWorkers,
                const std::function<void(int)> &Body) override {
    // Workers write disjoint slots; no lock needed.
    std::vector<std::thread::id> ByWorker(
        static_cast<std::size_t>(NumWorkers));
    Pool.dispatch(NumWorkers, [&](int I) {
      ByWorker[static_cast<std::size_t>(I)] = std::this_thread::get_id();
      Body(I);
    });
    Jobs.push_back(std::move(ByWorker));
  }

  int capacity() const override { return Pool.capacity(); }

  SchedulerPool &Pool;
  std::vector<std::vector<std::thread::id>> Jobs;
};

//===----------------------------------------------------------------------===//
// SchedulerPool mechanics
//===----------------------------------------------------------------------===//

TEST(SchedulerPool, DispatchRunsEveryWorkerExactlyOnce) {
  SchedulerPool Pool(4);
  EXPECT_EQ(Pool.size(), 4);
  EXPECT_EQ(Pool.capacity(), 4);
  std::atomic<int> Ran[4] = {};
  Pool.dispatch(4, [&](int I) { Ran[I].fetch_add(1); });
  for (int I = 0; I != 4; ++I)
    EXPECT_EQ(Ran[I].load(), 1) << "worker " << I;
  EXPECT_EQ(Pool.jobsRun(), 1u);
}

TEST(SchedulerPool, PartialDispatchUsesThreadPrefix) {
  SchedulerPool Pool(4);
  std::vector<std::thread::id> Ids = Pool.threadIds();
  ASSERT_EQ(Ids.size(), 4u);
  std::vector<std::thread::id> ByWorker(2);
  Pool.dispatch(2, [&](int I) {
    ByWorker[static_cast<std::size_t>(I)] = std::this_thread::get_id();
  });
  // Worker i of a narrower job runs on pool thread i; threads [2,4)
  // stay parked.
  EXPECT_EQ(ByWorker[0], Ids[0]);
  EXPECT_EQ(ByWorker[1], Ids[1]);
}

TEST(SchedulerPool, BackToBackDispatchesCountEpochs) {
  SchedulerPool Pool(2);
  std::atomic<int> Total{0};
  for (int Job = 0; Job != 16; ++Job)
    Pool.dispatch(2, [&](int) { Total.fetch_add(1); });
  EXPECT_EQ(Total.load(), 32);
  EXPECT_EQ(Pool.jobsRun(), 16u);
}

//===----------------------------------------------------------------------===//
// Pool reuse across the full scheduler matrix
//===----------------------------------------------------------------------===//

// One pool, every scheduler kind, two jobs each: every
// job computes the right answer, its stats partition the tree exactly
// (proof the counters are this job's alone, not an accumulation), and
// every worker loop ran on the same index-aligned pool threads — no
// respawn anywhere in the stream.
TEST(PoolReuse, AllKindsAllDequesOnOnePool) {
  NQueensArray Prob;
  const auto Root = NQueensArray::makeRoot(9);
  long long Expected;
  TreeProfile Profile;
  {
    auto S = Root;
    Expected = runSequential(Prob, S);
    S = Root;
    profileTree(Prob, S, Profile);
  }

  SchedulerPool Pool(4);
  const std::vector<std::thread::id> Ids = Pool.threadIds();
  RecordingExecutor Exec(Pool);

  const SchedulerKind Kinds[] = {
      SchedulerKind::Cilk, SchedulerKind::CilkSynched, SchedulerKind::Cutoff,
      SchedulerKind::AdaptiveTC, SchedulerKind::Tascell};

  int Jobs = 0;
  for (SchedulerKind Kind : Kinds) {
    std::uint64_t FirstRepNodes = 0;
    for (int Rep = 0; Rep != 2; ++Rep) {
      SchedulerConfig Cfg;
      Cfg.Kind = Kind;
      Cfg.NumWorkers = 4;
      Cfg.Executor = &Exec;
      const std::string What = std::string(schedulerKindName(Kind)) +
                               " rep " + std::to_string(Rep);
      RunResult<long long> R = runProblem(Prob, Root, Cfg);
      ++Jobs;
      EXPECT_EQ(R.Value, Expected) << What;
      std::uint64_t NodeCount = R.Stats.TasksCreated + R.Stats.FakeTasks;
      if (Kind != SchedulerKind::Tascell) {
        // Deque-based kinds partition the tree exactly.
        EXPECT_EQ(NodeCount, static_cast<std::uint64_t>(Profile.Nodes))
            << What << ": stats leaked across pool jobs";
      } else if (Rep == 0) {
        // Tascell's task accounting has its own (deterministic)
        // semantics; cross-rep equality is the leak detector there.
        FirstRepNodes = NodeCount;
      } else {
        EXPECT_EQ(NodeCount, FirstRepNodes)
            << What << ": stats leaked across pool jobs";
      }
    }
  }

  // No thread was ever respawned: the id vector is bit-identical, and
  // every job's worker i ran on pool thread i.
  EXPECT_EQ(Pool.threadIds(), Ids);
  EXPECT_EQ(Pool.jobsRun(), static_cast<std::uint64_t>(Jobs));
  ASSERT_EQ(Exec.Jobs.size(), static_cast<std::size_t>(Jobs));
  for (std::size_t J = 0; J != Exec.Jobs.size(); ++J) {
    ASSERT_EQ(Exec.Jobs[J].size(), 4u);
    for (std::size_t W = 0; W != 4; ++W)
      EXPECT_EQ(Exec.Jobs[J][W], Ids[W])
          << "job " << J << " worker " << W << " migrated off its thread";
  }
}

// Narrower jobs share the same pool: a stream mixing 2-worker and
// 4-worker jobs still reuses the one team.
TEST(PoolReuse, MixedWidthJobsShareOnePool) {
  NQueensArray Prob;
  const auto Root = NQueensArray::makeRoot(8);
  long long Expected;
  {
    auto S = Root;
    Expected = runSequential(Prob, S);
  }
  SchedulerPool Pool(4);
  const std::vector<std::thread::id> Ids = Pool.threadIds();
  for (int Job = 0; Job != 6; ++Job) {
    SchedulerConfig Cfg;
    Cfg.Kind = SchedulerKind::AdaptiveTC;
    Cfg.NumWorkers = Job % 2 == 0 ? 2 : 4;
    Cfg.Executor = &Pool;
    RunResult<long long> R = runProblem(Prob, Root, Cfg);
    EXPECT_EQ(R.Value, Expected) << "job " << Job;
  }
  EXPECT_EQ(Pool.threadIds(), Ids);
}

// A long-lived registry shared across pool jobs: the runtime re-arms it
// at the top of every run, so the epoch ticks once per job and the
// post-run cells mirror exactly that job's stats — the isolation the
// server's /metrics exposition depends on.
TEST(PoolReuse, SharedRegistryTicksEpochAndIsolatesStats) {
  NQueensArray Prob;
  const auto Root = NQueensArray::makeRoot(9);
  SchedulerPool Pool(2);
  MetricsRegistry Reg;
  Reg.ClearHistoryOnReset = false;

  SchedulerConfig Cfg;
  Cfg.Kind = SchedulerKind::AdaptiveTC;
  Cfg.NumWorkers = 2;
  Cfg.Executor = &Pool;
  Cfg.MetricsSink = &Reg;

  for (int Job = 0; Job != 3; ++Job) {
    std::uint64_t Before = Reg.epoch();
    RunResult<long long> R = runProblem(Prob, Root, Cfg);
    EXPECT_EQ(Reg.epoch(), Before + 1) << "job " << Job;
    SchedulerStats S = Reg.sample().toStats();
    EXPECT_EQ(S.TasksCreated, R.Stats.TasksCreated) << "job " << Job;
    EXPECT_EQ(S.FakeTasks, R.Stats.FakeTasks) << "job " << Job;
    EXPECT_EQ(S.Steals, R.Stats.Steals) << "job " << Job;
    EXPECT_EQ(S.Spawns, R.Stats.Spawns) << "job " << Job;
  }
}

//===----------------------------------------------------------------------===//
// SchedulerStats / MetricsRegistry reset and epoch regression
//===----------------------------------------------------------------------===//

TEST(SchedulerStatsReset, EveryFieldReturnsToZero) {
  SchedulerStats S;
  for (unsigned F = 0; F != NumStatFields; ++F)
    setStatFieldValue(S, static_cast<StatField>(F), F + 1);
  S.reset();
  for (unsigned F = 0; F != NumStatFields; ++F)
    EXPECT_EQ(statFieldValue(S, static_cast<StatField>(F)), 0u)
        << statFieldName(static_cast<StatField>(F));
}

TEST(MetricsEpoch, RearmZeroesInPlaceAndNeverShrinks) {
  MetricsRegistry Reg;
  Reg.reset(4);
  const std::uint64_t E = Reg.epoch();
  Reg.cell(3).dequeDepthGauge().store(7, std::memory_order_relaxed);
  // Narrower re-arm: cells are zeroed in place (concurrent-reader safe:
  // no reallocation), the width stays, the epoch still ticks.
  Reg.rearm(2);
  EXPECT_EQ(Reg.numWorkers(), 4);
  EXPECT_EQ(Reg.epoch(), E + 1);
  EXPECT_EQ(Reg.cell(3).dequeDepth(), 0) << "stale cells must be zeroed";
  // Wider re-arm grows exactly like reset().
  Reg.rearm(6);
  EXPECT_EQ(Reg.numWorkers(), 6);
  EXPECT_EQ(Reg.epoch(), E + 2);
}

TEST(MetricsEpoch, ResetBumpsEpochAndStampsSnapshots) {
  MetricsRegistry Reg;
  EXPECT_EQ(Reg.epoch(), 0u);
  Reg.reset(2);
  EXPECT_EQ(Reg.epoch(), 1u);
  EXPECT_EQ(Reg.sample().Epoch, 1u);
  Reg.reset(2);
  Reg.reset(2);
  EXPECT_EQ(Reg.epoch(), 3u);
  EXPECT_EQ(Reg.sample().Epoch, 3u);
  // The epoch rides along in the Prometheus exposition.
  std::string Text = renderPrometheus(Reg.sample(), Reg.Meta);
  EXPECT_NE(Text.find("atc_epoch 3\n"), std::string::npos) << Text;
}

TEST(MetricsEpoch, HistoryClearPolicyFollowsTheFlag) {
  MetricsRegistry Reg;
  Reg.reset(1);
  Reg.sampleAndRecord();
  ASSERT_EQ(Reg.history().size(), 1u);
  // Default (one-shot CLI): reset drops history.
  Reg.reset(1);
  EXPECT_TRUE(Reg.history().empty());
  // Server mode: history spans job boundaries, distinguished by Epoch.
  Reg.ClearHistoryOnReset = false;
  Reg.sampleAndRecord();
  Reg.reset(1);
  Reg.sampleAndRecord();
  std::vector<MetricsSnapshot> H = Reg.history();
  ASSERT_EQ(H.size(), 2u);
  EXPECT_EQ(H[0].Epoch + 1, H[1].Epoch);
}

} // namespace
