//===- tests/SchedulerTest.cpp - scheduler integration tests --------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The central correctness property of every scheduler: for any problem
/// and any worker count, the parallel result equals the sequential
/// result. Runs the full matrix of (problem, scheduler kind, thread
/// count), plus targeted tests of AdaptiveTC's behavioural claims (fewer
/// tasks than Cilk, special tasks appear under steal pressure, ...).
///
//===----------------------------------------------------------------------===//

#include "core/Backoff.h"
#include "core/Runtime.h"
#include "core/kernel/StealDecisions.h"
#include "core/tuning/TuningController.h"
#include "problems/FibComp.h"
#include "problems/KnightsTour.h"
#include "problems/NQueens.h"
#include "problems/Pentomino.h"
#include "problems/ProblemRegistry.h"
#include "problems/Strimko.h"
#include "problems/Sudoku.h"

#include <gtest/gtest.h>

#include <climits>

using namespace atc;

namespace {

struct MatrixCase {
  SchedulerKind Kind;
  int Threads;
  DequeKind Deque = DequeKind::The;
  StealPolicy Steal = StealPolicy::One;
  VictimPolicy Victim = VictimPolicy::Affinity;
};

std::string caseName(const ::testing::TestParamInfo<MatrixCase> &Info) {
  std::string Name = schedulerKindName(Info.param.Kind);
  for (char &C : Name)
    if (C == '-')
      C = '_';
  if (Info.param.Deque != DequeKind::The)
    Name += std::string("_") + dequeKindName(Info.param.Deque);
  if (Info.param.Steal != StealPolicy::One)
    Name += std::string("_steal") + stealPolicyName(Info.param.Steal);
  if (Info.param.Victim != VictimPolicy::Affinity)
    Name += std::string("_") + victimPolicyName(Info.param.Victim);
  return Name + "_t" + std::to_string(Info.param.Threads);
}

SchedulerConfig makeConfig(const MatrixCase &MC) {
  SchedulerConfig Cfg;
  Cfg.Kind = MC.Kind;
  Cfg.NumWorkers = MC.Threads;
  Cfg.Deque = MC.Deque;
  Cfg.Steal = MC.Steal;
  Cfg.Victim = MC.Victim;
  return Cfg;
}

constexpr DequeKind AtomicDQ = DequeKind::Atomic;
constexpr DequeKind ChaseLevDQ = DequeKind::ChaseLev;
constexpr StealPolicy HalfSP = StealPolicy::Half;
constexpr VictimPolicy RandomVP = VictimPolicy::Random;
constexpr VictimPolicy PartitionedVP = VictimPolicy::Partitioned;

const MatrixCase AllCases[] = {
    {SchedulerKind::Cilk, 1},        {SchedulerKind::Cilk, 2},
    {SchedulerKind::Cilk, 4},        {SchedulerKind::Cilk, 8},
    {SchedulerKind::CilkSynched, 1}, {SchedulerKind::CilkSynched, 4},
    {SchedulerKind::CilkSynched, 8}, {SchedulerKind::Cutoff, 1},
    {SchedulerKind::Cutoff, 4},      {SchedulerKind::Cutoff, 8},
    {SchedulerKind::AdaptiveTC, 1},  {SchedulerKind::AdaptiveTC, 2},
    {SchedulerKind::AdaptiveTC, 4},  {SchedulerKind::AdaptiveTC, 8},
    {SchedulerKind::Tascell, 1},     {SchedulerKind::Tascell, 2},
    {SchedulerKind::Tascell, 4},     {SchedulerKind::Tascell, 8},
    // The same deque-backed engine kinds over the lock-free deque with
    // growth off (the atomic kind): the deque choice must be invisible
    // to the results.
    {SchedulerKind::Cilk, 1, AtomicDQ},
    {SchedulerKind::Cilk, 4, AtomicDQ},
    {SchedulerKind::Cilk, 8, AtomicDQ},
    {SchedulerKind::CilkSynched, 4, AtomicDQ},
    {SchedulerKind::CilkSynched, 8, AtomicDQ},
    {SchedulerKind::Cutoff, 4, AtomicDQ},
    {SchedulerKind::Cutoff, 8, AtomicDQ},
    {SchedulerKind::AdaptiveTC, 1, AtomicDQ},
    {SchedulerKind::AdaptiveTC, 2, AtomicDQ},
    {SchedulerKind::AdaptiveTC, 4, AtomicDQ},
    {SchedulerKind::AdaptiveTC, 8, AtomicDQ},
    // ... and over the growable ChaseLevDeque.
    {SchedulerKind::Cilk, 1, ChaseLevDQ},
    {SchedulerKind::Cilk, 4, ChaseLevDQ},
    {SchedulerKind::Cilk, 8, ChaseLevDQ},
    {SchedulerKind::CilkSynched, 4, ChaseLevDQ},
    {SchedulerKind::CilkSynched, 8, ChaseLevDQ},
    {SchedulerKind::Cutoff, 4, ChaseLevDQ},
    {SchedulerKind::Cutoff, 8, ChaseLevDQ},
    {SchedulerKind::AdaptiveTC, 1, ChaseLevDQ},
    {SchedulerKind::AdaptiveTC, 2, ChaseLevDQ},
    {SchedulerKind::AdaptiveTC, 4, ChaseLevDQ},
    {SchedulerKind::AdaptiveTC, 8, ChaseLevDQ},
    // Steal-half batch acquisition and the non-default victim orderings
    // must likewise be invisible to the results.
    {SchedulerKind::Cilk, 4, ChaseLevDQ, HalfSP},
    {SchedulerKind::Cilk, 8, AtomicDQ, HalfSP},
    {SchedulerKind::AdaptiveTC, 4, ChaseLevDQ, HalfSP},
    {SchedulerKind::AdaptiveTC, 8, DequeKind::The, HalfSP},
    {SchedulerKind::Cilk, 4, ChaseLevDQ, HalfSP, RandomVP},
    {SchedulerKind::AdaptiveTC, 4, ChaseLevDQ, StealPolicy::One, RandomVP},
    {SchedulerKind::AdaptiveTC, 8, ChaseLevDQ, HalfSP, PartitionedVP},
    {SchedulerKind::Tascell, 4, DequeKind::The, StealPolicy::One, RandomVP},
    {SchedulerKind::Tascell, 8, DequeKind::The, StealPolicy::One,
     PartitionedVP},
};

class SchedulerMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(SchedulerMatrix, NQueensArray) {
  NQueensArray Prob;
  auto Root = NQueensArray::makeRoot(9);
  long long Expected = runSequential(Prob, Root);
  auto R = runProblem(Prob, NQueensArray::makeRoot(9), makeConfig(GetParam()));
  EXPECT_EQ(R.Value, Expected);
}

TEST_P(SchedulerMatrix, NQueensCompute) {
  NQueensCompute Prob;
  auto Root = NQueensCompute::makeRoot(9);
  long long Expected = runSequential(Prob, Root);
  auto R =
      runProblem(Prob, NQueensCompute::makeRoot(9), makeConfig(GetParam()));
  EXPECT_EQ(R.Value, Expected);
}

TEST_P(SchedulerMatrix, Fib) {
  FibProblem Prob;
  auto R = runProblem(Prob, FibProblem::makeRoot(22), makeConfig(GetParam()));
  EXPECT_EQ(R.Value, FibProblem::fibValue(22));
}

TEST_P(SchedulerMatrix, Comp) {
  CompProblem Prob(600, /*ValueRange=*/32);
  auto R = runProblem(Prob, Prob.makeRoot(), makeConfig(GetParam()));
  EXPECT_EQ(R.Value, Prob.referenceCount());
}

TEST_P(SchedulerMatrix, KnightsTour5x5) {
  KnightsTour Prob;
  auto R = runProblem(Prob, KnightsTour::makeRoot(5, 0, 0),
                      makeConfig(GetParam()));
  EXPECT_EQ(R.Value, 304);
}

TEST_P(SchedulerMatrix, Strimko5) {
  Strimko Prob;
  auto Root = Strimko::makeRoot(5);
  long long Expected = runSequential(Prob, Root);
  auto R = runProblem(Prob, Strimko::makeRoot(5), makeConfig(GetParam()));
  EXPECT_EQ(R.Value, Expected);
}

TEST_P(SchedulerMatrix, SudokuBalance) {
  Sudoku Prob;
  auto Root = Sudoku::makeInstance("balance");
  long long Expected = runSequential(Prob, Root);
  auto R = runProblem(Prob, Sudoku::makeInstance("balance"),
                      makeConfig(GetParam()));
  EXPECT_EQ(R.Value, Expected);
}

TEST_P(SchedulerMatrix, PentominoSmall) {
  Pentomino Prob(5, 5, 5);
  auto Root = Prob.makeRoot();
  long long Expected = runSequential(Prob, Root);
  auto R = runProblem(Prob, Prob.makeRoot(), makeConfig(GetParam()));
  EXPECT_EQ(R.Value, Expected);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, SchedulerMatrix,
                         ::testing::ValuesIn(AllCases), caseName);

//===----------------------------------------------------------------------===//
// Repeated-run determinism of results (not of schedules)
//===----------------------------------------------------------------------===//

TEST(SchedulerRepeat, AdaptiveTCManyRunsStaySane) {
  NQueensArray Prob;
  SchedulerConfig Cfg;
  Cfg.Kind = SchedulerKind::AdaptiveTC;
  Cfg.NumWorkers = 4;
  for (int I = 0; I < 10; ++I) {
    Cfg.Seed = 1000 + static_cast<std::uint64_t>(I);
    auto R = runProblem(Prob, NQueensArray::makeRoot(8), Cfg);
    ASSERT_EQ(R.Value, 92) << "run " << I;
  }
}

TEST(SchedulerRepeat, CilkManyRunsStaySane) {
  FibProblem Prob;
  SchedulerConfig Cfg;
  Cfg.Kind = SchedulerKind::Cilk;
  Cfg.NumWorkers = 4;
  for (int I = 0; I < 10; ++I) {
    Cfg.Seed = 2000 + static_cast<std::uint64_t>(I);
    auto R = runProblem(Prob, FibProblem::makeRoot(18), Cfg);
    ASSERT_EQ(R.Value, FibProblem::fibValue(18)) << "run " << I;
  }
}

TEST(SchedulerRepeat, TascellManyRunsStaySane) {
  NQueensCompute Prob;
  SchedulerConfig Cfg;
  Cfg.Kind = SchedulerKind::Tascell;
  Cfg.NumWorkers = 4;
  for (int I = 0; I < 10; ++I) {
    Cfg.Seed = 3000 + static_cast<std::uint64_t>(I);
    auto R = runProblem(Prob, NQueensCompute::makeRoot(8), Cfg);
    ASSERT_EQ(R.Value, 92) << "run " << I;
  }
}

//===----------------------------------------------------------------------===//
// Behavioural claims from the paper
//===----------------------------------------------------------------------===//

TEST(SchedulerBehaviour, AdaptiveTCCreatesFarFewerTasksThanCilk) {
  // Figure 1's point: "our adaptive task creation strategy only generates
  // 20 tasks, while Cilk generates 49 tasks."
  NQueensArray Prob;
  SchedulerConfig Cfg;
  Cfg.NumWorkers = 4;

  Cfg.Kind = SchedulerKind::Cilk;
  auto Cilk = runProblem(Prob, NQueensArray::makeRoot(9), Cfg);
  Cfg.Kind = SchedulerKind::AdaptiveTC;
  auto Atc = runProblem(Prob, NQueensArray::makeRoot(9), Cfg);

  EXPECT_EQ(Cilk.Value, Atc.Value);
  EXPECT_LT(Atc.Stats.TasksCreated, Cilk.Stats.TasksCreated / 4)
      << "AdaptiveTC should create a small fraction of Cilk's tasks";
  EXPECT_GT(Atc.Stats.FakeTasks, 0u)
      << "the bulk of the tree must run as fake tasks";
}

TEST(SchedulerBehaviour, AdaptiveTCCopiesFarLessThanCilk) {
  Sudoku Prob;
  SchedulerConfig Cfg;
  Cfg.NumWorkers = 4;

  Cfg.Kind = SchedulerKind::Cilk;
  auto Cilk = runProblem(Prob, Sudoku::makeInstance("balance"), Cfg);
  Cfg.Kind = SchedulerKind::AdaptiveTC;
  auto Atc = runProblem(Prob, Sudoku::makeInstance("balance"), Cfg);

  EXPECT_EQ(Cilk.Value, Atc.Value);
  EXPECT_LT(Atc.Stats.CopiedBytes, Cilk.Stats.CopiedBytes / 4)
      << "taskprivate copying must collapse with fewer tasks";
}

TEST(SchedulerBehaviour, SingleWorkerAdaptiveTCNeverSpawnsTasksBeyondRoot) {
  // With N = 1 the cut-off is log2(1) = 0: only the root task exists and
  // everything below runs as fake tasks.
  NQueensArray Prob;
  SchedulerConfig Cfg;
  Cfg.Kind = SchedulerKind::AdaptiveTC;
  Cfg.NumWorkers = 1;
  auto R = runProblem(Prob, NQueensArray::makeRoot(8), Cfg);
  EXPECT_EQ(R.Value, 92);
  EXPECT_EQ(R.Stats.TasksCreated, 1u);
  EXPECT_EQ(R.Stats.Steals, 0u);
  EXPECT_EQ(R.Stats.SpecialTasks, 0u);
}

TEST(SchedulerBehaviour, CilkCreatesATaskPerInternalNodeVisit) {
  FibProblem Prob;
  SchedulerConfig Cfg;
  Cfg.Kind = SchedulerKind::Cilk;
  Cfg.NumWorkers = 1;
  auto R = runProblem(Prob, FibProblem::makeRoot(15), Cfg);
  // fib(15) tree: every call is a task in Cilk.
  auto S = FibProblem::makeRoot(15);
  TreeProfile Profile;
  profileTree(Prob, S, Profile);
  EXPECT_EQ(R.Stats.TasksCreated, static_cast<std::uint64_t>(Profile.Nodes));
}

TEST(SchedulerBehaviour, CutoffLimitsTaskDepth) {
  FibProblem Prob;
  SchedulerConfig Cfg;
  Cfg.Kind = SchedulerKind::Cutoff;
  Cfg.NumWorkers = 2;
  Cfg.Cutoff = 3;
  auto R = runProblem(Prob, FibProblem::makeRoot(20), Cfg);
  EXPECT_EQ(R.Value, FibProblem::fibValue(20));
  // At most 2^0 + ... + 2^3 = 15 frames can exist (fib spawns 2 children);
  // allow the root.
  EXPECT_LE(R.Stats.TasksCreated, 15u);
}

TEST(SchedulerBehaviour, TascellReportsPollingAndRequests) {
  // The workload must be long enough that the idle workers' threads get
  // scheduled (and post requests) before worker 0 finishes — on a
  // single-core host that means outlasting an OS timeslice.
  NQueensCompute Prob;
  SchedulerConfig Cfg;
  Cfg.Kind = SchedulerKind::Tascell;
  Cfg.NumWorkers = 4;
  auto R = runProblem(Prob, NQueensCompute::makeRoot(11), Cfg);
  EXPECT_EQ(R.Value, 2680);
  EXPECT_GT(R.Stats.Polls, 0u);
  EXPECT_GT(R.Stats.Requests, 0u);
}

TEST(SchedulerBehaviour, SpecialTasksFireUnderStealPressure) {
  // With max_stolen_num = 0 a single failed steal arms need_task, so the
  // check version must publish special tasks once thieves run dry. The
  // result must be unaffected. (Scheduling on a time-sliced single core
  // is nondeterministic; retry until the path is observed.)
  NQueensArray Prob;
  SchedulerConfig Cfg;
  Cfg.Kind = SchedulerKind::AdaptiveTC;
  Cfg.NumWorkers = 4;
  Cfg.MaxStolenNum = 0;
  std::uint64_t Specials = 0;
  for (int Attempt = 0; Attempt < 10 && Specials == 0; ++Attempt) {
    Cfg.Seed = 77 + static_cast<std::uint64_t>(Attempt);
    auto R = runProblem(Prob, NQueensArray::makeRoot(11), Cfg);
    ASSERT_EQ(R.Value, 2680) << "attempt " << Attempt;
    Specials = R.Stats.SpecialTasks;
  }
  EXPECT_GT(Specials, 0u)
      << "check->fast_2 transition never fired under forced pressure";
}

TEST(SchedulerBehaviour, SpecialTasksFireWithAtomicDeque) {
  // The same forced-pressure scenario over the lock-free deque: the CAS
  // Head += 2 jump and the owner-side popSpecial accounting must carry
  // the special-task protocol end to end.
  NQueensArray Prob;
  SchedulerConfig Cfg;
  Cfg.Kind = SchedulerKind::AdaptiveTC;
  Cfg.Deque = DequeKind::Atomic;
  Cfg.NumWorkers = 4;
  Cfg.MaxStolenNum = 0;
  std::uint64_t Specials = 0;
  for (int Attempt = 0; Attempt < 10 && Specials == 0; ++Attempt) {
    Cfg.Seed = 177 + static_cast<std::uint64_t>(Attempt);
    auto R = runProblem(Prob, NQueensArray::makeRoot(11), Cfg);
    ASSERT_EQ(R.Value, 2680) << "attempt " << Attempt;
    Specials = R.Stats.SpecialTasks;
  }
  EXPECT_GT(Specials, 0u)
      << "special-task path never fired on the atomic deque";
}

TEST(SchedulerBehaviour, SpecialTasksFireWithChaseLevDeque) {
  // Forced pressure over the growable deque: the Head += 2 jump, the
  // owner-side popSpecial accounting AND ring growth (tiny initial
  // capacity) must carry the protocol end to end.
  NQueensArray Prob;
  SchedulerConfig Cfg;
  Cfg.Kind = SchedulerKind::AdaptiveTC;
  Cfg.Deque = DequeKind::ChaseLev;
  Cfg.DequeCapacity = 2; // grows under the run's own spawns
  Cfg.NumWorkers = 4;
  Cfg.MaxStolenNum = 0;
  std::uint64_t Specials = 0;
  for (int Attempt = 0; Attempt < 10 && Specials == 0; ++Attempt) {
    Cfg.Seed = 277 + static_cast<std::uint64_t>(Attempt);
    auto R = runProblem(Prob, NQueensArray::makeRoot(11), Cfg);
    ASSERT_EQ(R.Value, 2680) << "attempt " << Attempt;
    Specials = R.Stats.SpecialTasks;
  }
  EXPECT_GT(Specials, 0u)
      << "special-task path never fired on the Chase-Lev deque";
}

TEST(SchedulerBehaviour, StealHalfBatchesAndStaysExact) {
  // Steal-half on a task-per-node policy (deep deques): batches must
  // actually form, every stashed frame must later drain as a counted
  // steal (Steals > BatchSteals would fail if stashed work was lost),
  // and the result must be unchanged. Scheduling is nondeterministic on
  // a time-sliced host, so retry seeds until a batch is observed.
  NQueensArray Prob;
  SchedulerConfig Cfg;
  Cfg.Kind = SchedulerKind::Cilk;
  Cfg.Deque = DequeKind::ChaseLev;
  Cfg.Steal = StealPolicy::Half;
  Cfg.NumWorkers = 4;
  std::uint64_t Batched = 0;
  for (int Attempt = 0; Attempt < 10 && Batched == 0; ++Attempt) {
    Cfg.Seed = 377 + static_cast<std::uint64_t>(Attempt);
    auto R = runProblem(Prob, NQueensArray::makeRoot(10), Cfg);
    ASSERT_EQ(R.Value, 724) << "attempt " << Attempt;
    ASSERT_EQ(R.Stats.StealAttempts, R.Stats.Steals + R.Stats.StealFails)
        << "attempt " << Attempt;
    ASSERT_GE(R.Stats.Steals, R.Stats.BatchSteals)
        << "every batched frame must drain as a stash-hit steal";
    Batched = R.Stats.BatchSteals;
  }
  EXPECT_GT(Batched, 0u) << "steal-half never claimed a batch";
}

//===----------------------------------------------------------------------===//
// Kernel / policy layering invariants
//===----------------------------------------------------------------------===//

// Every tree node runs under exactly one code version, so the kernel's
// accounting must partition the tree for every task-creation policy over
// every deque kind and steal policy: real tasks + fake tasks = tree
// nodes, and every steal attempt resolves to a steal or a fail (stash
// drains count one of each, so steal-half keeps the identity). This is
// the cross-policy uniformity the shared WorkerRuntime guarantees.
TEST(PolicyMatrix, TaskAccountingPartitionsTheTree) {
  const SchedulerKind Kinds[] = {SchedulerKind::Cilk,
                                 SchedulerKind::CilkSynched,
                                 SchedulerKind::Cutoff,
                                 SchedulerKind::AdaptiveTC};
  const DequeKind Deques[] = {DequeKind::The, DequeKind::Atomic,
                              DequeKind::ChaseLev};
  const StealPolicy Steals[] = {StealPolicy::One, StealPolicy::Half};

  NQueensArray NQ;
  auto NQRoot = NQueensArray::makeRoot(9);
  long long NQExpected = runSequential(NQ, NQRoot);
  TreeProfile NQProfile;
  {
    auto S = NQueensArray::makeRoot(9);
    profileTree(NQ, S, NQProfile);
  }

  Sudoku SU;
  auto SURoot = Sudoku::makeInstance("balance");
  long long SUExpected = runSequential(SU, SURoot);
  TreeProfile SUProfile;
  {
    auto S = Sudoku::makeInstance("balance");
    profileTree(SU, S, SUProfile);
  }

  for (SchedulerKind Kind : Kinds)
    for (DequeKind DQ : Deques)
      for (StealPolicy SP : Steals) {
        SchedulerConfig Cfg;
        Cfg.Kind = Kind;
        Cfg.Deque = DQ;
        Cfg.Steal = SP;
        Cfg.NumWorkers = 4;
        const std::string What = std::string(schedulerKindName(Kind)) +
                                 "/" + dequeKindName(DQ) + "/" +
                                 stealPolicyName(SP);

        auto RN = runProblem(NQ, NQueensArray::makeRoot(9), Cfg);
        EXPECT_EQ(RN.Value, NQExpected) << What;
        EXPECT_EQ(RN.Stats.TasksCreated + RN.Stats.FakeTasks,
                  static_cast<std::uint64_t>(NQProfile.Nodes))
            << What << ": node accounting does not partition the tree";
        EXPECT_EQ(RN.Stats.StealAttempts,
                  RN.Stats.Steals + RN.Stats.StealFails)
            << What;
        if (SP == StealPolicy::One) {
          EXPECT_EQ(RN.Stats.BatchSteals, 0u) << What;
        } else {
          EXPECT_GE(RN.Stats.Steals, RN.Stats.BatchSteals) << What;
        }

        // The heavier Sudoku tree only for steal-one: the batch path is
        // already covered above and the matrix is 24 configs deep.
        if (SP != StealPolicy::One)
          continue;
        auto RS = runProblem(SU, Sudoku::makeInstance("balance"), Cfg);
        EXPECT_EQ(RS.Value, SUExpected) << What;
        EXPECT_EQ(RS.Stats.TasksCreated + RS.Stats.FakeTasks,
                  static_cast<std::uint64_t>(SUProfile.Nodes))
            << What << ": node accounting does not partition the tree";
        EXPECT_EQ(RS.Stats.StealAttempts,
                  RS.Stats.Steals + RS.Stats.StealFails)
            << What;
      }
}

/// Tree size and the root's applied-children count of one problem
/// instance: what the check version's exact accounting is checked against.
struct CheckShape {
  long long Nodes = 0;
  long long RootChildren = 0;
};

template <typename ProbT>
CheckShape checkShapeOf(ProbT &Prob, typename ProbT::State Root) {
  CheckShape Shape;
  TreeProfile Profile;
  auto S = Root;
  profileTree(Prob, S, Profile);
  Shape.Nodes = Profile.Nodes;
  if (!Prob.isLeaf(Root, 0))
    for (int K = 0, N = Prob.numChoices(Root, 0); K < N; ++K)
      if (Prob.applyChoice(Root, 0, K)) {
        ++Shape.RootChildren;
        Prob.undoChoice(Root, 0, K);
      }
  return Shape;
}

/// The same instance makeProblemRunner builds for \p Kind at \p Size,
/// typed, so its tree can be profiled. Returns false for a kind this
/// table does not know (a registry kind added without a row here).
bool registryCheckShape(const std::string &Kind, int Size, CheckShape &Out) {
  if (Kind == "nqueens-array") {
    NQueensArray P;
    Out = checkShapeOf(P, NQueensArray::makeRoot(Size));
  } else if (Kind == "nqueens-compute") {
    NQueensCompute P;
    Out = checkShapeOf(P, NQueensCompute::makeRoot(Size));
  } else if (Kind == "fib") {
    FibProblem P;
    Out = checkShapeOf(P, FibProblem::makeRoot(Size));
  } else if (Kind == "comp") {
    CompProblem P(Size);
    Out = checkShapeOf(P, P.makeRoot());
  } else if (Kind == "knights") {
    KnightsTour P;
    Out = checkShapeOf(P, KnightsTour::makeRoot(Size, 0, 0));
  } else if (Kind == "strimko") {
    Strimko P;
    Out = checkShapeOf(P, Strimko::makeRoot(Size));
  } else if (Kind == "sudoku") {
    Sudoku P;
    Out = checkShapeOf(P, Sudoku::makeInstance(Size == 1   ? "input1"
                                               : Size == 2 ? "input2"
                                                           : "balance"));
  } else if (Kind == "pentomino") {
    Pentomino P(Size, 5, Size);
    Out = checkShapeOf(P, P.makeRoot());
  } else {
    return false;
  }
  return true;
}

// The check version's counters are batched per fake-task subtree, so
// their totals must stay exact, not merely positive. At one worker with
// cut-off 0 need_task never fires and every child of the root enters a
// fake-task subtree: the root is the only real task, every other node is
// a fake task, and every fake node polls once per applied child — i.e.
// every fake node but the subtree entries is one poll.
TEST(CheckPath, ExactAccountingForEveryRegistryProblem) {
  for (const std::string &Kind : problemRegistryKinds()) {
    const int Size = problemDefaultSize(Kind);
    CheckShape Shape;
    ASSERT_TRUE(registryCheckShape(Kind, Size, Shape))
        << "registry kind '" << Kind << "' has no typed instance here";
    ProblemRunner Runner;
    std::string Err;
    ASSERT_TRUE(makeProblemRunner(Kind, Size, Runner, Err)) << Err;

    SchedulerConfig Cfg;
    Cfg.Kind = SchedulerKind::AdaptiveTC;
    Cfg.NumWorkers = 1;
    Cfg.Cutoff = 0;
    auto R = Runner.Run(Cfg);
    EXPECT_EQ(R.Value, Runner.RunSequential()) << Kind;
    EXPECT_EQ(R.Stats.TasksCreated, 1u) << Kind;
    EXPECT_EQ(R.Stats.SpecialTasks, 0u) << Kind;
    EXPECT_EQ(R.Stats.FakeTasks, static_cast<std::uint64_t>(Shape.Nodes - 1))
        << Kind;
    EXPECT_EQ(R.Stats.Polls, R.Stats.FakeTasks - static_cast<std::uint64_t>(
                                                     Shape.RootChildren))
        << Kind;
  }
}

// Online tuning moves the cut-off, max_stolen_num and backoff knobs
// mid-run, but it must stay result- and accounting-invisible: every tree
// node still runs under exactly one code version (a dispatch reads one
// cut-off value, whichever it is), so real + fake tasks must still
// partition the tree and every steal attempt must still resolve — across
// scheduler kinds and deque kinds. In an ATC_TUNING=OFF build the flag
// is inert and this leg degenerates to the static matrix, which must
// also pass.
TEST(PolicyMatrix, TuningPreservesNodeAccounting) {
  const SchedulerKind Kinds[] = {SchedulerKind::Cilk,
                                 SchedulerKind::Cutoff,
                                 SchedulerKind::AdaptiveTC};
  const DequeKind Deques[] = {DequeKind::The, DequeKind::Atomic,
                              DequeKind::ChaseLev};

  NQueensArray NQ;
  auto NQRoot = NQueensArray::makeRoot(9);
  long long Expected = runSequential(NQ, NQRoot);
  TreeProfile Profile;
  {
    auto S = NQueensArray::makeRoot(9);
    profileTree(NQ, S, Profile);
  }

  for (SchedulerKind Kind : Kinds)
    for (DequeKind DQ : Deques) {
      SchedulerConfig Cfg;
      Cfg.Kind = Kind;
      Cfg.Deque = DQ;
      Cfg.NumWorkers = 4;
      Cfg.Tuning = true;
      const std::string What = std::string(schedulerKindName(Kind)) + "/" +
                               dequeKindName(DQ) + "/tuned";

      auto R = runProblem(NQ, NQueensArray::makeRoot(9), Cfg);
      EXPECT_EQ(R.Value, Expected) << What;
      EXPECT_EQ(R.Stats.TasksCreated + R.Stats.FakeTasks,
                static_cast<std::uint64_t>(Profile.Nodes))
          << What << ": node accounting does not partition the tree";
      EXPECT_EQ(R.Stats.StealAttempts, R.Stats.Steals + R.Stats.StealFails)
          << What;
    }
}

// Victim ordering is kernel-owned, so every scheduler kind — Tascell's
// mailbox engine included — must accept every VictimPolicy and produce
// the same result. Partitioned runs with a group smaller than the worker
// count so both the in-group and the escalation path execute.
TEST(PolicyMatrix, VictimPoliciesAreResultInvisible) {
  const SchedulerKind Kinds[] = {SchedulerKind::Cilk,
                                 SchedulerKind::AdaptiveTC,
                                 SchedulerKind::Tascell};
  const VictimPolicy Victims[] = {VictimPolicy::Affinity,
                                  VictimPolicy::Random,
                                  VictimPolicy::Partitioned};
  NQueensArray Prob;
  auto Root = NQueensArray::makeRoot(9);
  long long Expected = runSequential(Prob, Root);
  for (SchedulerKind Kind : Kinds)
    for (VictimPolicy VP : Victims) {
      SchedulerConfig Cfg;
      Cfg.Kind = Kind;
      Cfg.Victim = VP;
      Cfg.VictimGroupSize = 2;
      Cfg.NumWorkers = 4;
      auto R = runProblem(Prob, NQueensArray::makeRoot(9), Cfg);
      EXPECT_EQ(R.Value, Expected) << schedulerKindName(Kind) << "/"
                                   << victimPolicyName(VP);
      if (VP != VictimPolicy::Affinity) {
        EXPECT_EQ(R.Stats.AffinityHits, 0u)
            << "affinity retries must be exclusive to the Affinity policy";
      }
    }
}

//===----------------------------------------------------------------------===//
// Steal decisions (core/kernel/StealDecisions.h), shared with the simulator
//===----------------------------------------------------------------------===//

TEST(StealDecisions, ChoiceNeverReturnsSelf) {
  SplitMix64 Rng(42);
  for (VictimPolicy VP : {VictimPolicy::Affinity, VictimPolicy::Random,
                          VictimPolicy::Partitioned})
    for (int N : {2, 3, 5, 8})
      for (int Self = 0; Self < N; ++Self)
        for (int Last : {-1, Self, (Self + 1) % N})
          for (int Streak = 0; Streak < 20; ++Streak) {
            VictimChoice C = chooseVictim(VP, /*GroupSize=*/4, N, Self, Last,
                                          Streak, Rng);
            ASSERT_NE(C.Victim, Self) << victimPolicyName(VP) << " N=" << N;
            ASSERT_GE(C.Victim, 0);
            ASSERT_LT(C.Victim, N);
          }
}

TEST(StealDecisions, PartitionedStaysInGroupUntilTwoSweeps) {
  SplitMix64 Rng(7);
  // Worker 5 of 8 in groups of 4: group [4, 8), span 4, so the first
  // 2 * 4 failures stay local and the ninth attempt may go anywhere.
  for (int Streak = 0; Streak < 8; ++Streak)
    for (int I = 0; I < 64; ++I) {
      int V = chooseVictim(VictimPolicy::Partitioned, 4, 8, 5, -1, Streak, Rng)
                  .Victim;
      ASSERT_GE(V, 4) << "streak " << Streak;
      ASSERT_LT(V, 8) << "streak " << Streak;
    }
  bool LeftGroup = false;
  for (int I = 0; I < 64; ++I)
    LeftGroup |=
        chooseVictim(VictimPolicy::Partitioned, 4, 8, 5, -1, 8, Rng).Victim < 4;
  EXPECT_TRUE(LeftGroup) << "a dry group must escalate to global stealing";
  // A ragged tail group (workers 4..5 of 6) has span 2: its one peer
  // until the streak reaches 4.
  for (int Streak = 0; Streak < 4; ++Streak)
    EXPECT_EQ(
        chooseVictim(VictimPolicy::Partitioned, 4, 6, 5, -1, Streak, Rng)
            .Victim,
        4);
}

TEST(StealDecisions, AffineOnlyOnLastVictimRetry) {
  SplitMix64 Rng(9);
  VictimChoice C = chooseVictim(VictimPolicy::Affinity, 4, 8, 2, 6, 0, Rng);
  EXPECT_EQ(C.Victim, 6);
  EXPECT_TRUE(C.Affine);
  for (int I = 0; I < 32; ++I) {
    // No last victim, or a stale self-reference: a random draw.
    EXPECT_FALSE(
        chooseVictim(VictimPolicy::Affinity, 4, 8, 2, -1, 0, Rng).Affine);
    EXPECT_FALSE(
        chooseVictim(VictimPolicy::Affinity, 4, 8, 2, 2, 0, Rng).Affine);
    // The other policies never retry, last victim or not.
    EXPECT_FALSE(
        chooseVictim(VictimPolicy::Random, 4, 8, 2, 6, 0, Rng).Affine);
    EXPECT_FALSE(
        chooseVictim(VictimPolicy::Partitioned, 4, 8, 2, 6, 0, Rng).Affine);
  }
}

TEST(StealDecisions, StealHalfWidthNeverExceedsMaxStolenMinusOne) {
  for (int MaxStolen : {-1, 0, 1, 2, 3, 20})
    for (int Remaining = 0; Remaining <= 64; ++Remaining) {
      const int W = stealHalfWidth(Remaining, MaxStolen);
      EXPECT_GE(W, 0);
      EXPECT_LE(W, Remaining / 2);
      EXPECT_LE(W, std::max(MaxStolen, 1) - 1)
          << "remaining " << Remaining << ", max_stolen " << MaxStolen;
    }
  EXPECT_EQ(stealHalfWidth(10, 20), 5);
  EXPECT_EQ(stealHalfWidth(10, 3), 2);
  EXPECT_EQ(stealHalfWidth(10, 1), 0);
}

TEST(StealDecisions, IdleLadderYieldsThroughTheSpinBudget) {
  for (int Budget : {0, 4, 21, 63})
    for (int MaxShift : {0, 2, 7, 10})
      for (int Streak = 0; Streak <= Budget; ++Streak)
        EXPECT_EQ(backoffSleepUs(Streak, Budget, MaxShift), 0)
            << "streak " << Streak << ", budget " << Budget;
}

TEST(StealDecisions, IdleLadderSleepsDoublingPastTheBudgetUpToTheCap) {
  for (int Budget : {0, 63})
    for (int MaxShift : {0, 2, 7, 10})
      for (int Past = 1; Past <= MaxShift + 4; ++Past)
        EXPECT_EQ(backoffSleepUs(Budget + Past, Budget, MaxShift),
                  1 << std::min(Past - 1, MaxShift))
            << "budget " << Budget << ", cap shift " << MaxShift
            << ", streak " << Budget + Past;
  EXPECT_EQ(backoffSleepUs(64, 63, DefaultBackoffShift), 1);
  EXPECT_EQ(backoffSleepUs(65, 63, DefaultBackoffShift), 2);
  EXPECT_EQ(backoffSleepUs(66, 63, DefaultBackoffShift), 4);
  EXPECT_EQ(backoffSleepUs(INT_MAX, 63, DefaultBackoffShift), 128);
}

TEST(StealDecisions, SpinBudgetLetsOneThiefRaiseNeedTaskOnAnyVictim) {
  // (NumWorkers - 1) x (max_stolen_num + 1): even if every failure lands
  // on a different peer in turn, each peer collects more than
  // max_stolen_num of them before the thief sleeps.
  EXPECT_EQ(idleSpinBudget(4, 20), 63);
  EXPECT_EQ(idleSpinBudget(2, 20), 21);
  EXPECT_EQ(idleSpinBudget(8, 0), 7);
  EXPECT_EQ(idleSpinBudget(1, 20), 0);
  for (int Workers = 2; Workers <= 16; ++Workers)
    for (int MaxStolen : {0, 1, 20, 500})
      EXPECT_GT(idleSpinBudget(Workers, MaxStolen) / (Workers - 1),
                MaxStolen);
}

TEST(StealDecisions, SpinBudgetFollowsTheTunedMaxStolenNum) {
  // The kernel sizes the budget from the thief's live knob, as it does
  // the steal-half bound; a tuned-up threshold buys a longer yield phase.
  TuningController T;
  T.arm(/*InitCutoff=*/2, /*InitMaxStolen=*/40);
  const int Live = liveMaxStolen(&T, /*Def=*/20);
#if ATC_TUNING_ENABLED
  EXPECT_EQ(Live, 40);
  EXPECT_EQ(idleSpinBudget(4, Live), 123);
#else
  EXPECT_EQ(Live, 20);
  EXPECT_EQ(idleSpinBudget(4, Live), 63);
#endif
  EXPECT_EQ(idleSpinBudget(4, liveMaxStolen(nullptr, 20)), 63);
}

TEST(StealDecisions, SpinBudgetSaturatesInsteadOfOverflowing) {
  EXPECT_EQ(idleSpinBudget(2, INT_MAX), INT_MAX);
  EXPECT_EQ(idleSpinBudget(4, INT_MAX), INT_MAX);
  EXPECT_EQ(idleSpinBudget(INT_MAX, INT_MAX), INT_MAX);
  EXPECT_EQ(idleSpinBudget(4, 500), 1503); // PropertyTest's msn500 case
  // A saturated budget never sleeps, even at the largest streak.
  EXPECT_EQ(backoffSleepUs(INT_MAX, idleSpinBudget(4, INT_MAX),
                           DefaultBackoffShift),
            0);
}

// Before the kernel refactor Tascell never reported steal-path counters;
// now the shared steal loop counts attempts for it like for every other
// kind (requests may additionally be abandoned at termination, so
// attempts can exceed steals + fails, never the reverse).
TEST(PolicyMatrix, TascellReportsKernelStealCounters) {
  NQueensCompute Prob;
  SchedulerConfig Cfg;
  Cfg.Kind = SchedulerKind::Tascell;
  Cfg.NumWorkers = 4;
  auto R = runProblem(Prob, NQueensCompute::makeRoot(11), Cfg);
  EXPECT_EQ(R.Value, 2680);
  EXPECT_GT(R.Stats.StealAttempts, 0u);
  EXPECT_GE(R.Stats.StealAttempts, R.Stats.Steals + R.Stats.StealFails);
}

TEST(FrameRecycling, ResetRestoresFreshlyConstructedState) {
  using Frame = TaskFrame<NQueensArray>;

  // Layout guard: frames are recycled through ObjectArena without
  // re-running the constructor, so every field TaskFrame gains must be
  // restored by reset(). This mirror repeats the layout; if the sizes
  // diverge, a field was added or removed — update reset() and the
  // mirror together.
  struct FrameMirror {
    NQueensArray::State *StatePtr;
    NQueensArray::Result PartialAcc, Deposits, SyncAcc;
    int LastChoice, Depth, SpawnDepth;
    std::atomic<int> JoinCount;
    FrameMirror *Parent;
    std::mutex Lock;
    bool Suspended, Special, Detached, OwnsState;
    int AllocWorker;
  };
  static_assert(sizeof(Frame) == sizeof(FrameMirror),
                "TaskFrame layout changed: update reset() and this test");

  Frame F, Parent;
  NQueensArray::State Dummy{};
  F.StatePtr = &Dummy;
  F.PartialAcc = 11;
  F.Deposits = 22;
  F.SyncAcc = 33;
  F.LastChoice = 4;
  F.Depth = 5;
  F.SpawnDepth = 6;
  F.JoinCount.store(7, std::memory_order_relaxed);
  F.Parent = &Parent;
  F.Suspended = true;
  F.Special = true;
  F.Detached = true;
  F.OwnsState = true;
  F.AllocWorker = 9;

  F.reset();

  EXPECT_EQ(F.StatePtr, nullptr);
  EXPECT_EQ(F.PartialAcc, NQueensArray::Result{});
  EXPECT_EQ(F.Deposits, NQueensArray::Result{});
  EXPECT_EQ(F.SyncAcc, NQueensArray::Result{});
  EXPECT_EQ(F.LastChoice, -1);
  EXPECT_EQ(F.Depth, 0);
  EXPECT_EQ(F.SpawnDepth, 0);
  EXPECT_EQ(F.JoinCount.load(std::memory_order_relaxed), 0);
  EXPECT_EQ(F.Parent, nullptr);
  EXPECT_FALSE(F.Suspended);
  EXPECT_FALSE(F.Special);
  EXPECT_FALSE(F.Detached);
  EXPECT_FALSE(F.OwnsState);
  // AllocWorker describes the storage, not the task: it must survive.
  EXPECT_EQ(F.AllocWorker, 9);
}

TEST(SchedulerBehaviour, StatsAggregateAcrossRuns) {
  SchedulerStats A, B;
  A.TasksCreated = 3;
  A.DequeHighWater = 5;
  A.PoolOverflows = 1;
  A.ArenaHighWater = 4;
  B.TasksCreated = 4;
  B.DequeHighWater = 2;
  B.PoolOverflows = 2;
  B.ArenaHighWater = 9;
  A += B;
  EXPECT_EQ(A.TasksCreated, 7u);
  EXPECT_EQ(A.DequeHighWater, 5);
  EXPECT_EQ(A.PoolOverflows, 3u);
  EXPECT_EQ(A.ArenaHighWater, 9);
  EXPECT_NE(A.summary().find("tasks=7"), std::string::npos);
  EXPECT_NE(A.summary().find("pool_overflows=3"), std::string::npos);
}

TEST(SchedulerBehaviour, TinyPoolCapOverflowsToHeapAndIsCounted) {
  // With a two-chunk pool nearly every frame/workspace allocation falls
  // past the cap onto the heap; the run must still be correct and the
  // cap-overflow frees must show up in the stats.
  NQueensArray Prob;
  SchedulerConfig Cfg;
  Cfg.Kind = SchedulerKind::CilkSynched;
  Cfg.NumWorkers = 2;
  Cfg.PoolCap = 2;
  auto R = runProblem(Prob, NQueensArray::makeRoot(8), Cfg);
  EXPECT_EQ(R.Value, 92);
  EXPECT_GT(R.Stats.PoolOverflows, 0u);
  EXPECT_LE(R.Stats.ArenaHighWater, 2);
}

TEST(SchedulerBehaviour, DefaultPoolCapAbsorbsNQueens) {
  // The default cap (SchedulerConfig::PoolCap) comfortably covers the
  // depth-bounded live-frame population: no overflow, and the high-water
  // mark reports the true peak.
  NQueensArray Prob;
  SchedulerConfig Cfg;
  Cfg.Kind = SchedulerKind::AdaptiveTC;
  Cfg.NumWorkers = 2;
  auto R = runProblem(Prob, NQueensArray::makeRoot(8), Cfg);
  EXPECT_EQ(R.Value, 92);
  EXPECT_EQ(R.Stats.PoolOverflows, 0u);
  EXPECT_GT(R.Stats.ArenaHighWater, 0);
  EXPECT_LE(R.Stats.ArenaHighWater, Cfg.PoolCap);
}

} // namespace
