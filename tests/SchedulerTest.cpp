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
#include "problems/ProblemRegistry.h"
#include "sim/SyntheticTreeProblem.h"

#include "ParamNames.h"

#include <gtest/gtest.h>

#include <climits>
#include <new>
#include <vector>

using namespace atc;

namespace {

/// The matrix's THE deque setups. GoogleTest prints the parameter's bytes
/// in every test name, so the enumerators keep the byte values (0, 1, 2)
/// and the row labels (none, "_chaselev", "_atomic") that the deleted deque
/// kinds gave them:
///
///  * The (0, no label)          - the default capacity (8192 entries).
///  * FsmBound (1, "_chaselev")  - capacity FiveVersionFsm::maxOwnerPushes()
///                                 (6C + 1): an AdaptiveTC run must never
///                                 overflow it, and the other kinds
///                                 degrade their overflowing spawns.
///  * TwoSlots (2, "_atomic")    - capacity 2: every kind overflows while
///                                 thieves are stealing.
enum class MatrixDeque { The, FsmBound, TwoSlots };

/// The matrix's victim-selection seeds. Like MatrixDeque, the enumerators
/// keep the byte values (0, 1) and labels (none, "_random") of the deleted
/// victim orderings:
///
///  * Default (0, no label)   - SchedulerConfig's default seed.
///  * Alternate (1, "_random") - another seed, so every worker draws
///                               another victim sequence; the results
///                               must not depend on it.
enum class MatrixSeed { Default, Alternate };

struct MatrixCase {
  SchedulerKind Kind;
  int Threads;
  MatrixDeque Deque = MatrixDeque::The;
  MatrixSeed Seed = MatrixSeed::Default;
};

/// The parameter text of each row's name, as GoogleTest once printed the
/// case's raw bytes: Kind, Threads, Deque, an always-zero int (the slot of
/// the deleted steal-width setting), then Seed.
void PrintTo(const MatrixCase &MC, std::ostream *OS) {
  test::printIntFieldsAsBytes({static_cast<int>(MC.Kind), MC.Threads,
                               static_cast<int>(MC.Deque), 0,
                               static_cast<int>(MC.Seed)},
                              OS);
}

std::string caseName(const ::testing::TestParamInfo<MatrixCase> &Info) {
  std::string Name = schedulerKindName(Info.param.Kind);
  for (char &C : Name)
    if (C == '-')
      C = '_';
  // Labels from the deleted deque kinds; see MatrixDeque.
  if (Info.param.Deque == MatrixDeque::FsmBound)
    Name += "_chaselev";
  else if (Info.param.Deque == MatrixDeque::TwoSlots)
    Name += "_atomic";
  if (Info.param.Seed == MatrixSeed::Alternate)
    Name += "_random";
  return Name + "_t" + std::to_string(Info.param.Threads);
}

SchedulerConfig makeConfig(const MatrixCase &MC) {
  SchedulerConfig Cfg;
  Cfg.Kind = MC.Kind;
  Cfg.NumWorkers = MC.Threads;
  if (MC.Deque == MatrixDeque::FsmBound)
    Cfg.DequeCapacity =
        AdaptiveTCTaskPolicy(effectiveCutoff(Cfg.Cutoff, Cfg.NumWorkers))
            .Fsm.maxOwnerPushes();
  else if (MC.Deque == MatrixDeque::TwoSlots)
    Cfg.DequeCapacity = 2;
  if (MC.Seed == MatrixSeed::Alternate)
    Cfg.Seed = 0x9e3779b97f4a7c15ULL;
  return Cfg;
}

constexpr MatrixDeque FsmBoundDQ = MatrixDeque::FsmBound;
constexpr MatrixDeque TwoSlotsDQ = MatrixDeque::TwoSlots;
constexpr MatrixSeed AltSeed = MatrixSeed::Alternate;

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
    // The same deque-backed engine kinds over a 2-slot THE array: spawns
    // that overflow it run as plain calls, so the capacity must be
    // invisible to the results ...
    {SchedulerKind::Cilk, 1, TwoSlotsDQ},
    {SchedulerKind::Cilk, 4, TwoSlotsDQ},
    {SchedulerKind::Cilk, 8, TwoSlotsDQ},
    {SchedulerKind::CilkSynched, 4, TwoSlotsDQ},
    {SchedulerKind::CilkSynched, 8, TwoSlotsDQ},
    {SchedulerKind::Cutoff, 4, TwoSlotsDQ},
    {SchedulerKind::Cutoff, 8, TwoSlotsDQ},
    {SchedulerKind::AdaptiveTC, 1, TwoSlotsDQ},
    {SchedulerKind::AdaptiveTC, 2, TwoSlotsDQ},
    {SchedulerKind::AdaptiveTC, 4, TwoSlotsDQ},
    {SchedulerKind::AdaptiveTC, 8, TwoSlotsDQ},
    // ... and over an array of exactly the FSM's bound, which AdaptiveTC
    // must never overflow.
    {SchedulerKind::Cilk, 1, FsmBoundDQ},
    {SchedulerKind::Cilk, 4, FsmBoundDQ},
    {SchedulerKind::Cilk, 8, FsmBoundDQ},
    {SchedulerKind::CilkSynched, 4, FsmBoundDQ},
    {SchedulerKind::CilkSynched, 8, FsmBoundDQ},
    {SchedulerKind::Cutoff, 4, FsmBoundDQ},
    {SchedulerKind::Cutoff, 8, FsmBoundDQ},
    {SchedulerKind::AdaptiveTC, 1, FsmBoundDQ},
    {SchedulerKind::AdaptiveTC, 2, FsmBoundDQ},
    {SchedulerKind::AdaptiveTC, 4, FsmBoundDQ},
    {SchedulerKind::AdaptiveTC, 8, FsmBoundDQ},
    // Another victim sequence must likewise be invisible to the results.
    {SchedulerKind::Cilk, 4, FsmBoundDQ, AltSeed},
    {SchedulerKind::AdaptiveTC, 4, FsmBoundDQ, AltSeed},
    {SchedulerKind::AdaptiveTC, 8, FsmBoundDQ, AltSeed},
    {SchedulerKind::Tascell, 4, MatrixDeque::The, AltSeed},
    {SchedulerKind::Tascell, 8, MatrixDeque::The, AltSeed},
};

class SchedulerMatrix : public ::testing::TestWithParam<MatrixCase> {
protected:
  /// Runs \p Prob from \p Root under the row's setup and checks the
  /// value. Every deque-based run copies one workspace per spawn site
  /// visit, which then either pushes or overflows (the 2-slot rows drive
  /// the overflow fallback at all three sites). On the FSM-bound array an
  /// AdaptiveTC run must also never overflow.
  template <SearchProblem P>
  void expectRun(P &Prob, const typename P::State &Root,
                 long long Expected) {
    const MatrixCase &MC = GetParam();
    auto R = runProblem(Prob, Root, makeConfig(MC));
    EXPECT_EQ(R.Value, Expected);
    if (MC.Kind != SchedulerKind::Tascell) {
      EXPECT_EQ(R.Stats.WorkspaceCopies,
                R.Stats.Spawns + R.Stats.DequeOverflows)
          << "spawns " << R.Stats.Spawns << ", overflows "
          << R.Stats.DequeOverflows;
    }
    if (MC.Kind == SchedulerKind::AdaptiveTC &&
        MC.Deque == MatrixDeque::FsmBound) {
      EXPECT_EQ(R.Stats.DequeOverflows, 0u)
          << "high-water " << R.Stats.DequeHighWater;
    }
  }
};

TEST_P(SchedulerMatrix, NQueensArray) {
  NQueensArray Prob;
  auto Root = NQueensArray::makeRoot(9);
  long long Expected = runSequential(Prob, Root);
  expectRun(Prob, NQueensArray::makeRoot(9), Expected);
}

TEST_P(SchedulerMatrix, NQueensCompute) {
  NQueensCompute Prob;
  auto Root = NQueensCompute::makeRoot(9);
  long long Expected = runSequential(Prob, Root);
  expectRun(Prob, NQueensCompute::makeRoot(9), Expected);
}

TEST_P(SchedulerMatrix, Fib) {
  FibProblem Prob;
  expectRun(Prob, FibProblem::makeRoot(22), FibProblem::fibValue(22));
}

TEST_P(SchedulerMatrix, Comp) {
  CompProblem Prob(600, /*ValueRange=*/32);
  expectRun(Prob, Prob.makeRoot(), Prob.referenceCount());
}

TEST_P(SchedulerMatrix, KnightsTour5x5) {
  KnightsTour Prob;
  expectRun(Prob, KnightsTour::makeRoot(5, 0, 0), 304);
}

TEST_P(SchedulerMatrix, Strimko5) {
  Strimko Prob;
  auto Root = Strimko::makeRoot(5);
  long long Expected = runSequential(Prob, Root);
  expectRun(Prob, Strimko::makeRoot(5), Expected);
}

TEST_P(SchedulerMatrix, SudokuBalance) {
  Sudoku Prob;
  auto Root = Sudoku::makeInstance("balance");
  long long Expected = runSequential(Prob, Root);
  expectRun(Prob, Sudoku::makeInstance("balance"), Expected);
}

TEST_P(SchedulerMatrix, PentominoSmall) {
  Pentomino Prob(5, 5, 5);
  auto Root = Prob.makeRoot();
  long long Expected = runSequential(Prob, Root);
  expectRun(Prob, Prob.makeRoot(), Expected);
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

/// Number of nodes at each depth of \p Prob's tree below \p S.
template <SearchProblem P>
void countNodesByDepth(P &Prob, typename P::State &S, int Depth,
                       std::vector<long long> &Out) {
  if (Out.size() <= static_cast<std::size_t>(Depth))
    Out.resize(static_cast<std::size_t>(Depth) + 1);
  ++Out[static_cast<std::size_t>(Depth)];
  if (Prob.isLeaf(S, Depth))
    return;
  const int N = Prob.numChoices(S, Depth);
  for (int K = 0; K < N; ++K) {
    if (!Prob.applyChoice(S, Depth, K))
      continue;
    countNodesByDepth(Prob, S, Depth + 1, Out);
    Prob.undoChoice(S, Depth, K);
  }
}

TEST(SchedulerBehaviour, AdaptiveTCCreatesFarFewerTasksThanCilk) {
  // Figure 1's point: "our adaptive task creation strategy only generates
  // 20 tasks, while Cilk generates 49 tasks." Stated so that it holds on
  // every interleaving: a 4-worker task count depends on how often
  // thieves starve, so only FSM bounds are compared at 4 workers.
  NQueensArray Prob;
  std::vector<long long> ByDepth;
  {
    auto S = NQueensArray::makeRoot(9);
    countNodesByDepth(Prob, S, 0, ByDepth);
  }
  long long Nodes = 0;
  for (long long N : ByDepth)
    Nodes += N;
  const auto NodeCount = static_cast<std::uint64_t>(Nodes);

  // Cilk makes every node a task, whatever the schedule.
  SchedulerConfig Cfg;
  Cfg.NumWorkers = 4;
  Cfg.Kind = SchedulerKind::Cilk;
  auto Cilk = runProblem(Prob, NQueensArray::makeRoot(9), Cfg);
  EXPECT_EQ(Cilk.Value, 352);
  EXPECT_EQ(Cilk.Stats.TasksCreated, NodeCount);

  // One worker is deterministic: the root is AdaptiveTC's only task and
  // the rest of the tree runs as fake tasks.
  SchedulerConfig One = Cfg;
  One.NumWorkers = 1;
  One.Kind = SchedulerKind::AdaptiveTC;
  auto Atc1 = runProblem(Prob, NQueensArray::makeRoot(9), One);
  EXPECT_EQ(Atc1.Value, 352);
  EXPECT_EQ(Atc1.Stats.TasksCreated, 1u);
  EXPECT_EQ(Atc1.Stats.FakeTasks, NodeCount - 1);

  // Four workers with need_task held off (so no special task opens a
  // fast_2 window): fast and slow frames spawn every node down to depth
  // C, then one spine chain of at most 3C first children below each
  // depth-C node, plus at most one more chain per steal (a resumed
  // frame's first child after the resume). That bounds the tasks on any
  // interleaving; every other node runs as a fake task.
  Cfg.Kind = SchedulerKind::AdaptiveTC;
  Cfg.MaxStolenNum = INT_MAX;
  const int C = effectiveCutoff(Cfg.Cutoff, Cfg.NumWorkers);
  ASSERT_LT(static_cast<std::size_t>(C), ByDepth.size());
  long long UpToCutoff = 0;
  for (int D = 0; D <= C; ++D)
    UpToCutoff += ByDepth[static_cast<std::size_t>(D)];
  // "Far fewer", on the bound itself: with no steal, the FSM allows
  // under a quarter of Cilk's tasks.
  EXPECT_LT(UpToCutoff + 3 * C * ByDepth[static_cast<std::size_t>(C)],
            Nodes / 4);
  for (int Rep = 0; Rep < 5; ++Rep) {
    Cfg.Seed = 0x7a5c + static_cast<std::uint64_t>(Rep);
    auto Atc = runProblem(Prob, NQueensArray::makeRoot(9), Cfg);
    EXPECT_EQ(Atc.Value, 352);
    EXPECT_EQ(Atc.Stats.SpecialTasks, 0u) << "rep " << Rep;
    EXPECT_EQ(Atc.Stats.TasksCreated + Atc.Stats.FakeTasks, NodeCount)
        << "rep " << Rep;
    const long long Chains =
        ByDepth[static_cast<std::size_t>(C)] +
        static_cast<long long>(Atc.Stats.Steals);
    EXPECT_LE(static_cast<long long>(Atc.Stats.TasksCreated),
              UpToCutoff + 3 * C * Chains)
        << "rep " << Rep << ", steals " << Atc.Stats.Steals;
  }

  // The default configuration, need_task and special tasks included.
  // Fast and slow nodes spawn nothing at spawn depth 4C or more, and
  // the tree is deeper than 4C, so some node runs as a fake task
  // whatever the interleaving.
  ASSERT_GT(ByDepth.size(), static_cast<std::size_t>(4 * C + 1));
  SchedulerConfig Default;
  Default.NumWorkers = 4;
  Default.Kind = SchedulerKind::AdaptiveTC;
  auto Atc = runProblem(Prob, NQueensArray::makeRoot(9), Default);
  EXPECT_EQ(Atc.Value, 352);
  EXPECT_GT(Atc.Stats.FakeTasks, 0u);
  EXPECT_LT(Atc.Stats.TasksCreated, Cilk.Stats.TasksCreated);
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

TEST(SpineStress, Tree3lMatchesOracleWithinTheOccupancyBound) {
  // The Spine variant's first-child chains are what thieves take on a
  // left-heavy tree. The leaves must still sum exactly, and the THE
  // array's high-water mark must stay within the FSM's bound of 6C + 1:
  // its indices rewind whenever a failed pop empties it, so the mark
  // tracks one spawn chain's depth, under steals too.
  SyntheticTreeProblem Prob(SimTree::preset("tree3l", 20'000));
  const long long Expected = Prob.expectedLeaves();
  // The bound's first term is the spine: one entry per spawn depth below
  // 4C. With one worker no thief raises need_task, so the spine is all
  // the deque holds, and the tree's leftmost path (deeper than 12) fills
  // it exactly. The cut-off is explicit because the default, log2 of
  // the worker count, is 0 at one worker.
  for (int Cutoff : {1, 2, 3}) {
    SchedulerConfig Cfg;
    Cfg.Kind = SchedulerKind::AdaptiveTC;
    Cfg.NumWorkers = 1;
    Cfg.Cutoff = Cutoff;
    auto R = runProblem(Prob, Prob.makeRoot(), Cfg);
    EXPECT_EQ(R.Value, Expected) << "cut-off " << Cutoff;
    EXPECT_EQ(R.Stats.DequeHighWater, 4 * Cutoff) << "cut-off " << Cutoff;
  }
  for (int Threads : {4, 8}) {
    SchedulerConfig Cfg;
    Cfg.Kind = SchedulerKind::AdaptiveTC;
    Cfg.NumWorkers = Threads;
    auto R = runProblem(Prob, Prob.makeRoot(), Cfg);
    const std::string Where = std::to_string(Threads) + " workers";
    EXPECT_EQ(R.Value, Expected) << Where;
    EXPECT_LE(R.Stats.DequeHighWater,
              AdaptiveTCTaskPolicy(effectiveCutoff(Cfg.Cutoff, Cfg.NumWorkers))
                  .Fsm.maxOwnerPushes())
        << Where;
  }
}

namespace {

/// Leaves below (S, Depth) of \p P, with \p Q expanding its own node at
/// the same depth (from QPath, one of Q's root-to-leaf paths) between
/// P's numChoices and each of P's applyChoice calls. Both problems then
/// share this thread's memo entry for that depth throughout.
long long leavesAgainstRival(const SyntheticTreeProblem &P,
                             SyntheticTreeProblem::State &S, int Depth,
                             const SyntheticTreeProblem &Q,
                             const SyntheticTreeProblem::State &QPath,
                             int QLen) {
  if (P.isLeaf(S, Depth))
    return 1;
  long long Leaves = 0;
  const int N = P.numChoices(S, Depth);
  for (int K = 0; K < N; ++K) {
    if (Depth < QLen)
      (void)Q.numChoices(QPath, Depth);
    P.applyChoice(S, Depth, K);
    Leaves += leavesAgainstRival(P, S, Depth + 1, Q, QPath, QLen);
  }
  return Leaves;
}

/// Q's first-child path from the root, and its length.
SyntheticTreeProblem::State firstChildPath(const SyntheticTreeProblem &Q,
                                           int &Len) {
  SyntheticTreeProblem::State S = Q.makeRoot();
  Len = 0;
  while (!Q.isLeaf(S, Len)) {
    (void)Q.numChoices(S, Len);
    Q.applyChoice(S, Len, 0);
    ++Len;
  }
  return S;
}

} // namespace

TEST(SyntheticTree, MemoIsPerInstance) {
  // Each thread memoizes its last expansion per depth. Two problems that
  // share a seed have the same root (seed, size) key but different
  // children, so an entry that did not carry the instance would hand one
  // problem the other's children.
  auto Spec = [](const char *Preset) {
    TreeSpec T = SimTree::preset(Preset, 5'000);
    T.Seed = 0x5EED;
    return T;
  };
  SyntheticTreeProblem A(Spec("tree2l"));
  SyntheticTreeProblem B(Spec("tree3l"));
  const long long ExpectA = A.expectedLeaves();
  const long long ExpectB = B.expectedLeaves();
  ASSERT_NE(ExpectA, ExpectB);

  int LenA = 0, LenB = 0;
  const SyntheticTreeProblem::State PathA = firstChildPath(A, LenA);
  const SyntheticTreeProblem::State PathB = firstChildPath(B, LenB);
  SyntheticTreeProblem::State SA = A.makeRoot();
  SyntheticTreeProblem::State SB = B.makeRoot();
  EXPECT_EQ(leavesAgainstRival(A, SA, 0, B, PathB, LenB), ExpectA);
  EXPECT_EQ(leavesAgainstRival(B, SB, 0, A, PathA, LenA), ExpectB);

  SchedulerConfig Cfg;
  Cfg.Kind = SchedulerKind::AdaptiveTC;
  Cfg.NumWorkers = 4;
  for (SyntheticTreeProblem *P : {&A, &B, &A}) {
    SyntheticTreeProblem::State Root = P->makeRoot();
    EXPECT_EQ(runSequential(*P, Root), P->expectedLeaves());
    EXPECT_EQ(runProblem(*P, P->makeRoot(), Cfg).Value, P->expectedLeaves());
  }

  // A new problem built where a freed one lived (same address, same root
  // key) must not read the freed one's expansions.
  alignas(SyntheticTreeProblem) unsigned char Storage[sizeof(
      SyntheticTreeProblem)];
  auto *First = new (Storage) SyntheticTreeProblem(Spec("tree3l"));
  SyntheticTreeProblem::State Root = First->makeRoot();
  EXPECT_EQ(runSequential(*First, Root), ExpectB);
  First->~SyntheticTreeProblem();
  auto *Second = new (Storage) SyntheticTreeProblem(Spec("tree1l"));
  ASSERT_EQ(static_cast<void *>(Second), static_cast<void *>(First));
  const long long ExpectSecond = Second->expectedLeaves();
  ASSERT_NE(ExpectSecond, ExpectB);
  Root = Second->makeRoot();
  EXPECT_EQ(runSequential(*Second, Root), ExpectSecond);
  EXPECT_EQ(runProblem(*Second, Second->makeRoot(), Cfg).Value, ExpectSecond);
  Second->~SyntheticTreeProblem();
}

//===----------------------------------------------------------------------===//
// Kernel / policy layering invariants
//===----------------------------------------------------------------------===//

// Every tree node runs under exactly one code version, so the kernel's
// accounting must partition the tree for every task-creation policy:
// real tasks + fake tasks = tree nodes, and every steal attempt resolves
// to a steal or a fail. This is the cross-policy
// uniformity the shared WorkerRuntime guarantees.
TEST(PolicyMatrix, TaskAccountingPartitionsTheTree) {
  const SchedulerKind Kinds[] = {SchedulerKind::Cilk,
                                 SchedulerKind::CilkSynched,
                                 SchedulerKind::Cutoff,
                                 SchedulerKind::AdaptiveTC};
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

  for (SchedulerKind Kind : Kinds) {
    SchedulerConfig Cfg;
    Cfg.Kind = Kind;
    Cfg.NumWorkers = 4;
    const std::string What = schedulerKindName(Kind);

    auto RN = runProblem(NQ, NQueensArray::makeRoot(9), Cfg);
    EXPECT_EQ(RN.Value, NQExpected) << What;
    EXPECT_EQ(RN.Stats.TasksCreated + RN.Stats.FakeTasks,
              static_cast<std::uint64_t>(NQProfile.Nodes))
        << What << ": node accounting does not partition the tree";
    EXPECT_EQ(RN.Stats.StealAttempts, RN.Stats.Steals + RN.Stats.StealFails)
        << What;

    auto RS = runProblem(SU, Sudoku::makeInstance("balance"), Cfg);
    EXPECT_EQ(RS.Value, SUExpected) << What;
    EXPECT_EQ(RS.Stats.TasksCreated + RS.Stats.FakeTasks,
              static_cast<std::uint64_t>(SUProfile.Nodes))
        << What << ": node accounting does not partition the tree";
    EXPECT_EQ(RS.Stats.StealAttempts, RS.Stats.Steals + RS.Stats.StealFails)
        << What;
  }
}

// The check version's counters are batched per fake-task subtree, so
// their totals must stay exact, not merely positive. At one worker with
// cut-off 0 need_task never fires and every child of the root enters a
// fake-task subtree: the root is the only real task, every other node is
// a fake task, and every fake node polls once per applied child — i.e.
// every fake node but the subtree entries is one poll.
TEST(CheckPath, ExactAccountingForEveryRegistryProblem) {
  for (const std::string &Kind : problemRegistryKinds()) {
    ProblemRunner Runner;
    std::string Err;
    ASSERT_TRUE(makeProblemRunner(Kind, 0, Runner, Err)) << Err;
    const TreeProfile Shape = Runner.Profile();

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

//===----------------------------------------------------------------------===//
// Steal decisions (core/kernel/StealDecisions.h), shared with the simulator
//===----------------------------------------------------------------------===//

TEST(StealDecisions, ChoiceNeverReturnsSelf) {
  SplitMix64 Rng(42);
  for (int N : {2, 3, 5, 8})
    for (int Self = 0; Self < N; ++Self)
      for (int Draw = 0; Draw < 60; ++Draw) {
        const int V = chooseVictim(N, Self, Rng);
        ASSERT_NE(V, Self) << "N=" << N;
        ASSERT_GE(V, 0);
        ASSERT_LT(V, N);
      }
}

// The one victim ordering: every other worker is equally likely on every
// attempt, whoever the thief is.
TEST(StealDecisions, RandomChoiceIsUniformOverOtherWorkers) {
  constexpr int Draws = 20000;
  constexpr double Tolerance = 0.02;
  SplitMix64 Rng(7);
  for (int N : {2, 3, 5, 8})
    for (int Self = 0; Self < N; ++Self) {
      std::vector<int> Hits(static_cast<std::size_t>(N), 0);
      for (int Draw = 0; Draw < Draws; ++Draw)
        ++Hits[static_cast<std::size_t>(chooseVictim(N, Self, Rng))];
      EXPECT_EQ(Hits[static_cast<std::size_t>(Self)], 0) << "N=" << N;
      for (int V = 0; V < N; ++V) {
        if (V == Self)
          continue;
        const double Share =
            static_cast<double>(Hits[static_cast<std::size_t>(V)]) / Draws;
        EXPECT_NEAR(Share, 1.0 / (N - 1), Tolerance)
            << "N=" << N << " self " << Self << " victim " << V;
      }
    }
}

TEST(StealDecisions, NeedTaskRaisedPastTheThresholdRecordedOnlyOnCrossing) {
  for (int MaxStolen : {0, 1, 20, 500}) {
    int Crossings = 0;
    for (int StolenNum = 1; StolenNum <= MaxStolen + 5; ++StolenNum) {
      const NeedTaskSignal S = needTaskSignal(StolenNum, MaxStolen);
      EXPECT_EQ(S == NeedTaskSignal::Below, StolenNum <= MaxStolen)
          << "stolen_num " << StolenNum << ", max_stolen " << MaxStolen;
      Crossings += S == NeedTaskSignal::Crossing;
    }
    EXPECT_EQ(Crossings, 1) << "max_stolen " << MaxStolen;
  }
  EXPECT_EQ(needTaskSignal(20, 20), NeedTaskSignal::Below);
  EXPECT_EQ(needTaskSignal(21, 20), NeedTaskSignal::Crossing);
  EXPECT_EQ(needTaskSignal(22, 20), NeedTaskSignal::Past);
  // A threshold of INT_MAX is never crossed, and nothing overflows.
  EXPECT_EQ(needTaskSignal(INT_MAX, INT_MAX), NeedTaskSignal::Below);
  EXPECT_EQ(needTaskSignal(INT_MAX, INT_MAX - 1), NeedTaskSignal::Crossing);
}

TEST(StealDecisions, IdleLadderYieldsThroughTheSpinBudget) {
  for (int Budget : {0, 4, 21, 63})
    for (int Streak = 0; Streak <= Budget; ++Streak)
      EXPECT_EQ(backoffSleepUs(Streak, Budget), 0)
          << "streak " << Streak << ", budget " << Budget;
}

TEST(StealDecisions, IdleLadderSleepsDoublingPastTheBudgetUpToTheCap) {
  for (int Budget : {0, 63})
    for (int Past = 1; Past <= BackoffMaxShift + 4; ++Past)
      EXPECT_EQ(backoffSleepUs(Budget + Past, Budget),
                1 << std::min(Past - 1, BackoffMaxShift))
          << "budget " << Budget << ", streak " << Budget + Past;
  EXPECT_EQ(backoffSleepUs(64, 63), 1);
  EXPECT_EQ(backoffSleepUs(65, 63), 2);
  EXPECT_EQ(backoffSleepUs(66, 63), 4);
  EXPECT_EQ(backoffSleepUs(INT_MAX, 63), 128);
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
  // The kernel's ladder at 4 workers and the paper's max_stolen_num:
  // 63 yields, then sleeps that reach the 128us cap 8 failures later.
  const int Budget = idleSpinBudget(4, 20);
  EXPECT_EQ(Budget, 63);
  EXPECT_EQ(backoffSleepUs(Budget + 1, Budget), 1);
  EXPECT_EQ(backoffSleepUs(Budget + 8, Budget), 128);
  EXPECT_EQ(backoffSleepUs(Budget + 9, Budget), 128);
}

TEST(StealDecisions, SpinBudgetSaturatesInsteadOfOverflowing) {
  EXPECT_EQ(idleSpinBudget(2, INT_MAX), INT_MAX);
  EXPECT_EQ(idleSpinBudget(4, INT_MAX), INT_MAX);
  EXPECT_EQ(idleSpinBudget(INT_MAX, INT_MAX), INT_MAX);
  EXPECT_EQ(idleSpinBudget(4, 500), 1503); // PropertyTest's msn500 case
  // A saturated budget never sleeps, even at the largest streak.
  EXPECT_EQ(backoffSleepUs(INT_MAX, idleSpinBudget(4, INT_MAX)), 0);
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
